"""ajpeg benchmark: codec and knob-sweep workloads in a closed loop.

Run from the repository root:

    python3 bench/run.py --workload codec-rgb-knobs --seed 7 --seconds 45 --trace 0

One client in one process, with no extra threads, runs the workload's op on
one image at a time; each op starts when the previous one has returned (a
closed loop). Ops walk a seeded corpus of 512x512 images in whole passes,
so every run weighs each image equally. The corpus has an odd number of
images, so the median op is the middle-complexity image's.

Every op's output is checked outside the timed region (see workloads.py)
and compared with the digests of the same input's first op; with the
golden seed, also with the digests in golden.json. Each set-up also
replays the golden seed's middle image as its warm-up, so every run
checks one golden output. A failed check or an exception counts as a
failed op and the run goes on.

--trace 0 prints the end-to-end metrics, measured untraced. --trace 1
prints the per-layer metrics: passes alternate traced and untraced
(ABBA), the traced ones recording spans (spans.py) that are written to
bench/out/<workload>.trace.npz, and one more op of the middle image runs
under an OpCounter. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--write-golden rewrites the workload's entry in golden.json from one
checked pass over the golden seed's corpus.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
GOLDEN_SEED = 1
SETUP_REPEATS = 3
PIXELS = 512 * 512


def _median_and_tail(samples: list[float]) -> tuple[float, float, int]:
    """Median; and the highest sample with at least 10 samples beyond it,
    or the upper median when there are fewer than 21, with its rank."""
    xs = sorted(samples)
    rank = max(len(xs) - 11, len(xs) // 2)
    return statistics.median(xs), xs[rank], rank + 1


class Loop:
    """Runs ops, checks their outputs and keeps the tallies."""

    def __init__(self, op, pnms: list[bytes], golden: list | None):
        self.op = op
        self.pnms = pnms
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, list[str]] = {}
        self.values: dict[int, tuple[float, float]] = {}

    def fail(self, index: int, what: str):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {f'image {index}' if index >= 0 else 'warm-up'}: {what}", file=sys.stderr)

    def check(self, index: int, result, golden: list[str] | None) -> str | None:
        """Output checks for one op of corpus image ``index`` (-1 for the
        warm-up); returns what failed, if anything."""
        digests = self.op.digests(result)
        if golden is not None and digests != golden:
            return "output differs from its golden digest"
        if index < 0:
            return None
        values = self.op.verify(self.pnms[index], result)
        if digests != self.first.setdefault(index, digests):
            return "output differs from the same input's first op"
        self.values.setdefault(index, values)
        return None

    def one(self, index: int, pnm: bytes, golden=None, tracer=None) -> float:
        """One op, checked; returns its wall time in seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.op.run(pnm)
            else:
                with tracer.op(self.attempted):
                    result = self.op.run(pnm)
        except Exception as exc:  # a failing op is tallied; the run goes on
            self.fail(index, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        try:
            problem = self.check(index, result, golden)
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.fail(index, problem)
        return elapsed

    def passes(self, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Whole passes over the corpus for about ``seconds``; returns the
        untraced and traced op times. With a tracer, passes go traced,
        untraced, untraced, traced (ABBA) and stop after a whole pair."""
        golden = self.golden or [None] * len(self.pnms)
        untraced: list[float] = []
        traced: list[float] = []
        pass_s: list[float] = []
        start = time.perf_counter()
        p = 0
        while p == 0 or (tracer is not None and p % 2) or (
            time.perf_counter() - start + statistics.mean(pass_s) / 2 < seconds
        ):
            t = time.perf_counter()
            on = tracer if tracer is not None and p % 4 in (0, 3) else None
            for i, pnm in enumerate(self.pnms):
                (untraced if on is None else traced).append(self.one(i, pnm, golden[i], on))
            pass_s.append(time.perf_counter() - t)
            p += 1
        return untraced, traced


def _setup(workloads, inputs, name: str, seed: int):
    """Generate the corpus, build the op with its energy model, and pick the
    warm-up input: the golden seed's middle image."""
    w = workloads.WORKLOADS[name]
    pnms = inputs.corpus(w.kind, seed, w.count)
    mid = w.count // 2
    canary = pnms[mid] if seed == GOLDEN_SEED else inputs.image(w.kind, GOLDEN_SEED, mid, w.count)
    return pnms, workloads.make_op(name), canary


def _end_to_end(loop: Loop, times: list[float], setup_s: float, peak: int) -> dict:
    p50, tail, rank = _median_and_tail(times)
    print(f"# {len(times)} ops; op_ms_tail is sample {rank} of {len(times)}"
          f" (p{100 * rank / len(times):.0f})")
    psnrs, energies = zip(*loop.values.values()) if loop.values else ((0.0,), (0.0,))
    return {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (1e3 * p50, "ms"),
        "op_ms_tail": (1e3 * tail, "ms"),
        "mpix_s": (PIXELS * len(times) / sum(times) / 1e6, "Mpixel/s"),
        "psnr_db": (statistics.mean(psnrs), "dB"),
        "relative_energy": (statistics.mean(energies), "1/block"),
        "peak_mem_mb": (peak / 1e6, "MB"),
    }


def _per_layer(workloads, tracer, untraced, traced, census) -> dict:
    s = tracer.summary()
    wall, n, c = s["op_s"], s["ops"], tracer.counts
    m = {f"{k}.self_frac": (s["self_s"][k] / wall, "ratio") for k in workloads.LAYERS}
    for k in ("pipeline.encode", "pipeline.decode", "pipeline.reconstruct"):
        m[f"{k}.total_frac"] = (s["total_s"][k] / wall, "ratio")
    coded = c.get("entropy.blocks_coded", 0)
    calls = c.get("skip_check.calls", 0)
    m.update({
        "entropy.blocks_coded": (coded / n, "count/op"),
        "entropy.payload_bits_per_block": (c.get("entropy.payload_bits", 0) / coded if coded else 0.0, "bit/block"),
        "entropy.container_bits_per_pixel": (c.get("entropy.container_bits", 0) / (n * PIXELS), "bit/pixel"),
        "knobs.skip_check.calls": (calls / n, "count/op"),
        "knobs.skip_hit_ratio": (c.get("skip_check.hits", 0) / calls if calls else 0.0, "ratio"),
        "fdct.fdct_2d.blocks": (c.get("fdct.blocks", 0) / n, "count/op"),
        "fdct.ref_idct_2d.blocks": (c.get("idct.blocks", 0) / n, "count/op"),
        "ops.addsub_per_block": (census["ops.addsub_per_block"], "lanes/block"),
        "ops.shifts_per_block": (census["ops.shifts_per_block"], "lanes/block"),
        "ops.muls": (census["ops.muls"], "lanes"),
        "ops.skip_check_addsub_per_call": (census["ops.skip_check_addsub_per_call"], "lanes/call"),
        "ops.skip_check_ops_model": (census["ops.skip_check_ops_model"], "lanes/call"),
        "trace.op_ms": (1e3 * wall / n, "ms"),
        "trace.overhead_frac": (sum(traced) / sum(untraced) - 1.0, "ratio"),
        "trace.unattributed_frac": (s["unattributed_s"] / wall, "ratio"),
        "trace.spans_per_op": (s["spans"] / n, "count/op"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a name from workloads.WORKLOADS")
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    if not (ROOT / "src" / "ajpeg" / "__init__.py").is_file():
        print(f"error: no ajpeg sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import spans
    import workloads
    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    goldens = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"seed": GOLDEN_SEED}
    if goldens["seed"] != GOLDEN_SEED:
        print("error: golden.json was made with another golden seed", file=sys.stderr)
        return 2
    golden = goldens.get(args.workload)
    if args.write_golden:
        golden = None
        args.seed = GOLDEN_SEED

    # Set-up runs several times and reports the median; each set-up's
    # warm-up op is checked against its golden digests and counts as an op.
    setup_runs = []
    attempted = failed = 0
    for _ in range(1 if args.write_golden else SETUP_REPEATS):
        t = time.perf_counter()
        pnms, op, canary = _setup(workloads, inputs, args.workload, args.seed)
        loop = Loop(op, pnms, golden if args.seed == GOLDEN_SEED else None)
        loop.one(-1, canary, golden[len(pnms) // 2] if golden else None)
        setup_runs.append(time.perf_counter() - t)
        attempted += loop.attempted
        failed += loop.failed
    loop.attempted, loop.failed = attempted, failed
    setup_s = import_s + statistics.median(setup_runs)

    if args.write_golden:
        loop.passes(0.0)
        if loop.failed:
            return 1
        goldens[args.workload] = [loop.first[i] for i in range(len(pnms))]
        GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(pnms)} golden entries for {args.workload}", file=sys.stderr)
        return 0
    if golden is None:
        print(f"error: golden.json has no entry for {args.workload}", file=sys.stderr)

    middle = pnms[len(pnms) // 2]
    if args.trace:
        tracer = spans.Tracer(workloads.LAYERS, workloads.HOOKS)
        untraced, traced = loop.passes(args.seconds, tracer)
        census = workloads.op_census(loop.op, middle)
        if census["ops.muls"]:
            loop.fail(len(pnms) // 2, "the encode side executed multiplies")
        tracer.write(BENCH / "out" / f"{args.workload}.trace.npz")
        metrics = _per_layer(workloads, tracer, untraced, traced, census)
    else:
        untraced, _ = loop.passes(args.seconds)
        # Peak memory of one op, in a pass of its own: tracemalloc slows
        # every allocation, so it stays out of the timed ops.
        tracemalloc.start()
        try:
            loop.op.run(middle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        metrics = _end_to_end(loop, untraced, setup_s, peak)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0 and golden is not None,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
