"""The benchmark's workloads: one op each, its output checks and its op census.

Ops call every layer through the module attribute the program itself uses
(``pipeline.encode``, ``energy.extract_qe_curve``), so the span tracer in
``spans.py`` can wrap the same names the program's callers look up.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from ajpeg import energy, entropy, metrics, pipeline, raster, tuner
from ajpeg.knobs import SKIP_LEVELS, TRUNC_LEVELS
from ajpeg.ops import OpCounter

# Degradation bounds the sweep workload tunes for, around the knee of the
# synthetic corpus's curves.
TUNER_BOUNDS = (0.005, 0.01, 0.02, 0.05)


class Mismatch(Exception):
    """An op's output failed a correctness check."""


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Codec:
    """PNM bytes -> encode -> AJPG container -> decode -> PNM bytes."""

    def __init__(self, cfg: pipeline.EncodeConfig, model: energy.EnergyModel):
        self.cfg = cfg
        self.model = model
        self._refs: dict[bytes, bytes] = {}

    def run(self, pnm: bytes):
        img = raster.parse_pnm(pnm)
        container, stats = pipeline.encode(img, self.cfg)
        out = raster.write_pnm(pipeline.decode(container))
        return container, stats, out

    def digests(self, result) -> list[str]:
        container, _, out = result
        return [_sha(container), _sha(out)]

    def verify(self, pnm: bytes, result) -> tuple[float, float]:
        """Checks decode(encode(x)) == reconstruct(x); returns (PSNR in dB,
        estimated energy per block)."""
        _, stats, out = result
        if pnm not in self._refs:
            ref, _ = pipeline.reconstruct(raster.parse_pnm(pnm), self.cfg)
            self._refs[pnm] = raster.write_pnm(ref)
        if out != self._refs[pnm]:
            raise Mismatch("decode(encode(x)) differs from reconstruct(x)")
        psnr = metrics.psnr(raster.parse_pnm(pnm), raster.parse_pnm(out))
        return psnr, energy.estimate_image_energy(self.model, stats) / stats.total_blocks

    def encode_side(self, img, ops) -> list[energy.EnergyStats]:
        return [pipeline.encode(img, self.cfg, ops=ops)[1]]


class Sweep:
    """Loop and truncation QE curves of one image, then the greedy tuner
    and the exhaustive oracle at each of TUNER_BOUNDS."""

    def __init__(self, cfg: pipeline.EncodeConfig, model: energy.EnergyModel):
        self.cfg = cfg
        self.model = model
        self._psnr: dict[bytes, float] = {}

    def run(self, pnm: bytes):
        img = raster.parse_pnm(pnm)
        loop, _ = energy.extract_qe_curve("loop", [img], self.cfg, model=self.model)
        trunc, _ = energy.extract_qe_curve("trunc", [img], self.cfg, model=self.model)
        picks = []
        for bound in TUNER_BOUNDS:
            inp = tuner.TunerInput(loop, trunc, bound)
            picks.append((bound, tuner.tune(inp), tuner.exhaustive_oracle(inp)))
        return loop, trunc, picks

    def digests(self, result) -> list[str]:
        loop, trunc, picks = result
        tuned = "".join(t.to_json() + o.to_json() for _, t, o in picks)
        return [_sha(loop.to_csv() + trunc.to_csv() + tuned)]

    def verify(self, pnm: bytes, result) -> tuple[float, float]:
        """Checks the tuner's picks; returns (PSNR in dB of the sweep's
        level-0 reconstruction, mean relative energy of the curve points)."""
        loop, trunc, picks = result
        if [p.level for p in loop.points] != list(SKIP_LEVELS):
            raise Mismatch("loop curve does not cover every skip level")
        if [p.level for p in trunc.points] != list(TRUNC_LEVELS):
            raise Mismatch("trunc curve does not cover every truncation level")
        for bound, greedy, oracle in picks:
            if max(greedy.predicted_quality, oracle.predicted_quality) > bound:
                raise Mismatch("tuned point exceeds its degradation bound")
            if oracle.predicted_energy > greedy.predicted_energy:
                raise Mismatch("exhaustive oracle found less saving than the greedy tuner")
        if pnm not in self._psnr:
            src = raster.parse_pnm(pnm)
            self._psnr[pnm] = metrics.psnr(src, pipeline.reconstruct(src, self.cfg)[0])
        points = loop.points + trunc.points
        return self._psnr[pnm], sum(p.relative_energy for p in points) / len(points)

    def encode_side(self, img, ops) -> list[energy.EnergyStats]:
        configs = [dataclasses.replace(self.cfg, skip_level=lv) for lv in SKIP_LEVELS]
        configs += [dataclasses.replace(self.cfg, trunc_level=lv) for lv in TRUNC_LEVELS]
        return [pipeline.reconstruct(img, c, ops=ops)[1] for c in configs]


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str  # input kind, see inputs.corpus
    count: int  # images per pass; odd, so the median op is one image's
    op: type
    cfg: pipeline.EncodeConfig


WORKLOADS = {
    "codec-rgb-knobs": Workload(
        "rgb", 7, Codec,
        pipeline.EncodeConfig(quality=50, trunc_level=2, skip_level=3, dc_exact=True),
    ),
    "sweep-gray": Workload("gray", 5, Sweep, pipeline.EncodeConfig()),
}


def make_op(name: str):
    """A fresh op object with its own energy model (part of set-up)."""
    w = WORKLOADS[name]
    return w.op(w.cfg, energy.default_activity_model())


# Span name -> the (module, attribute) pairs its callers look it up by.
LAYERS = {
    "raster.parse_pnm": [(raster, "parse_pnm")],
    "raster.write_pnm": [(raster, "write_pnm")],
    "raster.tile_blocks": [(pipeline, "tile_blocks")],
    "raster.untile_blocks": [(pipeline, "untile_blocks")],
    "color.rgb_to_ycbcr": [(pipeline, "rgb_to_ycbcr")],
    "color.ycbcr_to_rgb": [(pipeline, "ycbcr_to_rgb")],
    "color.resample": [(pipeline, "downsample_420"), (pipeline, "upsample_420")],
    "knobs.skip_check": [(pipeline, "skip_check")],
    "knobs.truncate_block": [(pipeline, "truncate_block")],
    "fdct.fdct_2d": [(pipeline, "fdct_2d")],
    "quant.quantize": [
        (pipeline, "quantize_shift"), (pipeline, "quantize_div"), (pipeline, "quantize_dc_exact"),
    ],
    "entropy.encode_channel": [(entropy, "encode_channel")],
    "entropy.code_lengths": [(entropy, "code_lengths")],
    "entropy.container": [(entropy, "write_container"), (entropy, "read_container")],
    "entropy.decode_channel": [(entropy, "decode_channel")],
    "quant.dequantize": [(pipeline, "dequantize")],
    "fdct.ref_idct_2d": [(pipeline, "ref_idct_2d")],
    "pipeline.encode": [(pipeline, "encode")],
    "pipeline.decode": [(pipeline, "decode")],
    "pipeline.reconstruct": [(pipeline, "reconstruct")],
    "energy.extract_qe_curve": [(energy, "extract_qe_curve")],
    "metrics.sad_pct": [(metrics, "sad_pct")],
    "tuner.tune": [(tuner, "tune")],
    "tuner.exhaustive_oracle": [(tuner, "exhaustive_oracle")],
}


def _add(counts: dict, key: str, n: int):
    counts[key] = counts.get(key, 0) + int(n)


def _count_blocks(key: str):
    return lambda counts, args, result: _add(counts, key, np.size(args[0]) // 64)


def _count_skip_check(counts, args, hit):
    _add(counts, "skip_check.calls", 1)
    _add(counts, "skip_check.hits", hit)


def _count_channel(counts, args, stream):
    _add(counts, "entropy.blocks_coded", stream.block_count - np.count_nonzero(stream.skip_flags))
    _add(counts, "entropy.payload_bits", stream.bit_length)


def _count_container(counts, args, result):
    if isinstance(result, bytes):  # write_container; read_container returns a tuple
        _add(counts, "entropy.container_bits", 8 * len(result))


HOOKS = {
    "fdct.fdct_2d": _count_blocks("fdct.blocks"),
    "fdct.ref_idct_2d": _count_blocks("idct.blocks"),
    "knobs.skip_check": _count_skip_check,
    "entropy.encode_channel": _count_channel,
    "entropy.container": _count_container,
}


def op_census(op, pnm: bytes) -> dict:
    """Run the op's encode side under an OpCounter. Also measures the
    add/sub lanes of each skip_check call, which the energy model assumes
    to be EnergyModel.skip_check_ops."""
    counter = OpCounter()
    calls = lanes = 0
    skip_check = pipeline.skip_check

    def measured_skip_check(current, reference, epsilon, ops):
        nonlocal calls, lanes
        before = counter.addsub
        hit = skip_check(current, reference, epsilon, ops)
        calls += 1
        lanes += counter.addsub - before
        return hit

    pipeline.skip_check = measured_skip_check
    try:
        stats = op.encode_side(raster.parse_pnm(pnm), counter)
    finally:
        pipeline.skip_check = skip_check
    blocks = sum(s.total_blocks for s in stats)
    return {
        "ops.addsub_per_block": counter.addsub / blocks,
        "ops.shifts_per_block": counter.shifts / blocks,
        "ops.muls": counter.muls,
        "ops.skip_check_addsub_per_call": lanes / calls if calls else 0.0,
        "ops.skip_check_ops_model": op.model.skip_check_ops,
    }
