"""Byte-identical outputs: replays the benchmark's golden digests.

bench/golden.json holds SHA-256 digests of the containers and decoded
images of the codec-rgb-knobs workload and of the curves and tuner picks
of the sweep-gray workload, for the golden seed. Every image of the codec
workload and the middle image of the sweep workload are replayed here, so
a refactor or speed-up that changes any coded byte or decoded pixel fails
the suite. The bench modules are loaded read-only from their files.

The benchmark's tracer wraps program functions under the module attributes
their callers look up (workloads.LAYERS). Each of those names must exist, or
a traced run fails while untraced runs and the rest of this suite pass. And
each must still be called through that attribute: a refactor that moves a
traced call elsewhere leaves the name resolving while its layer's spans, and
every per-layer figure read from them, silently drop to zero.
"""

import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ajpeg import pipeline, raster

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


inputs = _load("inputs")
spans = _load("spans")
workloads = _load("workloads")


def _replay(name, index):
    w = workloads.WORKLOADS[name]
    op = workloads.make_op(name)
    pnm = inputs.image(w.kind, GOLDEN["seed"], index, w.count)
    return op.digests(op.run(pnm))


@pytest.mark.parametrize("index", range(workloads.WORKLOADS["codec-rgb-knobs"].count))
def test_codec_rgb_knobs_matches_golden(index):
    assert _replay("codec-rgb-knobs", index) == GOLDEN["codec-rgb-knobs"][index]


def test_sweep_gray_middle_image_matches_golden():
    mid = workloads.WORKLOADS["sweep-gray"].count // 2
    assert _replay("sweep-gray", mid) == GOLDEN["sweep-gray"][mid]


def test_traced_layer_names_resolve():
    missing = [
        f"{module.__name__}.{attr}"
        for names in workloads.LAYERS.values()
        for module, attr in names
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


# Wraps pipeline.skip_check, which the run-at-a-time skip scan no longer calls.
KNOWN_DEAD_LAYERS = {"knobs.skip_check"}


def test_traced_layers_record_spans():
    rng = np.random.default_rng(11)
    tracer = spans.Tracer(workloads.LAYERS, workloads.HOOKS)
    ops = [("codec-rgb-knobs", (24, 40, 3)), ("sweep-gray", (24, 40))]
    for op_id, (name, shape) in enumerate(ops):
        op = workloads.make_op(name)
        img = raster.RasterImage(rng.integers(0, 256, size=shape, dtype=np.uint8))
        pnm = raster.write_pnm(img)
        with tracer.op(op_id):
            op.verify(pnm, op.run(pnm))
    recorded = np.bincount(np.frombuffer(tracer.name_id, dtype=np.int32), minlength=len(tracer.names))
    silent = {name for name, n in zip(tracer.names, recorded) if n == 0}
    assert silent == KNOWN_DEAD_LAYERS


def test_codec_op_working_set():
    # the codec workload's op, PNM bytes to PNM bytes, on the golden seed's
    # median 512x512 RGB image: parse_pnm views the file's body, so no copy
    # of the input image sits under decode's peak (2.25x the image); one
    # took the op to 2.85x
    w = workloads.WORKLOADS["codec-rgb-knobs"]
    data = inputs.image(w.kind, GOLDEN["seed"], w.count // 2, w.count)
    tracemalloc.start()
    try:
        raster.write_pnm(pipeline.decode(pipeline.encode(raster.parse_pnm(data), w.cfg)[0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 512 * 512 * 3


def test_sweep_op_working_set():
    # the sweep workload's op on the golden seed's median 512x512 gray
    # image: each curve holds its reference and one level's image at a
    # time, so the truncation round trip sets the peak (7.46x the image
    # warm, 7.52x on a first call); a level that lived on through the next
    # one's round trip took the op to 8.46x
    w = workloads.WORKLOADS["sweep-gray"]
    data = inputs.image(w.kind, GOLDEN["seed"], w.count // 2, w.count)
    op = workloads.make_op("sweep-gray")
    tracemalloc.start()
    try:
        op.run(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.0 * 512 * 512
