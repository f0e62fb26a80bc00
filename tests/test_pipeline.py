"""End-to-end pipeline: container round trips, knob semantics, stats."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ajpeg import pipeline
from ajpeg.energy import (
    QECurve,
    QEPoint,
    default_activity_model,
    estimate_image_energy,
    extract_qe_curve,
)
from ajpeg.entropy import read_container
from ajpeg.knobs import SKIP_LEVELS, TRUNC_LEVELS
from ajpeg.metrics import psnr, sad_pct, ssim
from ajpeg.ops import OpCounter
from ajpeg.pipeline import EncodeConfig, decode, encode, reconstruct, reconstruct_many
from ajpeg.raster import RasterImage


def _gray(rng, h=24, w=24, lo=0, hi=256):
    return RasterImage(rng.integers(lo, hi, size=(h, w), dtype=np.uint8))


def _smooth(rng, h=64, w=64):
    base = rng.integers(80, 176)
    yy, xx = np.mgrid[0:h, 0:w]
    img = base + 30 * np.sin(xx / 9.0) + 20 * np.cos(yy / 7.0)
    return RasterImage(np.clip(img, 0, 255).astype(np.uint8))


CONFIG_GRID = [
    EncodeConfig(),
    EncodeConfig(quality=90),
    EncodeConfig(quant_mode="div"),
    EncodeConfig(quant_mode="div", quality=75),
    EncodeConfig(trunc_level=2),
    EncodeConfig(skip_level=2),
    EncodeConfig(trunc_level=3, skip_level=4),
    EncodeConfig(dc_exact=True, quality=90),
    EncodeConfig(quality=10, trunc_level=1, skip_level=6),
]


@pytest.mark.parametrize("cfg", CONFIG_GRID, ids=[str(k) for k in range(len(CONFIG_GRID))])
def test_decode_equals_reconstruct_gray(cfg):
    rng = np.random.default_rng(21)
    img = _gray(rng)
    data, stats_e = encode(img, cfg)
    via_container = decode(data)
    direct, stats_r = reconstruct(img, cfg)
    assert via_container == direct
    assert stats_e == stats_r


@pytest.mark.parametrize("cfg", [EncodeConfig(), EncodeConfig(quant_mode="div"),
                                 EncodeConfig(trunc_level=1, skip_level=3)])
def test_decode_equals_reconstruct_color(cfg):
    rng = np.random.default_rng(22)
    img = RasterImage(rng.integers(0, 256, size=(20, 18, 3), dtype=np.uint8))
    data, _ = encode(img, cfg)
    direct, _ = reconstruct(img, cfg)
    assert decode(data) == direct


def test_standard_decode_matrix_matches_too():
    rng = np.random.default_rng(23)
    img = _gray(rng)
    data, _ = encode(img, EncodeConfig(quality=90))
    direct, _ = reconstruct(img, EncodeConfig(quality=90), decode_matrix="standard")
    assert decode(data, decode_matrix="standard") == direct


def test_non_multiple_of_eight_dimensions():
    rng = np.random.default_rng(24)
    img = _gray(rng, h=13, w=21)
    data, _ = encode(img)
    out = decode(data)
    assert (out.height, out.width) == (13, 21)
    assert out == reconstruct(img)[0]


def test_encode_is_deterministic():
    rng = np.random.default_rng(25)
    img = _gray(rng)
    cfg = EncodeConfig(skip_level=1, trunc_level=1)
    assert encode(img, cfg)[0] == encode(img, cfg)[0]


def test_constant_image_skips_all_but_first_block():
    img = RasterImage(np.full((64, 64), 133, dtype=np.uint8))
    for level in (0, 6):
        _, stats = reconstruct(img, EncodeConfig(skip_level=level))
        assert stats.blocks_processed == 1
        assert stats.blocks_skipped == 63
        assert stats.skip_enabled


def test_skip_disabled_stats():
    rng = np.random.default_rng(26)
    img = _gray(rng, 32, 32)
    _, stats = reconstruct(img, EncodeConfig())
    assert stats.blocks_skipped == 0
    assert stats.blocks_processed == 16
    assert not stats.skip_enabled
    assert stats.trunc_level == 0


def test_color_block_accounting():
    img = RasterImage(np.random.default_rng(27).integers(
        0, 256, size=(24, 24, 3), dtype=np.uint8))
    _, stats = reconstruct(img, EncodeConfig())
    # 9 luma blocks + two 12x12 chroma planes of 4 blocks each
    assert stats.total_blocks == 9 + 4 + 4


def test_skip_reference_chain_at_image_level():
    # one block row: constants 100, 103, 106, 103 with eps = 5
    vals = np.repeat(np.array([100, 103, 106, 103], dtype=np.uint8), 8)
    img = RasterImage(np.tile(vals, (8, 1)))
    out, stats = reconstruct(img, EncodeConfig(skip_level=1))
    assert stats.blocks_processed == 2 and stats.blocks_skipped == 2
    px = out.pixels
    assert np.array_equal(px[:, 8:16], px[:, 0:8])    # block 1 reuses block 0
    assert np.array_equal(px[:, 24:32], px[:, 16:24])  # block 3 reuses block 2


def test_truncation_coarsens_pixels():
    img = _smooth(np.random.default_rng(28))
    fine, _ = reconstruct(img, EncodeConfig(trunc_level=0))
    coarse, _ = reconstruct(img, EncodeConfig(trunc_level=4))
    assert psnr(img, fine) > psnr(img, coarse)
    # level-4 output pixels sit on a 16-step lattice before level unshift
    assert ssim(img, coarse) < ssim(img, fine)


def test_reconstruction_quality_sanity():
    img = _smooth(np.random.default_rng(29))
    out, _ = reconstruct(img, EncodeConfig(quality=50))
    assert psnr(img, out) > 25.0
    assert ssim(img, out) > 0.8


def test_dc_exact_changes_dc_path():
    img = _smooth(np.random.default_rng(30))
    plain, _ = reconstruct(img, EncodeConfig(quality=90))
    exact, _ = reconstruct(img, EncodeConfig(quality=90, dc_exact=True))
    assert plain != exact  # Q90 DC divisor 3 is not a power of two
    data, _ = encode(img, EncodeConfig(quality=90, dc_exact=True))
    assert decode(data) == exact


def test_custom_qmatrix_override():
    img = _smooth(np.random.default_rng(31))
    flat = np.full((8, 8), 16, dtype=np.int64)
    cfg = EncodeConfig(qmatrix=flat)
    data, _ = encode(img, cfg)
    assert decode(data) == reconstruct(img, cfg)[0]


def test_qmatrix_is_an_immutable_value():
    q = np.full((8, 8), 16, dtype=np.int64)
    cfg = EncodeConfig(qmatrix=q)
    assert cfg == EncodeConfig(qmatrix=q.copy())
    assert hash(cfg) == hash(EncodeConfig(qmatrix=q.tolist()))
    with pytest.raises(TypeError):
        cfg.qmatrix[0, 0] = 0
    q[0, 0] = 0  # the caller's array is not shared with the config
    cfg.divisor_matrix()[0, 0] = 0  # nor is the returned matrix
    assert np.array_equal(cfg.divisor_matrix(), np.full((8, 8), 16))


def test_qmatrix_entries_must_be_integral():
    for value in (16.7, 1.1, 255.5):
        with pytest.raises(ValueError, match="integer entries"):
            EncodeConfig(qmatrix=np.full((8, 8), value))
    cfg = EncodeConfig(qmatrix=np.full((8, 8), 16.0))
    assert cfg == EncodeConfig(qmatrix=np.full((8, 8), 16, dtype=np.int64))


def test_shift_encode_uses_no_multiplies():
    rng = np.random.default_rng(32)
    img = _gray(rng, 32, 32)
    ops = OpCounter()
    encode(img, EncodeConfig(trunc_level=1, skip_level=2, dc_exact=True), ops)
    assert ops.muls == 0
    assert ops.addsub > 0 and ops.shifts > 0


def test_config_validation():
    for kw in (
        dict(quality=0),
        dict(quality=100),
        dict(quant_mode="fast"),
        dict(trunc_level=5),
        dict(skip_level=7),
        dict(dc_exact=True, quant_mode="div"),
        dict(qmatrix=np.zeros((8, 8), dtype=np.int64)),
        dict(qmatrix=np.full((4, 4), 16, dtype=np.int64)),
        dict(dc_exact=True, qmatrix=np.full((8, 8), 16, dtype=np.int64)),
        dict(qmatrix=np.full((8, 8), np.nan)),
        dict(qmatrix=np.full((8, 8), np.inf)),
        dict(qmatrix=np.full((8, 8), -np.inf)),
    ):
        with warnings.catch_warnings(), pytest.raises(ValueError):
            warnings.simplefilter("error")
            EncodeConfig(**kw)


def test_decode_matrix_validation():
    img = RasterImage(np.full((8, 8), 100, dtype=np.uint8))
    data, _ = encode(img)
    with pytest.raises(ValueError, match="decode_matrix"):
        decode(data, decode_matrix="inverse")
    with pytest.raises(ValueError, match="decode_matrix"):
        reconstruct(img, EncodeConfig(), decode_matrix="inverse")


def test_oversized_dimensions_rejected():
    img = RasterImage(np.zeros((1, 8), dtype=np.uint8))
    ok, _ = encode(img)  # minimal size passes
    assert decode(ok).width == 8
    big = RasterImage(np.zeros((1, 70000), dtype=np.uint8))
    with pytest.raises(ValueError, match="container limit"):
        encode(big)


def test_decode_inverts_only_coded_blocks(corpus, monkeypatch):
    # a skipped block gathers its reference's pixels rather than a second IDCT
    img = RasterImage(np.stack([corpus[i].pixels for i in (1, 6, 11)], axis=-1))
    cfg = EncodeConfig(trunc_level=2, skip_level=3)
    data, stats = encode(img, cfg)
    direct, _ = reconstruct(img, cfg)
    coded = sum(int(np.count_nonzero(~s.skip_flags)) for s in read_container(data)[1])
    assert coded == stats.blocks_processed < stats.total_blocks
    inverted = []
    idct = pipeline.ref_idct_2d
    monkeypatch.setattr(pipeline, "ref_idct_2d", lambda c: inverted.append(len(c)) or idct(c))
    assert decode(data) == direct
    assert sum(inverted) == coded


def test_decode_memory_is_bounded_by_output():
    # every block but the first is skipped: the decoder inverts one block
    # and gathers uint8 pixels, with no per-block coefficient or float buffer
    img = RasterImage(np.full((1024, 1024), 77, dtype=np.uint8))
    cfg = EncodeConfig(skip_level=0)
    data, stats = encode(img, cfg)
    assert stats.blocks_processed == 1
    tracemalloc.start()
    try:
        out = decode(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == reconstruct(img, cfg)[0]
    assert peak < 8 * out.pixels.nbytes


# A custom table with a non-power-of-two DC divisor and a few unit entries.
_CUSTOM_Q = np.clip(np.add.outer(np.arange(8), np.arange(8)) * 9 + 1, 1, 255)


def _image(shape, color, amp, seed):
    """A flat image plus noise of +-amp: small amp lets blocks skip."""
    rng = np.random.default_rng(seed)
    size = (*shape, 3) if color else shape
    noise = rng.integers(-amp, amp + 1, size=size)
    return RasterImage(np.clip(rng.integers(40, 216) + noise, 0, 255).astype(np.uint8))


@st.composite
def _config_runs(draw):
    """Configs in runs that share everything but skip_level, so the list
    mixes groups (a base may recur after another one)."""
    configs = []
    for _ in range(draw(st.integers(1, 3))):
        quant = draw(st.sampled_from(["shift", "div", "dc_exact"]))
        base = EncodeConfig(
            quality=draw(st.sampled_from([10, 50, 90])),
            quant_mode="div" if quant == "div" else "shift",
            dc_exact=quant == "dc_exact",
            trunc_level=draw(st.sampled_from(TRUNC_LEVELS)),
            qmatrix=None if quant == "dc_exact" else draw(st.sampled_from([None, _CUSTOM_Q])),
        )
        levels = draw(st.lists(st.sampled_from([None, *SKIP_LEVELS]), min_size=1, max_size=5))
        configs += [replace(base, skip_level=lv) for lv in levels]
    return configs


_LOOP = [EncodeConfig(skip_level=lv) for lv in [None, *SKIP_LEVELS]]
_MIXED = [
    *_LOOP[:3],
    EncodeConfig(quant_mode="div", trunc_level=4, qmatrix=_CUSTOM_Q, skip_level=6),
    EncodeConfig(dc_exact=True, quality=90, trunc_level=1, skip_level=2),
    _LOOP[1],
]


@settings(max_examples=40)
@given(
    shape=st.sampled_from([(37, 53), (8, 8), (1, 8), (13, 21)]),
    color=st.booleans(),
    amp=st.sampled_from([0, 3, 12, 60]),
    seed=st.integers(0, 2**16),
    configs=_config_runs(),
    decode_matrix=st.sampled_from(["matched", "standard"]),
)
@example(shape=(37, 53), color=False, amp=3, seed=1, configs=_MIXED, decode_matrix="matched")
@example(shape=(37, 53), color=True, amp=12, seed=2, configs=_MIXED, decode_matrix="standard")
@example(shape=(8, 8), color=False, amp=3, seed=3, configs=_LOOP, decode_matrix="matched")
@example(shape=(8, 8), color=True, amp=3, seed=4, configs=_MIXED, decode_matrix="standard")
@example(shape=(1, 8), color=False, amp=60, seed=5, configs=_MIXED, decode_matrix="matched")
@example(shape=(1, 8), color=True, amp=0, seed=6, configs=_LOOP, decode_matrix="standard")
def test_reconstruct_many_equals_reconstruct_per_config(
    shape, color, amp, seed, configs, decode_matrix
):
    img = _image(shape, color, amp, seed)
    shared = list(reconstruct_many(img, configs, decode_matrix))
    assert shared == [reconstruct(img, cfg, decode_matrix) for cfg in configs]


def test_reconstruct_many_is_lazy_and_streams_in_order():
    img = _image((37, 53), False, 3, 7)
    results = reconstruct_many(img, iter(_MIXED))
    for cfg in _MIXED:
        assert next(results) == reconstruct(img, cfg)
    with pytest.raises(StopIteration):
        next(results)


def test_reconstruct_many_validates_before_work(monkeypatch):
    def no_tiling(*args, **kwargs):
        raise AssertionError("tiled before the arguments were checked")

    monkeypatch.setattr(pipeline, "tile_blocks", no_tiling)
    monkeypatch.setattr(pipeline, "skip_flags", no_tiling)
    img = _image((16, 16), True, 3, 8)
    with pytest.raises(ValueError, match="decode_matrix"):
        reconstruct_many(img, _LOOP, decode_matrix="inverse")
    for empty in ([], iter(())):
        with pytest.raises(ValueError, match="configs"):
            reconstruct_many(img, empty)


def test_shared_skip_levels_transform_each_block_once(corpus):
    # skip off processes every block, so the union is the whole plane: the
    # shared pass costs one skip-off reconstruct plus one band per reference
    # candidate (128 lanes for blocks 0 .. n-2) for each of the 7 levels
    img = corpus[5]
    single, shared = OpCounter(), OpCounter()
    reconstruct(img, EncodeConfig(), ops=single)
    list(reconstruct_many(img, _LOOP, ops=shared))
    assert shared.addsub == single.addsub + len(SKIP_LEVELS) * 128 * (4096 - 1)
    assert (shared.shifts, shared.muls) == (single.shifts, 0)
    assert shared.kernel_calls == single.kernel_calls


@pytest.mark.parametrize(
    "cfg, addsub, shifts",
    [
        (EncodeConfig(), 4259840, 3932160),
        (EncodeConfig(trunc_level=2, skip_level=3), 3672768, 2920448),
        (EncodeConfig(dc_exact=True), 4263936, 3940352),
    ],
    ids=["skip-off", "skip3-trunc2", "exact-dc"],
)
def test_reconstruct_op_census_pinned(corpus, cfg, addsub, shifts):
    # totals generated before reconstruct shared work across configs: one
    # config's census is the skip bands plus truncate, FDCT and quantize on
    # its processed blocks only
    ops = OpCounter()
    reconstruct(corpus[5], cfg, ops=ops)
    assert (ops.addsub, ops.shifts, ops.muls) == (addsub, shifts, 0)


def _per_config_curve(kind, images, base, model):
    """extract_qe_curve as one reconstruct call per level and image."""
    if kind == "loop":
        levels = SKIP_LEVELS
        configs = [replace(base, skip_level=lv) for lv in levels]
    else:
        levels = TRUNC_LEVELS
        configs = [replace(base, trunc_level=lv) for lv in levels]
    sums_d = np.zeros(len(levels))
    sums_e = np.zeros(len(levels))
    for img in images:
        ref_img, ref_stats = reconstruct(img, configs[0])
        ref_energy = estimate_image_energy(model, ref_stats)
        for idx, cfg in enumerate(configs):
            out, stats = reconstruct(img, cfg)
            sums_d[idx] += sad_pct(ref_img, out)
            sums_e[idx] += estimate_image_energy(model, stats) / ref_energy
    mean_d = sums_d / len(images)
    mean_e = sums_e / len(images)
    mean_d[0] = 0.0
    mean_e[0] = 1.0
    points = [QEPoint(lv, float(d), float(e)) for lv, d, e in zip(levels, mean_d, mean_e)]
    return QECurve(kind, points)


@pytest.mark.parametrize("kind", ["loop", "trunc"])
@pytest.mark.parametrize(
    "base",
    [EncodeConfig(), EncodeConfig(quant_mode="div", quality=75, trunc_level=1, skip_level=2)],
    ids=["default", "div-trunc1-skip2"],
)
def test_qe_curve_equals_per_config_loop(corpus, kind, base):
    model = default_activity_model()
    images = [corpus[9], _image((37, 53), True, 3, 9)]
    curve, _ = extract_qe_curve(kind, images, base, model=model)
    assert curve == _per_config_curve(kind, images, base, model)
