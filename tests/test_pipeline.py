"""End-to-end pipeline: container round trips, knob semantics, stats."""

import numpy as np
import pytest

from ajpeg.metrics import psnr, ssim
from ajpeg.ops import OpCounter
from ajpeg.pipeline import EncodeConfig, decode, encode, reconstruct
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
    ):
        with pytest.raises(ValueError):
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
