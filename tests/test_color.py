"""BT.601 color conversion and 4:2:0 resampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ajpeg.color import (
    _STRIP_ROWS,
    downsample_420,
    rgb_to_ycbcr,
    upsample_420,
    ycbcr_to_rgb,
)
from ajpeg.raster import RasterImage


# Whole-plane oracles: the conversions as they were before they ran in
# strips, with image-sized float64 and int64 temporaries.
def _round_half_up_clamp(x):
    return np.clip(np.floor(x + 0.5), 0, 255).astype(np.uint8)


def _whole_rgb_to_ycbcr(pixels):
    rgb = pixels.astype(np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return _round_half_up_clamp(y), _round_half_up_clamp(cb), _round_half_up_clamp(cr)


def _whole_ycbcr_to_rgb(y, cb, cr):
    y = y.astype(np.float64)
    cb = cb.astype(np.float64) - 128.0
    cr = cr.astype(np.float64) - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.stack([_round_half_up_clamp(c) for c in (r, g, b)], axis=-1)


def _nearest(plane, height, width):
    """A 4:2:0 plane upsampled to height x width: each sample repeated over
    its 2x2 cell, cropped at odd edges."""
    return plane.repeat(2, axis=0).repeat(2, axis=1)[:height, :width]


def _whole_420_to_rgb(y, cb, cr):
    """The whole-image inverse of a luma plane and its 4:2:0 chroma planes."""
    return _whole_ycbcr_to_rgb(y, *(_nearest(c, *y.shape) for c in (cb, cr)))


def _whole_downsample_420(plane):
    h, w = plane.shape
    padded = np.pad(plane, ((0, h % 2), (0, w % 2)), mode="edge").astype(np.int64)
    sums = padded.reshape(-(-h // 2), 2, -(-w // 2), 2).sum(axis=(1, 3))
    return ((sums + 2) // 4).astype(np.uint8)


def _one_pixel(r, g, b):
    return RasterImage(np.array([[[r, g, b]]], dtype=np.uint8))


@pytest.mark.parametrize(
    "rgb, ycc",
    [
        # hand-computed from the BT.601 full-range matrix, half-up rounding
        ((255, 0, 0), (76, 85, 255)),   # Cr 255.5 rounds up then clamps
        ((0, 255, 0), (150, 44, 21)),
        ((0, 0, 255), (29, 255, 107)),
        ((255, 255, 255), (255, 128, 128)),
        ((0, 0, 0), (0, 128, 128)),
    ],
)
def test_primary_colors(rgb, ycc):
    y, cb, cr = rgb_to_ycbcr(_one_pixel(*rgb))
    assert (int(y[0, 0]), int(cb[0, 0]), int(cr[0, 0])) == ycc


@given(st.integers(0, 255))
def test_gray_maps_to_neutral_chroma(g):
    # luma weights sum to exactly 1, chroma weights to exactly 0
    y, cb, cr = rgb_to_ycbcr(_one_pixel(g, g, g))
    assert int(y[0, 0]) == g
    assert int(cb[0, 0]) == 128 and int(cr[0, 0]) == 128


def test_rgb_to_ycbcr_rejects_gray_input():
    with pytest.raises(ValueError, match="RGB"):
        rgb_to_ycbcr(RasterImage(np.zeros((4, 4), dtype=np.uint8)))


@given(st.integers(0, 2**32 - 1))
def test_round_trip_of_one_color_cells_within_one(seed):
    # one color per 2x2 cell: downsampling keeps each cell's chroma exactly
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    img = RasterImage(cells.repeat(2, axis=0).repeat(2, axis=1))
    y, cb, cr = rgb_to_ycbcr(img)
    back = ycbcr_to_rgb(y, downsample_420(cb), downsample_420(cr))
    assert np.abs(img.pixels.astype(int) - back.pixels.astype(int)).max() <= 1


@pytest.mark.parametrize("shape", [(4, 4), (3, 2), (2, 3), (4, 5)])
def test_ycbcr_to_rgb_takes_420_chroma_only(shape):
    y = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="4:2:0"):
        ycbcr_to_rgb(y, np.zeros(shape, dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="4:2:0"):
        ycbcr_to_rgb(y, np.zeros((2, 2), dtype=np.uint8), np.zeros(shape, dtype=np.uint8))


def test_downsample_rounds_cell_mean_half_up():
    plane = np.array(
        [[1, 2, 0, 0],
         [3, 4, 0, 1],
         [0, 0, 255, 255],
         [1, 1, 255, 255]],
        dtype=np.uint8,
    )
    out = downsample_420(plane)
    # sums 10, 1, 2, 1020 -> (sum+2)//4
    assert out.tolist() == [[3, 0], [1, 255]]


def test_downsample_odd_dimensions_replicate_edges():
    plane = np.array([[10, 20, 30], [40, 50, 60], [70, 80, 90]], dtype=np.uint8)
    out = downsample_420(plane)
    assert out.shape == (2, 2)
    assert out[0, 0] == (10 + 20 + 40 + 50 + 2) // 4
    assert out[0, 1] == (30 + 30 + 60 + 60 + 2) // 4
    assert out[1, 1] == 90


def test_upsample_nearest_and_crop():
    plane = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    out = upsample_420(plane, 3, 3)
    assert out.tolist() == [[1, 1, 2], [1, 1, 2], [3, 3, 4]]
    with pytest.raises(ValueError, match="larger than 2x"):
        upsample_420(plane, 5, 4)


def test_down_up_exact_on_constant_plane():
    plane = np.full((10, 14), 77, dtype=np.uint8)
    up = upsample_420(downsample_420(plane), 10, 14)
    assert np.array_equal(up, plane)


_S = _STRIP_ROWS


@pytest.mark.parametrize("height", [1, 2, _S - 1, _S, _S + 1, 2 * _S + 1, 2 * _S + 2])
@pytest.mark.parametrize("width", [1, 2, 7, 8, 33, 34])
def test_strips_match_whole_plane_conversion(height, width):
    rng = np.random.default_rng(height * 100 + width)
    pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    pixels[0, 0] = 0  # the 0/255 extremes, where the clamp acts
    pixels[-1, -1] = 255
    pixels[height // 2, width // 2] = (255, 0, 0)
    planes = rgb_to_ycbcr(RasterImage(pixels))
    want = _whole_rgb_to_ycbcr(pixels)
    for got, oracle in zip(planes, want):
        assert got.dtype == np.uint8 and np.array_equal(got, oracle)
    # the inverse on arbitrary 4:2:0 planes, clamped samples included, is
    # the whole-image formulas' on nearest-upsampled chroma
    y = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    chroma = (-(-height // 2), -(-width // 2))
    cb, cr = (rng.integers(0, 256, size=chroma, dtype=np.uint8) for _ in "bc")
    cb[0, 0], cr[0, 0] = 0, 255
    cb[-1, -1], cr[-1, -1] = 255, 0
    assert np.array_equal(ycbcr_to_rgb(y, cb, cr).pixels, _whole_420_to_rgb(y, cb, cr))


def test_strips_match_whole_plane_on_every_color():
    # all 2**24 RGB triples, 128 rows at a time
    every = np.arange(2**24, dtype="<u4").view(np.uint8).reshape(4096, 4096, 4)[..., :3]
    for top in range(0, 4096, 128):
        pixels = np.ascontiguousarray(every[top : top + 128])
        got = rgb_to_ycbcr(RasterImage(pixels))
        assert all(np.array_equal(a, b) for a, b in zip(got, _whole_rgb_to_ycbcr(pixels)))


def test_420_inverse_matches_whole_plane_on_every_color():
    # all 2**24 YCbCr triples, 128 luma rows at a time: chroma cell f holds
    # the (cb, cr) pair f // 64, and its 2x2 luma samples four of the 256
    # values, 4 (f % 64) + 0 .. 3
    seen = np.zeros(2**24, dtype=bool)
    for top in range(0, 2048, 64):
        cell = np.arange(top * 2048, (top + 64) * 2048, dtype=np.uint32).reshape(64, 2048)
        cb, cr = (cell >> 6 & 255).astype(np.uint8), (cell >> 14).astype(np.uint8)
        y = np.empty((128, 4096), dtype=np.uint8)
        for i, j in np.ndindex(2, 2):
            y[i::2, j::2] = 4 * (cell & 63) + 2 * i + j
        want = _whole_420_to_rgb(y, cb, cr)
        assert np.array_equal(ycbcr_to_rgb(y, cb, cr).pixels, want)
        up = [_nearest(c, 128, 4096).astype(np.uint32) for c in (cb, cr)]
        seen[y | up[0] << 8 | up[1] << 16] = True
    assert seen.all()


def test_inverse_holds_no_full_resolution_chroma():
    # the chroma is upsampled strip by strip: beside the RGB result, the
    # inverse holds a few float64 strips (luma, sums, chroma and products),
    # where two upsampled uint8 chroma planes would take 8 strips
    rng = np.random.default_rng(4)
    y = rng.integers(0, 256, size=(1024, 1024), dtype=np.uint8)
    cb, cr = (rng.integers(0, 256, size=(512, 512), dtype=np.uint8) for _ in "bc")
    tracemalloc.start()
    try:
        rgb = ycbcr_to_rgb(y, cb, cr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    strip = _S * 1024 * np.dtype(np.float64).itemsize
    assert 5 * strip < 2 * y.nbytes
    assert peak < rgb.pixels.nbytes + 5 * strip


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (3, 7), (2 * _S + 1, 33), (64, 64)])
def test_downsample_matches_int64_cell_sums(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    plane = rng.integers(0, 256, size=shape, dtype=np.uint8)
    plane[-1, -1] = 255  # a full-scale cell sums to 1020 with the rounding offset 2
    assert np.array_equal(downsample_420(plane), _whole_downsample_420(plane))
    full = np.full(shape, 255, dtype=np.uint8)
    assert np.array_equal(downsample_420(full), _whole_downsample_420(full))
