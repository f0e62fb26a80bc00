"""BT.601 color conversion and 4:2:0 resampling."""

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
def test_full_res_round_trip_within_one(seed):
    rng = np.random.default_rng(seed)
    img = RasterImage(rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8))
    back = ycbcr_to_rgb(*rgb_to_ycbcr(img))
    assert np.abs(img.pixels.astype(int) - back.pixels.astype(int)).max() <= 1


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


@pytest.mark.parametrize("height", [1, _S - 1, _S, _S + 1, 2 * _S + 1])
@pytest.mark.parametrize("width", [1, 7, 33])
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
    # the inverse on arbitrary planes, clamped samples included
    ycc = [rng.integers(0, 256, size=(height, width), dtype=np.uint8) for _ in range(3)]
    ycc[1][0, 0], ycc[2][0, 0] = 0, 255
    ycc[1][-1, -1], ycc[2][-1, -1] = 255, 0
    assert np.array_equal(ycbcr_to_rgb(*ycc).pixels, _whole_ycbcr_to_rgb(*ycc))


def test_strips_match_whole_plane_on_every_color():
    # all 2**24 RGB triples and all 2**24 YCbCr triples, 128 rows at a time
    every = np.arange(2**24, dtype="<u4").view(np.uint8).reshape(4096, 4096, 4)[..., :3]
    for top in range(0, 4096, 128):
        pixels = np.ascontiguousarray(every[top : top + 128])
        got = rgb_to_ycbcr(RasterImage(pixels))
        assert all(np.array_equal(a, b) for a, b in zip(got, _whole_rgb_to_ycbcr(pixels)))
        planes = [pixels[..., c] for c in range(3)]
        assert np.array_equal(ycbcr_to_rgb(*planes).pixels, _whole_ycbcr_to_rgb(*planes))


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (3, 7), (2 * _S + 1, 33), (64, 64)])
def test_downsample_matches_int64_cell_sums(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    plane = rng.integers(0, 256, size=shape, dtype=np.uint8)
    plane[-1, -1] = 255  # a full-scale cell sums to 1020 with the rounding offset 2
    assert np.array_equal(downsample_420(plane), _whole_downsample_420(plane))
    full = np.full(shape, 255, dtype=np.uint8)
    assert np.array_equal(downsample_420(full), _whole_downsample_420(full))
