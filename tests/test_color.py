"""BT.601 color conversion and 4:2:0 resampling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ajpeg.color import (
    downsample_420,
    rgb_to_ycbcr,
    upsample_420,
    ycbcr_to_rgb,
)
from ajpeg.raster import RasterImage


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
