"""Quality and texture metrics: closed-form oracle cases."""

import math

import numpy as np
import pytest

from ajpeg import metrics
from ajpeg.metrics import (
    SSIM_C1,
    SSIM_C2,
    MetricError,
    homogeneity,
    pearson,
    psnr,
    sad_pct,
    sample_sum,
    ssim,
)
from ajpeg.raster import RasterImage


def _const(v, shape=(16, 16)):
    return RasterImage(np.full(shape, v, dtype=np.uint8))


def test_sad_fraction_of_reference_sum():
    ref = _const(128)
    test = _const(127)
    assert sad_pct(ref, test) == pytest.approx(1.0 / 128.0)
    assert sad_pct(ref, ref) == 0.0


def test_sad_single_pixel():
    ref = RasterImage(np.full((4, 4), 100, dtype=np.uint8))
    px = ref.pixels.copy()
    px[0, 0] = 110
    assert sad_pct(ref, RasterImage(px)) == pytest.approx(10.0 / 1600.0)


def test_sad_zero_reference_raises():
    with pytest.raises(MetricError, match="all-zero"):
        sad_pct(_const(0), _const(1))


def _sad_int64(ref, test):
    """sad_pct's definition on int64 copies of the samples."""
    a = ref.samples.astype(np.int64)
    b = test.samples.astype(np.int64)
    return float(np.abs(a - b).sum()) / int(a.sum())


@pytest.mark.parametrize("shape", [(37, 53), (37, 53, 3), (512, 512)])
def test_sad_matches_int64_formula(shape):
    rng = np.random.default_rng(shape[0] + len(shape))
    ref = RasterImage(rng.integers(0, 256, size=shape, dtype=np.uint8))
    test = RasterImage(rng.integers(0, 256, size=shape, dtype=np.uint8))
    assert sad_pct(ref, test) == _sad_int64(ref, test)
    assert sad_pct(test, ref) == _sad_int64(test, ref)


@pytest.mark.parametrize("size", [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_sad_matches_int64_formula_at_the_chunk_edges(size):
    # |a - b| is summed in uint32 partial sums of 2**16 samples each
    assert metrics._SAD_CHUNK == 2**16
    rng = np.random.default_rng(size)
    ref = RasterImage(rng.integers(0, 256, size=(1, size), dtype=np.uint8))
    test = RasterImage(rng.integers(0, 256, size=(1, size), dtype=np.uint8))
    assert sad_pct(ref, test) == _sad_int64(ref, test)
    assert sad_pct(ref, test, ref_sum=sample_sum(ref)) == _sad_int64(ref, test)


def test_sad_beyond_a_uint32_sum():
    # the difference sum and the reference sum are both 255 * 4112**2 > 2**32
    white, black = _const(255, (4112, 4112)), _const(0, (4112, 4112))
    assert 255 * white.pixels.size > 2**32
    assert sad_pct(white, black) == 1.0


def test_sad_full_scale_differences():
    for shape in ((16, 16), (16, 16, 3)):
        black, white = _const(0, shape), _const(255, shape)
        assert sad_pct(white, black) == _sad_int64(white, black) == 1.0
        with pytest.raises(MetricError, match="all-zero"):
            sad_pct(black, white)


def test_shape_mismatch_raises():
    with pytest.raises(MetricError, match="identical dimensions"):
        psnr(_const(1, (8, 8)), _const(1, (8, 9)))
    with pytest.raises(MetricError, match="identical dimensions"):
        sad_pct(_const(1, (8, 8)), _const(1, (16, 16)))


def test_psnr_identical_is_inf():
    assert psnr(_const(50), _const(50)) == math.inf


def test_psnr_uniform_unit_error():
    # mse = 1 -> 20*log10(255)
    assert psnr(_const(100), _const(101)) == pytest.approx(20 * math.log10(255))


def test_psnr_full_scale_error_is_zero_db():
    assert psnr(_const(255), _const(0)) == pytest.approx(0.0)


def test_ssim_identical_is_one():
    rng = np.random.default_rng(0)
    img = RasterImage(rng.integers(0, 256, size=(32, 32), dtype=np.uint8))
    assert ssim(img, img) == pytest.approx(1.0)


def test_ssim_constant_images_closed_form():
    # zero variance everywhere: only the luminance term survives
    a, b = 100.0, 110.0
    want = (2 * a * b + SSIM_C1) / (a * a + b * b + SSIM_C1)
    assert ssim(_const(100), _const(110)) == pytest.approx(want)


def test_ssim_below_window_raises():
    with pytest.raises(MetricError, match="window"):
        ssim(_const(1, (7, 16)), _const(1, (7, 16)))


def test_ssim_penalizes_larger_distortion():
    rng = np.random.default_rng(1)
    base = rng.integers(60, 196, size=(64, 64))
    ref = RasterImage(base.astype(np.uint8))
    small = RasterImage(np.clip(base + rng.integers(-2, 3, base.shape), 0, 255).astype(np.uint8))
    big = RasterImage(np.clip(base + rng.integers(-25, 26, base.shape), 0, 255).astype(np.uint8))
    assert ssim(ref, big) < ssim(ref, small) < 1.0


def test_homogeneity_constant_is_one():
    assert homogeneity(_const(77)) == pytest.approx(1.0)


def test_homogeneity_checkerboard():
    # neighbors always land in bins (0, 63): every pair weight is 1/64
    pat = np.indices((16, 16)).sum(axis=0) % 2
    img = RasterImage((pat * 255).astype(np.uint8))
    assert homogeneity(img) == pytest.approx(1.0 / 64.0)


def test_homogeneity_prefers_smooth_over_noise():
    grad = RasterImage(np.tile(np.arange(64, dtype=np.uint8) * 4, (64, 1)))
    noise = RasterImage(np.random.default_rng(2).integers(0, 256, (64, 64), dtype=np.uint8))
    assert homogeneity(grad) > homogeneity(noise)


def test_homogeneity_tiny_image_raises():
    with pytest.raises(MetricError, match="2x2"):
        homogeneity(_const(1, (1, 5)))


def test_metrics_use_luma_for_color():
    g = np.random.default_rng(3).integers(0, 256, (16, 16), dtype=np.uint8)
    gray = RasterImage(g)
    color = RasterImage(np.repeat(g[:, :, None], 3, axis=2))
    assert ssim(gray, gray) == pytest.approx(ssim(color, color))
    assert homogeneity(color) == pytest.approx(homogeneity(gray))


def test_pearson_exact_linear():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson(xs, [2 * v + 1 for v in xs]) == pytest.approx(1.0)
    assert pearson(xs, [-3 * v for v in xs]) == pytest.approx(-1.0)


def test_pearson_hand_value():
    # cov = 2, sx = sqrt(2), sy = sqrt(8) -> r = 0.5
    assert pearson([0, 1, 2], [0, 4, 2]) == pytest.approx(0.5)


def test_pearson_degenerate_inputs():
    with pytest.raises(MetricError, match="zero-variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(MetricError, match="two points"):
        pearson([1.0], [2.0])
    with pytest.raises(MetricError, match="equal-length"):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
