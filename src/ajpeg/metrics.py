"""Image quality and texture metrics.

SAD is reported as a fraction of the reference's total sample sum. SSIM
uses uniform 8x8 windows at stride 1 with the usual (0.01*255)^2 and
(0.03*255)^2 stabilizers; color images are compared on the luma plane.
Homogeneity is the co-occurrence statistic sum(P/(1+|i-j|)) over a 64-bin
symmetric normalized GLCM averaged over the (0,1) and (1,0) offsets.
"""

from __future__ import annotations

import math

import numpy as np

from .color import rgb_to_ycbcr
from .raster import RasterImage

SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2
SSIM_WINDOW = 8
GLCM_BINS = 64


class MetricError(ValueError):
    """Metric undefined for the given inputs."""


def _luma(img: RasterImage) -> np.ndarray:
    if img.channels == 1:
        return img.pixels
    return rgb_to_ycbcr(img)[0]


def _check_same_shape(ref: RasterImage, test: RasterImage):
    if ref.pixels.shape != test.pixels.shape:
        raise MetricError("images must have identical dimensions and channels")


# |a - b| of uint8 samples is summed in uint32 partial sums of this many
# samples each: 255 * 2**16 < 2**32, so no partial sum wraps
_SAD_CHUNK = 1 << 16


def sad_pct(ref: RasterImage, test: RasterImage, *, ref_sum: int | None = None) -> float:
    """Sum of absolute differences over the reference's total sample sum.

    ref_sum, when given, is that sum (sample_sum(ref)), so that a caller
    measuring many images against one reference sums it once."""
    _check_same_shape(ref, test)
    if ref_sum is None:
        ref_sum = sample_sum(ref)
    if ref_sum == 0:
        raise MetricError("SAD undefined for an all-zero reference")
    a, b = ref.samples, test.samples
    diff = np.maximum(a, b)
    diff -= np.minimum(a, b)  # |a - b|, exact in uint8
    whole = diff.size - diff.size % _SAD_CHUNK
    chunks = diff[:whole].reshape(-1, _SAD_CHUNK).sum(axis=1, dtype=np.uint32)
    total = int(chunks.sum(dtype=np.uint64)) + int(diff[whole:].sum(dtype=np.uint32))
    return float(total) / ref_sum


def sample_sum(img: RasterImage) -> int:
    """The sum of every sample of an image, sad_pct's denominator."""
    return int(img.samples.sum(dtype=np.int64))


def psnr(ref: RasterImage, test: RasterImage) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical images."""
    _check_same_shape(ref, test)
    diff = ref.samples.astype(np.float64) - test.samples.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def _window_means(plane: np.ndarray, w: int) -> np.ndarray:
    # Box means over all w*w windows at stride 1, via the summed-area table.
    s = np.zeros((plane.shape[0] + 1, plane.shape[1] + 1), dtype=np.float64)
    np.cumsum(np.cumsum(plane, axis=0), axis=1, out=s[1:, 1:])
    box = s[w:, w:] - s[:-w, w:] - s[w:, :-w] + s[:-w, :-w]
    return box / (w * w)


def ssim(ref: RasterImage, test: RasterImage) -> float:
    """Mean structural similarity over uniform 8x8 windows."""
    _check_same_shape(ref, test)
    x = _luma(ref).astype(np.float64)
    y = _luma(test).astype(np.float64)
    w = SSIM_WINDOW
    if x.shape[0] < w or x.shape[1] < w:
        raise MetricError("image smaller than the SSIM window")
    mx = _window_means(x, w)
    my = _window_means(y, w)
    # Population second moments per window.
    vx = _window_means(x * x, w) - mx * mx
    vy = _window_means(y * y, w) - my * my
    cxy = _window_means(x * y, w) - mx * my
    num = (2.0 * mx * my + SSIM_C1) * (2.0 * cxy + SSIM_C2)
    den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
    return float(np.mean(num / den))


def homogeneity(img: RasterImage) -> float:
    """GLCM homogeneity of the (luma) plane, 64 gray bins."""
    g = _luma(img)
    if g.shape[0] < 2 or g.shape[1] < 2:
        raise MetricError("homogeneity undefined below 2x2")
    bins = (g >> 2).astype(np.int64)
    glcms = []
    for a, b in (
        (bins[:, :-1], bins[:, 1:]),  # offset (0, 1)
        (bins[:-1, :], bins[1:, :]),  # offset (1, 0)
    ):
        counts = np.bincount(
            (a * GLCM_BINS + b).reshape(-1), minlength=GLCM_BINS * GLCM_BINS
        ).reshape(GLCM_BINS, GLCM_BINS)
        sym = counts + counts.T
        glcms.append(sym / sym.sum())
    p = (glcms[0] + glcms[1]) / 2.0
    i, j = np.meshgrid(np.arange(GLCM_BINS), np.arange(GLCM_BINS), indexing="ij")
    return float((p / (1.0 + np.abs(i - j))).sum())


def pearson(xs, ys) -> float:
    """Pearson correlation; raises MetricError on degenerate inputs."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise MetricError("inputs must be equal-length 1-D sequences")
    if x.size < 2:
        raise MetricError("correlation needs at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(np.dot(dx, dx)))
    sy = math.sqrt(float(np.dot(dy, dy)))
    if sx == 0.0 or sy == 0.0:
        raise MetricError("correlation undefined for zero-variance input")
    return float(np.dot(dx, dy)) / (sx * sy)
