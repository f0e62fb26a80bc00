"""RGB <-> YCbCr conversion (BT.601 full range) and 4:2:0 chroma resampling.

Forward/inverse conversions round half-up and clamp to [0, 255]. Chroma
downsampling averages 2x2 cells (edges replicated for odd dimensions);
upsampling is nearest-neighbor.

Working set: only uint8 planes are image-sized. The conversions run the
float64 formulas on strips of _STRIP_ROWS rows and write each strip into
preallocated uint8 outputs; every step is elementwise, so a strip's
samples are those of converting the whole image at once. Downsampling
sums 2x2 cells in uint16 (at most 4 * 255).
"""

from __future__ import annotations

import numpy as np

from .raster import RasterImage

# Rows per conversion strip: float64 temporaries of 32 rows x 512 samples
# take 128 KB each.
_STRIP_ROWS = 32


def plane_shapes(height: int, width: int, color: bool) -> list[tuple[int, int]]:
    """(height, width) of each coded plane: the full-resolution luma or gray
    plane, then for color the two 4:2:0 chroma planes, ceil(h/2) x ceil(w/2)."""
    if not color:
        return [(height, width)]
    chroma = (-(-height // 2), -(-width // 2))
    return [(height, width), chroma, chroma]


def _round_half_up_clamp(x: np.ndarray, out: np.ndarray):
    """Write floor(x + 0.5) clamped to [0, 255] into the uint8 array out,
    using x as scratch."""
    x += 0.5
    np.floor(x, out=x)
    np.clip(x, 0, 255, out=x)
    np.copyto(out, x, casting="unsafe")


def _strips(height: int):
    """Row slices of at most _STRIP_ROWS rows that cover height rows."""
    return (slice(top, top + _STRIP_ROWS) for top in range(0, height, _STRIP_ROWS))


def rgb_to_ycbcr(img: RasterImage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full-resolution (y, cb, cr) uint8 planes of an RGB image."""
    if img.channels != 3:
        raise ValueError("rgb_to_ycbcr expects an RGB image")
    y, cb, cr = (np.empty((img.height, img.width), dtype=np.uint8) for _ in range(3))
    for rows in _strips(img.height):
        r, g, b = np.moveaxis(img.pixels[rows], -1, 0).astype(np.float64, order="C")
        _round_half_up_clamp(0.299 * r + 0.587 * g + 0.114 * b, y[rows])
        _round_half_up_clamp(128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b, cb[rows])
        _round_half_up_clamp(128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b, cr[rows])
    return y, cb, cr


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> RasterImage:
    """Convert full-resolution Y, Cb and Cr uint8 planes to an RGB image."""
    rgb = np.empty((*y.shape, 3), dtype=np.uint8)
    for rows in _strips(y.shape[0]):
        luma = y[rows].astype(np.float64)
        blue = cb[rows].astype(np.float64) - 128.0
        red = cr[rows].astype(np.float64) - 128.0
        out = rgb[rows]
        _round_half_up_clamp(luma + 1.402 * red, out[..., 0])
        _round_half_up_clamp(luma - 0.344136 * blue - 0.714136 * red, out[..., 1])
        _round_half_up_clamp(luma + 1.772 * blue, out[..., 2])
    return RasterImage(rgb)


def downsample_420(plane: np.ndarray) -> np.ndarray:
    """Halve both plane dimensions by 2x2 means (half-up), replicating edges."""
    h, w = plane.shape
    if h % 2 or w % 2:
        plane = np.pad(plane, ((0, h % 2), (0, w % 2)), mode="edge")
    sums = plane[0::2, 0::2].astype(np.uint16)
    sums += plane[0::2, 1::2]
    sums += plane[1::2, 0::2]
    sums += plane[1::2, 1::2]
    sums += 2
    sums >>= 2
    return sums.astype(np.uint8)


def upsample_420(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor 2x upsample, cropped to the requested dimensions."""
    up = plane.repeat(2, axis=0).repeat(2, axis=1)
    if up.shape[0] < out_h or up.shape[1] < out_w:
        raise ValueError("upsample target larger than 2x source")
    return up[:out_h, :out_w]
