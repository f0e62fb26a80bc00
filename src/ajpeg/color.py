"""RGB <-> YCbCr conversion (BT.601 full range) and 4:2:0 chroma resampling.

Forward/inverse conversions round half-up and clamp to [0, 255]. Chroma
downsampling averages 2x2 cells (edges replicated for odd dimensions);
upsampling is nearest-neighbor.
"""

from __future__ import annotations

import numpy as np

from .raster import RasterImage


def plane_shapes(height: int, width: int, color: bool) -> list[tuple[int, int]]:
    """(height, width) of each coded plane: the full-resolution luma or gray
    plane, then for color the two 4:2:0 chroma planes, ceil(h/2) x ceil(w/2)."""
    if not color:
        return [(height, width)]
    chroma = (-(-height // 2), -(-width // 2))
    return [(height, width), chroma, chroma]


def _round_half_up_clamp(x: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(x + 0.5), 0, 255).astype(np.uint8)


def rgb_to_ycbcr(img: RasterImage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full-resolution (y, cb, cr) uint8 planes of an RGB image."""
    if img.channels != 3:
        raise ValueError("rgb_to_ycbcr expects an RGB image")
    rgb = img.pixels.astype(np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return _round_half_up_clamp(y), _round_half_up_clamp(cb), _round_half_up_clamp(cr)


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> RasterImage:
    """Convert full-resolution Y, Cb and Cr uint8 planes to an RGB image."""
    y = y.astype(np.float64)
    cb = cb.astype(np.float64) - 128.0
    cr = cr.astype(np.float64) - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return RasterImage(np.stack([_round_half_up_clamp(c) for c in (r, g, b)], axis=-1))


def downsample_420(plane: np.ndarray) -> np.ndarray:
    """Halve both plane dimensions by 2x2 means (half-up), replicating edges."""
    h, w = plane.shape
    padded = np.pad(plane, ((0, h % 2), (0, w % 2)), mode="edge").astype(np.int64)
    cells = padded.reshape(-(-h // 2), 2, -(-w // 2), 2)
    sums = cells.sum(axis=(1, 3))
    return ((sums + 2) // 4).astype(np.uint8)


def upsample_420(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor 2x upsample, cropped to the requested dimensions."""
    up = plane.repeat(2, axis=0).repeat(2, axis=1)
    if up.shape[0] < out_h or up.shape[1] < out_w:
        raise ValueError("upsample target larger than 2x source")
    return up[:out_h, :out_w]
