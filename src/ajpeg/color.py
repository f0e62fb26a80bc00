"""RGB <-> YCbCr conversion (BT.601 full range) and 4:2:0 chroma resampling.

Forward/inverse conversions round half-up and clamp to [0, 255]. Chroma
downsampling averages 2x2 cells (edges replicated for odd dimensions);
upsampling is nearest-neighbor: each chroma sample covers its 2x2 cell,
cropped at odd edges. ycbcr_to_rgb takes the 4:2:0 chroma planes, as the
decoder leaves them, and upsamples each strip itself; upsample_420 is the
same rule on a whole plane.

Working set: only uint8 planes are image-sized, and the chroma is never
upsampled to a full-resolution plane. The conversions run the float64
formulas on strips of _STRIP_ROWS rows, in float64 strip buffers allocated
once per call, and write each strip into preallocated uint8 outputs. Every
step is elementwise and evaluates the same IEEE operations in the same
order as the whole-image formulas, so a strip's samples are those of
converting the whole image at once. The inverse forms each chroma term
(weight times chroma less 128) once per 4:2:0 sample, columns upsampled,
and adds it to both luma rows of its cells by broadcasting. Downsampling
sums 2x2 cells in uint16 (at most 4 * 255).
"""

from __future__ import annotations

import numpy as np

from .raster import RasterImage

# Rows per conversion strip, even so that a strip holds whole 4:2:0 cells:
# float64 strips of 32 rows x 512 samples take 128 KB each.
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
    using x as scratch. x + 0.5 is clamped first and the cast truncates:
    on [0, 255] truncation is the floor, and floor then clamp gives the
    same integers."""
    x += 0.5
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
    strip = (min(img.height, _STRIP_ROWS), img.width)
    channels = np.empty((3, *strip))
    acc, term = np.empty((2, *strip))
    for rows in _strips(img.height):
        pixels = img.pixels[rows]
        k = len(pixels)
        np.copyto(channels[:, :k], np.moveaxis(pixels, -1, 0))
        r, g, b = channels[:, :k]
        s, t = acc[:k], term[:k]
        np.multiply(0.299, r, out=s)
        s += np.multiply(0.587, g, out=t)
        s += np.multiply(0.114, b, out=t)
        _round_half_up_clamp(s, y[rows])
        np.subtract(128.0, np.multiply(0.168736, r, out=t), out=s)
        s -= np.multiply(0.331264, g, out=t)
        s += np.multiply(0.5, b, out=t)
        _round_half_up_clamp(s, cb[rows])
        np.add(128.0, np.multiply(0.5, r, out=t), out=s)
        s -= np.multiply(0.418688, g, out=t)
        s -= np.multiply(0.081312, b, out=t)
        _round_half_up_clamp(s, cr[rows])
    return y, cb, cr


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> RasterImage:
    """Convert a full-resolution Y plane and its 4:2:0 Cb and Cr planes,
    ceil(h/2) x ceil(w/2), to an RGB image; each chroma sample covers its
    2x2 cell (nearest-neighbor upsampling, cropped at odd edges)."""
    h, w = y.shape
    if cb.shape != plane_shapes(h, w, True)[1] or cr.shape != cb.shape:
        raise ValueError("chroma planes must be the 4:2:0 planes of the luma plane")
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    cells = min(cb.shape[0], _STRIP_ROWS // 2)  # chroma rows per strip
    width = 2 * cb.shape[1]  # whole cells, one padding column for odd w
    # luma is zeroed once: padding never reaches the image, but stays finite
    luma = np.zeros((2 * cells, width))
    total = np.empty_like(luma)
    half = np.empty((cells, cb.shape[1]))  # a chroma strip, less 128
    blue, red, term = np.empty((3, cells, width))
    for top in range(0, cb.shape[0], cells):
        k = min(cells, cb.shape[0] - top)  # the strip's chroma rows
        rows = slice(2 * top, 2 * (top + k))
        n = len(y[rows])  # its luma rows: 2k, or 2k - 1 at an odd bottom edge
        np.copyto(luma[:n, :w], y[rows])
        for plane, up in ((cb, blue), (cr, red)):
            np.subtract(plane[top : top + k], 128.0, out=half[:k])
            up[:k, 0::2] = half[:k]
            up[:k, 1::2] = half[:k]
        out = rgb[rows]
        for channel, terms in enumerate((
            ((np.add, 1.402, red),),
            ((np.subtract, 0.344136, blue), (np.subtract, 0.714136, red)),
            ((np.add, 1.772, blue),),
        )):
            # [cell row, row in the cell, column] views of the strip
            s, first = total[: 2 * k].reshape(k, 2, width), luma[: 2 * k].reshape(k, 2, width)
            for op, weight, chroma in terms:
                # each product row covers both rows of its cells
                op(first, np.multiply(weight, chroma[:k, None], out=term[:k, None]), out=s)
                first = s
            s = s.reshape(2 * k, width)
            _round_half_up_clamp(s[:n, :w], out[..., channel])
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
