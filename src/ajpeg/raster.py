"""Raster images, binary PNM parsing/writing, and 8x8 block tiling.

Only binary P5 (grayscale) and P6 (RGB) with maxval 255 are supported;
header comments are skipped.
Block tiling pads non-multiple-of-8 dimensions by edge replication and
level-shifts samples by -128 into signed range; untiling only reassembles
and crops, since the decoder's pixel blocks are already uint8.

Working set: the image-sized arrays here are narrow. Tiling pads in uint8
and writes the level-shifted samples as int16 in one pass, into
[col, row, block] lanes (a Fortran-ordered (n, 8, 8) array); untiling
keeps the blocks' dtype and returns a new array.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

BLOCK = 8


class PnmError(ValueError):
    """Malformed or unsupported PNM input."""


@dataclass(frozen=True, eq=False)
class RasterImage:
    """Raster image; pixels has shape (h, w) for gray or (h, w, 3) for RGB."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.dtype != np.uint8:
            raise ValueError("pixels must be uint8")
        if p.ndim == 3 and p.shape[2] != 3:
            raise ValueError("color images must have 3 channels")
        if p.ndim not in (2, 3):
            raise ValueError("pixels must be 2-D (gray) or 3-D (RGB)")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("image dimensions must be at least 1x1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3

    @property
    def samples(self) -> np.ndarray:
        """Row-major sample stream, interleaved for RGB."""
        return self.pixels.reshape(-1)

    def __eq__(self, other):
        if not isinstance(other, RasterImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and np.array_equal(
            self.pixels, other.pixels
        )


# Whitespace and '#' comments, each to the end of its line, may come before
# each header token; a token ends at whitespace or at a comment.
_HEADER_SPACE = re.compile(rb"(?:\s|#[^\r\n]*)*")
_HEADER_TOKEN = re.compile(rb"[^\s#]*")


def parse_pnm(data: bytes) -> RasterImage:
    """Parse a binary P5/P6 image with maxval 255. The header may carry
    '#' comments between its tokens."""
    if not data.startswith((b"P5", b"P6")):
        raise PnmError("magic: expected P5 or P6")
    color = data.startswith(b"P6")
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        pos = _HEADER_SPACE.match(data, pos).end()
        token = _HEADER_TOKEN.match(data, pos).group()
        pos += len(token)
        if not token.isdigit():
            raise PnmError(f"{name}: expected unsigned integer")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmError("width/height: must be positive")
    if maxval != 255:
        raise PnmError("maxval: only 255 is supported")
    # Exactly one whitespace byte separates the header from the body.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PnmError("header: missing separator before body")
    pos += 1
    nsamples = width * height * (3 if color else 1)
    body = data[pos : pos + nsamples]
    if len(body) < nsamples:
        raise PnmError("body: truncated sample data")
    pixels = np.frombuffer(body, dtype=np.uint8)
    shape = (height, width, 3) if color else (height, width)
    return RasterImage(pixels.reshape(shape).copy())


def write_pnm(img: RasterImage) -> bytes:
    magic = b"P6" if img.channels == 3 else b"P5"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    return header + img.pixels.tobytes()


def block_grid(height: int, width: int) -> tuple[int, int]:
    """The block rows and columns of a height x width plane: each size in
    8-sample blocks, rounded up."""
    return -(-height // BLOCK), -(-width // BLOCK)


def tile_blocks(plane: np.ndarray) -> np.ndarray:
    """Level-shifted (n, 8, 8) int16 blocks of a grayscale plane, in
    row-major block order, with the edges padded by replication.

    The samples are written once, lane-major: the blocks are a
    Fortran-ordered array, so blocks.transpose(2, 1, 0) is C-contiguous
    [col, row, block] lanes, 64 rows of n samples each. A run of
    consecutive blocks is then one contiguous stretch of every lane (the
    round trip casts it in one copy), and a sample of every block is one
    contiguous row (the skip scan reads the rows in place)."""
    if plane.ndim != 2:
        raise ValueError("tile_blocks expects a single-channel plane")
    h, w = plane.shape
    if h < 1 or w < 1:
        raise ValueError("cannot tile a zero-dimension plane")
    bh, bw = block_grid(h, w)
    if h % BLOCK or w % BLOCK:
        plane = np.pad(plane, ((0, bh * BLOCK - h), (0, bw * BLOCK - w)), mode="edge")
    blocks = np.empty((bh * bw, BLOCK, BLOCK), dtype=np.int16, order="F")
    tiles = plane.reshape(bh, BLOCK, bw, BLOCK).transpose(3, 1, 0, 2)  # [col, row, bh, bw]
    np.subtract(tiles, 128, out=blocks.T.reshape(BLOCK, BLOCK, bh, bw), dtype=np.int16)
    return blocks


def untile_blocks(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    """Reassemble a height x width plane from its row-major (n, 8, 8)
    blocks, cropping the padding; the samples keep their dtype. A block
    count other than that of the plane raises ValueError.

    Each block row of 8 samples moves as itemsize uint64 words of a
    C-contiguous stack (the decoder's uint8 pixel blocks are one word a
    row): the transposition copies fewer, wider items, and the bytes stay
    the same. The plane is a new array, even where the transposition
    moves nothing (a plane one block wide)."""
    bh, bw = block_grid(height, width)
    words = np.ascontiguousarray(blocks).view(np.uint64)
    rows = words.reshape(bh, bw, BLOCK, blocks.itemsize).swapaxes(1, 2)
    plane = rows.copy().view(blocks.dtype).reshape(bh * BLOCK, bw * BLOCK)
    return plane[:height, :width]
