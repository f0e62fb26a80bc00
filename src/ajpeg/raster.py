"""Raster images, binary PNM parsing/writing, and 8x8 block tiling.

Only binary P5 (grayscale) and P6 (RGB) with maxval 255 are supported;
header comments are skipped.
Block tiling pads non-multiple-of-8 dimensions by edge replication and
level-shifts samples by -128 into signed range; untiling only reassembles
and crops, since the decoder's pixel blocks are already uint8.

Working set: the image-sized arrays here are one byte per sample, and each
is written in one copy. parse_pnm copies nothing: the image is a read-only
view of the file's body. Tiling pads in uint8 and writes the level-shifted
samples as int8 in one pass, into [col, row, block] lanes (a
Fortran-ordered (n, 8, 8) array). Untiling keeps the blocks' dtype and
writes a new C-contiguous plane of the cropped size, so write_pnm copies a
decoded plane once, straight into the file's bytes.
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


def parse_pnm(data: bytes | bytearray) -> RasterImage:
    """Parse a binary P5/P6 image with maxval 255. The header may carry
    '#' comments between its tokens.

    The image shares the caller's buffer: its pixels are a read-only view
    of the body, bytearray input too, so a write to them raises
    ValueError. A change to a bytearray changes the image, and resizing
    it raises BufferError while the image lives."""
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
    if len(data) - pos < nsamples:
        raise PnmError("body: truncated sample data")
    pixels = np.frombuffer(memoryview(data).toreadonly(), np.uint8, nsamples, pos)
    return RasterImage(pixels.reshape((height, width, 3) if color else (height, width)))


def write_pnm(img: RasterImage) -> bytes:
    """The binary P5/P6 file of img. The samples are copied once, straight
    into the file's bytes, as decoded images are C-contiguous; a strided
    (cropped) view is first made contiguous, one more copy."""
    magic = b"P6" if img.channels == 3 else b"P5"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    return b"".join((header, np.ascontiguousarray(img.pixels)))


def block_grid(height: int, width: int) -> tuple[int, int]:
    """The block rows and columns of a height x width plane: each size in
    8-sample blocks, rounded up."""
    return -(-height // BLOCK), -(-width // BLOCK)


def tile_blocks(plane: np.ndarray) -> np.ndarray:
    """Level-shifted (n, 8, 8) int8 blocks of a grayscale plane, in
    row-major block order, with the edges padded by replication.
    A level-shifted 8-bit sample x - 128 lies in [-128, 127], so int8
    holds it exactly: it is x ^ 0x80 read as int8.

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
    blocks = np.empty((bh * bw, BLOCK, BLOCK), dtype=np.int8, order="F")
    tiles = plane.reshape(bh, BLOCK, bw, BLOCK).transpose(3, 1, 0, 2)  # [col, row, bh, bw]
    np.bitwise_xor(tiles, 0x80, out=blocks.T.view(np.uint8).reshape(BLOCK, BLOCK, bh, bw))
    return blocks


def untile_blocks(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    """Reassemble a C-contiguous height x width plane from its row-major
    (n, 8, 8) blocks, cropping the padding; the samples keep their dtype.
    A block count other than that of the plane raises ValueError.

    Each sample is copied once, straight into the plane. The whole blocks
    go in one strided copy, in which each block row of 8 samples moves as
    itemsize uint64 words of a C-contiguous stack (the decoder's uint8
    pixel blocks are one word a row): the transposition copies fewer,
    wider items, and the bytes stay the same. The cropped blocks of the
    bottom edge and of the right edge, if any, go apart."""
    bh, bw = block_grid(height, width)
    if len(blocks) != bh * bw:
        raise ValueError(f"expected {bh * bw} blocks for a {height} x {width} plane")
    blocks = np.ascontiguousarray(blocks)
    grid = blocks.reshape(bh, bw, BLOCK, BLOCK)
    plane = np.empty((height, width), dtype=blocks.dtype)
    fh, fw = height // BLOCK, width // BLOCK  # the whole blocks
    words = blocks.itemsize  # uint64 words per block row
    np.copyto(
        plane[: fh * BLOCK, : fw * BLOCK].view(np.uint64).reshape(fh, BLOCK, fw, words),
        blocks.view(np.uint64).reshape(bh, bw, BLOCK, words)[:fh, :fw].swapaxes(1, 2),
    )
    right, bottom = width - fw * BLOCK, height - fh * BLOCK
    if right:  # the right edge's blocks, above the bottom edge
        edge = plane[: fh * BLOCK, fw * BLOCK :].reshape(fh, BLOCK, right)
        np.copyto(edge, grid[:fh, fw, :, :right])
    if bottom:  # the bottom edge's blocks, its corner block last
        edge = plane[fh * BLOCK :, : fw * BLOCK].reshape(bottom, fw, BLOCK)
        np.copyto(edge, grid[fh, :fw, :bottom].swapaxes(0, 1))
        if right:
            np.copyto(plane[fh * BLOCK :, fw * BLOCK :], grid[fh, fw, :bottom, :right])
    return plane
