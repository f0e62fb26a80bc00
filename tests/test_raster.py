"""PNM parsing/writing and 8x8 tiling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ajpeg.pipeline import decode, encode
from ajpeg.raster import (
    PnmError,
    RasterImage,
    parse_pnm,
    tile_blocks,
    untile_blocks,
    write_pnm,
)


def test_parse_p5_basic():
    data = b"P5 3 2 255\n" + bytes([10, 20, 30, 40, 50, 60])
    img = parse_pnm(data)
    assert img.channels == 1
    assert (img.width, img.height) == (3, 2)
    assert img.pixels.tolist() == [[10, 20, 30], [40, 50, 60]]


def test_parse_p6_basic():
    data = b"P6 2 1 255\n" + bytes([255, 0, 0, 0, 255, 0])
    img = parse_pnm(data)
    assert img.channels == 3
    assert img.pixels.tolist() == [[[255, 0, 0], [0, 255, 0]]]


def test_parse_accepts_mixed_whitespace_runs():
    data = b"P5\n\t 3\r\n2  255\t" + bytes(range(6))
    img = parse_pnm(data)
    assert (img.width, img.height) == (3, 2)
    assert img.samples.tolist() == list(range(6))


def test_parse_body_may_start_with_whitespace_byte():
    # 0x20 after the single separator is sample data, not padding
    data = b"P5 1 1 255\n" + b"\x20"
    assert parse_pnm(data).pixels[0, 0] == 0x20


@pytest.mark.parametrize(
    "header",
    [
        b"P5\n# made by gimp\n2 2\n255\n",  # a comment line before width
        b"P5 2 # w\n2 255\n",  # a comment between tokens
        b"P5\r\n# CRLF line\r\n2 2\r\n255\n",  # a comment line ending in CRLF
        b"P5 2#w\n#\n\t# h\n2 255 ",  # a comment ends a token; comments in a row
    ],
)
def test_parse_skips_header_comments(header):
    img = parse_pnm(header + bytes([1, 2, 3, 4]))
    assert img.pixels.tolist() == [[1, 2], [3, 4]]


def test_parse_body_after_maxval_is_not_a_comment():
    # the single byte after maxval separates the body, which may start with '#'
    assert parse_pnm(b"P5 1 1 255\n#").pixels.tolist() == [[ord("#")]]
    with pytest.raises(PnmError, match="header"):
        parse_pnm(b"P5 1 1 255# comment\n\x00")


def test_parse_trailing_bytes_ignored():
    data = b"P5 1 1 255\n" + bytes([7]) + b"junk"
    assert parse_pnm(data).pixels[0, 0] == 7


@pytest.mark.parametrize(
    "data, field",
    [
        (b"P4 1 1 255\n\x00", "magic"),
        (b"whatever", "magic"),
        (b"P5 x 1 255\n\x00", "width"),
        (b"P5 1 -1 255\n\x00", "height"),
        (b"P5 1 1 256\n\x00", "maxval"),
        (b"P5 1 1 255", "header"),
        (b"P5 2 2 255\n\x00\x01\x02", "body"),
        (b"P5 0 1 255\n\x00", "width/height"),
    ],
)
def test_parse_errors_name_the_field(data, field):
    with pytest.raises(PnmError, match=field):
        parse_pnm(data)


def test_write_pnm_exact_bytes():
    img = RasterImage(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8))
    assert write_pnm(img) == b"P5\n3 2\n255\n" + bytes([1, 2, 3, 4, 5, 6])


def test_write_pnm_copies_the_samples_once():
    # the samples go straight into the file's bytes: the peak is one image,
    # where header + pixels.tobytes() held two. A cropped (strided) image,
    # as decode returns, is made contiguous first and writes the same bytes
    img = RasterImage(np.random.default_rng(3).integers(0, 256, size=(512, 768, 3), dtype=np.uint8))
    tracemalloc.start()
    try:
        data = write_pnm(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data == b"P6\n768 512\n255\n" + img.pixels.tobytes()
    assert peak < img.pixels.nbytes + 4096
    cropped = RasterImage(img.pixels[:509, :765])
    assert not cropped.pixels.flags.c_contiguous
    assert write_pnm(cropped) == b"P6\n765 509\n255\n" + cropped.pixels.tobytes()


def _traced_peak(fn):
    """fn's result and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_pnm_copies_the_body_once():
    # the body is read in place and copied once, into the image; slicing
    # it out of the file and then copying it held two images
    pixels = np.random.default_rng(4).integers(0, 256, size=(512, 512, 3), dtype=np.uint8)
    data = b"P6\n512 512\n255\n" + pixels.tobytes() + b"trailing bytes are ignored"
    img, peak = _traced_peak(lambda: parse_pnm(data))
    assert np.array_equal(img.pixels, pixels) and img.pixels.flags.writeable
    assert not np.shares_memory(img.pixels, np.frombuffer(data, dtype=np.uint8))
    assert peak < 1.1 * pixels.nbytes


def test_decoded_plane_is_written_in_one_copy():
    # a gray image 1021 wide decodes to a C-contiguous plane, cropped as it
    # is untiled, so write_pnm copies its samples once; a cropped view of
    # the padded plane was made contiguous first, one more copy
    img = RasterImage(np.random.default_rng(5).integers(0, 256, size=(1023, 1021), dtype=np.uint8))
    decoded = decode(encode(img)[0])
    assert decoded.pixels.shape == (1023, 1021) and decoded.pixels.flags.c_contiguous
    data, peak = _traced_peak(lambda: write_pnm(decoded))
    assert data == b"P5\n1021 1023\n255\n" + decoded.pixels.tobytes()
    assert peak < 1.1 * decoded.pixels.nbytes


@given(st.integers(1, 20), st.integers(1, 20), st.booleans(), st.integers(0, 2**32 - 1))
def test_pnm_round_trip(w, h, color, seed):
    rng = np.random.default_rng(seed)
    shape = (h, w, 3) if color else (h, w)
    img = RasterImage(rng.integers(0, 256, size=shape, dtype=np.uint8))
    assert parse_pnm(write_pnm(img)) == img


def test_raster_image_validation():
    with pytest.raises(ValueError, match="uint8"):
        RasterImage(np.zeros((4, 4), dtype=np.int32))
    with pytest.raises(ValueError, match="3 channels"):
        RasterImage(np.zeros((4, 4, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match="1x1"):
        RasterImage(np.zeros((0, 4), dtype=np.uint8))


def _unshifted(blocks):
    """The uint8 samples of level-shifted blocks."""
    return (blocks.astype(np.int16) + 128).astype(np.uint8)


def test_tile_9x9_pads_by_edge_replication():
    plane = np.zeros((9, 9), dtype=np.uint8)
    plane[8, 8] = 80
    blocks = tile_blocks(plane)
    assert blocks.shape == (4, 8, 8)
    assert blocks.dtype == np.int8
    padded = np.pad(plane, ((0, 7), (0, 7)), mode="edge").astype(np.int64) - 128
    tiled = padded.reshape(2, 8, 2, 8).swapaxes(1, 2).reshape(4, 8, 8)
    assert np.array_equal(blocks, tiled)
    # top-left block is interior; bottom-right is pure replication of (8,8)
    assert np.all(blocks[0] == -128)
    assert np.all(blocks[1] == -128)
    assert np.all(blocks[2] == -128)
    assert np.all(blocks[3] == 80 - 128)
    assert np.array_equal(untile_blocks(_unshifted(blocks), 9, 9), plane)


def test_tile_unshifted_keeps_raw_values():
    plane = np.full((8, 8), 200, dtype=np.uint8)
    assert np.all(tile_blocks(plane)[0] == 200 - 128)


def test_tile_block_order_is_row_major():
    plane = np.zeros((8, 24), dtype=np.uint8)
    plane[:, 8:16] = 50
    plane[:, 16:] = 90
    blocks = tile_blocks(plane)
    assert [int(b[0, 0]) for b in blocks] == [0 - 128, 50 - 128, 90 - 128]
    assert np.array_equal(untile_blocks(_unshifted(blocks), 8, 24), plane)


@given(st.integers(1, 25), st.integers(1, 25), st.integers(0, 2**32 - 1))
def test_tile_untile_round_trip(w, h, seed):
    rng = np.random.default_rng(seed)
    plane = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    blocks = _unshifted(tile_blocks(plane))
    assert np.array_equal(untile_blocks(blocks, h, w), plane)


@pytest.mark.parametrize("h, w", [(8, 8), (9, 9), (37, 53), (64, 8), (8, 64), (1, 1), (512, 512)])
def test_tiles_are_lane_major_views_of_the_block_order(h, w):
    # the samples live as C-contiguous [col, row, block] lanes, and the
    # blocks are the same values the block-major form gives
    plane = np.random.default_rng(h * w).integers(0, 256, size=(h, w), dtype=np.uint8)
    blocks = tile_blocks(plane)
    bh, bw = -(-h // 8), -(-w // 8)
    padded = np.pad(plane, ((0, 8 * bh - h), (0, 8 * bw - w)), mode="edge").astype(np.int16) - 128
    want = padded.reshape(bh, 8, bw, 8).swapaxes(1, 2).reshape(bh * bw, 8, 8)
    assert blocks.shape == want.shape and blocks.dtype == np.int8
    assert np.array_equal(blocks, want)
    assert blocks.transpose(2, 1, 0).flags.c_contiguous


def test_untile_never_returns_a_view_of_the_blocks():
    # a plane one block wide moves no word, and is still copied
    blocks = np.arange(3 * 64, dtype=np.uint8).reshape(3, 8, 8)
    plane = untile_blocks(blocks, 24, 8)
    assert np.array_equal(plane, blocks.reshape(24, 8))
    assert not np.shares_memory(plane, blocks)


def test_block_grid_validates_shape():
    with pytest.raises(ValueError):
        untile_blocks(np.zeros((2, 8, 8), dtype=np.uint8), 8, 8)
    with pytest.raises(ValueError):
        untile_blocks(np.zeros((1, 8, 8), dtype=np.uint8), 8, 9)


def _untiled_by_reshape(blocks, height, width):
    """The plane as the reshape/swapaxes form assembles it."""
    bh, bw = -(-height // 8), -(-width // 8)
    return blocks.reshape(bh, bw, 8, 8).swapaxes(1, 2).reshape(bh * 8, bw * 8)[:height, :width]


@pytest.mark.parametrize("dtype", [np.uint8, np.int16])
@pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "strided"])
def test_untile_matches_the_reshape_form(dtype, contiguous):
    # every stack moves its whole blocks' rows as uint64 words: uint8 as
    # one word a row, int16 as two, and a strided stack from a contiguous
    # copy; the cropped edge blocks go apart, into a C-contiguous plane
    rng = np.random.default_rng(21)
    for height in [*range(1, 16), 37]:
        for width in [*range(1, 16), 53]:
            n = -(-height // 8) * -(-width // 8)
            stack = rng.integers(-128, 256, size=(n + 1, 8, 8)).astype(dtype)
            if not contiguous:
                stack = stack.transpose(0, 2, 1)
            blocks = stack[:n]
            assert blocks.flags.c_contiguous == contiguous
            got = untile_blocks(blocks, height, width)
            assert got.dtype == dtype and got.flags.c_contiguous
            assert np.array_equal(got, _untiled_by_reshape(blocks, height, width))
            with pytest.raises(ValueError):
                untile_blocks(stack, height, width)  # one block too many
