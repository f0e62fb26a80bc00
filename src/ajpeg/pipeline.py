"""End-to-end encode/decode pipeline.

Encode: level-shift and tile each channel, decide block skips against the
most recent processed block, truncate, transform with the shift-add DCT,
quantize (shift or division mode), entropy-code, and emit an AJPG
container. Color images are converted to YCbCr with 4:2:0 chroma.

Only the processed (coded) blocks go through the transform and the
entropy layer, in both directions. Expanding them to every block happens
here, once, after the IDCT: a skipped block gathers its reference's
decoded pixel block (knobs.reuse_index), which is what decoding the
reference's coefficients again would give.

Decode: entropy-decode each channel's coded blocks, dequantize with either
the encoder's divisors ("matched") or the unmodified quality-scaled table
("standard"), invert and round with fdct.ref_idct_2d, undo
truncation by rescaling and the level shift into clipped uint8 pixel
blocks, and gather every block's pixels. Each plane's blocks are then
untiled and cropped to the plane's size, and for color the luma plane and
the 4:2:0 chroma planes are converted back to RGB (color.ycbcr_to_rgb
upsamples the chroma strip by strip). The raster and color layers take
and return plain arrays; the plane layout and the color reassembly live
here alone (_planes_of and _decode_image).

reconstruct() reaches the same integers without the entropy layer, which
is lossless, and without the stage chain: its round trip (_round_trip)
fuses truncation, FDCT, quantization, dequantization, IDCT and rounding
into one pass per slice on float lanes, float32 up to the FDCT's
coefficients and float64 from quantization on. Each step there is an
exact float form of its integer spec (quant.sample_shift_scale,
fdct._transform and quant.float_quantizer), truncation and quantization
each one np.rint pass by a scale nudged so that np.rint rounds half away
from zero. The IDCT is
fdct._idct_lanes, ref_idct_2d's kernel, so both paths round every pixel in
the same code, and _restore, the undoing of truncation and the level
shift, serves both. A differential test holds the round trip to
_decode_blocks(_compress_blocks(...)) byte for byte and in its op census:
it charges each block the chain's census of one block (_chain_census).
encode() and decode() still call every stage by name.
reconstruct_many() does the same for a list of configs: every config
shares the planes' tiles, and configs that differ only in skip level
share the rest of the work, since a processed block's pixels do not
depend on the skip level: one skip scan per plane decides every level of
such a group (knobs.skip_flags_many), and one round trip serves them all.
Both build the container header and reassemble the planes with the same
helpers as encode() and decode(), so decode(encode(img)) equals
reconstruct(img) bit for bit.

Working set: only narrow arrays are image-sized, at most a byte per
sample: the uint8 planes and pixel blocks, the int8 tiles, the bool skip
flags and the skip scan's uint8 distance table, beside the entropy
coder's 3-byte symbol records. Chroma stays at its 4:2:0 size from
downsampling on encode to color conversion on decode. Every wide
temporary lives in one slice of at most fdct._SLICE_BLOCKS blocks: encode
gathers, compresses and entropy-codes, decode entropy-decodes,
dequantizes and inverts to rounded samples, and reconstruct_many runs its
round trip, slice by slice, so none of them holds a plane's coefficients.
The entropy layer drives the slices both ways: entropy.encode_channel
takes each plane's quantized coded blocks from a generator of slices
(_coded_blocks), so they are never image-sized; encode drops each plane
once it is tiled, and the tiles live until the channel is coded. A slice
is int8 samples in float32 FDCT lanes and int16 from the coefficients on.
entropy.decode_channel calls decode's invert step, which dequantizes each
int64 slice in place and inverts it half a slice at a time. The round
trip works in two float64 slice buffers, and the color layer in float64
row strips. On the benchmark's 512x512 RGB images with its codec knobs,
the tracemalloc peak of encode is 1.84x the image and that of decode
2.3x, which is also the peak of the whole op from PNM bytes to PNM bytes,
as raster.parse_pnm copies nothing; a 2048x2048 RGB decode peaks at 1.67x
(21.0 MB). A sweep (energy.extract_qe_curve over reconstruct_many) holds
one reconstructed level at a time beside its reference: a skip group keeps
its union's pixel blocks, flags and union positions, builds each level's
carried index with its image, and lets the pixel blocks go with its last
level. The benchmark's sweep op on a 512x512 gray image peaks at 7.46x the
image, in the truncation round trip; on a 1024x1024 gray image the loop
curve peaks at 6.26x and the truncation curve at 5.04x, where
metrics.sad_pct's temporaries are live.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from . import entropy, fdct
from .color import (
    downsample_420,
    plane_shapes,
    rgb_to_ycbcr,
    upsample_420,  # noqa: F401 -- the benchmark's tracer looks it up here
    ycbcr_to_rgb,
)
from .energy import EnergyStats
from .fdct import _SLICE_BLOCKS, fdct_2d, ref_idct_2d
from .knobs import (
    SKIP_LEVELS,
    TRUNC_LEVELS,
    reuse_index,
    skip_check,  # noqa: F401 -- the benchmark's tracer looks it up here
    skip_epsilon,
    skip_flags_many,
    truncate_block,
)
from .ops import UNCOUNTED, IntOps, OpCounter
from .quant import (
    QUALITY_LEVELS,
    build_qmatrix,
    dequantize,
    float_quantizer,
    quantize_dc_exact,
    quantize_div,
    quantize_shift,
    sample_shift_scale,
    to_shift_matrix,
)
from .raster import RasterImage, tile_blocks, untile_blocks


def _is_level(value, levels) -> bool:
    """Whether value is an integer among levels: 2.0 and True are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value in levels


@dataclass(frozen=True)
class EncodeConfig:
    """The codec's settings. Construction, dataclasses.replace included,
    checks every field and every combination of fields; the CLI's codec
    flags are checked here and nowhere else."""

    quality: int = 50
    quant_mode: str = "shift"  # "shift" or "div"
    trunc_level: int = 0
    skip_level: int | None = None  # None disables perforation
    dc_exact: bool = False
    # 8x8 divisors overriding the quality-scaled table. Any 8x8 array-like is
    # accepted and stored as a tuple of rows, so a config stays immutable,
    # comparable and hashable.
    qmatrix: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if not _is_level(self.quality, QUALITY_LEVELS):
            raise ValueError("quality must be an integer in [1, 99]")
        if self.quant_mode not in ("shift", "div"):
            raise ValueError("quant_mode must be 'shift' or 'div'")
        if not _is_level(self.trunc_level, TRUNC_LEVELS):
            raise ValueError("trunc_level must be an integer in [0, 4]")
        if self.skip_level is not None and not _is_level(self.skip_level, SKIP_LEVELS):
            raise ValueError("skip_level must be an integer in [0, 6] or None")
        if not isinstance(self.dc_exact, bool):
            raise ValueError("dc_exact must be True or False")
        if self.dc_exact and self.quant_mode != "shift":
            raise ValueError("exact-DC mode applies to shift quantization only")
        if self.dc_exact and self.qmatrix is not None:
            raise ValueError("exact-DC mode requires the quality-scaled table")
        if self.qmatrix is not None:
            # checked as float64 before any int64 cast, which would truncate
            # 16.7 to 16 and warn on NaN, inf or entries beyond int64
            try:
                f = np.asarray(self.qmatrix, dtype=np.float64)
            except (OverflowError, TypeError, ValueError):
                f = None
            valid = f is not None and f.shape == (8, 8)
            if not valid or not np.all((f >= 1) & (f <= 255) & (f == np.floor(f))):
                raise ValueError("qmatrix must be 8x8 with integer entries in [1, 255]")
            object.__setattr__(self, "qmatrix", tuple(map(tuple, f.astype(np.int64).tolist())))

    def divisor_matrix(self) -> np.ndarray:
        if self.qmatrix is not None:
            return np.array(self.qmatrix, dtype=np.int64)
        return build_qmatrix(self.quality)


def _compress_blocks(blocks: np.ndarray, cfg: EncodeConfig, smat, qmat, ops: IntOps) -> np.ndarray:
    """Truncate, transform, quantize a batch of level-shifted 8-bit pixel
    blocks (int8) into int16 quantized blocks."""
    t = truncate_block(blocks, cfg.trunc_level, ops)
    coeffs = fdct_2d(t, ops)
    if cfg.quant_mode == "shift":
        quantized = quantize_shift(coeffs, smat, ops)
        if cfg.dc_exact:
            quantized[..., 0, 0] = quantize_dc_exact(
                coeffs[..., 0, 0], int(qmat[0, 0]), ops
            )
        return quantized
    return quantize_div(coeffs, qmat).astype(np.int16)


def _quant_tables(cfg: EncodeConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """(divisors, shift exponents); the exponents are None in division mode."""
    qmat = cfg.divisor_matrix()
    return qmat, (to_shift_matrix(qmat) if cfg.quant_mode == "shift" else None)


def _planes_of(img: RasterImage) -> list[np.ndarray]:
    if img.channels == 1:
        return [img.pixels]
    y, cb, cr = rgb_to_ycbcr(img)
    return [y, downsample_420(cb), downsample_420(cr)]


def _skip_flags(blocks: np.ndarray, levels, ops: IntOps) -> dict:
    """Skip flags of blocks per skip level, None for no skipping. The levels
    share one scan of the blocks."""
    scanned = [lv for lv in levels if lv is not None]
    flags = dict(zip(scanned, skip_flags_many(blocks, [skip_epsilon(lv) for lv in scanned], ops)))
    if None in levels:
        flags[None] = np.zeros(len(blocks), dtype=bool)
    return flags


def _energy_stats(cfg: EncodeConfig, flags: list[np.ndarray]) -> EnergyStats:
    """Energy accounting of one config from its skip flags per plane."""
    skipped = sum(int(f.sum()) for f in flags)
    return EnergyStats(
        blocks_processed=sum(len(f) for f in flags) - skipped,
        blocks_skipped=skipped,
        trunc_level=cfg.trunc_level,
        skip_enabled=cfg.skip_level is not None,
    )


def _container_meta(img: RasterImage, cfg: EncodeConfig, qmat, smat) -> entropy.ContainerMeta:
    """The container header, with the quant payload."""
    return entropy.ContainerMeta(
        color=img.channels == 3,
        shift_quant=cfg.quant_mode == "shift",
        dc_exact=cfg.dc_exact,
        quality=cfg.quality,
        trunc_level=cfg.trunc_level,
        skip_level=cfg.skip_level,
        width=img.width,
        height=img.height,
        quant_payload=(qmat if smat is None else smat).reshape(64),
    )


def _coded_blocks(blocks: np.ndarray, cfg: EncodeConfig, smat, qmat, ops: IntOps):
    """A plane's skip flags, and its coded blocks' quantized values as a
    lazy iterable of slices for entropy.encode_channel. Each slice gathers
    its coded tiles from the tiles' [col, row, block] lanes (blocks.T) and
    stays lane-major, so fdct_2d casts it into its own lanes in one
    contiguous copy. The tiles live until the last slice is taken."""
    skipped = _skip_flags(blocks, [cfg.skip_level], ops)[cfg.skip_level]
    index = np.flatnonzero(~skipped)
    return skipped, (
        _compress_blocks(np.take(blocks.T, at, axis=2).T, cfg, smat, qmat, ops)
        for at in np.split(index, range(_SLICE_BLOCKS, len(index), _SLICE_BLOCKS))
    )


def encode(
    img: RasterImage, cfg: EncodeConfig = EncodeConfig(), ops: IntOps = UNCOUNTED
) -> tuple[bytes, EnergyStats]:
    """Encode an image to an AJPG container."""
    if img.width > 0xFFFF or img.height > 0xFFFF:
        raise ValueError("image dimensions exceed the container limit")
    qmat, smat = _quant_tables(cfg)
    streams, flags = [], []
    planes = _planes_of(img)
    for cid in range(len(planes)):
        skipped, coded = _coded_blocks(tile_blocks(planes[cid]), cfg, smat, qmat, ops)
        planes[cid] = None  # dropped once tiled; the slices hold the tiles
        streams.append(entropy.encode_channel(coded, skipped, cid))
        flags.append(skipped)
    meta = _container_meta(img, cfg, qmat, smat)
    return entropy.write_container(meta, streams), _energy_stats(cfg, flags)


# The divisors a decoder may dequantize with: the encoder's ("matched"), or
# the unmodified quality-scaled table ("standard").
DECODE_MATRICES = ("matched", "standard")


def _check_decode_matrix(decode_matrix: str):
    if decode_matrix not in DECODE_MATRICES:
        raise ValueError(f"decode_matrix must be one of {', '.join(DECODE_MATRICES)}")


def _decode_divisors(meta: entropy.ContainerMeta, decode_matrix: str) -> np.ndarray:
    _check_decode_matrix(decode_matrix)
    if decode_matrix == "standard":
        return build_qmatrix(meta.quality)
    payload = np.asarray(meta.quant_payload, dtype=np.int64).reshape(8, 8)
    if not meta.shift_quant:
        return payload
    divisors = np.int64(1) << payload
    if meta.dc_exact:
        divisors = divisors.copy()
        divisors[0, 0] = build_qmatrix(meta.quality)[0, 0]
    return divisors


def _decode_blocks(quantized: np.ndarray, divisors: np.ndarray, trunc_level: int) -> np.ndarray:
    """uint8 pixel blocks of quantized blocks: dequantize them in place,
    invert to the decoder's rounded float64 samples (ref_idct_2d), and
    _restore them, half a slice (_SLICE_BLOCKS // 2 blocks) at a time, so
    the float64 samples are never a whole slice. int64 quantized blocks,
    as the entropy layer leaves them, are overwritten; any other integer
    dtype is first widened to a new int64 array."""
    quantized = np.asarray(quantized, dtype=np.int64)
    out = np.empty(quantized.shape, dtype=np.uint8)
    step = _SLICE_BLOCKS // 2
    for start in range(0, len(quantized), step):
        part = quantized[start : start + step]
        pixels = ref_idct_2d(dequantize(part, divisors, out=part))
        _restore(pixels, trunc_level, out[start : start + step])
        del pixels  # a half's samples go before the next half's are made
    return out


def _restore(rounded: np.ndarray, trunc_level: int, out: np.ndarray) -> None:
    """Undo truncation and the level shift of the rounded float64 IDCT
    samples, and clip them into the uint8 array out, of their shape.
    rounded is overwritten.

    The rounded integers times 2**trunc_level are exact wherever they are
    not clipped away. They are clipped to the int8 range and written as
    int8, and the level shift is a flip of the top bit: x + 128 = x ^ 0x80
    for an int8 x read as uint8."""
    if trunc_level:
        rounded *= 1 << trunc_level
    np.clip(rounded, -128, 127, out=rounded)
    np.copyto(out.view(np.int8), rounded, casting="unsafe")
    out ^= 0x80


def _chain_census(cfg: EncodeConfig, smat, qmat) -> OpCounter:
    """The op census of _compress_blocks on one block, which every block
    of the config costs whatever its samples."""
    census = OpCounter()
    _compress_blocks(np.zeros((1, 8, 8), dtype=np.int8), cfg, smat, qmat, census)
    return census


def _round_trip(
    blocks: np.ndarray,
    index: np.ndarray,
    cfg: EncodeConfig,
    smat,
    qmat,
    divisors: np.ndarray,
    census: OpCounter | None,
    ops: IntOps,
) -> np.ndarray:
    """uint8 pixel blocks of blocks[index] (index sorted and unique): those
    of _decode_blocks(_compress_blocks(blocks[index], cfg, smat, qmat),
    divisors, cfg.trunc_level), in one fused pass per slice of
    _SLICE_BLOCKS blocks. blocks are level-shifted 8-bit samples, as
    tile_blocks leaves them, in any (n, 8, 8) layout.

    The forward half runs in float32 [col, row, block] lanes, two of them
    inside the pixel buffer: each slice is cast from the tiles' lanes
    (blocks.transpose(2, 1, 0)), one contiguous copy for consecutive
    tile_blocks blocks, or gathered first by np.take into a view of the
    coefficient buffer in the tiles' dtype; then truncated as np.rint(x *
    sample_shift_scale(B)) and transformed (fdct._transform), both exact
    in float32 on 8-bit samples. The coefficients are cast into the
    float64 coefficient lanes and quantized there as np.rint(c * t) with t
    from float_quantizer. They are dequantized, inverted and rounded
    (fdct._idct_lanes, as ref_idct_2d does for decode) into the pixel
    buffer, the IDCT's second product writing over the coefficient lanes,
    and restored (_restore). The few blocks that the IDCT recomputes near
    a tie get their quantized values from the stage chain, run again on
    their samples (_compress_blocks, uncounted), which the round trip
    equals. The two float64 lane buffers are allocated once for the stack.
    Each step is an exact float form of its integer spec, and each
    rounding one np.rint pass but for the blocks the IDCT recomputes with
    the decoder's einsum. ops is charged census, the chain's census of one
    block, for each block (nothing when census is None)."""
    n = len(index)
    if census is not None:
        ops.charge_blocks(census, n)
    # the quantizer's table as [freq across, freq down] lanes
    table = np.ascontiguousarray(float_quantizer(qmat, smat, cfg.dc_exact).T[:, :, None])
    out = np.empty((n, 8, 8), dtype=np.uint8)
    buffers = np.empty((2, 64 * min(n, _SLICE_BLOCKS)))
    tiles = blocks.transpose(2, 1, 0)  # [col, row, block]
    dense = n == len(blocks)  # index is then every block, in order
    for start in range(0, n, _SLICE_BLOCKS):
        at = index[start : start + _SLICE_BLOCKS]
        k = len(at)
        coef, pixels = fdct._lanes(buffers, k)
        x, x_scratch = fdct._lanes(pixels.reshape(-1).view(np.float32).reshape(2, -1), k)
        if dense:
            np.copyto(x, tiles[:, :, start : start + k])
        else:
            # mode "clip" (at is in range) takes straight into out, unbuffered
            gathered = coef.reshape(-1).view(tiles.dtype)[: 64 * k].reshape(8, 8, k)
            np.copyto(x, np.take(tiles, at, axis=2, out=gathered, mode="clip"))
        if cfg.trunc_level:
            x *= sample_shift_scale(cfg.trunc_level)
            np.rint(x, out=x)
        fdct._transform(x, x_scratch)
        np.copyto(coef, x)
        coef *= table
        np.rint(coef, out=coef)
        rounded = pixels.reshape(k, 8, 8)
        fdct._idct_lanes(
            coef,
            lambda c: _compress_blocks(blocks[at[c]], cfg, smat, qmat, UNCOUNTED),
            coef,
            rounded,
            divisors,
        )
        _restore(rounded, cfg.trunc_level, out[start : start + k])
    return out


def _decode_image(meta: entropy.ContainerMeta, pixel_blocks) -> RasterImage:
    """Reassemble each plane's uint8 pixel blocks into an image. pixel_blocks
    may be a lazy iterable: decode passes one, so it holds a single plane's
    entropy-decoded coefficients at a time. Each plane's blocks are dropped
    once untiled, before the next plane is pulled (no loop variable keeps
    them)."""
    blocks = iter(pixel_blocks)
    planes = [
        untile_blocks(next(blocks), h, w)
        for h, w in plane_shapes(meta.height, meta.width, meta.color)
    ]
    if not meta.color:
        return RasterImage(planes[0])
    return ycbcr_to_rgb(*planes)


def decode(
    data: bytes, decode_matrix: str = "matched", max_pixels: int = entropy.MAX_PIXELS
) -> RasterImage:
    """Decode an AJPG container; a header of more than max_pixels pixels
    raises entropy.PixelBudgetError."""
    meta, streams = entropy.read_container(data, max_pixels)
    divisors = _decode_divisors(meta, decode_matrix)

    def invert(quantized):
        return _decode_blocks(quantized, divisors, meta.trunc_level)

    # each coded block is inverted once, in the entropy layer's slices; a
    # skipped block gathers its reference's pixels
    pixel_blocks = (
        entropy.decode_channel(s, invert)[reuse_index(s.skip_flags)] for s in streams
    )
    return _decode_image(meta, pixel_blocks)


def reconstruct_many(
    img: RasterImage,
    configs: Iterable[EncodeConfig],
    decode_matrix: str = "matched",
    ops: IntOps = UNCOUNTED,
) -> Iterator[tuple[RasterImage, EnergyStats]]:
    """Lazily yield reconstruct(img, cfg, decode_matrix) for each config, in
    order.

    The planes are tiled once for every config. Consecutive configs that
    differ only in skip_level share one pass: one skip scan per plane gives
    every level's flags, every block processed under at least one of them
    is truncated, transformed, quantized and decoded once, slice by slice,
    and each config gathers the pixel block of the block it carries. ops
    counts that shared work once, but for the skip bands, which it charges
    per level as the hardware would. The arguments are checked here, before
    the generator is returned."""
    configs = list(configs)
    _check_decode_matrix(decode_matrix)
    if not configs:
        raise ValueError("configs must not be empty")
    return _reconstruct_groups(img, configs, decode_matrix, ops)


def _reconstruct_groups(
    img: RasterImage, configs: list[EncodeConfig], decode_matrix: str, ops: IntOps
) -> Iterator[tuple[RasterImage, EnergyStats]]:
    tiles = [tile_blocks(plane) for plane in _planes_of(img)]  # shared by every group
    for shared, group in groupby(configs, key=lambda c: replace(c, skip_level=None)):
        yield from _reconstruct_group(img, tiles, shared, list(group), decode_matrix, ops)


def _reconstruct_group(
    img: RasterImage,
    tiles: list[np.ndarray],
    shared: EncodeConfig,
    group: list[EncodeConfig],
    decode_matrix: str,
    ops: IntOps,
) -> Iterator[tuple[RasterImage, EnergyStats]]:
    """The results of a group of configs that differ only in skip level.

    Per plane it holds three things for the whole group: the pixel blocks
    of the union of the levels' processed blocks, the skip flags per
    level, and each union block's position among the union. A level's
    carried index is built with its image and goes with it. The last
    level takes the pixel blocks from the group as it untiles them, so
    none is left when it is yielded. No local holds a yielded image, so a
    consumer that drops one frees it."""
    qmat, smat = _quant_tables(shared)
    meta = _container_meta(img, shared, qmat, smat)
    divisors = _decode_divisors(meta, decode_matrix)
    census = None if ops is UNCOUNTED else _chain_census(shared, smat, qmat)
    levels = dict.fromkeys(cfg.skip_level for cfg in group)
    coded = []  # per plane: (pixel blocks of the union, flags per level, union positions)
    for blocks in tiles:
        flags = _skip_flags(blocks, levels, ops)
        union = ~np.logical_and.reduce(list(flags.values()))
        coded.append((
            _round_trip(blocks, np.flatnonzero(union), shared, smat, qmat, divisors, census, ops),
            flags,
            np.cumsum(union) - 1,
        ))
    for n, cfg in enumerate(group, start=1):
        lv = cfg.skip_level
        stats = _energy_stats(cfg, [flags[lv] for _, flags, _ in coded])
        # the last level empties coded plane by plane as it untiles them
        planes = coded if n < len(group) else (coded.pop(0) for _ in range(len(coded)))
        yield _decode_image(meta, (_carried_blocks(p, f[lv], at) for p, f, at in planes)), stats


def _carried_blocks(pixels: np.ndarray, skipped: np.ndarray, position: np.ndarray) -> np.ndarray:
    """Every block's pixels at one skip level, from the pixel blocks of a
    union of levels' processed blocks and each union block's position
    among them. The carried index is composed into one gather: gathering
    the level's processed blocks first and then expanding them would copy
    the pixels twice. A level that skips nothing carries every block in
    order, and takes the pixels as they are."""
    if not skipped.any():
        return pixels
    return pixels[position[np.flatnonzero(~skipped)[reuse_index(skipped)]]]


def reconstruct(
    img: RasterImage,
    cfg: EncodeConfig = EncodeConfig(),
    decode_matrix: str = "matched",
    ops: IntOps = UNCOUNTED,
) -> tuple[RasterImage, EnergyStats]:
    """Encode + decode without the (lossless) entropy layer."""
    return next(reconstruct_many(img, [cfg], decode_matrix, ops))
