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
("standard"), invert with the float reference IDCT, round, undo
truncation by rescaling and the level shift into uint8 pixel blocks,
gather every block's pixels, then reassemble planes and convert back to
RGB.

reconstruct() runs the identical numeric path without the entropy layer,
which is lossless. reconstruct_many() does the same for a list of
configs, and configs that differ only in skip level share that work,
since a processed block's pixels do not depend on the skip level. Both
build the container header and reassemble the planes with the same
helpers as encode() and decode(), so decode(encode(img)) equals
reconstruct(img) bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from . import entropy
from .color import (
    YcbcrPlanes,
    downsample_420,
    plane_shapes,
    rgb_to_ycbcr,
    upsample_420,
    ycbcr_to_rgb,
)
from .energy import EnergyStats
from .fdct import fdct_2d, ref_idct_2d
from .knobs import (
    SKIP_LEVELS,
    TRUNC_LEVELS,
    reuse_index,
    skip_check,  # noqa: F401 -- the benchmark's tracer looks it up here
    skip_epsilon,
    skip_flags,
    truncate_block,
)
from .ops import UNCOUNTED, IntOps
from .quant import (
    QUALITY_LEVELS,
    build_qmatrix,
    dequantize,
    quantize_dc_exact,
    quantize_div,
    quantize_shift,
    to_shift_matrix,
)
from .raster import BlockGrid, RasterImage, tile_blocks, untile_blocks


@dataclass(frozen=True)
class EncodeConfig:
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
        if self.quality not in QUALITY_LEVELS:
            raise ValueError("quality must be in [1, 99]")
        if self.quant_mode not in ("shift", "div"):
            raise ValueError("quant_mode must be 'shift' or 'div'")
        if self.trunc_level not in TRUNC_LEVELS:
            raise ValueError("trunc_level must be in [0, 4]")
        if self.skip_level is not None and self.skip_level not in SKIP_LEVELS:
            raise ValueError("skip_level must be in [0, 6] or None")
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
    """Truncate, transform, quantize a batch of level-shifted pixel blocks."""
    t = truncate_block(blocks, cfg.trunc_level, ops)
    coeffs = fdct_2d(t, ops)
    if cfg.quant_mode == "shift":
        quantized = quantize_shift(coeffs, smat, ops)
        if cfg.dc_exact:
            quantized = quantized.copy()
            quantized[..., 0, 0] = quantize_dc_exact(
                coeffs[..., 0, 0], int(qmat[0, 0]), ops
            )
        return quantized
    return quantize_div(coeffs, qmat)


def _quant_tables(cfg: EncodeConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """(divisors, shift exponents); the exponents are None in division mode."""
    qmat = cfg.divisor_matrix()
    return qmat, (to_shift_matrix(qmat) if cfg.quant_mode == "shift" else None)


def _planes_of(img: RasterImage) -> list[np.ndarray]:
    if img.channels == 1:
        return [img.pixels]
    full = rgb_to_ycbcr(img)
    return [full.y, downsample_420(full.cb), downsample_420(full.cr)]


def _plane_blocks(plane: np.ndarray) -> np.ndarray:
    return tile_blocks(plane, level_shifted=True).blocks.astype(np.int64)


def _skip_flags(blocks: np.ndarray, skip_level: int | None, ops: IntOps) -> np.ndarray:
    if skip_level is None:
        return np.zeros(len(blocks), dtype=bool)
    return skip_flags(blocks, skip_epsilon(skip_level), ops)


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


def encode(
    img: RasterImage, cfg: EncodeConfig = EncodeConfig(), ops: IntOps = UNCOUNTED
) -> tuple[bytes, EnergyStats]:
    """Encode an image to an AJPG container."""
    if img.width > 0xFFFF or img.height > 0xFFFF:
        raise ValueError("image dimensions exceed the container limit")
    qmat, smat = _quant_tables(cfg)
    streams, flags = [], []
    for cid, plane in enumerate(_planes_of(img)):
        blocks = _plane_blocks(plane)
        skipped = _skip_flags(blocks, cfg.skip_level, ops)
        coded = _compress_blocks(blocks[~skipped], cfg, smat, qmat, ops)
        streams.append(entropy.encode_channel(coded, skipped, cid))
        flags.append(skipped)
    meta = _container_meta(img, cfg, qmat, smat)
    return entropy.write_container(meta, streams), _energy_stats(cfg, flags)


def _check_decode_matrix(decode_matrix: str):
    if decode_matrix not in ("matched", "standard"):
        raise ValueError("decode_matrix must be 'matched' or 'standard'")


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
    """uint8 pixel blocks of quantized blocks: dequantize, invert, round half
    away from zero, undo truncation and the level shift, clip."""
    pixels = ref_idct_2d(dequantize(quantized, divisors))
    rounded = np.sign(pixels) * np.floor(np.abs(pixels) + 0.5)  # half away from zero
    restored = (rounded.astype(np.int64) << trunc_level) + 128
    return np.clip(restored, 0, 255).astype(np.uint8)


def _decode_image(meta: entropy.ContainerMeta, pixel_blocks) -> RasterImage:
    """Reassemble each plane's uint8 pixel blocks into an image. pixel_blocks
    may be a lazy iterable: decode passes one, so it holds a single plane's
    entropy-decoded coefficients at a time."""
    planes = [
        untile_blocks(BlockGrid(blocks, -(-w // 8), -(-h // 8), w, h), level_shifted=False)
        for blocks, (h, w) in zip(pixel_blocks, plane_shapes(meta.height, meta.width, meta.color))
    ]
    if not meta.color:
        return RasterImage(planes[0])
    y, cb, cr = planes
    full = YcbcrPlanes(
        y,
        upsample_420(cb, meta.height, meta.width),
        upsample_420(cr, meta.height, meta.width),
        "444",
    )
    return ycbcr_to_rgb(full)


def decode(data: bytes, decode_matrix: str = "matched") -> RasterImage:
    """Decode an AJPG container."""
    meta, streams = entropy.read_container(data)
    divisors = _decode_divisors(meta, decode_matrix)
    # each coded block is inverted once; a skipped block gathers its reference's pixels
    pixel_blocks = (
        _decode_blocks(entropy.decode_channel(s), divisors, meta.trunc_level)[reuse_index(s.skip_flags)]
        for s in streams
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

    Consecutive configs that differ only in skip_level share one pass: every
    block processed under at least one of them is truncated, transformed,
    quantized and decoded once, and each config gathers the pixel block of
    the block it carries. ops counts that shared work once. The arguments are
    checked here, before the generator is returned."""
    configs = list(configs)
    _check_decode_matrix(decode_matrix)
    if not configs:
        raise ValueError("configs must not be empty")
    return _reconstruct_groups(img, configs, decode_matrix, ops)


def _reconstruct_groups(
    img: RasterImage, configs: list[EncodeConfig], decode_matrix: str, ops: IntOps
) -> Iterator[tuple[RasterImage, EnergyStats]]:
    planes = _planes_of(img)
    for shared, group in groupby(configs, key=lambda c: replace(c, skip_level=None)):
        group = list(group)
        qmat, smat = _quant_tables(shared)
        meta = _container_meta(img, shared, qmat, smat)
        divisors = _decode_divisors(meta, decode_matrix)
        levels = dict.fromkeys(cfg.skip_level for cfg in group)
        coded = []  # per plane: (pixel blocks of the union, flags and carried block per level)
        for plane in planes:
            blocks = _plane_blocks(plane)
            flags = {lv: _skip_flags(blocks, lv, ops) for lv in levels}
            union = ~np.logical_and.reduce(list(flags.values()))
            quantized = _compress_blocks(blocks[union], shared, smat, qmat, ops)
            position = np.cumsum(union) - 1  # of each union block among the union
            # composed into one index per level: gathering the level's coded
            # blocks first and then expanding them would copy the pixels twice
            carried = {lv: position[np.flatnonzero(~s)[reuse_index(s)]] for lv, s in flags.items()}
            coded.append((_decode_blocks(quantized, divisors, shared.trunc_level), flags, carried))
        for cfg in group:
            lv = cfg.skip_level
            image = _decode_image(meta, [pixels[carried[lv]] for pixels, _, carried in coded])
            yield image, _energy_stats(cfg, [flags[lv] for _, flags, _ in coded])


def reconstruct(
    img: RasterImage,
    cfg: EncodeConfig = EncodeConfig(),
    decode_matrix: str = "matched",
    ops: IntOps = UNCOUNTED,
) -> tuple[RasterImage, EnergyStats]:
    """Encode + decode without the (lossless) entropy layer."""
    return next(reconstruct_many(img, [cfg], decode_matrix, ops))
