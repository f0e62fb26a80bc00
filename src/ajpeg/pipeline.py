"""End-to-end encode/decode pipeline.

Encode: level-shift and tile each channel, decide block skips against the
most recent processed block, truncate, transform with the shift-add DCT,
quantize (shift or division mode), entropy-code, and emit an AJPG
container. Color images are converted to YCbCr with 4:2:0 chroma.

Decode: entropy-decode, dequantize with either the encoder's divisors
("matched") or the unmodified quality-scaled table ("standard"), invert
with the float reference IDCT, round, undo truncation by rescaling, then
reassemble planes and convert back to RGB.

reconstruct() runs the identical numeric path without the entropy layer,
which is lossless. It builds the container header and reassembles the
planes with the same helpers as encode() and decode(), so
decode(encode(img)) equals reconstruct(img) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    skip_check,
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
            try:
                q = np.asarray(self.qmatrix, dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                q = None
            if q is None or q.shape != (8, 8) or np.any(q < 1) or np.any(q > 255):
                raise ValueError("qmatrix must be 8x8 with entries in [1, 255]")
            object.__setattr__(self, "qmatrix", tuple(map(tuple, q.tolist())))

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


def _encode_plane(
    plane: np.ndarray, cfg: EncodeConfig, smat, qmat, ops: IntOps
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (quantized blocks, skip flags) for one channel plane. Skipped
    blocks carry their reference's result, as the decoder rebuilds them."""
    grid = tile_blocks(plane, level_shifted=True)
    blocks = grid.blocks.astype(np.int64)
    if cfg.skip_level is None:
        skipped = np.zeros(len(blocks), dtype=bool)
    else:
        # Passing this module's skip_check, not relying on the default, lets
        # a wrapper installed on pipeline.skip_check observe every comparison.
        skipped = skip_flags(blocks, skip_epsilon(cfg.skip_level), ops, skip_check)
    quantized = _compress_blocks(blocks[~skipped], cfg, smat, qmat, ops)
    return quantized[reuse_index(skipped)], skipped


def _planes_of(img: RasterImage) -> list[np.ndarray]:
    if img.channels == 1:
        return [img.pixels]
    full = rgb_to_ycbcr(img)
    return [full.y, downsample_420(full.cb), downsample_420(full.cr)]


def _encode_channels(img: RasterImage, cfg: EncodeConfig, ops: IntOps):
    """Quantized blocks and skip flags per plane, the container header
    (with the quant payload), and the energy accounting."""
    qmat = cfg.divisor_matrix()
    smat = to_shift_matrix(qmat) if cfg.quant_mode == "shift" else None
    channels = [_encode_plane(plane, cfg, smat, qmat, ops) for plane in _planes_of(img)]
    skipped_total = sum(int(skipped.sum()) for _, skipped in channels)
    stats = EnergyStats(
        blocks_processed=sum(len(skipped) for _, skipped in channels) - skipped_total,
        blocks_skipped=skipped_total,
        trunc_level=cfg.trunc_level,
        skip_enabled=cfg.skip_level is not None,
    )
    meta = entropy.ContainerMeta(
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
    return channels, meta, stats


def encode(
    img: RasterImage, cfg: EncodeConfig = EncodeConfig(), ops: IntOps = UNCOUNTED
) -> tuple[bytes, EnergyStats]:
    """Encode an image to an AJPG container."""
    if img.width > 0xFFFF or img.height > 0xFFFF:
        raise ValueError("image dimensions exceed the container limit")
    channels, meta, stats = _encode_channels(img, cfg, ops)
    streams = [
        entropy.encode_channel(quantized, skipped, cid)
        for cid, (quantized, skipped) in enumerate(channels)
    ]
    return entropy.write_container(meta, streams), stats


def _decode_divisors(meta: entropy.ContainerMeta, decode_matrix: str) -> np.ndarray:
    if decode_matrix not in ("matched", "standard"):
        raise ValueError("decode_matrix must be 'matched' or 'standard'")
    if decode_matrix == "standard":
        return build_qmatrix(meta.quality)
    payload = np.asarray(meta.quant_payload, dtype=np.int64).reshape(8, 8)
    if not meta.shift_quant:
        return payload
    if np.any(payload > 7):
        raise entropy.CorruptStreamError("shift exponent out of range")
    divisors = np.int64(1) << payload
    if meta.dc_exact:
        divisors = divisors.copy()
        divisors[0, 0] = build_qmatrix(meta.quality)[0, 0]
    return divisors


def _decode_plane(
    quantized: np.ndarray, shape: tuple[int, int], divisors: np.ndarray, trunc_level: int
) -> np.ndarray:
    coeffs = dequantize(quantized, divisors)
    pixels = ref_idct_2d(coeffs)
    rounded = np.sign(pixels) * np.floor(np.abs(pixels) + 0.5)  # half away from zero
    restored = rounded.astype(np.int64) << trunc_level
    h, w = shape
    grid = BlockGrid(restored, -(-w // 8), -(-h // 8), w, h)
    return untile_blocks(grid, level_shifted=True)


def _decode_image(meta: entropy.ContainerMeta, quantized, decode_matrix: str) -> RasterImage:
    """Dequantize, invert and reassemble the quantized blocks of each plane.
    quantized may be a lazy iterable: decode passes one, so it holds a
    single plane's entropy-decoded coefficients at a time."""
    divisors = _decode_divisors(meta, decode_matrix)
    planes = [
        _decode_plane(q, shape, divisors, meta.trunc_level)
        for q, shape in zip(quantized, plane_shapes(meta.height, meta.width, meta.color))
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
    return _decode_image(meta, (entropy.decode_channel(s) for s in streams), decode_matrix)


def reconstruct(
    img: RasterImage,
    cfg: EncodeConfig = EncodeConfig(),
    decode_matrix: str = "matched",
    ops: IntOps = UNCOUNTED,
) -> tuple[RasterImage, EnergyStats]:
    """Encode + decode without the (lossless) entropy layer."""
    channels, meta, stats = _encode_channels(img, cfg, ops)
    return _decode_image(meta, [quantized for quantized, _ in channels], decode_matrix), stats
