"""Quantization: standard divisor matrices and the power-of-2 shift variant.

A quality level scales the base luminance table; the shift variant rounds
every divisor down to a power of two (s = floor(log2 q)) so quantization
becomes a right shift with a rounding offset added to the magnitude first,
the same rounded power-of-2 division the precision-scaling knob uses. Both
quantizers therefore round half away from zero; only the divisors differ,
which is what makes the shift variant strictly finer. Dequantization
multiplies by whichever divisor matrix the decoder selects ("matched"
reuses the encoder's, while "standard" reuses the unmodified table and
exposes the mismatch).
"""

from __future__ import annotations

import numpy as np

from .ops import UNCOUNTED, IntOps

QUALITY_LEVELS = range(1, 100)

# Base luminance quantization table (quality 50).
# fmt: off
Q50 = np.array([
    [16,  11,  10,  16,  24,  40,  51,  61],
    [12,  12,  14,  19,  26,  58,  60,  55],
    [14,  13,  16,  24,  40,  57,  69,  56],
    [14,  17,  22,  29,  51,  87,  80,  62],
    [18,  22,  37,  56,  68, 109, 103,  77],
    [24,  35,  55,  64,  81, 104, 113,  92],
    [49,  64,  78,  87, 103, 121, 120, 101],
    [72,  92,  95,  98, 112, 100, 103,  99],
], dtype=np.int64)
# fmt: on


def build_qmatrix(level: int) -> np.ndarray:
    """Scale the base table to a quality level in [1, 99], clamped to [1, 255]."""
    if level not in QUALITY_LEVELS:
        raise ValueError("quality level must be in [1, 99]")
    if level >= 50:
        factor = (100 - level) / 50.0
    else:
        factor = 50.0 / level
    scaled = np.floor(Q50 * factor + 0.5)
    return np.clip(scaled, 1, 255).astype(np.int64)


def to_shift_matrix(qmatrix: np.ndarray) -> np.ndarray:
    """Per-entry shift amounts s = floor(log2 q); the divisors become 2**s."""
    q = np.asarray(qmatrix, dtype=np.int64)
    if np.any(q < 1) or np.any(q > 255):
        raise ValueError("divisors must be in [1, 255]")
    return np.frexp(q.astype(np.float64))[1] - 1


def quantize_shift(coeffs, smatrix, ops: IntOps = UNCOUNTED) -> np.ndarray:
    """Quantize by right shift, rounding half away from zero, entrywise.

    c = sign(d) * ((|d| + 2**(s-1)) >> s); for s = 0 the entry passes
    through unchanged. Equivalent to round_half_away(d / 2**s) but runs on
    the shift-add datapath (the rounding offset is one extra adder input).
    The sign goes back on in place, as a two's-complement conditional
    negation: with sign = d >> 63 (0 or -1), (mag ^ sign) - sign.
    """
    d = np.asarray(coeffs, dtype=np.int64)
    s = np.asarray(smatrix, dtype=np.int64)
    offset = np.where(s > 0, np.int64(1) << np.maximum(s - 1, 0), 0)
    mag = ops.shr(ops.add(np.abs(d), offset), s)
    sign = d >> 63
    mag ^= sign
    mag -= sign
    return mag


def quantize_div(coeffs, qmatrix) -> np.ndarray:
    """Quantize by true division, rounding half away from zero."""
    d = np.asarray(coeffs, dtype=np.int64)
    q = np.asarray(qmatrix, dtype=np.int64)
    mag = (2 * np.abs(d) + q) // (2 * q)
    return np.where(d < 0, -mag, mag)


def dequantize(quantized, divisors) -> np.ndarray:
    """Multiply quantized coefficients by the divisor matrix."""
    return np.asarray(quantized, dtype=np.int64) * np.asarray(divisors, dtype=np.int64)


def reciprocal_bits(q: int) -> list[int]:
    """Bit positions of round(256/q): the shift-add expansion of 1/q at 8
    fractional bits, used by the exact-DC mode."""
    if q < 1:
        raise ValueError("divisor must be positive")
    recip = (2 * 256 + q) // (2 * q)  # round(256/q)
    return [b for b in range(recip.bit_length()) if recip >> b & 1]


def quantize_dc_exact(dc, q: int, ops: IntOps = UNCOUNTED):
    """Quantize a DC coefficient by ~1/q via shift-add.

    Multiplies |dc| by round(256/q) one set bit at a time, then rounds the
    8 fractional bits away: sign(dc) * ((sum of |dc|<<b) + 128 >> 8).
    """
    d = np.asarray(dc, dtype=np.int64)
    mag = np.abs(d)
    acc = None
    for b in reciprocal_bits(q):
        term = ops.shl(mag, b)
        acc = term if acc is None else ops.add(acc, term)
    c = ops.shr(ops.add(acc, 128), 8)
    return np.where(d < 0, -c, c)
