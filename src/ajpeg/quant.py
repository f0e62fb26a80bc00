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

The pipeline's fused round trip (pipeline._round_trip) quantizes float64
coefficients instead, as np.rint(c * t) with a nudged float table t
(float_quantizer, shift_scale), and gets the same integers. Each entry of t
is the quantizer's scale times 1 + 2**-24:

- shift quantization: 2**-s, and c * t is exact;
- exact DC: round(256/q) / 256, and c * t is exact;
- division: 1/q, and c * t carries a few ulps of rounding error.

np.rint rounds half to even, and the nudge turns that into half away from
zero. An exact tie x = c * scale, a half-integer, moves by |x| 2**-24 away
from zero, far more than any rounding error, so it rounds away from zero.
Every other x is at least 1/510 from every half-integer: 2**-s with s <= 8
in the dyadic forms, and 1/(2q) with q <= 255 in division. As |x| <= |c|,
the nudge moves it by less than that while |c| < 2**24 / 510 (about 2**15),
rounding errors included. FDCT coefficients of 8-bit samples are below
2**13; tests/test_quant.py checks that, and every c in +-2**13 against
every scale the pipeline uses. Dequantization is the rounded integer times
the divisor, an integer far below 2**53.

The round trip truncates in float32 instead, where 1 + 2**-24 rounds to 1,
so it nudges by 1 + 2**-9 (sample_shift_scale). Its samples are the tiles'
level-shifted 8-bit integers, |x| <= 128: x * 2**-B * (1 + 2**-9) holds at
most 17 significant bits, so float32 forms it exactly; an exact tie moves
away from zero by |x| 2**-B-9 > 0, and every other x 2**-B lies at least
2**-B from every half-integer, four times more than the nudge's largest
move, 128 * 2**-B-9.

The decoder's last rounding, of the inverse transform's samples, is not a
quantizer: it lives in fdct (round_half_away), beside the einsum that
defines the decoder's pixels.
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
    through unchanged. Equivalent to d / 2**s rounded half away from zero,
    but runs on the shift-add datapath (the rounding offset is one extra
    adder input).

    Signed integer coefficients keep their dtype; any others are cast to
    int64. The magnitude is formed in the unsigned type of the same width,
    where |-2**(w-1)| = 2**(w-1) does not overflow, and takes its sign
    back in place, as a two's-complement conditional negation: with
    sign = d >> (w - 1) (0 or -1), (mag ^ sign) - sign.
    """
    d = np.asarray(coeffs)
    if d.dtype.kind != "i":
        d = d.astype(np.int64)
    unsigned = np.dtype(f"u{d.itemsize}")
    s = np.asarray(smatrix, dtype=unsigned)
    offset = (unsigned.type(1) << s) >> 1  # 2**(s-1), and 0 for s = 0
    mag = ops.shr(ops.add(np.abs(d).view(unsigned), offset), s).view(d.dtype)
    sign = d >> (8 * d.itemsize - 1)
    mag ^= sign
    mag -= sign
    return mag


def quantize_div(coeffs, qmatrix) -> np.ndarray:
    """Quantize by true division, rounding half away from zero."""
    d = np.asarray(coeffs, dtype=np.int64)
    q = np.asarray(qmatrix, dtype=np.int64)
    mag = (2 * np.abs(d) + q) // (2 * q)
    return np.where(d < 0, -mag, mag)


def dequantize(quantized, divisors, out=None) -> np.ndarray:
    """Multiply quantized coefficients by the divisor matrix, in int64.
    out, when given, is an int64 array of their shape that takes the
    result, and may be quantized itself; an out of another dtype raises."""
    q = np.asarray(quantized, dtype=np.int64)
    return np.multiply(q, np.asarray(divisors, dtype=np.int64), out=out, casting="no")


def _reciprocal(q: int) -> int:
    """round(256/q), the exact-DC mode's multiplier."""
    return (2 * 256 + q) // (2 * q)


def reciprocal_bits(q: int) -> list[int]:
    """Bit positions of round(256/q): the shift-add expansion of 1/q at 8
    fractional bits, used by the exact-DC mode."""
    if q < 1:
        raise ValueError("divisor must be positive")
    recip = _reciprocal(q)
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


# 1 + 2**-24: a table scaled by it makes np.rint round ties away from zero
_AWAY = 1 + 2.0**-24


def shift_scale(s):
    """2**-s * (1 + 2**-24), exact, entrywise: np.rint(c * shift_scale(s))
    is quantize_shift(c, s) for 0 <= s <= 8 and integers |c| < 2**24 / 510
    (see the module docstring)."""
    return np.ldexp(_AWAY, -np.asarray(s, dtype=np.int64))


def sample_shift_scale(s: int) -> np.float32:
    """2**-s * (1 + 2**-9) as float32, exact: np.rint(x * scale) in float32
    is quantize_shift(x, s) for integer samples |x| <= 128, the tiles'
    level-shifted 8-bit domain (see the module docstring)."""
    return np.float32(np.ldexp(1 + 2.0**-9, -s))


def float_quantizer(qmat, smat, dc_exact: bool) -> np.ndarray:
    """The config's quantizer on float64 coefficients c as one 8x8 table
    t: np.rint(c * t) entrywise is the integer quantizer's result.

    Each entry is the quantizer's scale times 1 + 2**-24 (see the module
    docstring): 2**-s in shift mode (smat), round(256/q) / 256 at the DC
    entry in exact-DC mode, and 1/q in division mode (smat None)."""
    if smat is None:
        return _AWAY / np.asarray(qmat, dtype=np.float64)
    table = shift_scale(smat)
    if dc_exact:
        table[0, 0] = np.ldexp(_reciprocal(int(qmat[0, 0])) * _AWAY, -8)
    return table
