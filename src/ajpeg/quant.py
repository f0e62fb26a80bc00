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
coefficients instead, in float forms of these integer quantizers that give
the same integers (float_quantizer, round_half_away):

- shift quantization and truncation: round_half_away(x * 2**-s); x * 2**-s
  is exact, with at most 7 fractional bits;
- division: round_half_away(x / q); the quotient's rounding error is far
  smaller than its distance from any half-integer it is not equal to;
- exact DC: round_half_away(x * round(256/q) / 256), exact with 8
  fractional bits, which is floor((|x| round(256/q) + 128) / 256) with
  x's sign;
- dequantization: the rounded integer times the divisor, an integer far
  below 2**53.
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


def dequantize(quantized, divisors) -> np.ndarray:
    """Multiply quantized coefficients by the divisor matrix."""
    return np.asarray(quantized, dtype=np.int64) * np.asarray(divisors, dtype=np.int64)


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


_SIGN_BIT = np.uint64(1 << 63)
_HALF_BITS = np.float64(0.5).view(np.uint64)


def round_half_away(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """x rounded half away from zero, in place, for a float64 array x;
    scratch is a float64 array of x's shape.

    Computed as trunc(x + copysign(0.5, x)), which is
    sign(x) * floor(|x| + 0.5) with the addition rounded as float64 does:
    IEEE addition rounds symmetrically in sign, and -0.0 rounds to 0 as 0
    does. Where |x| + 0.5 is exact, as for the quantizer's and truncation's
    dyadic values, that is the exact rounding; the decoder's pixels are
    defined by this float form. copysign(0.5, x) is formed from x's sign
    bit with integer ops, several times faster here than np.copysign."""
    half = scratch.view(np.uint64)
    np.bitwise_and(x.view(np.uint64), _SIGN_BIT, out=half)
    half |= _HALF_BITS
    x += scratch
    return np.trunc(x, out=x)


def float_quantizer(qmat, smat, dc_exact: bool):
    """(op, table): the quantizer of the config, on float64 coefficients c,
    as round_half_away(op(c, table)), entrywise with an 8x8 table.

    - shift (smat): op multiplies by 2**-s, so c * 2**-s is exact and the
      rounding is that of quantize_shift;
    - exact DC: the DC entry is round(256/q) / 256, so c * round(256/q) /
      256 is exact, and rounding it half away from zero is
      quantize_dc_exact's sign(c) * ((|c| round(256/q) + 128) >> 8);
    - division (smat None): op divides by q. For integers |c| < 2**26 and
      q <= 255, c / q is rounded by less than 2**-26, and the exact
      quotient is either a half-integer, which float64 holds, or at least
      1/(2q) away from every half-integer. So the rounding of the rounded
      quotient, its float addition of 0.5 included, is that of the exact
      one, quantize_div's floor((2|c| + q) / 2q) with c's sign.

    Coefficients of 8-bit samples are far inside these bounds."""
    if smat is None:
        return np.divide, np.asarray(qmat, dtype=np.float64)
    table = np.ldexp(1.0, -np.asarray(smat, dtype=np.int64))
    if dc_exact:
        q = int(qmat[0, 0])
        table[0, 0] = _reciprocal(q) / 256
    return np.multiply, table
