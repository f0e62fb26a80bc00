"""Quantizer tables and the division/shift quantizers.

The independent oracle for both quantizers is exact rational rounding via
fractions.Fraction (round half away from zero), so no binary-arithmetic
assumption from the implementation leaks into the expected values.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ajpeg.fdct import fdct_2d
from ajpeg.knobs import TRUNC_LEVELS, truncate_block
from ajpeg.ops import OpCounter
from ajpeg.quant import (
    Q50,
    build_qmatrix,
    dequantize,
    float_quantizer,
    quantize_dc_exact,
    quantize_div,
    quantize_shift,
    reciprocal_bits,
    sample_shift_scale,
    shift_scale,
    to_shift_matrix,
)


def round_half_away(num, den):
    f = Fraction(num, den)
    if f < 0:
        return -((-f + Fraction(1, 2)).__floor__())
    return (f + Fraction(1, 2)).__floor__()


def test_base_table_checksums():
    assert Q50.shape == (8, 8)
    assert Q50[0, 0] == 16 and Q50[7, 7] == 99
    assert Q50[0].tolist() == [16, 11, 10, 16, 24, 40, 51, 61]
    assert Q50[:, 0].tolist() == [16, 12, 14, 14, 18, 24, 49, 72]
    assert int(Q50.sum()) == 3688


def test_quality_50_is_identity():
    assert np.array_equal(build_qmatrix(50), Q50)


def test_quality_90_spot_values():
    q90 = build_qmatrix(90)
    # round(q * 0.2) entrywise
    assert q90[0, 0] == 3
    assert q90[0, 1] == 2
    assert q90[5, 5] == 21
    assert q90[6, 7] == 20
    assert q90[7, 6] == 21
    assert np.array_equal(q90, np.floor(Q50 * 0.2 + 0.5).astype(np.int64))


def test_quality_10_spot_values():
    q10 = build_qmatrix(10)
    assert q10[0, 0] == 80  # 16 * 5
    assert q10.max() == 255  # clamp engaged
    assert np.array_equal(q10, np.clip(np.floor(Q50 * 5.0 + 0.5), 1, 255))


def test_quality_99_floor_clamp():
    assert build_qmatrix(99).min() == 1


def test_build_qmatrix_range_check():
    for bad in (0, 100, -3):
        with pytest.raises(ValueError, match="quality"):
            build_qmatrix(bad)


def test_shift_matrix_is_floor_log2():
    q = build_qmatrix(50)
    s = to_shift_matrix(q)
    assert np.array_equal(s, np.array([[int(v).bit_length() - 1 for v in row] for row in q]))
    assert s[0, 0] == 4 and s[7, 7] == 6
    assert np.all((1 << s) <= q)
    assert np.all((2 << s) > q)


def test_shift_matrix_rejects_out_of_range():
    with pytest.raises(ValueError, match="divisors"):
        to_shift_matrix(np.zeros((8, 8), dtype=np.int64))


@pytest.mark.parametrize(
    "d, s, want",
    [
        (100, 4, 6),    # 100/16 = 6.25
        (-100, 4, -6),
        (8, 4, 1),      # half rounds away from zero
        (-8, 4, -1),
        (7, 4, 0),
        (-7, 4, 0),
        (123, 0, 123),  # s = 0 passes through
        (-123, 0, -123),
    ],
)
def test_quantize_shift_spot_values(d, s, want):
    out = quantize_shift(np.array([[d]]), np.array([[s]]))
    assert int(out[0, 0]) == want


@given(st.integers(-1024, 1024), st.integers(0, 7))
def test_quantize_shift_matches_rational_rounding(d, s):
    out = quantize_shift(np.array([[d]]), np.array([[s]]))
    assert int(out[0, 0]) == round_half_away(d, 2**s)


@given(st.integers(-1024, 1024), st.integers(1, 255))
def test_quantize_div_matches_rational_rounding(d, q):
    out = quantize_div(np.array([[d]]), np.array([[q]]))
    assert int(out[0, 0]) == round_half_away(d, q)


@given(st.integers(-1024, 1024), st.integers(1, 255))
def test_shift_reconstruction_error_bound(d, q):
    # rounded shift by s keeps |d - c*2^s| <= 2^(s-1); s comes from the
    # divisor via floor(log2), so the shift step is never wider than q
    s = int(to_shift_matrix(np.array([[q]]))[0, 0])
    step = 2**s
    assert step <= q
    err = abs(d - int(quantize_shift(np.array([[d]]), np.array([[s]]))[0, 0]) * step)
    assert err <= step // 2


def test_quantize_shift_odd_symmetry():
    rng = np.random.default_rng(5)
    d = rng.integers(-1024, 1025, size=(8, 8))
    s = to_shift_matrix(build_qmatrix(50))
    assert np.array_equal(quantize_shift(-d, s), -quantize_shift(d, s))


def test_dequantize_multiplies():
    q = build_qmatrix(50)
    c = np.ones((8, 8), dtype=np.int64)
    assert np.array_equal(dequantize(c, q), q)
    assert np.array_equal(dequantize(-2 * c, q), -2 * q)


def test_dequantize_in_place():
    # out may be the quantized blocks themselves, as decode passes them; an
    # out of a narrower dtype would wrap, so it raises
    q = build_qmatrix(50)
    blocks = np.arange(-64, 64, dtype=np.int64).reshape(2, 8, 8)
    want = blocks * q
    assert dequantize(blocks, q, out=blocks) is blocks
    assert np.array_equal(blocks, want)
    with pytest.raises(TypeError):
        dequantize(blocks, q, out=np.empty(blocks.shape, dtype=np.int16))


@pytest.mark.parametrize(
    "q, bits",
    [
        (16, [4]),          # 256/16 = 16 = 2^4
        (10, [1, 3, 4]),    # round(25.6) = 26 = 0b11010
        (1, [8]),
        (3, [0, 2, 4, 6]),  # round(85.33) = 85 = 0b1010101
    ],
)
def test_reciprocal_bits(q, bits):
    assert reciprocal_bits(q) == bits
    assert sum(1 << b for b in bits) == round_half_away(256, q)


@pytest.mark.parametrize(
    "dc, q, want",
    [
        (-1024, 16, -64),
        (-1000, 10, -102),  # round(1000 * 26 / 256) with half-away rounding
        (1000, 10, 102),
        (0, 7, 0),
    ],
)
def test_dc_exact_spot_values(dc, q, want):
    assert int(quantize_dc_exact(np.array(dc), q)) == want


@given(st.integers(-1024, 1024), st.integers(1, 255))
def test_dc_exact_matches_rational_oracle(dc, q):
    recip = round_half_away(256, q)
    want = round_half_away(abs(dc) * recip, 256)
    if dc < 0:
        want = -want
    assert int(quantize_dc_exact(np.array(dc), q)) == want


def test_dc_exact_is_multiplier_free():
    ops = OpCounter()
    quantize_dc_exact(np.array(-1000), 10, ops)
    assert ops.muls == 0
    assert ops.shifts >= len(reciprocal_bits(10))


def test_quantize_shift_is_multiplier_free():
    ops = OpCounter()
    quantize_shift(np.arange(-32, 32).reshape(8, 8), to_shift_matrix(Q50), ops)
    assert ops.muls == 0


def test_float_quantizers_equal_the_integer_ones():
    # every coefficient in +-2**13 (8-bit samples give |c| <= 2**10, see
    # below) against every divisor in [1, 255], 64 divisors to a table,
    # quantized as np.rint(c * t)
    c = np.arange(-(2**13), 2**13 + 1).repeat(64).reshape(-1, 8, 8)
    for first in range(1, 256, 64):
        qmat = np.minimum(np.arange(first, first + 64), 255).reshape(8, 8)
        smat = to_shift_matrix(qmat)
        assert np.array_equal(np.rint(c * float_quantizer(qmat, None, False)), quantize_div(c, qmat))
        assert np.array_equal(np.rint(c * float_quantizer(qmat, smat, False)), quantize_shift(c, smat))
    # exact DC: the table's DC entry, for every DC divisor
    dc = c[:, 0, 0]
    for q in range(1, 256):
        qmat = np.full((8, 8), q)
        t = float_quantizer(qmat, to_shift_matrix(qmat), True)[0, 0]
        assert np.array_equal(np.rint(dc * t), quantize_dc_exact(dc, q))
    # truncation: the same form at s = B
    for level in TRUNC_LEVELS[1:]:
        assert np.array_equal(np.rint(dc * shift_scale(level)), truncate_block(dc, level))


def test_float32_truncation_equals_truncate_block():
    # the round trip truncates level-shifted 8-bit samples in float32, where
    # the 1 + 2**-24 nudge rounds away: every int16 sample of the 8-bit
    # domain at every level, ties included, and each product exact (the
    # float64 product of the same operands)
    x = np.arange(-128, 128, dtype=np.int16)
    for level in TRUNC_LEVELS:
        scale = sample_shift_scale(level)
        assert scale.dtype == np.float32 and np.float32(1 + 2.0**-24) == 1
        product = x.astype(np.float32) * scale
        assert product.dtype == np.float32
        assert np.array_equal(product, x * np.float64(scale))
        assert np.array_equal(np.rint(product), truncate_block(x, level))


def test_fdct_coefficients_stay_inside_the_nudge_margin():
    # np.rint(c * t) is exact for |c| < 2**24 / 510 (quant's docstring), and
    # the test above checks every |c| <= 2**13. The FDCT is linear up to
    # its floors, which move a coefficient by a few units at most: the
    # 2**20-scaled unit blocks give its weights, whose L1 norms bound the
    # linear part, and the 8-bit blocks that follow each coefficient's
    # weight signs reach that bound.
    units = fdct_2d(np.eye(64, dtype=np.int64).reshape(64, 8, 8) << 20).reshape(64, 64)
    weights = units.T / 2**20  # [coefficient, sample]
    assert 128 * np.abs(weights).sum(axis=1).max() < 2**10 + 1
    up = np.where(weights > 0, 127, -128).reshape(64, 8, 8)
    extremes = fdct_2d(np.concatenate([up, -1 - up])).reshape(128, 64)
    largest = np.abs(extremes).max()
    assert largest == 2**10  # the DC of a flat -128 block
    assert 2**10 < 2**13 < 2**24 / 510
