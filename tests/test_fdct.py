"""Shift-add DCT kernels and the 8-point/8x8 transforms.

Kernel oracles are the floor-rational formulas evaluated with exact Python
integer floor division. Transform accuracy is judged against the float
orthonormal DCT matrix.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ajpeg import fdct
from ajpeg.entropy import decode_channel, read_container
from ajpeg.fdct import (
    _A,
    _B,
    _OUT3_OFFSET,
    _T,
    dct_matrix,
    fdct_1d,
    fdct_2d,
    kernel_butterfly_i,
    kernel_butterfly_ii,
    kernel_butterfly_iii,
    kernel_scaler,
    ref_dct_2d,
    ref_idct_2d,
)
from ajpeg.knobs import TRUNC_LEVELS, truncate_block
from ajpeg.ops import OpCounter
from ajpeg.pipeline import EncodeConfig, decode, encode, reconstruct
from ajpeg.quant import dequantize, to_shift_matrix
from ajpeg.raster import parse_pnm

coord = st.integers(-4096, 4095)


@pytest.mark.parametrize(
    "x, want",
    [(256, 181), (-256, -181), (255, 180), (0, 0), (-1, -1), (1, 0)],
)
def test_scaler_spot_values(x, want):
    assert kernel_scaler(x) == want


def test_butterfly_unit_responses():
    # feeding 2^n isolates the rational coefficients exactly
    assert kernel_butterfly_i(512, 0) == (473, 196)
    assert kernel_butterfly_i(0, 512) == (196, -473)
    assert kernel_butterfly_ii(256, 0) == (213, 142)
    assert kernel_butterfly_ii(0, 256) == (142, -213)
    assert kernel_butterfly_iii(256, 0) == (251, 50)
    assert kernel_butterfly_iii(0, 256) == (50, -251)


@given(coord)
def test_scaler_matches_rational(x):
    assert kernel_scaler(x) == (181 * x) // 256


@given(coord, coord)
def test_butterfly_i_matches_rational(x, y):
    assert kernel_butterfly_i(x, y) == ((473 * x + 196 * y) // 512, (196 * x - 473 * y) // 512)


@given(coord, coord)
def test_butterfly_ii_matches_rational(x, y):
    assert kernel_butterfly_ii(x, y) == ((213 * x + 142 * y) // 256, (142 * x - 213 * y) // 256)


@given(coord, coord)
def test_butterfly_iii_matches_rational(x, y):
    assert kernel_butterfly_iii(x, y) == ((251 * x + 50 * y) // 256, (50 * x - 251 * y) // 256)


def test_kernels_accept_arrays():
    xs = np.array([256, -256, 0, 7], dtype=np.int64)
    ys = np.array([0, 256, -1, 11], dtype=np.int64)
    hi, lo = kernel_butterfly_iii(xs, ys)
    for k in range(4):
        want = kernel_butterfly_iii(int(xs[k]), int(ys[k]))
        assert (int(hi[k]), int(lo[k])) == want


def test_1d_census():
    # the energy model's per-block constant (16 * 61 = 976) rests on this
    ops = OpCounter()
    fdct_1d(np.arange(8), ops)
    assert ops.kernel_calls == {
        "scaler": 4,
        "butterfly_i": 1,
        "butterfly_ii": 1,
        "butterfly_iii": 1,
    }
    assert (ops.adds, ops.subs) == (35, 26)
    assert ops.shifts == 56
    assert ops.muls == 0


def test_2d_census_per_block():
    ops = OpCounter()
    fdct_2d(np.zeros((8, 8), dtype=np.int8), ops)
    assert ops.addsub == 16 * 61 == 976
    assert ops.muls == 0


def test_1d_accuracy_bound():
    rng = np.random.default_rng(42)
    vecs = rng.integers(-255, 256, size=(4000, 8))
    got = fdct_1d(vecs).astype(np.float64)
    want = vecs @ dct_matrix().T
    assert np.abs(got - want).max() <= 3.0


def test_constant_block_dc_only():
    block = np.full((8, 8), 100, dtype=np.int8)
    out = fdct_2d(block)
    assert out.dtype == np.int16
    assert out[0, 0] == 797  # float DC is exactly 800
    assert np.all(out.flat[1:] == 0)


def test_coefficient_range_peak():
    # most negative level-shifted block maximizes |DC|
    out = fdct_2d(np.full((8, 8), -128, dtype=np.int8))
    assert out[0, 0] == -1024
    rng = np.random.default_rng(7)
    blocks = rng.integers(-128, 128, size=(512, 8, 8), dtype=np.int8)
    assert np.abs(fdct_2d(blocks)).max() <= 1024


def test_batch_matches_per_block():
    rng = np.random.default_rng(3)
    blocks = rng.integers(-128, 128, size=(16, 8, 8), dtype=np.int8)
    batched = fdct_2d(blocks)
    for k in range(16):
        assert np.array_equal(batched[k], fdct_2d(blocks[k]))


def _fdct_2d_one_pass(m, ops):
    """fdct_2d as one pass over the whole stack: rows, transpose, rows,
    transpose."""
    t = fdct_1d(np.asarray(m, dtype=np.int64), ops)
    t = fdct_1d(np.swapaxes(t, -1, -2), ops)
    return np.swapaxes(t, -1, -2)


def _assert_matches_one_pass(blocks):
    """fdct_2d equals _fdct_2d_one_pass in values and in every op count."""
    sliced, whole = OpCounter(), OpCounter()
    got = fdct_2d(blocks, sliced)
    assert got.dtype == np.int16
    assert got.shape == np.shape(blocks)
    assert np.array_equal(got, _fdct_2d_one_pass(blocks, whole))
    assert (sliced.adds, sliced.subs, sliced.shifts, sliced.muls) == (
        whole.adds, whole.subs, whole.shifts, whole.muls)
    assert sliced.kernel_calls == whole.kernel_calls


_S = fdct._SLICE_BLOCKS


@pytest.mark.parametrize("shape", [(2 * _S + 76, 8, 8), (3, _S, 8, 8), (0, 8, 8)])
def test_sliced_stack_matches_one_pass(shape):
    # 2 * _S + 76 blocks take three slices, the last one partial; 3 x _S
    # takes three full ones; an empty stack still records its (empty)
    # kernel calls
    _assert_matches_one_pass(np.random.default_rng(11).integers(-128, 128, size=shape, dtype=np.int8))


def _float_form_bound(peak):
    """A bound on the magnitude of every value fdct_2d's float form holds
    (each product, partial sum and result) for |samples| <= peak: a row's
    values are bounded by its |coefficients| times the bounds of its inputs,
    plus 1 for each floor before it and 1 for out3's offset. A column pass's
    inputs are row-pass outputs."""
    inputs = np.full(8, float(peak))
    largest = 0.0
    for _ in range(2):
        a = np.abs(_A) @ inputs + 1
        b = np.abs(_B) @ a[1::2] + 2
        largest = max(largest, a.max(), b.max())
        inputs = np.full(8, max(a[0::2].max(), b.max()))
    return largest


def test_float_lanes_are_exact():
    # Each value of the float form is a multiple of 2**-10, as every
    # coefficient of its passes is.
    for coefficients in (_A, _B, _OUT3_OFFSET):
        assert np.all(np.asarray(coefficients) * 2**10 % 1 == 0)


def test_float32_lanes_are_exact_on_8_bit_samples():
    # The round trip transforms level-shifted 8-bit samples, |x| <= 128, in
    # float32 lanes. Every value of the float form is then a multiple of
    # 2**-10 below 2**12, and float32 steps by 2**-10 or less below 2**14,
    # so each value is exact whatever order a product sums in.
    assert 1449 < _float_form_bound(128) < 1450 < 2**12
    for coefficients in (_A, _B, _OUT3_OFFSET):
        assert np.array_equal(np.asarray(coefficients, dtype=np.float32), coefficients)
    assert np.spacing(np.float32(2**14 - 2**-10)) == 2**-10
    assert _A.dtype == _B.dtype == np.float32


def _float32_transform(blocks):
    """fdct._transform of 8x8 blocks on float32 [col, row, block] lanes, as
    the pipeline's round trip runs it, read back as int64 blocks."""
    lanes = np.ascontiguousarray(np.asarray(blocks).transpose(2, 1, 0), dtype=np.float32)
    fdct._transform(lanes, np.empty_like(lanes))
    assert lanes.dtype == np.float32
    return lanes.transpose(2, 1, 0).astype(np.int64)


def _pass_extremes():
    """Blocks that drive each float32 pass to its extremes: +-128 blocks
    whose every row follows the sign pattern of one linear form of a pass
    and every column that of another (a row of _A, or a row of _B composed
    with _A's odd rows, which maps the inputs to out1, out3, out5 and
    out7), both ways round; the same clipped to 127; constant -128 and
    127 blocks; and checkerboards of -128 and 127."""
    forms = np.concatenate([_A, _B @ _A[1::2]])
    signs = np.where(forms >= 0, 1, -1)
    signs = np.concatenate([signs, -signs])
    patterns = (128 * signs[:, None, :, None] * signs[None, :, None, :]).reshape(-1, 8, 8)
    board = np.where(np.indices((8, 8)).sum(axis=0) % 2, 127, -128)
    flat = np.stack([np.full((8, 8), -128), np.full((8, 8), 127), board, -1 - board])
    return np.concatenate([patterns, np.minimum(patterns, 127), flat])


def test_float32_transform_matches_fdct_2d_at_the_extremes():
    blocks = _pass_extremes()
    assert len(blocks) == 2 * 24 * 24 + 4 and np.abs(blocks).max() == 128
    assert np.array_equal(_float32_transform(blocks), _fdct_2d_one_pass(blocks, OpCounter()))
    # fdct_2d's own float32 lanes, on the extremes an int8 stack can hold
    _assert_matches_one_pass(np.minimum(blocks, 127).astype(np.int8))


@pytest.mark.parametrize("count", [1, _S - 1, _S, _S + 1, 2 * _S + 76])
def test_float32_transform_matches_fdct_2d_across_slice_edges(count):
    # random 8-bit stacks, as they are and truncated at every level, as
    # the round trip's lanes hold them
    blocks = np.random.default_rng(count).integers(-128, 128, size=(count, 8, 8), dtype=np.int8)
    for level in TRUNC_LEVELS:
        samples = truncate_block(blocks, level)
        assert np.array_equal(_float32_transform(samples), fdct_2d(samples))


@pytest.mark.parametrize(
    "samples",
    [
        np.full((8, 8), 100.9),
        np.full((8, 8), np.nan),
        np.ones((2, 8, 8), dtype=bool),
        np.zeros((8, 8), dtype=np.int16),
        np.zeros((8, 8), dtype=np.int64),
        np.zeros((8, 8), dtype=np.uint8),
    ],
    ids=["fraction", "nan", "bool", "int16", "int64", "uint8"],
)
def test_rejects_samples_other_than_int8(samples):
    # the float lanes would floor 100.9 to 100 at the first matmul, and are
    # exact on 8-bit samples only
    with pytest.raises(TypeError, match="int8 samples"):
        fdct_2d(samples)


@settings(max_examples=25)
@given(st.sampled_from([0, 1, _S - 1, _S, _S + 1, 2 * _S + 76]), st.integers(0, 2**32 - 1))
@example(0, 0)  # the kernels' keys, charged with 0 lanes
def test_integer_stacks_match_the_spec(count, seed):
    rng = np.random.default_rng(seed)
    _assert_matches_one_pass(rng.integers(-128, 127, size=(count, 8, 8), endpoint=True, dtype=np.int8))


def test_fdct_memory_is_one_slice_of_float_lanes():
    # fdct_2d holds its int16 result, one slice's float32 lanes and one
    # matrix product of them
    blocks = np.random.default_rng(9).integers(-128, 128, size=(3 * _S, 8, 8), dtype=np.int8)
    tracemalloc.start()
    try:
        out = fdct_2d(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.int16
    assert peak < out.nbytes + 2 * _S * 64 * 4 + 4096
    assert np.array_equal(out, _fdct_2d_one_pass(blocks, OpCounter()))


def test_1d_rejects_bad_length():
    with pytest.raises(ValueError, match="length-8"):
        fdct_1d(np.zeros(7, dtype=np.int64))
    with pytest.raises(ValueError, match="8x8"):
        fdct_2d(np.zeros((8, 7), dtype=np.int8))
    with pytest.raises(ValueError, match="8x8"):
        ref_idct_2d(np.zeros((2, 8, 7)))


def test_dct_matrix_orthonormal():
    t = dct_matrix()
    assert np.abs(t @ t.T - np.eye(8)).max() < 1e-12


def test_ref_transforms_invert():
    rng = np.random.default_rng(11)
    block = rng.integers(-128, 128, size=(8, 8)).astype(np.float64)
    assert np.abs(ref_idct_2d(ref_dct_2d(block)) - block).max() < 1e-9


def test_ref_dct_parseval():
    rng = np.random.default_rng(12)
    block = rng.normal(size=(8, 8))
    c = ref_dct_2d(block)
    assert np.sum(c * c) == pytest.approx(np.sum(block * block), rel=1e-12)


def _round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _einsum_idct(c):
    """The inverse transform that defines the decoder's pixels."""
    return np.einsum("ji,...jk,kl->...il", _T, np.asarray(c, dtype=np.float64), _T)


def _bench_image(kind, seed, index, count):
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return parse_pnm(module.image(kind, seed, index, count))


def _dequantized_blocks(img, cfg):
    """Each channel's dequantized coefficient blocks as the decoder sees them
    (shift quantization: the divisors are 2**payload)."""
    meta, streams = read_container(encode(img, cfg)[0])
    divisors = np.int64(1) << meta.quant_payload.reshape(8, 8)
    return [dequantize(decode_channel(s), divisors) for s in streams]


def test_idct_rounding_matches_einsum_at_dc_ties():
    # c00 = 8k + 4 puts all 64 samples of the block on the tie k + 1/2
    c = np.zeros((260, 8, 8), dtype=np.int64)
    c[:, 0, 0] = 8 * np.arange(-130, 130) + 4
    assert np.array_equal(ref_idct_2d(c), _round_half_away(_einsum_idct(c)))


def test_lane_idct_with_folded_divisors_matches_einsum_at_ties():
    # power-of-2 divisors of a rising table, 1 at DC: a DC of 8k + 4 puts
    # every sample on a tie (every other block has a small AC term on top),
    # and block 0's sample (1, 6) is the tie -0.5, which the products give
    # as -0.4999999999999999
    divisors = 1 << to_shift_matrix(np.add.outer(np.arange(8), np.arange(8)) * 9 + 1)
    rng = np.random.default_rng(14)
    q = np.zeros((261, 8, 8))
    q[1:, 0, 0] = 8 * np.arange(-130, 130) + 4
    q[1::2, 0, 1] = rng.integers(-3, 4, size=130)
    q[0, 0, 0], q[0, 0, 2], q[0, 1, 2], q[0, 2, 0], q[0, 2, 1] = -4, 1, -1, -1, -1
    lanes = np.ascontiguousarray(q.transpose(2, 1, 0))
    out = np.empty(q.shape)
    fdct._idct_lanes(lanes, q.__getitem__, np.empty_like(lanes), out, divisors)
    assert np.array_equal(out, _round_half_away(_einsum_idct(q * divisors)))


def test_idct_rounding_matches_einsum_on_near_tie_image():
    # a bare _T.T @ c @ _T rounds 32 samples of this image differently
    img = _bench_image("rgb", 1, 6, 7)
    for c in _dequantized_blocks(img, EncodeConfig(quality=90, trunc_level=2)):
        assert np.array_equal(ref_idct_2d(c), _round_half_away(_einsum_idct(c)))


@pytest.mark.parametrize("count", [_S - 1, _S, _S + 1, 2 * _S + 76])
def test_ref_idct_returns_the_einsum_rounded_half_away(count):
    # random coefficients, and every seventh block a DC of 8k + 4 alone,
    # which puts all 64 samples on a tie: the result is already rounded
    rng = np.random.default_rng(count)
    c = rng.integers(-64, 65, size=(count, 8, 8)) * rng.integers(1, 17, size=(8, 8))
    ties = c[::7]
    ties[:] = 0
    ties[:, 0, 0] = 8 * rng.integers(-128, 128, size=len(ties)) + 4
    got = ref_idct_2d(c)
    assert got.dtype == np.float64 and got.shape == c.shape
    assert np.array_equal(got, _round_half_away(_einsum_idct(c)))


def test_round_half_away_keeps_the_float_form_of_the_decoder():
    # sign(x) * floor(|x| + 0.5) with the addition rounded as float64 does:
    # 0.49999999999999994 + 0.5 rounds to 1, and 2**52 + 1.5 to 2**52 + 2
    below_half = np.nextafter(0.5, 0)
    x = np.array([0.5, -0.5, 1.5, -2.5, below_half, -below_half, -0.0, 2.0**52 + 1, 3.25, -3.75])
    got = fdct.round_half_away(x.copy())
    assert got.tolist() == [1, -1, 2, -3, 1, -1, 0, 2.0**52 + 2, 3, -4]


def test_einsum_idct_does_not_follow_the_memory_layout():
    # sample (1, 6) of this block is the tie -0.5; summed in the order of a
    # transposed layout, the bare einsum gives -0.4999999999999998
    c = np.zeros((1, 8, 8))
    c[0, 0, 0], c[0, 0, 2], c[0, 1, 2], c[0, 2, 0], c[0, 2, 1] = -4, 16, -16, -16, -16
    strided = np.ascontiguousarray(c.transpose(0, 2, 1)).transpose(0, 2, 1)
    assert _einsum_idct(strided)[0, 1, 6] != fdct._einsum_idct(c)[0, 1, 6] == -0.5
    assert np.array_equal(fdct._einsum_idct(strided), fdct._einsum_idct(c))


def test_reconstruct_equals_the_codec_on_the_near_tie_image(monkeypatch):
    # the fused round trip and decode both recompute near-tie blocks with
    # the einsum, and round them alike
    img = _bench_image("rgb", 1, 6, 7)
    cfg = EncodeConfig(quality=90, trunc_level=2)
    recomputed = []
    exact = fdct._einsum_idct
    monkeypatch.setattr(fdct, "_einsum_idct", lambda c: recomputed.append(len(c)) or exact(c))
    direct = reconstruct(img, cfg)[0]
    assert sum(recomputed) > 0
    recomputed.clear()
    assert decode(encode(img, cfg)[0]) == direct
    assert sum(recomputed) > 0
