"""Shift-add DCT kernels and the 8-point/8x8 transforms.

Kernel oracles are the floor-rational formulas evaluated with exact Python
integer floor division. Transform accuracy is judged against the float
orthonormal DCT matrix.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ajpeg.entropy import decode_channel, read_container
from ajpeg.fdct import (
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
from ajpeg.ops import OpCounter
from ajpeg.pipeline import EncodeConfig, encode
from ajpeg.quant import dequantize
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
    fdct_2d(np.zeros((8, 8), dtype=np.int64), ops)
    assert ops.addsub == 16 * 61 == 976
    assert ops.muls == 0


def test_1d_accuracy_bound():
    rng = np.random.default_rng(42)
    vecs = rng.integers(-255, 256, size=(4000, 8))
    got = fdct_1d(vecs).astype(np.float64)
    want = vecs @ dct_matrix().T
    assert np.abs(got - want).max() <= 3.0


def test_constant_block_dc_only():
    block = np.full((8, 8), 100, dtype=np.int64)
    out = fdct_2d(block)
    assert out[0, 0] == 797  # float DC is exactly 800
    assert np.all(out.flat[1:] == 0)


def test_coefficient_range_peak():
    # most negative level-shifted block maximizes |DC|
    out = fdct_2d(np.full((8, 8), -128, dtype=np.int64))
    assert out[0, 0] == -1024
    rng = np.random.default_rng(7)
    blocks = rng.integers(-128, 128, size=(512, 8, 8))
    assert np.abs(fdct_2d(blocks)).max() <= 1024


def test_batch_matches_per_block():
    rng = np.random.default_rng(3)
    blocks = rng.integers(-128, 128, size=(16, 8, 8))
    batched = fdct_2d(blocks)
    for k in range(16):
        assert np.array_equal(batched[k], fdct_2d(blocks[k]))


def test_1d_rejects_bad_length():
    with pytest.raises(ValueError, match="length-8"):
        fdct_1d(np.zeros(7, dtype=np.int64))
    with pytest.raises(ValueError, match="8x8"):
        fdct_2d(np.zeros((8, 7), dtype=np.int64))


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
    assert np.array_equal(_round_half_away(ref_idct_2d(c)), _round_half_away(_einsum_idct(c)))


def test_idct_rounding_matches_einsum_on_near_tie_image():
    # a bare _T.T @ c @ _T rounds 32 samples of this image differently
    img = _bench_image("rgb", 1, 6, 7)
    for c in _dequantized_blocks(img, EncodeConfig(quality=90, trunc_level=2)):
        assert np.array_equal(
            _round_half_away(ref_idct_2d(c)), _round_half_away(_einsum_idct(c))
        )
