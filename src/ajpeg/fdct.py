"""Multiplier-less 8-point forward DCT built from shift-add kernels.

The four kernels realize fixed-point rotations/scalings exactly:

    kernel_scaler        floor(181*x / 256)                  ~ 0.7071*x
    kernel_butterfly_i   floor((473*x + 196*y) / 512), ...   ~ (0.9238, 0.3836)
    kernel_butterfly_ii  floor((213*x + 142*y) / 256), ...   ~ (0.8320, 0.5547)
    kernel_butterfly_iii floor((251*x + 50*y) / 256), ...    ~ (0.9805, 0.1953)

All intermediate shift-add arithmetic is exact in integers; only the final
right shift truncates, so each kernel equals the floor of the rational form
bit for bit. Inputs are assumed narrow enough that intermediates fit the
datapath (|x| < 2**22 is ample); callers enforce this via the pixel range.

fdct_1d wires the kernels into the even/odd butterfly flowgraph of the
8-point DCT; fdct_2d applies it to rows, transposes, and repeats. The
float-matrix references ref_dct_2d/ref_idct_2d serve as oracles and as the
decoder's inverse transform. The decoder's pixels are defined by rounding
the einsum form of the inverse half away from zero; ref_idct_2d computes
the faster matrix product and recomputes with the einsum only the blocks
that have a sample within a proven float-error bound of a .5 tie, so the
rounded pixels are the same.

Kernel functions accept Python ints or numpy integer arrays (any shape);
fdct_1d/fdct_2d accept single vectors/blocks or batches.
"""

from __future__ import annotations

import numpy as np

from .ops import UNCOUNTED, IntOps


def kernel_scaler(x, ops: IntOps = UNCOUNTED):
    """floor(181*x / 256): scale by ~1/sqrt(2)."""
    ops.kernel("scaler", np.size(x))
    a = ops.add(x, ops.shl(x, 2))  # 5x
    b = ops.add(ops.sub(a, ops.shl(a, 4)), ops.shl(x, 8))  # 181x
    return ops.shr(b, 8)


def kernel_butterfly_i(x, y, ops: IntOps = UNCOUNTED):
    """floor((473x + 196y)/512), floor((196x - 473y)/512)."""
    ops.kernel("butterfly_i", np.size(x))
    a_xy = ops.sub(x, ops.shl(y, 1))  # x - 2y
    b_x = ops.add(ops.sub(x, ops.shl(x, 3)), ops.shl(y, 2))  # -7x + 4y
    b_y = ops.add(ops.shl(a_xy, 2), y)  # 4x - 7y
    c_xy = ops.add(b_x, ops.shl(a_xy, 5))  # 25x - 60y
    d_x = ops.add(ops.sub(c_xy, ops.shl(b_x, 6)), ops.shl(y, 9))  # 473x + 196y
    d_y = ops.sub(ops.shl(c_xy, 3), b_y)  # 196x - 473y
    return ops.shr(d_x, 9), ops.shr(d_y, 9)


def _times_neg71(a, ops: IntOps):
    # -71a = -(64a + 4a + 2a + a)
    s = ops.add(ops.add(ops.shl(a, 6), ops.shl(a, 2)), ops.add(ops.shl(a, 1), a))
    return ops.neg(s)


def kernel_butterfly_ii(x, y, ops: IntOps = UNCOUNTED):
    """floor((213x + 142y)/256), floor((142x - 213y)/256)."""
    ops.kernel("butterfly_ii", np.size(x))
    a_x = ops.sub(ops.sub(x, ops.shl(x, 2)), ops.shl(y, 1))  # -3x - 2y
    a_y = ops.add(ops.sub(y, ops.shl(x, 1)), ops.shl(y, 1))  # -2x + 3y
    b_x = _times_neg71(a_x, ops)  # 213x + 142y
    b_y = _times_neg71(a_y, ops)  # 142x - 213y
    return ops.shr(b_x, 8), ops.shr(b_y, 8)


def kernel_butterfly_iii(x, y, ops: IntOps = UNCOUNTED):
    """floor((251x + 50y)/256), floor((50x - 251y)/256)."""
    ops.kernel("butterfly_iii", np.size(x))
    a_x = ops.sub(ops.shl(ops.add(y, ops.shl(y, 2)), 1), x)  # -x + 10y
    a_y = ops.add(ops.shl(ops.add(x, ops.shl(x, 2)), 1), y)  # 10x + y
    b_x = ops.add(a_x, ops.shl(a_x, 2))  # 5*a_x
    b_y = ops.add(a_y, ops.shl(a_y, 2))  # 5*a_y
    c_x = ops.add(ops.shl(x, 8), b_x)  # 251x + 50y
    c_y = ops.sub(b_y, ops.shl(y, 8))  # 50x - 251y
    return ops.shr(c_x, 8), ops.shr(c_y, 8)


def fdct_1d(vec, ops: IntOps = UNCOUNTED) -> np.ndarray:
    """8-point forward DCT of vec (..., 8) using shift-add kernels only."""
    x = np.asarray(vec, dtype=np.int64)
    if x.shape[-1] != 8:
        raise ValueError("fdct_1d expects length-8 vectors")
    x0, x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    x4, x5, x6, x7 = x[..., 4], x[..., 5], x[..., 6], x[..., 7]

    a0 = ops.add(x0, x7)
    a1 = ops.add(x1, x6)
    a2 = ops.add(x2, x5)
    a3 = ops.add(x3, x4)
    a4 = ops.sub(x3, x4)
    a5 = ops.sub(x2, x5)
    a6 = ops.sub(x1, x6)
    a7 = ops.sub(x0, x7)

    # Even half.
    b0 = ops.add(a0, a3)
    b1 = ops.add(a1, a2)
    b2 = ops.sub(a1, a2)
    b3 = ops.sub(a0, a3)
    out0 = ops.shr(kernel_scaler(ops.add(b0, b1), ops), 1)
    out4 = ops.shr(kernel_scaler(ops.sub(b0, b1), ops), 1)
    t2, t6 = kernel_butterfly_i(b3, b2, ops)
    out2 = ops.shr(t2, 1)
    out6 = ops.shr(t6, 1)

    # Odd half.
    c5 = kernel_scaler(ops.sub(a6, a5), ops)
    c6 = kernel_scaler(ops.add(a6, a5), ops)
    d4 = ops.add(a4, c5)
    d5 = ops.sub(a4, c5)
    d6 = ops.sub(a7, c6)
    d7 = ops.add(a7, c6)
    t1, t7 = kernel_butterfly_iii(d7, d4, ops)
    out1 = ops.shr(t1, 1)
    out7 = ops.shr(t7, 1)
    u, v = kernel_butterfly_ii(d5, d6, ops)
    out5 = ops.shr(u, 1)
    out3 = ops.shr(ops.neg(v), 1)

    return np.stack([out0, out1, out2, out3, out4, out5, out6, out7], axis=-1)


def fdct_2d(block, ops: IntOps = UNCOUNTED) -> np.ndarray:
    """2-D DCT of 8x8 blocks (..., 8, 8): rows, transpose, rows, transpose."""
    m = np.asarray(block, dtype=np.int64)
    if m.shape[-2:] != (8, 8):
        raise ValueError("fdct_2d expects 8x8 blocks")
    t = fdct_1d(m, ops)
    t = np.swapaxes(t, -1, -2)
    t = fdct_1d(t, ops)
    return np.swapaxes(t, -1, -2)


def dct_matrix() -> np.ndarray:
    """Orthonormal 8-point DCT-II basis matrix in float64."""
    t = np.empty((8, 8), dtype=np.float64)
    t[0, :] = 1.0 / np.sqrt(8.0)
    j = np.arange(8)
    for i in range(1, 8):
        t[i, :] = 0.5 * np.cos((2 * j + 1) * i * np.pi / 16.0)
    return t


_T = dct_matrix()


def ref_dct_2d(block) -> np.ndarray:
    """Float reference 2-D DCT (oracle for the fixed-point path)."""
    m = np.asarray(block, dtype=np.float64)
    return np.einsum("ij,...jk,lk->...il", _T, m, _T)


# Per unit of a block's sum of |coefficients|, a bound on how far the
# matrix product and the einsum of ref_idct_2d can differ in any sample.
# Each lies within gamma_n * (|T|^T |c| |T|) of the exact value (Higham,
# Accuracy and Stability of Numerical Algorithms, 3.5), with n = 16 for two
# 8-term products and n = 65 for the 64-term triple sum; as |T| <= 0.4904,
# the gap is below (gamma_16 + gamma_65) * 0.2405 * sum|c| < 2.2e-15 * sum|c|.
# 2**-47 (7.1e-15) keeps a 3x margin. The float steps of the decoder's
# sign(x) * floor(|x| + 0.5) sit within an ulp of the ties, far inside it.
_TIE_SLACK = 2.0**-47


def ref_idct_2d(coeffs) -> np.ndarray:
    """Float inverse 2-D DCT; exact inverse of ref_dct_2d up to float error.

    Computed as _T.T @ c @ _T. A block with a sample within _TIE_SLACK *
    sum|c| of a .5 tie is recomputed with the einsum that defines the
    decoder's pixels, so rounding the result half away from zero gives the
    einsum's integers in every block.
    """
    c = np.array(coeffs, dtype=np.float64)  # a private copy that becomes the result
    if c.shape[-2:] != (8, 8):
        raise ValueError("ref_idct_2d expects 8x8 blocks")
    blocks = c.reshape(-1, 8, 8)
    scratch = np.abs(blocks)
    slack = scratch.reshape(-1, 64).sum(axis=1) * _TIE_SLACK
    np.matmul(_T.T, blocks, out=scratch)
    np.matmul(scratch, _T, out=blocks)
    # Each sample's distance to the nearest integer; a tie is 0.5 away.
    np.rint(blocks, out=scratch)
    np.subtract(blocks, scratch, out=scratch)
    np.abs(scratch, out=scratch)
    near = np.flatnonzero(scratch.reshape(-1, 64).max(axis=1) >= 0.5 - slack)
    if near.size:
        exact = np.asarray(coeffs).reshape(-1, 8, 8)[near].astype(np.float64)
        blocks[near] = np.einsum("ji,...jk,kl->...il", _T, exact, _T)
    return c
