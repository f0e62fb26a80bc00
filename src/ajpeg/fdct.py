"""Multiplier-less 8-point forward DCT built from shift-add kernels.

The four kernels realize fixed-point rotations/scalings exactly:

    kernel_scaler        floor(181*x / 256)                  ~ 0.7071*x
    kernel_butterfly_i   floor((473*x + 196*y) / 512), ...   ~ (0.9238, 0.3836)
    kernel_butterfly_ii  floor((213*x + 142*y) / 256), ...   ~ (0.8320, 0.5547)
    kernel_butterfly_iii floor((251*x + 50*y) / 256), ...    ~ (0.9805, 0.1953)

All intermediate shift-add arithmetic is exact in integers; only the final
right shift truncates, so each kernel equals the floor of the rational form
bit for bit. _flowgraph wires the kernels into the even/odd butterfly
flowgraph of the 8-point DCT, and fdct_1d runs it along the last axis in
int64: together with the kernels, they are the executable spec of the
datapath and of its op census.

fdct_2d computes the same integers in another form. Between its right
shifts the flowgraph is linear, and nested floors collapse:
floor(floor(n / a) / b) = floor(n / ab) for integer n and positive integers
a, b. So out0, out2, out4 and out6 are each one floor of a linear form of
the eight inputs over 512 or 1024, and so are the odd half's a4, a7, c5 and
c6 (over 1, 1, 256 and 256). out1, out5 and out7 are then one floor of a
linear form of [a4, a7, c5, c6] over 512. out3 = floor(-v / 2), where v =
floor(n / 256) and n = 142 d5 - 213 d6. As -v = ceil(-n / 256) =
floor((255 - n) / 256), out3 = floor((255 - n) / 512): the same form with
an offset of 255/512. Each 1-D pass is thus y = floor(_A @ x), then
floor(_B @ [a4, a7, c5, c6] + offset) on the odd rows. Pass 1 runs it on
the rows and pass 2 on the columns, in float lanes.

The float form is exact while every value it holds is. Each product,
partial sum and result is a multiple of 2**-10, which float64 holds exactly
below 2**43, and float32 below 2**14. tests/test_fdct.py measures two gains
per unit of the largest |sample|: 8926, the largest L1 gain of the spec's
intermediates, and about 11.2, the float form's own bound. fdct_2d accepts
|sample| < _EXACT_INPUT = 2**28, where even the larger gain gives
8926 * 2**28 * 2**10 = 2**51.1 in units of 2**-10, about 4x inside 2**53,
and raises ValueError beyond it. Float samples would slip past the floors,
so only integer dtypes are accepted (TypeError otherwise). On level-shifted
8-bit samples every value stays below 2**12 (see _pass), so the pipeline's
round trip runs the same transform on float32 lanes, and so does fdct_2d
on int8 samples, the tiles' type; it runs every other dtype on float64.

The op census is the hardware's, not the software's: fdct_2d charges its
IntOps n times _BLOCK_CENSUS, the census of _flowgraph on one block's 16
1-D transforms, measured once at import (as knobs.skip_flags_many charges
the skip bands it computes in another form).

ref_dct_2d is a float-matrix oracle. ref_idct_2d is the decoder's inverse
transform, and its rounding: the decoder's pixels are defined by rounding
the einsum form of the inverse (_einsum_idct) half away from zero
(round_half_away), and that rule lives here alone. The lane IDCT,
_idct_lanes, computes the same pixels faster, from coefficients on float64
[freq across, freq down, block] lanes: one (k x 8) @ (8 x 8) product per
frequency across, then one (8k x 8) @ (8 x 8) product that leaves the
samples block by block, rounded by np.rint. Any summation order of these
8-term products lies within _TIE_SLACK * sum|c| of the einsum, so only a
block with a sample that close to a .5 tie can round differently (np.rint
rounds ties to even), and that block is recomputed with the einsum and
rounded half away from zero; everywhere else np.rint is that rounding.
ref_idct_2d runs it on each slice of a decoded stack, and the pipeline's
fused round trip on the lanes its quantizer leaves, with the
dequantization folded into the first product's matrices.

Kernel functions accept Python ints or numpy integer arrays (any shape);
fdct_1d/fdct_2d accept single vectors/blocks or batches.
"""

from __future__ import annotations

import numpy as np

from .ops import UNCOUNTED, IntOps, OpCounter


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


def _flowgraph(x0, x1, x2, x3, x4, x5, x6, x7, ops: IntOps):
    """The even/odd butterfly flowgraph of the 8-point DCT: the eight
    outputs, in frequency order, of the eight input lanes."""
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

    return out0, out1, out2, out3, out4, out5, out6, out7


def fdct_1d(vec, ops: IntOps = UNCOUNTED) -> np.ndarray:
    """8-point forward DCT of vec (..., 8) using shift-add kernels only."""
    x = np.asarray(vec, dtype=np.int64)
    if x.shape[-1] != 8:
        raise ValueError("fdct_1d expects length-8 vectors")
    return np.stack(_flowgraph(*np.moveaxis(x, -1, 0), ops), axis=-1)


# Blocks per step of fdct_2d and ref_idct_2d, and of every other per-block
# step over a stack (the skip scan, and the pipeline's compress, decode and
# round trip). A fixed slice bounds the working memory whatever the stack
# size: fdct_2d holds a slice's float lanes and one matrix product of
# them.
_SLICE_BLOCKS = 1024

# fdct_2d's samples lie strictly inside +-_EXACT_INPUT (see the module
# docstring).
_EXACT_INPUT = 2**28


def _block_census() -> OpCounter:
    """The spec's op census of one 8x8 block: _flowgraph on 16 lanes, one
    per row and one per column."""
    census = OpCounter()
    _flowgraph(*np.zeros((8, 16), dtype=np.int64), census)
    return census


_BLOCK_CENSUS = _block_census()

# One 1-D pass, as floor(_A @ x) and then floor(_B @ x[1::2]) (the module
# docstring derives both). b0..b3 and a4..a7 are the flowgraph's sums and
# differences of the inputs x0..x7. _A's even rows are out0, out2, out4 and
# out6; its odd rows are a4, a7, c5 and c6, which _B maps to out1, out3,
# out5 and out7, so each pass leaves its outputs in frequency order.
_A = np.array([
    np.array([181, 181, 181, 181, 181, 181, 181, 181]) / 512,  # 181 (b0 + b1)
    [0, 0, 0, 1, -1, 0, 0, 0],  # a4 = x3 - x4
    np.array([473, 196, -196, -473, -473, -196, 196, 473]) / 1024,  # 473 b3 + 196 b2
    [1, 0, 0, 0, 0, 0, 0, -1],  # a7 = x0 - x7
    np.array([181, -181, -181, 181, 181, -181, -181, 181]) / 512,  # 181 (b0 - b1)
    np.array([0, 181, -181, 0, 0, 181, -181, 0]) / 256,  # c5 = 181 (a6 - a5)
    np.array([196, -473, 473, -196, -196, 473, -473, 196]) / 1024,  # 196 b3 - 473 b2
    np.array([0, 181, 181, 0, 0, -181, -181, 0]) / 256,  # c6 = 181 (a6 + a5)
])
# Of [a4, a7, c5, c6], with d4 = a4 + c5, d5 = a4 - c5, d6 = a7 - c6 and
# d7 = a7 + c6.
_B = np.array([
    [50, 251, 50, 251],  # 251 d7 + 50 d4
    [-142, 213, 142, -213],  # 213 d6 - 142 d5, plus _OUT3_OFFSET
    [213, 142, -213, -142],  # 213 d5 + 142 d6
    [-251, 50, -251, 50],  # 50 d7 - 251 d4
]) / 512
_OUT3_OFFSET = 255 / 512
# _A and _B in each lane type; every entry, and _OUT3_OFFSET, is a multiple
# of 2**-10 of magnitude at most 1, so float32 holds them exactly too.
_MATRICES = {np.dtype(t): (_A.astype(t), _B.astype(t)) for t in (np.float64, np.float32)}


def _pass(x: np.ndarray, scratch: np.ndarray) -> None:
    """The 1-D transform of the float lanes x (..., 8, lanes), in place
    along the second-to-last axis, in x's dtype (float64 or float32).
    scratch is a contiguous array of x's shape and dtype that holds each
    matrix product; every elementwise step runs on contiguous operands, so
    numpy allocates no iteration buffer.

    float32 lanes are exact on level-shifted 8-bit samples, |x| <= 128,
    truncated or not: every product and partial sum of _A and _B is then a
    multiple of 2**-10 of magnitude below 2**12 (the row L1 norms of _A
    and _B, at most 2.83 and 1.39, bound every value of pass 1 by 432 and
    of pass 2 by 1,450), and float32 holds every such multiple below 2**14
    exactly, whatever order BLAS sums in. tests/test_fdct.py checks the
    bound and the stacks that drive each pass to its extremes."""
    a, b = _MATRICES[x.dtype]
    np.matmul(a, x, out=scratch)
    np.floor(scratch, out=x)
    odd = x[..., 1::2, :]
    t = scratch.reshape(-1)[: odd.size].reshape(odd.shape)
    np.matmul(b, odd, out=t)
    for out3 in t.reshape(-1, 4, t.shape[-1])[:, 1]:
        out3 += _OUT3_OFFSET
    np.floor(t, out=t)
    np.copyto(odd, t)


def fdct_2d(block, ops: IntOps = UNCOUNTED) -> np.ndarray:
    """2-D DCT of 8x8 integer blocks (..., 8, 8): rows, then columns; int64
    result, the integers of the shift-add spec (fdct_1d on rows, then on
    columns).

    A stack is transformed in slices of _SLICE_BLOCKS blocks, on float
    lanes laid out block-minor: pass 1 is one (8 x 8) @ (8 x 8k) product on
    [col, row, block], and pass 2 the same product batched over the
    frequency across, on [freq across, row, block]. Each pass writes its
    outputs back into its lanes. The lanes are float32 for int8 samples,
    exact on them as on every |sample| <= 128 (_pass), and float64
    otherwise. Samples must be integers of magnitude below _EXACT_INPUT
    (TypeError, ValueError otherwise). ops is charged the spec's census of
    every block."""
    m = np.asarray(block)
    if m.shape[-2:] != (8, 8):
        raise ValueError("fdct_2d expects 8x8 blocks")
    if not np.issubdtype(m.dtype, np.integer):
        raise TypeError(f"fdct_2d expects integer samples, not {m.dtype}")
    blocks = m.reshape(-1, 8, 8)
    n = len(blocks)
    # int8, int16, uint8 and uint16 samples are in range by their dtype
    if n and np.iinfo(m.dtype).max >= _EXACT_INPUT:
        if blocks.min() <= -_EXACT_INPUT or blocks.max() >= _EXACT_INPUT:
            raise ValueError("fdct_2d expects |samples| below 2**28")
    ops.charge_blocks(_BLOCK_CENSUS, n)
    out = np.empty(blocks.shape, dtype=np.int64)
    # int8 samples, the tiles' level-shifted 8-bit samples, are exact in
    # float32 lanes (see _pass)
    lane_type = np.float32 if m.dtype == np.int8 else np.float64
    buffers = np.empty((2, 64 * min(n, _SLICE_BLOCKS)), dtype=lane_type)
    for start in range(0, n, _SLICE_BLOCKS):
        part = blocks[start : start + _SLICE_BLOCKS]
        lanes, scratch = _lanes(buffers, len(part))
        np.copyto(lanes, part.transpose(2, 1, 0))  # [col, row, block]
        _transform(lanes, scratch)
        np.copyto(out[start : start + len(part)].transpose(2, 1, 0), lanes, casting="unsafe")
    return out.reshape(m.shape)


def _lanes(buffers: np.ndarray, k: int) -> list[np.ndarray]:
    """Each of the flat buffers (rows of at least 64 k entries) as
    the [col, row, block] lanes of k blocks."""
    return [b[: 64 * k].reshape(8, 8, k) for b in buffers]


def _transform(lanes: np.ndarray, scratch: np.ndarray) -> None:
    """fdct_2d of integer samples in the float lanes [col, row, block], in
    place: the coefficients come out as [freq across, freq down, block].
    float64 lanes are exact below _EXACT_INPUT, float32 lanes on 8-bit
    samples (see _pass)."""
    k = lanes.shape[-1]
    _pass(lanes.reshape(8, 8 * k), scratch.reshape(8, 8 * k))  # rows: [freq across, row, block]
    _pass(lanes, scratch)  # columns: [freq across, freq down, block]


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
# matrix products of _idct_lanes and the einsum of _einsum_idct can differ
# in any sample. Each lies within gamma_n * (|T|^T |c| |T|) of the exact
# value (Higham, Accuracy and Stability of Numerical Algorithms, 3.5),
# whatever order a product sums its terms in: n = 17 for the two 8-term
# products, the first of whose matrix entries may carry a rounded
# dequantization factor, and n = 65 for the 64-term triple sum. As
# |T| <= 0.4904, the gap is below (gamma_17 + gamma_65) * 0.2405 * sum|c|
# < 2.2e-15 * sum|c|. 2**-47 (7.1e-15) keeps a 3x margin. The float steps
# of the decoder's sign(x) * floor(|x| + 0.5) sit within an ulp of the
# ties, far inside it.
_TIE_SLACK = 2.0**-47


def ref_idct_2d(coeffs) -> np.ndarray:
    """The decoder's inverse 2-D DCT: the float64 samples of coefficient
    blocks (..., 8, 8), the einsum's (_einsum_idct) rounded half away from
    zero.

    A stack is inverted in slices of _SLICE_BLOCKS blocks by _idct_lanes,
    in one slice buffer of lanes and products, into the result's memory.
    """
    c = np.asarray(coeffs)
    if c.shape[-2:] != (8, 8):
        raise ValueError("ref_idct_2d expects 8x8 blocks")
    blocks = c.reshape(-1, 8, 8)
    n = len(blocks)
    out = np.empty((n, 8, 8))
    buffer = np.empty(64 * min(n, _SLICE_BLOCKS))
    for start in range(0, n, _SLICE_BLOCKS):
        part = blocks[start : start + _SLICE_BLOCKS]
        lanes = buffer[: 64 * len(part)].reshape(8, 8, len(part))
        np.copyto(lanes, part.transpose(2, 1, 0))
        _idct_lanes(lanes, part, lanes, out[start : start + len(part)])
    return out.reshape(c.shape)


def _idct_lanes(
    lanes: np.ndarray, blocks, scratch: np.ndarray, out: np.ndarray, divisors=None
) -> None:
    """The decoder's pixels of k coefficient blocks, rounded, into the
    float64 blocks out (k, 8, 8), from two 8-term matrix products: one
    product batched over the frequency across, (k x 8) @ (8 x 8) each, into
    [freq across, block, row] in out, then one (8k x 8) @ (8 x 8) product
    into [block, row, col] in scratch.

    lanes holds the blocks' values as float64 [freq across, freq down,
    block] lanes, and blocks the same values as (k, 8, 8) blocks. The
    coefficients are those values times divisors (8 x 8, entrywise), when
    given: the dequantization is folded into the first product's matrices.
    scratch is a contiguous float64 array of lanes' shape, and may be lanes
    itself. out shares no memory with lanes or scratch, nor blocks with
    scratch or out: blocks is read after both are written.

    Each product sample is rounded by np.rint, and its signed distance to
    that integer (a tie is 0.5 away) is left in scratch; the largest and
    the smallest of them find the sample nearest a tie. A block with a
    sample within _TIE_SLACK * sum|c| of a tie is recomputed with the
    einsum and rounded half away from zero (see the module docstring). The
    slice's largest |c| bounds every block's slack, so only when a sample
    of the slice is within that bound of a tie are the blocks checked one
    by one, each by its sample nearest a tie."""
    k = lanes.shape[-1]
    first = np.broadcast_to(_T, (8, 8, 8))
    largest = max(lanes.max(), -lanes.min())
    if divisors is not None:
        first = np.asarray(divisors, dtype=np.float64).T[:, :, None] * _T
        largest *= np.max(divisors)
    rows = out.reshape(8, k, 8)
    np.matmul(lanes.transpose(0, 2, 1), first, out=rows)  # one product per frequency across
    np.matmul(rows.reshape(8, 8 * k).T, _T, out=scratch.reshape(8 * k, 8))
    pixels, dist = out.reshape(-1), scratch.reshape(-1)
    np.rint(dist, out=pixels)
    np.subtract(dist, pixels, out=dist)  # signed, in [-0.5, 0.5]
    bound = 0.5 - 64 * _TIE_SLACK * largest
    if max(dist.max(), -dist.min()) >= bound:  # rare: a sample of the slice is near a tie
        signed = dist.reshape(k, 64)
        nearest_tie = np.maximum(signed.max(axis=1), -signed.min(axis=1))  # per block
        candidates = np.flatnonzero(nearest_tie >= bound)
        exact = np.asarray(blocks)[candidates].astype(np.float64)
        if divisors is not None:
            exact *= divisors
        slack = np.abs(exact).reshape(-1, 64).sum(axis=1) * _TIE_SLACK
        near = nearest_tie[candidates] >= 0.5 - slack
        samples = _einsum_idct(exact[near])
        spare = dist[: samples.size].reshape(samples.shape)  # the distances are read
        out[candidates[near]] = round_half_away(samples, spare)


def _einsum_idct(coeffs: np.ndarray) -> np.ndarray:
    """The inverse transform that defines the decoder's pixels: the triple
    sum over _T, c and _T of coefficient blocks (..., 8, 8), taken as a
    C-contiguous float64 array. The einsum's summation order follows its
    operands' memory layout, so a strided view could round differently."""
    return np.einsum("ji,...jk,kl->...il", _T, np.ascontiguousarray(coeffs, dtype=np.float64), _T)


_SIGN_BIT = np.uint64(1 << 63)
_HALF_BITS = np.float64(0.5).view(np.uint64)


def round_half_away(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """x rounded half away from zero, in place, for a float64 array x;
    scratch is a float64 array of x's shape.

    Computed as trunc(x + copysign(0.5, x)), which is
    sign(x) * floor(|x| + 0.5) with the addition rounded as float64 does:
    IEEE addition rounds symmetrically in sign, and -0.0 rounds to 0 as 0
    does. copysign(0.5, x) is formed from x's sign bit with integer ops,
    several times faster here than np.copysign.

    This float form, applied to the einsum's samples, defines the decoder's
    pixels. _idct_lanes applies it to the blocks it recomputes with the
    einsum; every other sample it rounds by np.rint, which agrees away from
    ties."""
    half = scratch.view(np.uint64)
    np.bitwise_and(x.view(np.uint64), _SIGN_BIT, out=half)
    half |= _HALF_BITS
    x += scratch
    return np.trunc(x, out=x)
