"""Precision-scaling and block-skipping knobs applied before the transform.

Truncation drops the B low bits of every level-shifted sample (rounding
half away from zero), shrinking the active datapath width. Block skipping
compares each block against the most recent *processed* block; if every
sample lies within a tolerance band the block's compression result is
reused and the transform is skipped entirely. Tolerance is 5*L for skip
level L in [0, 6]. Skip decisions read pixels only, never a block's own
compression result, so they are made on the pre-truncation samples.

This module owns that reference-chain rule for every consumer:
skip_flags_many makes the decisions of one plane at several tolerances,
skip_flags at one, and reuse_index maps each block to the processed block
whose result it carries. perforate and the pipeline's decode and
reconstruct expand results through that index, and nothing else does:
the encoder and the entropy layer handle the processed blocks only.

The scan runs on the tiles' domain only: it takes int8 stacks of
level-shifted 8-bit samples, as fdct_2d does, and raises TypeError for any
other dtype. Every sample then lies in [-128, 127] and skip_check's clamp
never binds: block e lies inside the band of reference r exactly when
max|b_e - b_r| <= eps. That distance does not depend on eps, so one pass
over a plane serves every skip level: it tables the distance from each
block to each of its next _TABLE_WIDTH (16) blocks once, in uint8, and
each tolerance walks its skip runs through that table. That walk is the
rule's only run-time form; skip_check is its spec, which the tests hold
the scan to, and no stack is decided block by block.

The op census charges what the band hardware does, not what the software
does: one band (an add and a sub per sample, 128 lanes per 8x8 block) per
tolerance for every block that can act as a reference, blocks 0 .. n-2,
which is what n-1 sequential skip_check calls charge; the comparisons
themselves are not datapath ops, as in skip_check.

The scan reads the int8 block stack in place and holds no copy of it.
It reads [sample, block] rows, 64 rows of n samples: tile_blocks lays its
int8 tiles out as exactly those rows ([col, row, block] lanes), and a
block-major stack is read through its transposed view. The table is
filled from slices of at most fdct._SLICE_BLOCKS blocks of the rows, and
the windows of a run that outlasts the table stop doubling at that size.
Working set: the table is 16 bytes per block, and each walk holds two
bytes per block (its runs and where they are not empty), so the scan's
peak stays below the bytes of an int8 stack, one per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fdct import _SLICE_BLOCKS
from .ops import UNCOUNTED, IntOps
from .quant import quantize_shift

TRUNC_LEVELS = range(0, 5)
SKIP_LEVELS = range(0, 7)
EPSILON_STEP = 5

SAMPLE_MIN = -128
SAMPLE_MAX = 127


def skip_epsilon(level: int) -> int:
    if level not in SKIP_LEVELS:
        raise ValueError("skip level must be in [0, 6]")
    return EPSILON_STEP * level


def truncate_block(block, level: int, ops: IntOps = UNCOUNTED) -> np.ndarray:
    """Divide samples by 2**level, rounding half away from zero: the
    quantizer's rounded power-of-2 division (quant.quantize_shift), so
    int8 samples, the tiles' type, stay int8: |x| + 2**(level-1) <= 136
    fits their unsigned byte. Level 0 returns the samples as they are."""
    if level not in TRUNC_LEVELS:
        raise ValueError("truncation level must be in [0, 4]")
    m = np.asarray(block)
    return m if level == 0 else quantize_shift(m, level, ops)


def skip_check(current, reference, epsilon: int, ops: IntOps = UNCOUNTED) -> bool:
    """True when every sample of current lies inside reference +- epsilon,
    with the band clamped to the signed sample range. The band costs one
    add and one sub lane per sample."""
    cur = np.asarray(current, dtype=np.int64)
    ref = np.asarray(reference, dtype=np.int64)
    ceil = np.minimum(ops.add(ref, epsilon), SAMPLE_MAX)
    floor = np.maximum(ops.sub(ref, epsilon), SAMPLE_MIN)
    return bool(np.all((cur <= ceil) & (cur >= floor)))


# Distances from each block to each of its next _TABLE_WIDTH blocks are
# tabled; a run that reaches the table's edge goes on in growing windows.
_TABLE_WIDTH = 16


def _sample_rows(blocks: np.ndarray) -> np.ndarray:
    """The [sample, block] rows, (64, n), of a stack of n blocks: a view of
    tile_blocks' lanes, or of a block-major stack, in whichever sample
    order that memory holds (a distance does not depend on it)."""
    return blocks.T.reshape(-1, len(blocks), order="A")


def _reach_table(rows: np.ndarray) -> np.ndarray:
    """reach[d - 1, r] = max over d' = 1 .. d of the distance from block r to
    block r + d', for each reference candidate r = 0 .. n-2 and d = 1 ..
    _TABLE_WIDTH, as uint8. Block r's run at epsilon is thus the number of
    entries of column r that are at most epsilon, capped at the n-1-r
    blocks after it: an entry past the end of the stack repeats the one
    before it.

    rows are the int8 stack's [sample, block] rows (_sample_rows). Each
    slice of them is copied into one reused uint8 lane buffer and taken to
    b + 128 (b ^ 0x80), which keeps their order, so a diagonal, max over
    samples of |b[r + d] - b[r]|, is a max minus a min over the flattened
    lanes, each in [0, 255]. (Subtracting the strided rows in place, row by
    row, measured about 1.5x slower on the tiles of a 512 x 512 plane.)"""
    n = rows.shape[1]
    reach = np.zeros((_TABLE_WIDTH, n - 1), dtype=np.uint8)
    buffers = np.empty((3, len(rows) * min(n, _SLICE_BLOCKS + _TABLE_WIDTH)), dtype=np.uint8)
    for start in range(0, n - 1, _SLICE_BLOCKS):
        part = rows[:, start:start + _SLICE_BLOCKS + _TABLE_WIDTH]
        flat, high, low = buffers[:, : part.size]
        lane = flat.reshape(part.shape)
        np.copyto(lane.view(np.int8), part)
        lane ^= 0x80
        count = min(_SLICE_BLOCKS, n - 1 - start)  # reference candidates in this slice
        for d in range(1, min(_TABLE_WIDTH, n - 1 - start) + 1):
            # one max and one min over the flattened lanes: entry [s, j] of
            # the grid is |lane[s, j + d] - lane[s, j]| wherever j + d stays
            # in the row
            np.maximum(flat[d:], flat[:-d], out=high[:-d])
            np.minimum(flat[d:], flat[:-d], out=low[:-d])
            np.subtract(high[:-d], low[:-d], out=high[:-d])
            c = min(count, lane.shape[1] - d)
            high.reshape(lane.shape)[:, :c].max(axis=0, out=reach[d - 1, start:start + c])
    for d in range(1, _TABLE_WIDTH):
        np.maximum(reach[d], reach[d - 1], out=reach[d])
    return reach


def _run_end(rows: np.ndarray, r: int, e: int, epsilon: int) -> int:
    """The first block from e on outside the band of reference r, or n if
    none is: windows of _TABLE_WIDTH, then twice as many, ... blocks (at
    most _SLICE_BLOCKS) of the [sample, block] rows are tested until one
    misses."""
    n = rows.shape[1]
    reference = rows[:, r : r + 1]
    width = _TABLE_WIDTH
    while e < n:
        window = np.subtract(rows[:, e:e + width], reference, dtype=np.int16)
        outside = np.abs(window, out=window).max(axis=0) > epsilon
        miss = int(np.argmax(outside))
        if outside[miss]:
            return e + miss
        e += len(outside)
        width = min(2 * width, _SLICE_BLOCKS)
    return n


def skip_flags_many(blocks, epsilons, ops: IntOps = UNCOUNTED) -> np.ndarray:
    """Skip flags of one block stack at each epsilon, from one pass over the
    stack: row i is skip_flags(blocks, epsilons[i], ops), a (len(epsilons),
    n) bool array.

    The pass tables the distance from each block to each of its next
    _TABLE_WIDTH blocks (_reach_table); that is the only work over every
    block and it serves every epsilon. One more pass over the table counts
    every epsilon's run of every reference candidate. Each epsilon then
    walks its skip runs in plain Python integers. While every block since
    the last reference has been processed, the reference of block k is
    block k-1, so the next skip follows the first reference candidate
    r >= k-1 whose run at epsilon is not empty. From there the reference
    stays r and the run's length is read off the counts; only a run that
    fills the table goes on in growing windows (_run_end). The first miss
    is processed and becomes the new reference. The walk reads the runs
    from bytes and finds each next candidate with bytes.find, so it makes
    no Python int per candidate. It leaves the bounds of its runs, and one
    pass marks them.

    blocks is an int8 stack, as tile_blocks leaves it; any other dtype
    raises TypeError, and there is no block-by-block form. Its distances
    lie in [0, 255], so each epsilon is clamped to [-1, 255] and floored:
    10**9, -2 and 2.5 act as 255, -1 and 2. It reads the stack's [sample,
    block] rows in place (_sample_rows), as tile_blocks' lanes hold them,
    and copies each slice or widens each window on its own, so the stack is
    never copied whole."""
    blocks = np.asarray(blocks)
    if blocks.dtype != np.int8:
        raise TypeError(f"skip_flags_many expects int8 samples, not {blocks.dtype}")
    epsilons = list(epsilons)
    n = len(blocks)
    skipped = np.zeros((len(epsilons), n), dtype=bool)
    if n < 2 or not epsilons:
        return skipped
    # the bands of blocks 0 .. n-2 at each epsilon (see the module docstring)
    lanes_charged = 64 * (n - 1) * len(epsilons)
    ops.charge(adds=lanes_charged, subs=lanes_charged)
    rows = _sample_rows(blocks)
    reach = _reach_table(rows)
    # fmax and fmin take NaN, an empty band, to -1
    bands = np.floor(np.fmin(np.fmax(np.asarray(epsilons, dtype=np.float64), -1), 255))
    bands = bands.astype(np.int16)[:, None]
    runs = np.zeros((len(epsilons), n - 1), dtype=np.int8)
    for row in reach:  # the runs of every epsilon, one table row at a time
        runs += row <= bands
    tail = min(_TABLE_WIDTH, n - 1)  # the last candidates, each run capped at the end
    np.minimum(runs[:, -tail:], np.arange(tail, 0, -1, dtype=np.int8), out=runs[:, -tail:])
    for flags, run, epsilon in zip(skipped, runs, bands[:, 0].tolist()):
        # the walk reads the runs, and finds each next candidate, in bytes
        lengths = run.tobytes()
        candidates = run.astype(bool).tobytes()  # 1 where a run is not empty
        marks = bytearray(n + 1)  # 1 where a run starts, -1 (255) where it ends
        r = candidates.find(1)
        while r >= 0:
            length = lengths[r]
            end = r + 1 + length  # the first miss, or n
            if length == _TABLE_WIDTH:
                end = _run_end(rows, r, end, epsilon)
            marks[r + 1] = 1
            marks[end] = 255  # a run ends before the next one starts
            r = candidates.find(1, end)  # block end is the new reference
        np.cumsum(np.frombuffer(marks, dtype=np.int8)[:n], dtype=np.int8, out=flags.view(np.int8))
    return skipped


def skip_flags(blocks, epsilon: int, ops: IntOps = UNCOUNTED) -> np.ndarray:
    """Skip flag per block: block k skips when skip_check puts it inside the
    band of the most recent block that was processed, not the most recent
    block seen. Block 0 always processes. The one-epsilon call of
    skip_flags_many."""
    return skip_flags_many(blocks, [epsilon], ops)[0]


def reuse_index(skipped) -> np.ndarray:
    """For each block, the position among the processed blocks (in order) of
    the block whose result it carries: its own when processed, else that of
    its reference."""
    return np.cumsum(~np.asarray(skipped, dtype=bool)) - 1


@dataclass
class PerforationResult:
    results: list
    skipped: np.ndarray  # bool per block


def perforate(
    blocks: np.ndarray,
    epsilon: int,
    compress: Callable,
    ops: IntOps = UNCOUNTED,
) -> PerforationResult:
    """Run compress over an int8 block stack, reusing results for blocks
    that match the latest processed block within epsilon (see skip_flags).
    Skipped blocks share their reference's result object."""
    skipped = skip_flags(blocks, epsilon, ops)
    processed = [compress(blocks[k]) for k in np.flatnonzero(~skipped)]
    return PerforationResult([processed[i] for i in reuse_index(skipped)], skipped)
