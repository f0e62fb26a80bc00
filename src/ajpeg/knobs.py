"""Precision-scaling and block-skipping knobs applied before the transform.

Truncation drops the B low bits of every level-shifted sample (rounding
half away from zero), shrinking the active datapath width. Block skipping
compares each block against the most recent *processed* block; if every
sample lies within a tolerance band the block's compression result is
reused and the transform is skipped entirely. Tolerance is 5*L for skip
level L in [0, 6]. Skip decisions read pixels only, never a block's own
compression result, so they are made on the pre-truncation samples.

This module owns that reference-chain rule for every consumer: skip_flags
makes the decisions and reuse_index maps each block to the processed
block whose result it carries. perforate and the pipeline's decode and
reconstruct expand results through that index, and nothing else does:
the encoder and the entropy layer handle the processed blocks only.

skip_flags scans a plane one skip run at a time rather than one block at a
time: it tests every block against its predecessor in one array compare,
jumps to the next block inside its predecessor's band, then tests growing
windows of the following blocks against that reference's band until one
misses. The decisions are those of checking block by block with
skip_check. The op census charges one band (an add and a sub per sample,
128 lanes per 8x8 block) for every block that can act as a reference,
blocks 0 .. n-2, which is what n-1 sequential skip_check calls charge;
the comparisons themselves are not datapath ops, as in skip_check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ops import UNCOUNTED, IntOps

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
    """Divide samples by 2**level, rounding half away from zero."""
    if level not in TRUNC_LEVELS:
        raise ValueError("truncation level must be in [0, 4]")
    m = np.asarray(block, dtype=np.int64)
    if level == 0:
        return m
    mag = ops.shr(ops.add(np.abs(m), 1 << (level - 1)), level)
    return np.where(m < 0, -mag, mag)


def _band(reference, epsilon: int, ops: IntOps) -> tuple[np.ndarray, np.ndarray]:
    """(floor, ceil) of the tolerance band around reference: reference -+
    epsilon clamped to the signed sample range. One add and one sub lane per
    sample."""
    ceil = np.minimum(ops.add(reference, epsilon), SAMPLE_MAX)
    floor = np.maximum(ops.sub(reference, epsilon), SAMPLE_MIN)
    return floor, ceil


def skip_check(current, reference, epsilon: int, ops: IntOps = UNCOUNTED) -> bool:
    """True when every sample of current lies inside reference +- epsilon,
    with the band clamped to the signed sample range."""
    cur = np.asarray(current, dtype=np.int64)
    floor, ceil = _band(np.asarray(reference, dtype=np.int64), epsilon, ops)
    return bool(np.all((cur <= ceil) & (cur >= floor)))


_FIRST_WINDOW = 16


def skip_flags(blocks, epsilon: int, ops: IntOps = UNCOUNTED) -> np.ndarray:
    """Skip flag per block: block k skips when it lies inside the band of the
    most recent block that was processed, not the most recent block seen.
    Block 0 always processes.

    The scan steps once per skip run, not once per block. While every block
    since the last reference has been processed, the reference of block k is
    block k-1, so the next skip is the next block inside its predecessor's
    band, found among all adjacent pairs at once. From that hit the
    reference stays fixed, and windows of 16, 32, 64, ... following blocks
    are tested against its band until one misses; the first miss is
    processed and becomes the new reference."""
    n = len(blocks)
    skipped = np.zeros(n, dtype=bool)
    if n < 2:
        return skipped
    b = np.asarray(blocks, dtype=np.int64).reshape(n, -1)
    floor, ceil = _band(b[:-1], epsilon, ops)
    # hits[i]: block hits[i] lies inside the band of block hits[i] - 1
    hits = 1 + np.flatnonzero(np.all((b[1:] >= floor) & (b[1:] <= ceil), axis=1))
    k = 1  # first undecided block; block k - 1 is the reference
    while (i := np.searchsorted(hits, k)) < len(hits):
        j = int(hits[i])
        ref = j - 1
        end, width = j + 1, _FIRST_WINDOW
        while end < n:
            window = b[end:end + width]
            inside = np.all((window >= floor[ref]) & (window <= ceil[ref]), axis=1)
            miss = int(np.argmin(inside))
            if not inside[miss]:
                end += miss
                break
            end += len(window)
            width *= 2
        skipped[j:end] = True  # block end, if any, misses and is the new reference
        k = end + 1
    return skipped


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
    """Run compress over a block sequence, reusing results for blocks that
    match the latest processed block within epsilon (see skip_flags).
    Skipped blocks share their reference's result object."""
    skipped = skip_flags(blocks, epsilon, ops)
    processed = [compress(blocks[k]) for k in np.flatnonzero(~skipped)]
    return PerforationResult([processed[i] for i in reuse_index(skipped)], skipped)
