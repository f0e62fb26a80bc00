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
block whose result it carries. The encoder, perforate and the entropy
decoder all expand results through the same index.
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


def skip_check(current, reference, epsilon: int, ops: IntOps = UNCOUNTED) -> bool:
    """True when every sample of current lies inside reference +- epsilon,
    with the band clamped to the signed sample range."""
    cur = np.asarray(current, dtype=np.int64)
    ref = np.asarray(reference, dtype=np.int64)
    ceil = np.minimum(ops.add(ref, epsilon), SAMPLE_MAX)
    floor = np.maximum(ops.sub(ref, epsilon), SAMPLE_MIN)
    return bool(np.all((cur <= ceil) & (cur >= floor)))


def skip_flags(
    blocks, epsilon: int, ops: IntOps = UNCOUNTED, check: Callable = skip_check
) -> np.ndarray:
    """Skip flag per block: block k skips when check passes against the most
    recent block that was processed, not the most recent block seen. Block 0
    always processes. check defaults to skip_check; a caller may pass its
    own binding of it so that wrappers installed there see every call."""
    n = len(blocks)
    skipped = np.zeros(n, dtype=bool)
    ref = 0
    for k in range(1, n):
        if check(blocks[k], blocks[ref], epsilon, ops):
            skipped[k] = True
        else:
            ref = k
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
