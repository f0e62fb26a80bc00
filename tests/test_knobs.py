"""Precision scaling (truncation) and block skipping semantics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ajpeg.fdct import _SLICE_BLOCKS
from ajpeg.knobs import (
    _TABLE_WIDTH,
    SAMPLE_MAX,
    SAMPLE_MIN,
    perforate,
    skip_check,
    skip_epsilon,
    skip_flags,
    skip_flags_many,
    truncate_block,
)
from ajpeg.ops import OpCounter
from ajpeg.quant import quantize_shift
from ajpeg.raster import tile_blocks


def test_epsilon_ladder():
    assert [skip_epsilon(lv) for lv in range(7)] == [0, 5, 10, 15, 20, 25, 30]
    for bad in (-1, 7):
        with pytest.raises(ValueError, match="skip level"):
            skip_epsilon(bad)


@pytest.mark.parametrize(
    "x, level, want",
    [
        (5, 1, 3),      # 2.5 rounds away
        (-5, 1, -3),
        (1, 1, 1),      # 0.5 rounds away
        (-1, 1, -1),
        (127, 4, 8),    # 7.9375
        (-128, 4, -8),
        (6, 2, 2),      # 1.5 rounds to 2
        (0, 4, 0),
    ],
)
def test_truncate_spot_values(x, level, want):
    out = truncate_block(np.array([[x]]), level)
    assert int(out[0, 0]) == want


def test_truncate_level_zero_is_identity():
    block = np.arange(-32, 32).reshape(8, 8)
    assert np.array_equal(truncate_block(block, 0), block)


def test_truncate_level_range():
    for bad in (-1, 5):
        with pytest.raises(ValueError, match="truncation level"):
            truncate_block(np.zeros((8, 8), dtype=np.int64), bad)


@given(st.integers(-128, 127), st.integers(1, 4))
def test_truncate_matches_rounded_division(x, level):
    want = int(np.floor(abs(x) / 2**level + 0.5))
    if x < 0:
        want = -want
    assert int(truncate_block(np.array([x]), level)[0]) == want


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_int16_truncation_stays_int16_with_the_quantizers_values_and_census(level):
    # every int16 sample, -32768 included, whose |x| does not fit int16
    samples = np.arange(-(2**15), 2**15).astype(np.int16)
    narrow, wide = OpCounter(), OpCounter()
    got = truncate_block(samples, level, narrow)
    want = quantize_shift(samples, level, wide)
    assert got.dtype == np.int16
    assert np.array_equal(got, want)
    assert samples[0] == -(2**15)  # the input is left as it was
    assert narrow == wide  # every count of the op census


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_int8_truncation_of_the_tiles_stays_int8_and_exact(level):
    # every int8 sample, the tiles' type, -128 included: |x| plus the
    # rounding offset is at most 136, which the unsigned byte holds
    samples = np.arange(-128, 128).astype(np.int8)
    got = truncate_block(samples, level)
    assert got.dtype == np.int8
    assert np.array_equal(got, truncate_block(samples.astype(np.int64), level))


def test_truncate_is_multiplier_free():
    ops = OpCounter()
    truncate_block(np.arange(-32, 32).reshape(8, 8), 3, ops)
    assert ops.muls == 0


def test_skip_check_zero_epsilon_is_equality():
    a = np.arange(64).reshape(8, 8) - 32
    assert skip_check(a, a, 0)
    b = a.copy()
    b[3, 3] += 1
    assert not skip_check(b, a, 0)


def test_skip_check_band():
    ref = np.zeros((8, 8), dtype=np.int64)
    assert skip_check(ref + 5, ref, 5)
    assert not skip_check(ref + 6, ref, 5)
    assert skip_check(ref - 5, ref, 5)
    assert not skip_check(ref - 6, ref, 5)


def test_skip_check_ceiling_clamps_at_127():
    # band tops out at the signed sample maximum, not reference+epsilon
    ref = np.full((8, 8), 125, dtype=np.int64)
    assert skip_check(np.full((8, 8), 127), ref, 5)
    assert not skip_check(np.full((8, 8), 128), ref, 5)


def test_skip_check_floor_clamps_at_minus_128():
    ref = np.full((8, 8), -126, dtype=np.int64)
    assert skip_check(np.full((8, 8), -128), ref, 5)
    assert not skip_check(np.full((8, 8), -129), ref, 5)


def _consts(*values):
    """A stack of constant int8 blocks, one per value in [-128, 127]."""
    return np.stack([np.full((8, 8), v, dtype=np.int8) for v in values])


def _sequential_skip_flags(blocks, epsilon):
    """Reference: check block by block against the last processed block."""
    skipped = np.zeros(len(blocks), dtype=bool)
    ref = 0
    for k in range(1, len(blocks)):
        if skip_check(blocks[k], blocks[ref], epsilon):
            skipped[k] = True
        else:
            ref = k
    return skipped


def _drifting_stack(n, seed, drift, noise, offset):
    """n int8 blocks around a random base shifted by offset, each a random
    walk of step <= drift from the last, plus per-sample noise <= noise,
    clipped to the sample range [-128, 127] (where a large offset piles
    them up at its ends)."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-40, 41, size=(8, 8)) + offset
    walk = rng.integers(-drift, drift + 1, size=(n, 1, 1)).cumsum(axis=0)
    blocks = base + walk + rng.integers(-noise, noise + 1, size=(n, 8, 8))
    return np.clip(blocks, SAMPLE_MIN, SAMPLE_MAX).astype(np.int8)


stacks = st.builds(
    _drifting_stack,
    n=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 400)),
    seed=st.integers(0, 2**32 - 1),
    drift=st.integers(0, 6),
    noise=st.integers(0, 20),
    offset=st.integers(-250, 250),
)


@given(stacks, st.sampled_from([skip_epsilon(lv) for lv in range(7)]))
@example(_consts(*[0] * 600, 40, 40, 0), 5)  # a run of 599 outlasts its largest window, 512
@example(_consts(10, 13, 16, 19, 22), 5)  # block 2 matches block 1, not its reference
@example(_consts(125, 127, 126, -126, -128, -127), 5)  # the band clamp binds at both ends
# epsilons at and past every 8-bit distance, 255, and on both sides of the
# [-1, 255] range the compares run in
@example(_consts(127, -127, 127, 100, -100), 2**14 - 1)
@example(_consts(0, 127, -128, 127, 100), 2**14)
@example(_consts(0, 127, -128, 127, 100), 2**15)
@example(_consts(-128, 127, 127, -128, 0), 254)
@example(_consts(-128, 127, 127, -128, 0), 255)
@example(_consts(-128, 127, 127, -128, 0), 256)
@example(_consts(-128, 127, 127, -128, 0), 10**9)
@example(_consts(3, 3, 2, 3), -1)
def test_skip_flags_matches_sequential_scan(blocks, epsilon):
    assert np.array_equal(skip_flags(blocks, epsilon), _sequential_skip_flags(blocks, epsilon))


_LEVEL_EPSILONS = [skip_epsilon(lv) for lv in range(7)]


@given(
    stacks,
    st.sampled_from([
        _LEVEL_EPSILONS,
        [30, 0, 30, 5],  # repeats, in any order
        [*_LEVEL_EPSILONS, 2**14 - 1],
        [2**14, 5, 0],
        [-1, 5],  # a negative tolerance: an empty band
        [-2, 254, 255, 256, 2**15, 10**9],  # beyond every 8-bit distance
        # not integers: a distance is within 2.5 when it is within 2, and
        # within no NaN band
        [2.5, -0.5, 4.99, 254.5, float("nan")],
    ]),
)
@example(_consts(*[0] * 600, 40, 40, 0), _LEVEL_EPSILONS)
@example(_consts(10, 13, 16, 19, 22), _LEVEL_EPSILONS)
@example(_consts(125, 127, 126, -126, -128, -127), _LEVEL_EPSILONS)
@example(_consts(127, -127, 127, 100, -100), [*_LEVEL_EPSILONS, 2**14 - 1])
@example(_consts(0, 127, -128, 127, 100), [2**14, 5, 0])
@example(_consts(0, 127, -128, 127, 100), [2**15, *_LEVEL_EPSILONS])
@example(_consts(-128, 127, 127, -128, 0), [-2, 254, 255, 256, 2**15, 10**9])
def test_skip_flags_many_matches_sequential_scan_at_each_epsilon(blocks, epsilons):
    flags = skip_flags_many(blocks, epsilons)
    assert flags.shape == (len(epsilons), len(blocks)) and flags.dtype == bool
    for row, epsilon in zip(flags, epsilons):
        assert np.array_equal(row, _sequential_skip_flags(blocks, epsilon))


@pytest.mark.parametrize("dtype", [np.int16, np.int64, np.uint8, np.float64])
def test_skip_flags_many_takes_int8_stacks_only(dtype):
    # the table walk is the rule's only run-time form: a stack of any
    # other dtype is refused, not decided block by block
    blocks = _consts(0, 3, 9).astype(dtype)
    with pytest.raises(TypeError, match="int8 samples"):
        skip_flags_many(blocks, _LEVEL_EPSILONS)
    with pytest.raises(TypeError, match="int8 samples"):
        skip_flags(blocks[:0], 5)


# runs that end just before, at and just after the distance table's edge
# (_TABLE_WIDTH blocks), and at the ends of the windows that follow it
_W = _TABLE_WIDTH


@pytest.mark.parametrize("run", [_W - 1, _W, _W + 1, 2 * _W + 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_skip_flags_drift_past_the_reference_at_the_table_edge(run, sign):
    # at each end of the sample range: every block of the run is 3 from the
    # reference 121 (or -121), and 127 (or -127) is 3 from the run's blocks
    # but 6 from the reference, so it misses the band and becomes the
    # reference of the last block
    blocks = _consts(*(sign * v for v in (121, *[124] * run, 127, 127)))
    assert skip_flags(blocks, 5).tolist() == [False] + [True] * run + [False, True]
    assert skip_flags(blocks[:-1], 5).tolist() == [False] + [True] * run + [False]
    assert np.array_equal(skip_flags(blocks, 5), _sequential_skip_flags(blocks, 5))


@pytest.mark.parametrize("run", [_W - 1, _W, _W + 1, 2 * _W, 2 * _W + 1, 47, 48, 49, 4 * _W + 1])
def test_skip_flags_run_ending_at_a_window_edge(run):
    blocks = _consts(0, *[3] * run, 9, 9)
    want = [False] + [True] * run + [False, True]
    assert skip_flags(blocks, 5).tolist() == want
    for epsilon, flags in zip(_LEVEL_EPSILONS, skip_flags_many(blocks, _LEVEL_EPSILONS)):
        assert np.array_equal(flags, _sequential_skip_flags(blocks, epsilon))


_SLICE_EDGES = [_SLICE_BLOCKS - 1, _SLICE_BLOCKS, _SLICE_BLOCKS + 1, 2 * _SLICE_BLOCKS + 1]


def _laid_out(blocks, layout):
    """blocks as a block-major stack (C), in tile_blocks' lane-major layout
    (F), or as every other block of a stack twice as long (strided)."""
    if layout == "strided":
        wide = np.full((2 * len(blocks), 8, 8), -100, dtype=np.int8)
        wide[::2] = blocks
        return wide[::2]
    return np.asarray(blocks, order=layout)


@pytest.mark.parametrize("n", _SLICE_EDGES)
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_skip_flags_across_slice_edges(n, layout):
    # the distance table is filled slice by slice and a run's windows stop
    # doubling at one slice: a drifting stack, adjacent blocks that differ
    # but for one pair across each slice edge, and one long run that spans
    # every slice; each in every memory layout the scan may be handed
    drifting = _laid_out(_drifting_stack(n, n, 1, 3, 0), layout)
    values = 40 * (np.arange(n) % 2)
    edges = np.arange(_SLICE_BLOCKS, n, _SLICE_BLOCKS)
    values[edges] = values[edges - 1]
    straddling = _laid_out(_consts(*values), layout)
    one_run = _laid_out(_consts(*[7] * n, 40), layout)
    for blocks in (drifting, straddling, one_run):
        want = [_sequential_skip_flags(blocks, epsilon).tolist() for epsilon in (5, 15)]
        assert [skip_flags(blocks, epsilon).tolist() for epsilon in (5, 15)] == want
        assert skip_flags_many(blocks, [5, 15]).tolist() == want
    assert skip_flags(one_run, 0).tolist() == [False] + [True] * (n - 1) + [False]


def test_skip_flags_memory_is_bounded_by_the_stack():
    # int8 tiles are scanned in place: no widened copy of the stack, the
    # distance table is filled one slice at a time in uint8, and the walk's
    # candidates are compact arrays, so the scan's peak stays below the
    # stack's one byte per sample even where nearly every block is a
    # candidate
    blocks = _drifting_stack(16384, 3, 2, 4, 0)
    tracemalloc.start()
    try:
        flags = skip_flags(blocks, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < blocks.nbytes
    assert flags.any() and not flags.all()
    assert np.array_equal(flags, _sequential_skip_flags(blocks, 15))


def _tiled_plane():
    """tile_blocks of a 1024 x 768 plane: a slow ramp with a little noise,
    where runs outlast the distance table, beside noise, where few blocks
    skip."""
    rng = np.random.default_rng(17)
    x = np.arange(768)[None, :]
    ramp = 60 + x / 8 + rng.integers(-3, 4, size=(1024, 768))
    plane = np.where(x < 512, ramp, rng.integers(0, 256, size=(1024, 768)))
    return tile_blocks(plane.astype(np.uint8))


def test_skip_flags_many_reads_the_tiles_in_place():
    # tile_blocks' lane-major int8 tiles are scanned as [sample, block] rows
    # in place: the scan's peak stays below the stack's own bytes, so it
    # never holds a copy of the stack, and a block-major copy gives the
    # same flags
    tiles = _tiled_plane()
    assert tiles.dtype == np.int8 and not tiles.flags.c_contiguous
    assert tiles.transpose(2, 1, 0).flags.c_contiguous
    tracemalloc.start()
    try:
        flags = skip_flags_many(tiles, _LEVEL_EPSILONS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tiles.nbytes
    counts = flags.sum(axis=1)
    assert counts[0] < counts[1] < counts[-1] < len(tiles) - 1
    assert np.array_equal(flags, skip_flags_many(np.ascontiguousarray(tiles), _LEVEL_EPSILONS))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 2 * _SLICE_BLOCKS + 1])
def test_skip_flags_charges_one_band_per_reference_candidate(n):
    ops = OpCounter()
    skip_flags(_drifting_stack(n, n, 2, 3, 0), 10, ops)
    assert (ops.addsub, ops.shifts, ops.muls) == (128 * max(n - 1, 0), 0, 0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 2 * _SLICE_BLOCKS + 1])
@pytest.mark.parametrize("epsilons", [[], [0], _LEVEL_EPSILONS, [5, 5]])
def test_skip_flags_many_charges_one_band_per_reference_candidate_and_epsilon(n, epsilons):
    ops = OpCounter()
    skip_flags_many(_drifting_stack(n, n, 2, 3, 0), epsilons, ops)
    assert (ops.adds, ops.subs) == (64 * max(n - 1, 0) * len(epsilons),) * 2
    assert (ops.shifts, ops.muls, ops.kernel_calls) == (0, 0, {})


def test_skip_check_charges_128_lanes_per_call():
    ops = OpCounter()
    block = np.zeros((8, 8), dtype=np.int64)
    for _ in range(3):
        skip_check(block, block, 5, ops)
    assert (ops.addsub, ops.shifts, ops.muls) == (3 * 128, 0, 0)


def test_perforate_reference_chain():
    # A, A+3, A+6 with eps=5: block 1 sits inside A's band, block 2 is
    # compared against A (not A+3) and misses, so exactly block 1 skips
    res = perforate(_consts(10, 13, 16), 5, lambda b: int(b[0, 0]))
    assert res.skipped.tolist() == [False, True, False]
    assert res.results == [10, 10, 16]


def test_perforate_epsilon_zero_skips_only_duplicates():
    res = perforate(_consts(7, 7, 9, 7), 0, lambda b: int(b[0, 0]))
    assert res.skipped.tolist() == [False, True, False, False]
    assert res.results == [7, 7, 9, 7]


def test_perforate_block_zero_always_compressed():
    calls = []
    res = perforate(_consts(50, 50), 30, lambda b: calls.append(1) or len(calls))
    assert not res.skipped[0] and res.skipped[1]
    assert len(calls) == 1


def test_perforate_compress_called_once_per_processed_block():
    calls = []

    def compress(b):
        calls.append(int(b[0, 0]))
        return int(b[0, 0])

    res = perforate(_consts(0, 3, 6, 50, 52), 5, compress)
    assert calls == [0, 6, 50]
    assert res.skipped.tolist() == [False, True, False, False, True]
    assert res.results == [0, 0, 6, 50, 50]


def test_perforate_empty_input():
    res = perforate(np.zeros((0, 8, 8), dtype=np.int8), 5, lambda b: b)
    assert res.results == [] and res.skipped.shape == (0,)


def test_perforate_skipped_blocks_reuse_result_object():
    res = perforate(_consts(20, 22), 5, lambda b: {"dc": int(b[0, 0])})
    assert res.results[1] is res.results[0]
