"""Zigzag scan, length-limited Huffman coding, channel codec, container."""

import hashlib
import heapq
import itertools
import struct
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ajpeg import entropy
from ajpeg.entropy import (
    _BLOCK_BITS,
    _SLICE_BLOCKS,
    EOB,
    MAX_CODE_LEN,
    MAX_SIZE,
    ZIGZAG,
    ZRL,
    ContainerMeta,
    CorruptStreamError,
    PixelBudgetError,
    canonical_codes,
    code_lengths,
    compression_ratio,
    decode_channel,
    encode_channel,
    inv_zigzag,
    read_container,
    write_container,
    zigzag,
)
from ajpeg.pipeline import EncodeConfig, decode, encode
from ajpeg.raster import RasterImage


def walk_zigzag_order():
    """Independent derivation: walk anti-diagonals, alternating direction."""
    order = []
    for s in range(15):
        rows = range(max(0, s - 7), min(s, 7) + 1)
        diag = [(r, s - r) for r in rows]
        if s % 2 == 0:
            diag.reverse()  # even diagonals move up-right
        order.extend(r * 8 + c for r, c in diag)
    return order


def test_zigzag_table_matches_diagonal_walk():
    assert ZIGZAG.tolist() == walk_zigzag_order()


def test_zigzag_is_permutation():
    assert sorted(ZIGZAG.tolist()) == list(range(64))


def test_zigzag_applies_table():
    block = np.arange(64).reshape(8, 8)
    assert zigzag(block).tolist() == ZIGZAG.tolist()


def test_zigzag_round_trip_batched():
    rng = np.random.default_rng(0)
    blocks = rng.integers(-100, 100, size=(5, 8, 8))
    assert np.array_equal(inv_zigzag(zigzag(blocks)), blocks)


def huffman_cost(freqs):
    """Unlimited-depth Huffman total bit cost via a heap (reference)."""
    heap = list(freqs.values())
    heapq.heapify(heap)
    cost = 0
    while len(heap) > 1:
        a, b = heapq.heappop(heap), heapq.heappop(heap)
        cost += a + b
        heapq.heappush(heap, a + b)
    return cost


def test_code_lengths_empty_and_single():
    assert code_lengths({}) == {}
    assert code_lengths({9: 0}) == {}
    assert code_lengths({9: 5}) == {9: 1}


def test_code_lengths_match_huffman_cost():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        freqs = {int(s): int(rng.integers(1, 1000)) for s in range(n)}
        lengths = code_lengths(freqs)  # depth <= 12 here, limit 16 inactive
        assert sum(freqs[s] * ln for s, ln in lengths.items()) == huffman_cost(freqs)
        assert sum(2 ** -ln for ln in lengths.values()) == 1.0


def brute_force_limited_cost(freqs, limit):
    syms = sorted(freqs)
    best = None
    for lens in itertools.product(range(1, limit + 1), repeat=len(syms)):
        if sum(2 ** -l for l in lens) <= 1.0:
            cost = sum(freqs[s] * l for s, l in zip(syms, lens))
            best = cost if best is None else min(best, cost)
    return best


def test_code_lengths_optimal_under_limit():
    # Fibonacci-ish frequencies force an unlimited Huffman tree deeper
    # than 3; package-merge must still find the cheapest 3-bit code
    freqs = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 8}
    lengths = code_lengths(freqs, limit=3)
    assert max(lengths.values()) <= 3
    got = sum(freqs[s] * ln for s, ln in lengths.items())
    assert got == brute_force_limited_cost(freqs, 3)
    assert sum(2 ** -ln for ln in lengths.values()) <= 1.0


def test_code_lengths_rejects_impossible_limit():
    with pytest.raises(ValueError, match="alphabet too large"):
        code_lengths({s: 1 for s in range(5)}, limit=2)


def member_tuple_code_lengths(freqs, limit=MAX_CODE_LEN):
    """Package-merge with each package's member symbols as a tuple, the
    tuples breaking ties in weight; lengths count the members of the first
    n - 1 packages of the last round. The oracle of code_lengths, ties
    included: a different optimal code would change the bytes."""
    syms = sorted(s for s, f in freqs.items() if f > 0)
    if len(syms) < 2:
        return {s: 1 for s in syms}
    leaves = sorted((freqs[s], (s,)) for s in syms)
    level = []
    for _ in range(limit):
        merged = sorted(level + leaves)
        level = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(merged[0::2], merged[1::2])]
    lengths = dict.fromkeys(syms, 0)
    for _, members in level[: len(syms) - 1]:
        for s in members:
            lengths[s] += 1
    return lengths


# Frequency maps of 1-256 symbols, most of them drawn from a few small
# counts so that many weights tie, some from a wide range.
tied_freqs = st.dictionaries(
    st.integers(0, 255),
    st.one_of(st.sampled_from([1, 1, 2, 3, 4, 8]), st.integers(1, 1 << 40)),
    min_size=1,
    max_size=256,
)


@given(tied_freqs, st.data())
@example({s: 1 for s in range(256)}, None)
@example({s: 1 << (s % 24) for s in range(40)}, None)
def test_code_lengths_match_the_member_tuple_form(freqs, data):
    # the least limit the alphabet allows, where the limit binds hardest, or any above it
    least = max(len(freqs) - 1, 1).bit_length()
    limits = [least, MAX_CODE_LEN]
    if data is not None:
        limits.append(data.draw(st.integers(least, MAX_CODE_LEN)))
    for limit in limits:
        assert code_lengths(freqs, limit) == member_tuple_code_lengths(freqs, limit)


def test_canonical_codes_hand_case():
    codes = canonical_codes({7: 1, 3: 2, 5: 2})
    assert codes == {7: (0b0, 1), 3: (0b10, 2), 5: (0b11, 2)}


def test_canonical_codes_prefix_free():
    rng = np.random.default_rng(2)
    freqs = {int(s): int(rng.integers(1, 50)) for s in range(10)}
    codes = canonical_codes(code_lengths(freqs))
    entries = sorted(codes.values(), key=lambda cl: cl[1])
    for (c1, l1), (c2, l2) in itertools.combinations(entries, 2):
        assert not (l1 <= l2 and (c2 >> (l2 - l1)) == c1)


def _random_blocks(rng, n):
    """Quantized-looking blocks: sparse small ACs, wider DC."""
    blocks = np.zeros((n, 8, 8), dtype=np.int64)
    for k in range(n):
        blocks[k, 0, 0] = rng.integers(-200, 201)
        mask = rng.random((8, 8)) < 0.2
        mask[0, 0] = False
        blocks[k][mask] = rng.integers(-30, 31, size=int(mask.sum()))
    return blocks


def test_channel_round_trip_no_skips():
    rng = np.random.default_rng(3)
    blocks = _random_blocks(rng, 17)
    stream = encode_channel([blocks], np.zeros(17, dtype=bool))
    assert stream.block_count == 17
    assert np.array_equal(decode_channel(stream), blocks)


def test_decode_channel_checks_the_stream_header():
    blocks = _random_blocks(np.random.default_rng(5), 4)
    stream = encode_channel([blocks], np.zeros(4, dtype=bool))
    with pytest.raises(CorruptStreamError, match="payload length"):
        decode_channel(replace(stream, bit_length=stream.bit_length + 8))
    empty = replace(stream, skip_flags=np.zeros(0, dtype=bool), bit_length=0, payload=b"")
    out = decode_channel(empty)
    assert out.shape == (0, 8, 8) and out.dtype == np.int64


def test_channel_round_trip_with_skips():
    rng = np.random.default_rng(4)
    blocks = _random_blocks(rng, 12)
    flags = np.zeros(12, dtype=bool)
    flags[[2, 3, 7, 11]] = True
    coded = blocks[~flags]
    stream = encode_channel([coded], flags)
    assert stream.block_count == 12 and np.array_equal(stream.skip_flags, flags)
    assert np.array_equal(decode_channel(stream), coded)
    # skipped blocks emit nothing: the payload is that of the coded blocks alone
    alone = encode_channel([coded], np.zeros(len(coded), dtype=bool))
    assert (stream.table, stream.bit_length, stream.payload) == (
        alone.table, alone.bit_length, alone.payload
    )


def test_channel_all_zero_blocks():
    blocks = np.zeros((3, 8, 8), dtype=np.int64)
    stream = encode_channel([blocks], np.zeros(3, dtype=bool))
    assert np.array_equal(decode_channel(stream), blocks)


def test_extreme_coefficients_round_trip():
    blocks = np.zeros((2, 8, 8), dtype=np.int64)
    blocks[0, 0, 0] = -1024
    blocks[0, 7, 7] = 1023
    blocks[1, 0, 0] = 1023  # DC diff 2047, the widest legal size
    stream = encode_channel([blocks], np.zeros(2, dtype=bool))
    assert np.array_equal(decode_channel(stream), blocks)


# A coded block: DC value and {zigzag position: nonzero AC value}.
coded_block = st.tuples(
    st.integers(-1024, 1023),
    st.dictionaries(st.integers(1, 63), st.integers(-1023, 1023).filter(bool), max_size=8),
)
channel_spec = st.lists(st.tuples(coded_block, st.booleans()), min_size=1, max_size=8)

# DC differences of +2047 and -2047, AC values of +-1023, zero runs of 16,
# 31 and 62 (one, one and three ZRLs), a block ending on a nonzero last
# coefficient (no EOB), and skipped blocks.
EXTREME_CHANNEL = [
    ((-1024, {63: 1023}), False),
    ((1023, {17: -1023, 49: 1}), False),
    ((0, {}), True),
    ((-1024, {32: 7}), False),
    ((0, {}), True),
]


def _channel(spec):
    """Coded blocks and skip flags; a skipped block has no coded block."""
    flags = np.array([skip for _, skip in spec])
    flags[0] = False
    vectors = np.zeros((len(spec), 64), dtype=np.int64)
    for k, ((dc, ac), _) in enumerate(spec):
        vectors[k, 0] = dc
        for pos, value in ac.items():
            vectors[k, pos] = value
    return inv_zigzag(vectors[~flags]), flags


# A scalar oracle for the channel codec. It codes symbol by symbol, as a
# hardware entropy coder does, carrying the DC predictor and the bit
# position from block to block; it shares only the table builder
# (code_lengths, canonical_codes) with the array coder.


def _oracle_symbols(vectors):
    """(symbol, amplitude bits, amplitude size) of coded zigzag vectors."""
    symbols = []
    predictor = 0
    for vec in vectors.tolist():
        diff, predictor = vec[0] - predictor, vec[0]
        size = abs(diff).bit_length()
        if size > MAX_SIZE:
            raise CorruptStreamError("DC difference out of range")
        symbols.append((size, diff if diff >= 0 else diff + (1 << size) - 1, size))
        last = max((k for k in range(1, 64) if vec[k]), default=0)
        run = 0
        for k in range(1, last + 1):
            if not vec[k]:
                run += 1
                continue
            for _ in range(run // 16):
                symbols.append((ZRL, 0, 0))
            size = abs(vec[k]).bit_length()
            if size > MAX_SIZE:
                raise CorruptStreamError("AC coefficient out of range")
            bits = vec[k] if vec[k] > 0 else vec[k] + (1 << size) - 1
            symbols.append((((run % 16) << 4) | size, bits, size))
            run = 0
        if last != 63:
            symbols.append((EOB, 0, 0))
    return symbols


def oracle_encode(coded):
    """(table, bit length, payload) of coded blocks (m, 8, 8)."""
    symbols = _oracle_symbols(zigzag(np.asarray(coded, dtype=np.int64)))
    freqs = {}
    for sym, _, _ in symbols:
        freqs[sym] = freqs.get(sym, 0) + 1
    codes = canonical_codes(code_lengths(freqs))
    bits = "".join(
        format(codes[sym][0], f"0{codes[sym][1]}b") + (format(amp, f"0{size}b") if size else "")
        for sym, amp, size in symbols
    )
    payload = bytes(int(bits[i : i + 8].ljust(8, "0"), 2) for i in range(0, len(bits), 8))
    table = sorted(((s, ln) for s, (_, ln) in codes.items()), key=lambda e: (e[1], e[0]))
    return table, len(bits), payload


def oracle_decode(stream):
    """The coded blocks (m, 8, 8) of a channel stream; CorruptStreamError
    for a stream it rejects."""
    n, flags, table, nbits = stream.block_count, stream.skip_flags, stream.table, stream.bit_length
    if n == 0:
        return np.zeros((0, 8, 8), dtype=np.int64)
    if len(flags) != n or flags[0]:
        raise CorruptStreamError("skip flags")
    if (len({s for s, _ in table}) != len(table)
            or not all(0 <= s <= 255 and 1 <= ln <= MAX_CODE_LEN for s, ln in table)
            or sum(2.0 ** -ln for _, ln in table) > 1):
        raise CorruptStreamError("table")
    if len(stream.payload) != (nbits + 7) // 8:
        raise CorruptStreamError("payload length")
    symbol_of = {format(code, f"0{ln}b"): s for s, (code, ln) in canonical_codes(dict(table)).items()}
    bits = "".join(format(b, "08b") for b in stream.payload)[:nbits]
    pos = 0

    def read(size):
        nonlocal pos
        if pos + size > nbits:
            raise CorruptStreamError("overrun")
        pos += size
        return int(bits[pos - size : pos] or "0", 2)

    def value(size):
        amp = read(size)
        return amp if size == 0 or amp >> (size - 1) else amp - (1 << size) + 1

    def symbol():
        nonlocal pos
        for ln in range(1, min(MAX_CODE_LEN, nbits - pos) + 1):
            sym = symbol_of.get(bits[pos : pos + ln])
            if sym is not None:
                pos += ln
                return sym
        raise CorruptStreamError("no code")

    vectors = []
    dc = 0
    for _ in range(n - int(np.count_nonzero(flags))):
        vec = [0] * 64
        size = symbol()
        if size > MAX_SIZE:
            raise CorruptStreamError("DC size")
        dc += value(size)
        vec[0] = dc
        k = 1
        while k < 64:
            sym = symbol()
            if sym == EOB:
                break
            if sym == ZRL:
                k += 16
            elif 1 <= sym & 0x0F <= MAX_SIZE and k + (sym >> 4) <= 63:
                k += sym >> 4
                vec[k] = value(sym & 0x0F)
                k += 1
            else:
                raise CorruptStreamError("AC symbol")
            if k > 64:
                raise CorruptStreamError("AC run")
        vectors.append(vec)
    if pos != nbits:
        raise CorruptStreamError("underrun")
    return inv_zigzag(np.array(vectors, dtype=np.int64).reshape(-1, 64))


def _agrees_with_oracle(stream):
    """decode_channel and the oracle both reject the stream, or both return
    the same blocks."""
    try:
        want = oracle_decode(stream)
    except CorruptStreamError:
        want = None
    try:
        got = decode_channel(stream)
    except CorruptStreamError:
        got = None
    return (got is None and want is None) or (
        got is not None and want is not None and np.array_equal(got, want)
    )


@given(channel_spec)
@example(EXTREME_CHANNEL)
def test_channel_round_trip_sparse(spec):
    coded, flags = _channel(spec)
    stream = encode_channel([coded], flags)
    assert (stream.table, stream.bit_length, stream.payload) == oracle_encode(coded)
    assert np.array_equal(decode_channel(stream), coded)
    assert np.array_equal(oracle_decode(stream), coded)


def _mutate(stream, data):
    """stream with flipped payload bits, a shortened payload, or a code
    lengthened or dropped, as data draws."""
    payload, nbits, table = bytearray(stream.payload), stream.bit_length, list(stream.table)
    kind = data.draw(st.sampled_from(["flip", "shorten", "lengthen code", "drop code"]))
    if kind == "flip":
        for i in data.draw(st.lists(st.integers(0, nbits - 1), min_size=1, max_size=4)):
            payload[i >> 3] ^= 0x80 >> (i & 7)
    elif kind == "shorten":
        nbits = data.draw(st.integers(0, nbits - 1))
        payload = payload[: (nbits + 7) // 8]
    else:  # either leaves Kraft slack: some bit patterns start no code
        j = data.draw(st.integers(0, len(table) - 1))
        sym, ln = table.pop(j)
        if kind == "lengthen code" and ln < MAX_CODE_LEN:
            table.insert(j, (sym, data.draw(st.integers(ln + 1, MAX_CODE_LEN))))
    return replace(stream, table=table, bit_length=nbits, payload=bytes(payload))


@given(st.one_of(st.just(EXTREME_CHANNEL), channel_spec), st.data())
def test_mutated_channel_decodes_or_fails_structurally(spec, data):
    coded, flags = _channel(spec)
    mutated = _mutate(encode_channel([coded], flags), data)
    assert _agrees_with_oracle(mutated)
    try:
        out = decode_channel(mutated)
    except CorruptStreamError:
        return
    assert out.shape == (len(coded), 8, 8)


# The smallest lookahead window moves on at almost every block, so each
# slice ends at a window move rather than after _SLICE_BLOCKS blocks.
_SMALL_WINDOW = _BLOCK_BITS // 8 + 1
_MULTI_WINDOW = encode_channel([_random_blocks(np.random.default_rng(9), 60)], np.zeros(60, dtype=bool))


@given(st.data())
def test_mutated_multi_window_channel_matches_the_oracle(data):
    assert len(_MULTI_WINDOW.payload) > 2 * _SMALL_WINDOW  # at least 3 whole windows
    mutated = _mutate(_MULTI_WINDOW, data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_WINDOW_CHUNK", _SMALL_WINDOW)
        assert _agrees_with_oracle(mutated)


def _edge_channel(coded_count, seed):
    """Random coded blocks, coded_count of them, among some skipped ones.
    DC values swing across the whole range, so a DC predictor that is not
    carried across a slice edge changes the bytes."""
    rng = np.random.default_rng(seed)
    blocks = _random_blocks(rng, coded_count)
    blocks[:, 0, 0] = rng.integers(-1024, 1024, size=coded_count)
    flags = np.zeros(coded_count + coded_count // 7, dtype=bool)
    flags[1:][rng.permutation(len(flags) - 1)[: coded_count // 7]] = True
    return blocks, flags


def _slices(coded, size=_SLICE_BLOCKS):
    """coded in slices of size blocks, as the pipeline gives them."""
    return [coded[lo : lo + size] for lo in range(0, len(coded), size)]


@pytest.mark.parametrize(
    "coded_count, window",
    [(1023, None), (1024, None), (1025, None), (2049, None), (2049, _SMALL_WINDOW)],
)
def test_slice_edges_match_the_oracle(monkeypatch, coded_count, window):
    # the predictor and the bit position carry across every slice edge and,
    # with the smallest lookahead window, across a window edge at almost
    # every block
    if window:
        monkeypatch.setattr(entropy, "_WINDOW_CHUNK", window)
    coded, flags = _edge_channel(coded_count, coded_count)
    stream = encode_channel(_slices(coded), flags)
    assert (stream.table, stream.bit_length, stream.payload) == oracle_encode(coded)
    assert np.array_equal(decode_channel(stream), coded)
    assert _agrees_with_oracle(stream)
    # damage near the slice edges: flipped bits, a cut payload, a lost code
    rng = np.random.default_rng(coded_count)
    edge = stream.bit_length * 1022 // coded_count  # about where coded block 1022 starts
    for at in [edge - 3, edge, edge + 5, rng.integers(stream.bit_length)]:
        payload = bytearray(stream.payload)
        payload[at >> 3] ^= 0x80 >> (at & 7)
        assert _agrees_with_oracle(replace(stream, payload=bytes(payload)))
    cut = edge - 1
    assert _agrees_with_oracle(replace(stream, bit_length=cut, payload=stream.payload[: (cut + 7) // 8]))
    assert _agrees_with_oracle(replace(stream, table=stream.table[:-1]))
    if coded_count > 1024:
        # a DC step out of range only from the predictor the last slice carried
        coded[1023, 0, 0], coded[1024, 0, 0] = -1000, 1100
        for coder in (oracle_encode, lambda c: encode_channel(_slices(c), flags)):
            with pytest.raises(CorruptStreamError, match="DC difference"):
                coder(coded)


@pytest.mark.parametrize("window", [None, _SMALL_WINDOW])
def test_non_final_slice_overrun_is_a_payload_overrun(monkeypatch, window):
    # coded block 1023 closes the first slice of _SLICE_BLOCKS blocks with a
    # coefficient at scan position 63, so its last symbol ends in amplitude
    # bits; a payload cut one bit short of it leaves that symbol's code whole
    if window:
        monkeypatch.setattr(entropy, "_WINDOW_CHUNK", window)
    coded, flags = _edge_channel(1030, 5)
    coded[1023, 7, 7] = 5
    stream = encode_channel(_slices(coded), flags)
    length = {s: ln for s, ln in stream.table}
    head = _oracle_symbols(zigzag(coded[:1024]))
    cut = sum(length[sym] + size for sym, _, size in head) - 1
    assert head[-1][2] > 0  # the cut falls inside the last amplitude
    cut_stream = replace(stream, bit_length=cut, payload=stream.payload[: (cut + 7) // 8])
    with pytest.raises(CorruptStreamError, match="payload overrun"):
        decode_channel(cut_stream)
    with pytest.raises(CorruptStreamError, match="overrun"):
        oracle_decode(cut_stream)


# Hand-built streams with two faults, for the order in which decode_channel
# finds them. The table leaves every code that starts with 11 unassigned, so
# sixteen 1 bits start no code, and codes 0x0C, a size category out of range
# as a DC symbol and as an AC symbol.
_FAULT_TABLE = [(0x00, 2), (0x01, 2), (ZRL, 3), (0xF1, 4), (0x0C, 5)]
_CODE = {s: format(c, f"0{ln}b") for s, (c, ln) in canonical_codes(dict(_FAULT_TABLE)).items()}
_PLAIN = _CODE[0x00] * 2  # a block: DC size 0, EOB
_LAST = _CODE[0x00] + _CODE[0x01] + "1" + _CODE[0x00]  # DC size 0, a coefficient of 1, EOB
# a block with each fault, and the message it raises
_FAULTS = {
    "no code": ("1" * 16, "invalid Huffman code"),
    "DC size": (_CODE[0x0C] + "0" * 12, "DC size category out of range"),
    "AC size": (_CODE[0x00] + _CODE[0x0C] + "0" * 12, "AC size category out of range"),
    # three ZRLs reach scan position 49, and (15, 1) would take it to 65
    "AC run": (_CODE[0x00] + _CODE[ZRL] * 3 + _CODE[0xF1] + "1", "AC run overflows the block"),
}
# faults of the payload's end: a cut one bit into the last block, or bits past it
_END_FAULTS = {"overrun": "payload overrun", "underrun": "payload underrun"}


def _fault_stream(blocks, end=None):
    """The stream of the blocks' bits, then the end fault, if any."""
    bits = "".join(blocks)
    if end == "overrun":
        bits = bits[:-1]
    elif end == "underrun":
        bits += "0110"
    payload = bytes(int(bits[i : i + 8].ljust(8, "0"), 2) for i in range(0, len(bits), 8))
    table = sorted(_FAULT_TABLE, key=lambda e: (e[1], e[0]))
    return entropy.ChannelStream(np.zeros(len(blocks), dtype=bool), table, len(bits), payload)


@pytest.mark.parametrize("window", [None, _SMALL_WINDOW])
@pytest.mark.parametrize(
    "first, second",
    [(a, None) for a in [*_FAULTS, *_END_FAULTS]]
    + [(a, b) for a in _FAULTS for b in [*_FAULTS, *_END_FAULTS] if a != b],
)
def test_decode_raises_the_earlier_of_two_faults(monkeypatch, window, first, second):
    # Every pair of faults, in both orders where both can come first; a fault
    # of the payload's end always comes last. With the smallest window, the
    # window moves on at almost every block, so each fault lies at a move.
    if window:
        monkeypatch.setattr(entropy, "_WINDOW_CHUNK", window)
    lead = 8 * window if window else 3  # plain blocks before the first fault, 4 bits each
    blocks = [_PLAIN] * lead
    for fault in (first, second):
        if fault in _FAULTS:
            blocks += [_FAULTS[fault][0]] + [_PLAIN] * 5
    stream = _fault_stream([*blocks, _LAST], end=second if second in _END_FAULTS else first)
    want = _FAULTS[first][1] if first in _FAULTS else _END_FAULTS[first]
    assert len(stream.payload) > (2 * window if window else 0)  # several window moves before the first fault
    with pytest.raises(CorruptStreamError, match=f"^{want}$"):
        decode_channel(stream)


def _splits(coded):
    """The same coded blocks split every way the tests try: one slice,
    1-block slices, _SLICE_BLOCKS slices, int16 slices from a generator,
    and cuts at random points, some of them repeated (empty slices)."""
    n = len(coded)
    cuts = np.sort(np.random.default_rng(n).integers(0, n + 1, size=12))
    return {
        "one": [coded],
        "blocks": _slices(coded, 1),
        "slice blocks": _slices(coded),
        "int16 generator": (part.astype(np.int16) for part in _slices(coded)),
        "empty slices": [coded[:0], *np.split(coded, [0, *cuts, cuts[-1], n]), coded[n:]],
    }


def test_stream_is_the_same_however_the_blocks_are_split():
    coded, flags = _edge_channel(1100, 21)
    want = encode_channel([coded], flags)
    for name, split in _splits(coded).items():
        got = encode_channel(split, flags)
        assert (got.table, got.bit_length, got.payload) == (
            want.table, want.bit_length, want.payload
        ), name
        assert got.block_count == want.block_count and np.array_equal(got.skip_flags, flags)
    assert np.array_equal(decode_channel(want), coded)


def _layouts(coded):
    """The same blocks in C order, Fortran order (the pipeline's lane-major
    tiles), as a strided view into a larger array and as a view with
    negative strides."""
    wide = np.zeros((len(coded), 16, 24), dtype=coded.dtype)
    wide[:, ::2, 1::3] = coded
    return {
        "C": np.ascontiguousarray(coded),
        "F": np.asfortranarray(coded),
        "strided": wide[:, ::2, 1::3],
        "reversed": np.ascontiguousarray(coded[::-1, ::-1])[::-1, ::-1],
    }


def test_encode_is_the_same_for_every_slice_layout():
    coded, flags = _edge_channel(300, 23)
    coded[3] = 0
    coded[3, 7, 7] = 1023  # coefficient 63: no EOB
    coded[4, 0, 1], coded[4, 3, 2], coded[4, 7, 7] = -1023, 1023, -1023
    coded[5, 0, 0], coded[6, 0, 0] = -1024, 1023  # the widest DC step, 2047
    want = encode_channel([coded], flags)
    assert (want.table, want.bit_length, want.payload) == oracle_encode(coded)
    for dtype in (np.int16, np.int64):
        for name, part in _layouts(coded.astype(dtype)).items():
            assert np.array_equal(part, coded)
            for slices in ([part], _slices(part, 7)):
                got = encode_channel(slices, flags)
                assert (got.block_count, got.table, got.bit_length, got.payload) == (
                    want.block_count, want.table, want.bit_length, want.payload
                ), (dtype, name)
                assert np.array_equal(got.skip_flags, flags)


@pytest.mark.parametrize("count", [1099, 1101])
def test_a_wrong_block_count_is_found_after_the_last_slice(count):
    # the count is known only once the slices run out, so every slice is
    # taken before the error
    coded, flags = _edge_channel(1100, 22)
    coded = np.resize(coded, (count, 8, 8))  # one block short, or block 0 again
    for name, split in _splits(coded).items():
        taken = []
        with pytest.raises(ValueError, match="coded block count"):
            encode_channel((taken.append(len(p)) or p for p in split), flags)
        assert sum(taken) == len(coded), name


def _conftest_image(corpus, kind):
    if kind == "gray":
        return corpus[4]
    return RasterImage(np.stack([corpus[i].pixels for i in (1, 6, 11)], axis=-1))


# SHA-256 of encode() containers in div mode, beyond the bench's golden grid.
ENCODE_DIGESTS = {
    ("gray", 10, None): "afc9b3b8ab7e8b24afba6e9e7286bd7a5f25c00e335af08e52a95afb70f71a57",
    ("gray", 10, 6): "1228f72ca6c2f480d2fbac06b4e1b416090e0e86020f0a138594a025e5d92af7",
    ("gray", 90, None): "4cb7617dd2c9607d9ca8e2616137c12b7f7c97999eed0b881b30f72e410e2f41",
    ("gray", 90, 6): "00471061c2bffd4452466ec01c3a84365d7b1769f54b4b31b1c66c16d35b0cf9",
    ("rgb", 10, None): "d7421b7bd8229ad2070450567cf40681fcecb9c3f4c04563c3850fcc78462197",
    ("rgb", 10, 6): "d18b2f25a9d229daeb1492d18b4929ca2297d136320ac7f931659defa5a0d259",
    ("rgb", 90, None): "ea373dab77d7bfa3f8946fbf8daed799bba3278b534c8a333f944c9c47d9a842",
    ("rgb", 90, 6): "c2291156b999b5311dd478248677c74338648e9673ad995b22989b34f1264e02",
}


@pytest.mark.parametrize("kind, quality, skip_level", list(ENCODE_DIGESTS))
def test_encode_digests_pinned(corpus, kind, quality, skip_level):
    cfg = EncodeConfig(quality=quality, quant_mode="div", skip_level=skip_level)
    data, _ = encode(_conftest_image(corpus, kind), cfg)
    assert hashlib.sha256(data).hexdigest() == ENCODE_DIGESTS[kind, quality, skip_level]


def test_coefficient_overflow_rejected():
    blocks = np.zeros((1, 8, 8), dtype=np.int64)
    blocks[0, 3, 3] = 5000
    with pytest.raises(CorruptStreamError, match="out of range"):
        encode_channel([blocks], np.zeros(1, dtype=bool))


@pytest.mark.parametrize("value", [-2048, 40000, 65537, -65535, 1 << 40])
@pytest.mark.parametrize("at, message", [((3, 3), "AC coefficient"), ((0, 0), "DC difference")])
def test_values_beyond_int16_are_out_of_range(value, at, message):
    # the encoder codes int16: wider values, 65537 and -65535 among them,
    # which int16 wraps to 1, stay out of range
    blocks = np.zeros((1, 8, 8), dtype=np.int64)
    blocks[(0, *at)] = value
    with pytest.raises(CorruptStreamError, match=message):
        encode_channel([blocks], np.zeros(1, dtype=bool))


@pytest.mark.parametrize("faults", [
    [(0, (0, 0)), (0, (2, 5))],  # DC and AC of one block: the DC comes first
    [(1, (0, 0)), (0, (7, 7))],
    [(0, (0, 0)), (1, (0, 1))],
    [(1, (0, 0)), (1, (1, 0))],
])
def test_the_first_value_out_of_range_in_stream_order_is_reported(faults):
    blocks = np.zeros((3, 8, 8), dtype=np.int64)
    for block, at in faults:
        blocks[(block, *at)] = 3000 if at == (0, 0) else -3000
    for coder in (oracle_encode, lambda c: encode_channel([c], np.zeros(3, dtype=bool))):
        with pytest.raises(CorruptStreamError) as raised:
            coder(blocks)
        block, at = min(faults)
        assert str(raised.value) == ("DC difference" if at == (0, 0) else "AC coefficient") + " out of range"


def test_block_zero_cannot_be_skipped():
    with pytest.raises(CorruptStreamError, match="block 0"):
        encode_channel([np.zeros((1, 8, 8), dtype=np.int64)], np.array([True, False]))


def test_skip_flag_length_checked():
    cases = [
        (2, [False, False, False], "coded block count"),  # fewer coded blocks than unskipped flags
        (3, [False, True, False], "coded block count"),   # more coded blocks than unskipped flags
        (3, [[False, False, False]], "one per block"),    # flags not one per block
    ]
    for coded, flags, message in cases:
        with pytest.raises(ValueError, match=message):
            encode_channel([np.zeros((coded, 8, 8), dtype=np.int64)], np.array(flags))


@pytest.mark.parametrize("quant_mode, offset, value, message", [
    ("shift", 13, 8, "shift exponent out of range"),  # a DC exponent of 8
    ("div", 13, 0, "zero divisor"),                   # a DC divisor of 0
    ("div", 5, 0x04, "exact-DC"),                     # the exact-DC flag on
])
def test_container_rejects_inconsistent_quant_header(quant_mode, offset, value, message):
    img = RasterImage(np.random.default_rng(6).integers(0, 256, size=(16, 16), dtype=np.uint8))
    data = bytearray(encode(img, EncodeConfig(quant_mode=quant_mode))[0])
    data[offset] = value if offset == 13 else data[offset] | value
    for read in (read_container, decode):
        with pytest.raises(CorruptStreamError, match=message):
            read(bytes(data))


def _meta(**kw):
    base = dict(
        color=False, shift_quant=True, dc_exact=False, quality=50,
        trunc_level=0, skip_level=None, width=16, height=16,
        quant_payload=np.arange(64, dtype=np.int64) % 8,
    )
    base.update(kw)
    return ContainerMeta(**base)


def _gray_container(skip_level=None, flags_on=()):
    rng = np.random.default_rng(5)
    blocks = _random_blocks(rng, 4)
    flags = np.zeros(4, dtype=bool)
    flags[list(flags_on)] = True
    coded = blocks[~flags]
    meta = _meta(skip_level=skip_level)
    return meta, [encode_channel([coded], flags)], coded


def test_writer_rejects_header_the_reader_rejects():
    # quality 0, exact DC in division mode and an all-zero divisor payload:
    # the header itself raises, at its first fault
    _, channels, _ = _gray_container()
    with pytest.raises(CorruptStreamError, match="quality out of range"):
        write_container(_meta(quality=0, shift_quant=False, dc_exact=True,
                              quant_payload=np.zeros(64, dtype=np.int64)), channels)


@pytest.mark.parametrize("fields, message", [
    (dict(trunc_level=5), "truncation level"),
    (dict(skip_level=7), "skip level"),
    (dict(width=0), "dimension"),
    (dict(height=0x10000), "dimension"),
    (dict(quant_payload=np.full(64, 8)), "shift exponent"),
    (dict(shift_quant=False, quant_payload=np.full(64, 256)), "one byte"),
    (dict(shift_quant=False, dc_exact=True, quant_payload=np.ones(64)), "exact-DC"),
    (dict(shift_quant=False, quant_payload=np.zeros(64)), "zero divisor"),
])
def test_writer_checks_every_header_field(fields, message):
    _, channels, _ = _gray_container()
    with pytest.raises(CorruptStreamError, match=message):
        write_container(_meta(**fields), channels)


def test_container_round_trip_fields():
    meta, channels, coded = _gray_container(skip_level=3, flags_on=(2,))
    data = write_container(meta, channels)
    meta2, channels2 = read_container(data)
    for name in ("color", "shift_quant", "dc_exact", "quality",
                 "trunc_level", "skip_level", "width", "height"):
        assert getattr(meta2, name) == getattr(meta, name)
    assert np.array_equal(meta2.quant_payload, meta.quant_payload)
    assert len(channels2) == 1
    assert np.array_equal(channels2[0].skip_flags, [False, False, True, False])
    assert np.array_equal(decode_channel(channels2[0]), coded)


def test_container_rewrite_is_byte_identical():
    meta, channels, _ = _gray_container(skip_level=1, flags_on=(1, 3))
    data = write_container(meta, channels)
    meta2, channels2 = read_container(data)
    assert write_container(meta2, channels2) == data


def test_channel_stream_block_count_is_its_flags():
    _, (stream,), _ = _gray_container(skip_level=1, flags_on=(1,))
    assert stream.block_count == len(stream.skip_flags) == 4
    with pytest.raises(TypeError):
        replace(stream, block_count=5)


def test_channel_ids_are_stream_positions():
    # a 16x16 RGB container: 4 luma blocks and one block per 4:2:0 chroma
    # plane, each stream numbered by its place in the list
    rng = np.random.default_rng(8)
    flags = [np.array([False, True, False, False]), np.zeros(1, bool), np.zeros(1, bool)]
    channels = [encode_channel([_random_blocks(rng, int((~f).sum()))], f) for f in flags]
    data = write_container(_meta(color=True, skip_level=2), channels)
    _, got = read_container(data)
    assert len(got) == 3
    for g, w in zip(got, channels):
        assert np.array_equal(g.skip_flags, w.skip_flags)
        assert (g.table, g.bit_length, bytes(g.payload)) == (w.table, w.bit_length, w.payload)
    at = 4 + struct.calcsize(">BBBBBHH") + 64  # the first channel's id byte
    for cid, ch in enumerate(channels):
        assert data[at] == cid
        at += struct.calcsize(">BI") + (ch.block_count + 7) // 8
        at += struct.calcsize(">H") + 2 * len(ch.table) + struct.calcsize(">I") + len(ch.payload)
    assert at == len(data)


def test_container_magic_and_version():
    meta, channels, _ = _gray_container()
    data = write_container(meta, channels)
    assert data[:4] == b"AJPG"
    with pytest.raises(CorruptStreamError, match="magic"):
        read_container(b"JUNK" + data[4:])
    with pytest.raises(CorruptStreamError, match="version"):
        read_container(data[:4] + bytes([99]) + data[5:])


def test_container_rejects_structural_damage():
    meta, channels, _ = _gray_container(skip_level=2, flags_on=(1,))
    data = write_container(meta, channels)
    cases = [
        data[:-1],                       # truncated payload
        data + b"\x00",                  # trailing byte
        data[:5] + bytes([0xFF]) + data[6:],  # unknown flag bits
        data[:6] + bytes([0]) + data[7:],     # quality 0
    ]
    for bad in cases:
        with pytest.raises(CorruptStreamError):
            read_container(bad)


def test_container_skip_flags_require_skip_mode():
    # a valid skip_level=2 container, its skip-level byte (byte 8) set to
    # "perforation disabled"
    meta, channels, _ = _gray_container(skip_level=2, flags_on=(1,))
    data = bytearray(write_container(meta, channels))
    data[8] = 0xFF
    with pytest.raises(CorruptStreamError, match="perforation disabled"):
        read_container(bytes(data))
    with pytest.raises(CorruptStreamError, match="perforation disabled"):
        write_container(replace(meta, skip_level=None), channels)


_PERTURBATIONS = [None, "drop", "repeat", "short", "long", "skip"]


@st.composite
def _container_case(draw):
    """A header and its channel streams, perturbed by at most one of: a
    dropped channel, a repeated channel, a stream one block short or long,
    or one skipped flag under a perforation-off header."""
    color, width, height = draw(st.booleans()), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(_PERTURBATIONS))
    skip_level = None if kind == "skip" else draw(st.one_of(st.none(), st.integers(0, 6)))
    chroma = [(-(-height // 2), -(-width // 2))] * 2 if color else []
    counts = [-(-h // 8) * -(-w // 8) for h, w in [(height, width), *chroma]]
    rng = np.random.default_rng(draw(st.integers(0, 1 << 32)))

    def stream(n, skips=False):
        flags = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        flags[:1] = False
        flags &= skips
        return encode_channel([_random_blocks(rng, int(np.count_nonzero(~flags)))], flags)

    channels = [stream(n, skip_level is not None) for n in counts]
    at = draw(st.integers(0, len(channels) - 1))
    if kind == "drop":
        del channels[at]
    elif kind == "repeat":
        channels.insert(at, channels[at])
    elif kind in ("short", "long"):
        channels[at] = stream(counts[at] + (1 if kind == "long" else -1))
    elif kind == "skip":
        wide = [i for i, n in enumerate(counts) if n > 1]
        if not wide:
            kind = None  # no plane has a block but block 0 to skip
        else:
            at = draw(st.sampled_from(wide))
            flags = np.zeros(counts[at], dtype=bool)
            flags[draw(st.integers(1, counts[at] - 1))] = True
            channels[at] = encode_channel([_random_blocks(rng, counts[at] - 1)], flags)
    return _meta(color=color, width=width, height=height, skip_level=skip_level), channels, kind


@given(_container_case())
@example((_meta(), [encode_channel([np.zeros((3, 8, 8))], np.zeros(3, bool))], "short"))
def test_the_writer_refuses_every_container_the_reader_rejects(case):
    meta, channels, kind = case
    try:
        data = write_container(meta, channels)
    except CorruptStreamError:
        assert kind is not None
        return
    assert kind is None
    meta2, got = read_container(data)
    for name in ("color", "shift_quant", "dc_exact", "quality",
                 "trunc_level", "skip_level", "width", "height"):
        assert getattr(meta2, name) == getattr(meta, name)
    assert np.array_equal(meta2.quant_payload, meta.quant_payload)
    assert len(got) == len(channels)
    for g, w in zip(got, channels):
        assert np.array_equal(g.skip_flags, w.skip_flags)
        assert (g.table, g.bit_length, bytes(g.payload)) == (w.table, w.bit_length, w.payload)


def test_the_writer_refuses_each_channel_fault_with_the_readers_message():
    # a 16x16 gray header with perforation off: 4 blocks in one plane
    meta, (stream,), _ = _gray_container()
    skipping = encode_channel([_random_blocks(np.random.default_rng(2), 3)],
                              np.array([False, True, False, False]))
    three = encode_channel([_random_blocks(np.random.default_rng(3), 3)], np.zeros(3, bool))
    cases = [
        ([three], "block count inconsistent with dimensions"),
        ([skipping], "skip flags present with perforation disabled"),
        ([stream, stream], "channel count does not match the header"),
        ([], "channel count does not match the header"),
    ]
    for channels, message in cases:
        with pytest.raises(CorruptStreamError, match=f"^{message}$"):
            write_container(meta, channels)


def test_channel_stream_checks_its_rule_when_built():
    _, (stream,), _ = _gray_container(skip_level=2, flags_on=(2,))
    block0 = stream.skip_flags.copy()
    block0[0] = True
    cases = [
        (dict(skip_flags=block0), "block 0 cannot be skipped"),
        (dict(table=[(0, 1), (1, 1), (2, 2)]), "Kraft"),
        (dict(payload=stream.payload + b"\x00"), "payload length"),
        (dict(payload=stream.payload[:-1]), "payload length"),
        (dict(bit_length=stream.bit_length + 8), "payload length"),
        (dict(skip_flags=np.zeros(0, bool), bit_length=-3, payload=b""), "payload length"),
    ]
    for fields, message in cases:
        with pytest.raises(CorruptStreamError, match=message):
            replace(stream, **fields)
    with pytest.raises(ValueError, match="read-only"):
        stream.skip_flags[2] = False
    for flags in (block0.astype(np.uint8), block0[None], list(block0)):
        with pytest.raises(ValueError, match="one per block"):
            replace(stream, skip_flags=flags)
    with pytest.raises(FrozenInstanceError):
        stream.bit_length = 0


def test_container_meta_holds_a_read_only_int64_payload():
    exponents = [k % 8 for k in range(64)]
    data = write_container(*_gray_container()[:2])
    for payload in (exponents, np.array(exponents, dtype=np.uint8).reshape(8, 8),
                    read_container(data)[0].quant_payload):
        quant = _meta(quant_payload=payload).quant_payload
        assert quant.shape == (64,) and quant.dtype == np.int64 and not quant.flags.writeable
        assert quant.tolist() == exponents
    meta = _meta()
    with pytest.raises(FrozenInstanceError):
        meta.quality = 90


def test_reader_rejects_a_skipped_block_zero():
    # a 16x16 gray skip_level=2 container whose first skip bit is set
    data = bytearray(write_container(*_gray_container(skip_level=2, flags_on=(1,))[:2]))
    at = 4 + struct.calcsize(">BBBBBHH") + 64 + struct.calcsize(">BI")  # the skip bitmap
    data[at] |= 0x80
    with pytest.raises(CorruptStreamError, match="block 0 cannot be skipped"):
        read_container(bytes(data))


def test_a_huge_block_count_is_refused_before_its_bitmap_is_unpacked():
    header = write_container(*_gray_container()[:2])[: 4 + struct.calcsize(">BBBBBHH") + 64]
    data = header + struct.pack(">BI", 0, 2**32 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError, match="block count inconsistent with dimensions"):
            read_container(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pixel_budget_refuses_a_huge_header_before_any_channel():
    # a header-only container that asks for 65535 x 65535 gray pixels
    data = b"AJPG" + struct.pack(">BBBBBHH", 1, 0, 50, 0, 0xFF, 65535, 65535) + bytes([16] * 64)
    assert issubclass(PixelBudgetError, CorruptStreamError)
    tracemalloc.start()
    try:
        with pytest.raises(PixelBudgetError, match="pixel budget"):
            decode(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(CorruptStreamError, match="container truncated"):
        read_container(data, max_pixels=65535 * 65535)
    # the budget admits an image of exactly max_pixels
    img = RasterImage(np.full((16, 24), 9, dtype=np.uint8))
    data = encode(img)[0]
    assert decode(data, max_pixels=16 * 24) == decode(data)
    with pytest.raises(PixelBudgetError):
        decode(data, max_pixels=16 * 24 - 1)


def test_read_container_copies_no_payload():
    # noise codes every block, so the payloads are most of the container:
    # each is a view of the input, and the reader allocates little beyond
    # the skip flags
    rng = np.random.default_rng(12)
    data = encode(RasterImage(rng.integers(0, 256, size=(1024, 1024), dtype=np.uint8)))[0]
    tracemalloc.start()
    try:
        _, channels = read_container(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(data) / 10
    whole = np.frombuffer(data, dtype=np.uint8)
    for ch in channels:
        assert np.shares_memory(np.frombuffer(ch.payload, dtype=np.uint8), whole)


def test_compression_ratio():
    assert compression_ratio(64, 64, 1, b"\x00" * 512) == pytest.approx(8.0)
    assert compression_ratio(8, 8, 3, b"\x00" * 96) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="empty"):
        compression_ratio(8, 8, 1, b"")
