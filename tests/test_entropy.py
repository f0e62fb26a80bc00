"""Zigzag scan, length-limited Huffman coding, channel codec, container."""

import hashlib
import heapq
import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ajpeg.entropy import (
    MAX_CODE_LEN,
    ChannelStream,
    ContainerMeta,
    CorruptStreamError,
    ZIGZAG,
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
    stream = encode_channel(blocks, np.zeros(17, dtype=bool), channel_id=1)
    assert stream.channel_id == 1 and stream.block_count == 17
    assert np.array_equal(decode_channel(stream), blocks)


def test_channel_round_trip_with_skips():
    rng = np.random.default_rng(4)
    blocks = _random_blocks(rng, 12)
    flags = np.zeros(12, dtype=bool)
    flags[[2, 3, 7, 11]] = True
    coded = blocks[~flags]
    stream = encode_channel(coded, flags)
    assert stream.block_count == 12 and np.array_equal(stream.skip_flags, flags)
    assert np.array_equal(decode_channel(stream), coded)
    # skipped blocks emit nothing: the payload is that of the coded blocks alone
    alone = encode_channel(coded, np.zeros(len(coded), dtype=bool))
    assert (stream.table, stream.bit_length, stream.payload) == (
        alone.table, alone.bit_length, alone.payload
    )


def test_channel_all_zero_blocks():
    blocks = np.zeros((3, 8, 8), dtype=np.int64)
    stream = encode_channel(blocks, np.zeros(3, dtype=bool))
    assert np.array_equal(decode_channel(stream), blocks)


def test_extreme_coefficients_round_trip():
    blocks = np.zeros((2, 8, 8), dtype=np.int64)
    blocks[0, 0, 0] = -1024
    blocks[0, 7, 7] = 1023
    blocks[1, 0, 0] = 1023  # DC diff 2047, the widest legal size
    stream = encode_channel(blocks, np.zeros(2, dtype=bool))
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


@given(channel_spec)
@example(EXTREME_CHANNEL)
def test_channel_round_trip_sparse(spec):
    coded, flags = _channel(spec)
    assert np.array_equal(decode_channel(encode_channel(coded, flags)), coded)


@given(st.one_of(st.just(EXTREME_CHANNEL), channel_spec), st.data())
def test_mutated_channel_decodes_or_fails_structurally(spec, data):
    coded, flags = _channel(spec)
    stream = encode_channel(coded, flags)
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
    mutated = ChannelStream(0, len(flags), flags, table, nbits, bytes(payload))
    try:
        out = decode_channel(mutated)
    except CorruptStreamError:
        return
    assert out.shape == (len(coded), 8, 8)


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
        encode_channel(blocks, np.zeros(1, dtype=bool))


def test_block_zero_cannot_be_skipped():
    with pytest.raises(CorruptStreamError, match="block 0"):
        encode_channel(np.zeros((1, 8, 8), dtype=np.int64),
                       np.array([True, False]))


def test_skip_flag_length_checked():
    cases = [
        (2, [False, False, False]),  # fewer coded blocks than unskipped flags
        (3, [False, True, False]),   # more coded blocks than unskipped flags
        (3, [[False, False, False]]),  # flags not one per block
    ]
    for coded, flags in cases:
        with pytest.raises(ValueError, match="coded block count"):
            encode_channel(np.zeros((coded, 8, 8), dtype=np.int64), np.array(flags))


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
    return meta, [encode_channel(coded, flags)], coded


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
    meta, channels, _ = _gray_container(skip_level=None, flags_on=(1,))
    data = write_container(meta, channels)
    with pytest.raises(CorruptStreamError, match="perforation disabled"):
        read_container(data)


def test_compression_ratio():
    assert compression_ratio(64, 64, 1, b"\x00" * 512) == pytest.approx(8.0)
    assert compression_ratio(8, 8, 3, b"\x00" * 96) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="empty"):
        compression_ratio(8, 8, 1, b"")
