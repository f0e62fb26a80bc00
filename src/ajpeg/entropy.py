"""Entropy coding and the AJPG container.

Quantized blocks are zigzag-scanned and coded JPEG-style: a DC size
category plus difference bits (predicted from the previous coded block,
reset per channel), then (run, size) symbols for AC coefficients with
ZRL = (15, 0) for 16 zeros and EOB = (0, 0) for a trailing zero run.
Amplitude bits use the JPEG magnitude convention (negative values stored
as value + 2**size - 1). DC and AC symbols share one canonical Huffman
table per channel, built from the actual symbol frequencies of that
channel (two-pass), with code lengths capped at 16 bits.

The channel codec sees coded blocks only: encode_channel takes the
quantized blocks that were processed, in order, as the caller's slices,
with one skip flag per block, and decode_channel returns those coded
blocks. Skipped blocks emit nothing; the container carries a per-channel
skip bitmap, and the pipeline gives each skipped block the pixels of its
reference, the most recent coded block.

Both directions work in slices, so no int64 array and no per-bit lookahead
covers a channel; the encoder's symbol records, 3 bytes a symbol, are the
one per-symbol store that does. The encoder reads the slices its caller
makes (the pipeline's hold at most fdct._SLICE_BLOCKS blocks, compressed
as they are taken), so no array of a channel's quantized blocks exists
either. It makes two passes. The first zigzags each slice as it arrives
into a C-contiguous int16 array, carrying the DC predictor, and builds its
symbols at once. One bool mask of the nonzero coefficients with the DC
column set gives, as its flat indices, each block's DC and nonzero AC
coefficients in stream order: zero runs are the gaps between them, and
every symbol's place follows from a cumulative count of the ZRLs, EOBs
and symbols before it; size categories are the values' bit lengths. It
keeps each slice's symbols as narrow records and counts their
frequencies. The second builds the table and adds each slice's
(code << size) | amplitude words, in 64-bit lanes, into the big-endian
32-bit words of the payload, carrying the partial last word to the next
slice.

The decoder reads each payload in place, a view of the container, one
window at a time: it builds the big-endian 32-bit word at every byte and
looks up, at every bit position, the total length and the scan advance of
the code there in a 16-bit lookahead table (as in ITU-T T.81 Annex
F.2.2.3 and libjpeg's HUFF_LOOKAHEAD). A symbol's total length is its code
length plus its low nibble in every context, since DC size categories and
AC symbols share the amplitude rule and ZRL and EOB carry no amplitude. Its
advance is the scan positions it moves its block on: run + 1 for an AC
coefficient, 16 for ZRL, and for EOB, a size category out of range and a
position that starts no code, a sentinel of 128 or more that ends the
block at once. So one Python loop step per AC symbol marks its start and
adds its advance and length, and one test of the scan position after the
block tells a full block and EOB from each fault; the walk carries the bit
position from slice to slice. A slice also ends where the window moves on,
so its marked symbols are read from the window's words through the table
and its amplitudes in one array operation each; its DC values are a
cumulative sum of the differences, carried on from the slice before.
decode_channel hands each slice's int64 values to a step of the caller's,
so the pipeline inverts them slice by slice.

read_container checks the header's pixel count against a budget
(MAX_PIXELS by default) before it reads any channel, and raises
PixelBudgetError beyond it, as Pillow's MAX_IMAGE_PIXELS does.

Container layout (all integers big-endian):

    magic "AJPG" | version=1 | flags | quality | truncLevel | skipLevel
    | width:2 | height:2 | quant payload:64
    then per channel:
    id | blockCount:4 | skip bitmap | tableCount:2 | (symbol, length)*
    | payloadBits:4 | payload (zero-padded to a byte)

flags: bit0 = color, bit1 = shift quantization, bit2 = exact-DC mode
(shift quantization only). skipLevel is 0xFF when perforation is
disabled. The quant payload holds shift exponents in [0, 7] in shift
mode, nonzero divisors otherwise. _check_meta holds that header rule:
write_container refuses a header it breaks, and read_container checks
every header field, so the decoder trusts the header it returns.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .color import plane_shapes
from .fdct import _SLICE_BLOCKS
from .knobs import SKIP_LEVELS, TRUNC_LEVELS
from .quant import QUALITY_LEVELS
from .raster import block_grid

MAGIC = b"AJPG"
VERSION = 1
FLAG_COLOR = 0x01
FLAG_SHIFT_QUANT = 0x02
FLAG_DC_EXACT = 0x04
SKIP_DISABLED = 0xFF

ZRL = 0xF0
EOB = 0x00
MAX_SIZE = 11  # coefficient magnitudes below 2**11
MAX_CODE_LEN = 16


MAX_PIXELS = 1 << 28  # read_container's default pixel budget


class CorruptStreamError(ValueError):
    """Structurally invalid or internally inconsistent stream."""


class PixelBudgetError(CorruptStreamError):
    """A header whose width * height exceeds the reader's pixel budget, as
    Pillow's DecompressionBombError guards MAX_IMAGE_PIXELS."""


# Zigzag scan order: ZIGZAG[k] is the row-major flat index of scan position k.
# fmt: off
ZIGZAG = np.array([
     0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)
# fmt: on


def zigzag(block: np.ndarray) -> np.ndarray:
    """8x8 block (or batch) to length-64 zigzag vector(s)."""
    b = np.asarray(block)
    return b.reshape(b.shape[:-2] + (64,))[..., ZIGZAG]


def inv_zigzag(vec: np.ndarray) -> np.ndarray:
    """Length-64 zigzag vector(s) back to 8x8 block(s)."""
    v = np.asarray(vec)
    out = np.empty_like(v)
    out[..., ZIGZAG] = v
    return out.reshape(v.shape[:-1] + (8, 8))


def code_lengths(freqs: dict[int, int], limit: int = MAX_CODE_LEN) -> dict[int, int]:
    """Optimal length-limited prefix code lengths (package-merge).

    Each of limit rounds sorts the last round's packages with the leaves
    and pairs the sorted items into packages; a symbol's length is the
    number of rounds whose items in the first n - 1 packages of the last
    round include its leaf. Those items are a prefix of each round's
    sorted list: the first 2(n - 1) in the last round, and twice the
    number of packages among them in the round before. So an item carries
    no members, only its weight, its first member's rank (symbols in
    order) and whether it is a package, and the prefixes are counted back
    from the last round. Items of equal weight never share a first member
    (a package outweighs each of its members, and packages of equal weight
    are made of items of equal weight), so (weight, first member) sorts
    the items as the tuples of their member symbols would, ties included.
    A round that repeats the one before makes the same packages, so every
    later round repeats it too, and the rounds stop being built there.
    """
    syms = sorted(s for s, f in freqs.items() if f > 0)
    if not syms:
        return {}
    if len(syms) == 1:
        return {syms[0]: 1}
    if len(syms) > 1 << limit:
        raise ValueError("alphabet too large for the length limit")
    leaves = sorted((freqs[s], rank, False) for rank, s in enumerate(syms))
    rounds = []
    level = []
    for _ in range(limit):
        merged = sorted(level + leaves)
        if rounds and merged == rounds[-1]:
            rounds.extend([merged] * (limit - len(rounds)))
            break
        rounds.append(merged)
        pairs = iter(merged)
        level = [(a[0] + b[0], a[1], True) for a, b in zip(pairs, pairs)]
    lengths = [0] * len(syms)
    take = 2 * (len(syms) - 1)
    for merged in reversed(rounds):
        packages = 0
        for _, rank, package in merged[:take]:
            if package:
                packages += 1
            else:
                lengths[rank] += 1
        take = 2 * packages
    return dict(zip(syms, lengths))


def canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Assign canonical codes: symbol -> (code, length), ordered by
    (length, symbol)."""
    codes = {}
    code = 0
    prev = 0
    for sym, ln in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
        code <<= ln - prev
        codes[sym] = (code, ln)
        code += 1
        prev = ln
    return codes


def _validate_table(table: list[tuple[int, int]]):
    seen = set()
    kraft = 0
    for sym, ln in table:
        if not 0 <= sym <= 255 or not 1 <= ln <= MAX_CODE_LEN:
            raise CorruptStreamError("bad Huffman table entry")
        if sym in seen:
            raise CorruptStreamError("duplicate Huffman symbol")
        seen.add(sym)
        kraft += 1 << (MAX_CODE_LEN - ln)
    if kraft > 1 << MAX_CODE_LEN:
        raise CorruptStreamError("Huffman table violates the Kraft inequality")


@dataclass
class ChannelStream:
    """One coded channel: table, skip flags, and the bit payload."""

    channel_id: int
    block_count: int
    skip_flags: np.ndarray
    table: list[tuple[int, int]]  # (symbol, code length), canonical order
    bit_length: int
    payload: bytes  # read_container gives a memoryview of the container


def _size_category(values: np.ndarray) -> np.ndarray:
    """JPEG size category, the bit length of |value|, as int32. float32
    holds every |value| below 2**24 exactly; a wider one may round up to
    the next power of two, but its category is out of range either way."""
    return np.frexp(values.astype(np.float32))[1]


def _amplitude_bits(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """JPEG magnitude convention: negative values stored as value + 2**size - 1,
    that is, the low size bits of value - 1."""
    return (values - (values < 0)) & (np.left_shift(1, sizes, dtype=np.int32) - 1)


def _amplitude_values(bits: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Inverse of _amplitude_bits: bits below half = 2**(size-1) stand for
    bits - 2**size + 1 (none do for size 0). int32 bits give int32 values."""
    half = np.left_shift(1, sizes, dtype=np.int32) >> 1
    offset = bits - half
    offset >>= 31  # all ones where the value is negative
    half <<= 1
    half -= 1
    offset &= half
    return bits - offset


def _channel_symbols(part: np.ndarray, dc: int):
    """Symbol stream of a slice of coded blocks (m, 8, 8) in stream order,
    the first DC difference taken from the predictor dc, as narrow arrays
    (symbol, amplitude bits), and the slice's last DC value (dc plus its
    differences), the next slice's predictor. Every symbol's amplitude
    size is its low nibble.

    Each block is its DC symbol, then per nonzero AC coefficient run // 16
    ZRLs and one (run % 16, size) symbol, then EOB unless its last
    coefficient is nonzero. The slice is zigzagged into a C-contiguous
    int16 array (a value beyond int16 is out of range, clipped or not), and
    one bool mask with the DC column set gives, as its flat indices at, the
    items in stream order: each block's DC and its nonzero AC coefficients,
    at & 63 being the scan position. Each item's symbol goes after the
    symbols of the items before it and its own ZRLs; a DC symbol also after
    the EOB of the block before. Every other slot holds a ZRL.
    """
    coded = zigzag(part)
    m = len(coded)
    if not m:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint16), dc
    dcs = coded[:, 0].astype(np.int64)
    diff = dcs.copy()
    diff[0] -= dc
    diff[1:] -= dcs[:-1]
    if coded.dtype != np.int16:
        coded = np.clip(coded.astype(np.int64, copy=False), -0x8000, 0x7FFF).astype(np.int16)
    mask = coded != 0
    has_eob = ~mask[:, 63]
    mask[:, 0] = True
    at = np.flatnonzero(mask)
    del mask
    value = coded.reshape(-1)[at]
    del coded
    dc_at = np.flatnonzero((at & 63) == 0)  # each block's DC item
    np.minimum(diff, 0x7FFF, out=diff)  # a difference out of range stays so in int16
    np.maximum(diff, -0x8000, out=diff)
    value[dc_at] = diff
    size = _size_category(value)
    bad = np.flatnonzero(size > MAX_SIZE)
    if bad.size:  # the first in stream order
        if at[bad[0]] & 63:
            raise CorruptStreamError("AC coefficient out of range")
        raise CorruptStreamError("DC difference out of range")

    # The arrays per item set the slice's memory peak, so they are updated
    # in place and dropped once used.
    run = np.empty_like(at)  # zero run before each coefficient
    run[0] = 0
    np.subtract(at[1:], at[:-1], out=run[1:])
    run -= 1
    run[dc_at] = 0
    del at
    pos = run >> 4  # ZRLs before each item, then the item's own symbol
    pos += 1
    pos[dc_at[1:]] += has_eob[:-1]
    np.cumsum(pos, out=pos)
    pos -= 1
    count = int(pos[-1]) + 1 + int(has_eob[-1])

    # a size is at most 11 bits, so the symbol fits a byte and its amplitude 16 bits
    sym = np.full(count, ZRL, dtype=np.uint8)
    amp = np.zeros(count, dtype=np.uint16)
    run &= 15
    run <<= 4
    run |= size
    sym[pos] = run
    del run
    amp[pos] = _amplitude_bits(value, size)
    ends = np.append(pos[dc_at[1:]], count)
    ends -= 1
    sym[ends[has_eob]] = EOB
    return sym, amp, int(dcs[-1])


_PACK_CHUNK = 1 << 13  # codes per transient packing step


def _pack(chunks) -> bytes:
    """Concatenate the low lengths[i] <= 27 bits of each words[i] over the
    (words, lengths) chunks, most significant first, zero-padded to a byte.

    A code lands in at most two big-endian 32-bit output words. Codes are
    placed in 64-bit lanes and the lanes' halves added per output word: the
    codes' bit fields are disjoint, so adding them is OR, and the float64
    sums of bincount are exact below 2**53. Each chunk's complete words are
    written as it comes; its last, partial word carries into the next."""
    out = bytearray()
    carry = used = 0  # the partial word and its bits in use
    for words, ln in chunks:
        end = np.cumsum(ln)
        end += used  # each code's end, in bits from the partial word's start
        start = end - ln
        word = start >> 5
        lanes = words.astype(np.uint64) << (64 - (start & 31) - ln).astype(np.uint64)
        count = int(word[-1]) + 2
        sums = np.bincount(word, weights=lanes >> np.uint64(32), minlength=count)
        sums += np.bincount(word + 1, weights=lanes & np.uint64(0xFFFFFFFF), minlength=count)
        sums[0] += carry
        whole, used = divmod(int(end[-1]), 32)
        out += sums[:whole].astype(">u4").tobytes()
        carry = int(sums[whole])
    out += carry.to_bytes(4, "big")[: (used + 7) // 8]
    return bytes(out)


def encode_channel(coded, skip_flags: np.ndarray, channel_id: int = 0) -> ChannelStream:
    """Entropy-code a channel from its coded blocks' quantized values, an
    iterable of (k, 8, 8) slices in order, and one skip flag per block.
    Together the slices hold one block per unset flag.

    Two passes. The first builds each slice's symbols as it arrives,
    carrying the DC predictor, and keeps them as narrow records (3 bytes
    per symbol) and their frequencies; only the records outlive the slice.
    The second packs each slice's codes after the bits of the slices
    before it."""
    skip_flags = np.asarray(skip_flags, dtype=bool)
    if skip_flags.ndim != 1:
        raise ValueError("coded block count must match the unskipped flags")
    if len(skip_flags) and skip_flags[0]:
        raise CorruptStreamError("block 0 cannot be skipped")

    records = []
    freqs = np.zeros(256, dtype=np.int64)
    dc = count = 0
    for part in coded:
        sym, amp, dc = _channel_symbols(part, dc)
        count += len(part)
        freqs += np.bincount(sym, minlength=256)
        records.append((sym, amp))
    if count != np.count_nonzero(~skip_flags):
        raise ValueError("coded block count must match the unskipped flags")
    codes = canonical_codes(code_lengths({int(s): int(freqs[s]) for s in np.flatnonzero(freqs)}))
    # per symbol: its code shifted above its amplitude bits, and their total length
    word_of = np.zeros(256, dtype=np.int64)
    len_of = np.zeros(256, dtype=np.int64)
    for s, (code, ln) in codes.items():
        word_of[s], len_of[s] = code << (s & 0x0F), ln + (s & 0x0F)

    def words():
        for sym, amp in records:
            for lo in range(0, len(sym), _PACK_CHUNK):
                s = sym[lo : lo + _PACK_CHUNK].astype(np.intp)  # numpy gathers fastest by intp
                yield word_of[s] | amp[lo : lo + _PACK_CHUNK], len_of[s]

    payload = _pack(words())
    bit_length = int(freqs @ len_of)
    table = sorted(((s, ln) for s, (_, ln) in codes.items()), key=lambda e: (e[1], e[0]))
    return ChannelStream(channel_id, len(skip_flags), skip_flags, table, bit_length, payload)


# A symbol's total length, code plus amplitude bits, is at most 16 + 11;
# the lookahead stores up to 16 + 15 for size categories out of range.
_LOOKAHEAD_PAD = 32
# A block is at most 64 symbols, so its walk reads below this many bits past
# its start.
_BLOCK_BITS = 64 * _LOOKAHEAD_PAD
_WINDOW_CHUNK = 1 << 13  # payload bytes per lookahead window

# The scan positions an AC symbol advances its block by: run + 1 for a
# coefficient and 16 for ZRL. EOB, a size category out of range and a
# window that starts no code advance by a sentinel of 128 or more, so that
# the block's scan position k, below 64 before each symbol, leaves the walk
# at once and tells after it how the block ended: 64 fills the block,
# 65-79 is a run that overflows it, and EOB, a bad size and no code end in
# 129-191, 193-255 and 256 or more. As a DC symbol, a size category in range
# advances by 1 (1-11) or is EOB (0).
_EOB_ADVANCE = 128
_BAD_SIZE = 192
_NO_CODE = 255
_ADVANCE = np.array(
    [
        _EOB_ADVANCE if s == EOB
        else 16 if s == ZRL
        else (s >> 4) + 1 if 1 <= s & 0x0F <= MAX_SIZE
        else _BAD_SIZE
        for s in range(256)
    ],
    dtype=np.uint8,
)


def _lookahead(table: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """For every 16-bit window, the symbol of the code it starts with, and
    its scan advance and total length (code + amplitude bits) as the low
    and high bytes of one little-endian uint16; a window that starts no
    code has advance _NO_CODE and length 0.

    Canonical codes in (length, symbol) order tile the window space from 0
    upward, code i covering 2**(16 - length_i) windows.
    """
    ordered = sorted(table, key=lambda e: (e[1], e[0]))
    syms = np.array([s for s, _ in ordered], dtype=np.uint8)
    lens = np.array([ln for _, ln in ordered], dtype=np.uint16)
    widths = np.left_shift(1, MAX_CODE_LEN - lens, dtype=np.int64)
    covered = int(widths.sum())
    lut_sym = np.zeros(1 << MAX_CODE_LEN, dtype=np.uint8)
    lut_step = np.full(1 << MAX_CODE_LEN, _NO_CODE, dtype="<u2")
    lut_sym[:covered] = np.repeat(syms, widths)
    lut_step[:covered] = np.repeat(_ADVANCE[syms] | (lens + (syms & 0x0F)) << 8, widths)
    return lut_sym, lut_step


def _windows_at(word: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The 16-bit window at each of the window positions at, from the
    window's big-endian words."""
    code = word[at >> 3]
    code >>= (16 - (at & 7)).astype(np.uint32)
    code &= 0xFFFF
    return code


def _window(
    payload: np.ndarray, nbits: int, luts, lo: int
) -> tuple[np.ndarray, bytearray, bytearray, int]:
    """The payload window that begins at byte lo and spans at most
    _WINDOW_CHUNK bytes: the big-endian 32-bit word at each of its bytes and
    the byte past it, zero past the payload, and the scan advance and total
    length of the code starting at each of its bit positions, one byte each,
    with _LOOKAHEAD_PAD positions of no code past its end. Positions at or
    past the payload's nbits, and codes running past it, start no code (a
    code running past the end is an overrun before its symbol is read). Also
    returns the last window position a block may start at, so that its
    symbols and amplitudes stay inside the window; in the payload's last
    window every block start is below it.

    The 16-bit windows are taken one bit offset at a time, so that every
    array operation runs along the window's bytes, and each offset's
    lookups are copied to their bit positions."""
    lut_sym, lut_step = luts
    hi = min(lo + _WINDOW_CHUNK, len(payload))
    n = hi - lo
    span = 8 * n
    padded = np.zeros(n + 4, dtype=np.uint8)
    b = payload[lo : hi + 4]
    padded[: len(b)] = b
    word = np.ndarray((n + 1,), dtype=">u4", buffer=padded, strides=(1,)).astype(np.uint32)
    adv_at = bytearray([_NO_CODE]) * (span + _LOOKAHEAD_PAD)
    len_at = bytearray(span + _LOOKAHEAD_PAD)
    adv_view = np.frombuffer(adv_at, dtype=np.uint8)
    len_view = np.frombuffer(len_at, dtype=np.uint8)
    wide = word[:-1].astype(np.intp)
    index = np.empty(n, dtype=np.intp)
    step = np.empty(n, dtype="<u2")
    for j in range(8):  # the 16-bit windows at bit j of each byte
        np.right_shift(wide, 16 - j, out=index)
        index &= 0xFFFF
        np.take(lut_step, index, out=step, mode="clip")
        adv_view[j:span:8] = step.view(np.uint8)[0::2]
        len_view[j:span:8] = step.view(np.uint8)[1::2]
    end = nbits - 8 * lo  # the payload's end, in window positions
    adv_view[end:] = _NO_CODE
    len_view[end:] = 0
    tail = np.arange(max(min(end, span) - MAX_CODE_LEN, 0), min(end, span))
    code = _windows_at(word, tail)
    cut = tail[tail + (lut_step[code] >> 8) - (lut_sym[code] & 0x0F) > end]
    adv_view[cut] = _NO_CODE
    len_view[cut] = 0
    last = hi == len(payload)
    return word, adv_at, len_at, len(len_at) if last else span - _BLOCK_BITS


def _no_code(pos: int, nbits: int) -> CorruptStreamError:
    if pos + MAX_CODE_LEN > nbits:
        return CorruptStreamError("payload overrun")
    return CorruptStreamError("invalid Huffman code")


def _block_error(k: int, pos: int, nbits: int) -> CorruptStreamError:
    """The fault of a block whose walk ended at position pos with scan
    position k, which neither fills the block nor ends in EOB."""
    if k > _NO_CODE:
        return _no_code(pos, nbits)
    if k > _BAD_SIZE:
        return CorruptStreamError("AC size category out of range")
    return CorruptStreamError("AC run overflows the block")


def _walk(payload: np.ndarray, nbits: int, table, m: int):
    """Follow and check the block structure of m coded blocks through the
    payload, a slice of whole blocks at a time. A slice ends after
    _SLICE_BLOCKS blocks or where the window moves on. Yields each slice's
    window words, its symbols (see _marked) and the window position it ends
    at, which must not pass the payload's end.

    Every symbol's scan advance and length are known from the lookahead of
    the current payload window, so a block's AC symbols take one loop step
    each, which marks the symbol's start and adds its advance and length,
    and one test of the scan position after the loop checks how the block
    ended. The window moves on at a block start that lies within _BLOCK_BITS
    of its end. Positions are window positions, base + pos in the payload;
    2 marks a DC symbol's start and 1 an AC symbol's, and the marked symbols
    are read from the window's words."""
    luts = _lookahead(table)
    lut_sym = luts[0]
    base = pos = 0
    word, adv_at, len_at, limit = _window(payload, nbits, luts, 0)
    starts = bytearray(len(len_at))
    while m:
        if pos > limit:
            base += pos & ~7
            pos &= 7
            word, adv_at, len_at, limit = _window(payload, nbits, luts, base >> 3)
            starts = bytearray(len(len_at))
        seg = pos  # where this slice's marks begin
        for _ in range(min(_SLICE_BLOCKS, m)):
            if pos > limit:
                break
            m -= 1
            k = adv_at[pos]
            if k != 1 and k != _EOB_ADVANCE:  # DC size categories 1-11 and 0
                if k == _NO_CODE:
                    raise _no_code(base + pos, nbits)
                raise CorruptStreamError("DC size category out of range")
            starts[pos] = 2
            pos += len_at[pos]
            k = 1
            while k < 64:
                starts[pos] = 1
                k += adv_at[pos]
                pos += len_at[pos]
            if k > _BAD_SIZE or 64 < k < _EOB_ADVANCE:
                raise _block_error(k, base + pos, nbits)
        if base + pos > nbits:
            raise CorruptStreamError("payload overrun")
        if not m and base + pos < nbits:
            raise CorruptStreamError("payload underrun")
        yield word, _marked(np.frombuffer(starts, dtype=np.uint8), seg, pos, word, lut_sym), pos


def _marked(starts: np.ndarray, seg: int, end: int, word: np.ndarray, lut_sym: np.ndarray):
    """The symbols the walk marked in starts from window position seg to
    end: their window positions (int32), the index of each block's DC
    symbol among them, and the symbols, read from the window's words. Made
    in a frame of its own, so that only the caller holds them."""
    marks = starts[seg:end]
    at = np.flatnonzero(marks != 0).astype(np.int32)  # window positions are below 2**17
    first = np.flatnonzero(marks[at] == 2)
    at += seg
    return at, first, lut_sym[_windows_at(word, at)]


def _coefficients(word: np.ndarray, at, first, sym, end: int, dc) -> np.ndarray:
    """The coded blocks (k, 8, 8) of one slice's symbols, which start at the
    window positions at (int32) and end at end, first being the index of
    each block's DC symbol among them, their DC differences summed from the
    predictor dc. Amplitudes are read from the window's words in one array
    operation and DC values are a cumulative sum; at is reused for the
    amplitudes' positions and then their shifts. Every per-symbol array but
    the values' flat indices is 32 bits wide or narrower."""
    size = sym & 0x0F
    at[:-1] = at[1:]  # a symbol's amplitude ends where the next symbol starts
    at[-1] = end
    at -= size
    bits = word[at >> 3]
    shift = at.view(np.uint32)  # positions are not negative
    shift &= 7
    shift += size
    np.subtract(32, shift, out=shift)  # 32 - size - (at & 7), at most 32
    bits >>= shift
    bits &= np.left_shift(1, size, dtype=np.uint32) - 1
    value = _amplitude_values(bits.view(np.int32), size)  # bits below 2**15
    dcs = np.cumsum(value[first], dtype=np.int64)
    dcs += dc
    # Scan position: the running sum of run + 1 since the block's DC, whose
    # advance is 1 (ZRL advances by 16, so one rule covers every symbol).
    # Scan positions rise within a block, and every symbol that is not a
    # coefficient has value 0 and a position no coefficient has, so each
    # symbol's value goes to its own slot.
    scan = np.cumsum((sym >> 4) + 1, dtype=np.int32)
    per_block = np.empty_like(first)
    per_block[:-1] = first[1:] - first[:-1]
    per_block[-1] = len(sym) - first[-1]
    scan -= np.repeat(scan[first], per_block)
    flat = ZIGZAG[scan]
    flat += np.repeat(np.arange(0, 64 * len(first), 64), per_block)
    coded = np.zeros((len(first), 64), dtype=np.int64)
    coded.reshape(-1)[flat] = value
    coded[:, 0] = dcs
    return coded.reshape(-1, 8, 8)


def decode_channel(stream: ChannelStream, step=None) -> np.ndarray:
    """Decode a channel's coded blocks, in order; skipped blocks have none.

    The channel is decoded in slices of at most _SLICE_BLOCKS coded blocks,
    carrying the bit position and the DC sum. Each slice's quantized values
    are an int64 (k, 8, 8) array, since a hostile stream's DC sum can exceed
    int32. Returns step(values) of every slice in one array of step's
    dtype, or without a step the values themselves."""
    n = stream.block_count
    if n == 0:
        return np.zeros((0, 8, 8), dtype=np.int64)
    if len(stream.skip_flags) != n:
        raise CorruptStreamError("skip flag count does not match block count")
    if stream.skip_flags[0]:
        raise CorruptStreamError("block 0 cannot be skipped")
    _validate_table(stream.table)
    nbits = stream.bit_length
    if len(stream.payload) != (nbits + 7) // 8:
        raise CorruptStreamError("payload length does not match bit count")
    m = n - int(np.count_nonzero(stream.skip_flags))
    payload = np.frombuffer(stream.payload, dtype=np.uint8)
    out, first, dc = None, 0, 0
    for word, symbols, end in _walk(payload, nbits, stream.table, m):
        values = _coefficients(word, *symbols, end, dc)
        del symbols  # the symbols go before the slice's values are inverted
        dc = values[-1, 0, 0]
        if step is not None:
            values = step(values)
        if out is None:
            out = np.empty((m, *values.shape[1:]), dtype=values.dtype)
        out[first : first + len(values)] = values
        first += len(values)
        del values  # a slice's values go before the next slice's are made
    return out


@dataclass
class ContainerMeta:
    color: bool
    shift_quant: bool
    dc_exact: bool
    quality: int
    trunc_level: int
    skip_level: int | None  # None = perforation disabled
    width: int
    height: int
    quant_payload: np.ndarray  # 64 entries, row-major


def _pack_bitmap(flags: np.ndarray) -> bytes:
    return np.packbits(flags.astype(np.uint8)).tobytes()


def _unpack_bitmap(data: bytes, count: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
    return bits.astype(bool)


def _check_meta(meta: ContainerMeta):
    """The header rule the writer and the reader share: raise
    CorruptStreamError unless every field is one read_container accepts."""
    if meta.quality not in QUALITY_LEVELS:
        raise CorruptStreamError("quality out of range")
    if meta.trunc_level not in TRUNC_LEVELS:
        raise CorruptStreamError("truncation level out of range")
    if meta.skip_level is not None and meta.skip_level not in SKIP_LEVELS:
        raise CorruptStreamError("skip level out of range")
    if not (0 < meta.width <= 0xFFFF and 0 < meta.height <= 0xFFFF):
        raise CorruptStreamError("image dimension out of range")
    quant = np.asarray(meta.quant_payload, dtype=np.int64).reshape(64)
    if np.any(quant < 0) or np.any(quant > 255):
        raise CorruptStreamError("quant payload entries must fit one byte")
    if meta.shift_quant:
        if np.any(quant > 7):
            raise CorruptStreamError("shift exponent out of range")
    elif meta.dc_exact:
        raise CorruptStreamError("exact-DC mode without shift quantization")
    elif not np.all(quant):
        raise CorruptStreamError("zero divisor")


def write_container(meta: ContainerMeta, channels: list[ChannelStream]) -> bytes:
    _check_meta(meta)
    flags = (
        (FLAG_COLOR if meta.color else 0)
        | (FLAG_SHIFT_QUANT if meta.shift_quant else 0)
        | (FLAG_DC_EXACT if meta.dc_exact else 0)
    )
    skip_byte = SKIP_DISABLED if meta.skip_level is None else meta.skip_level
    out = bytearray()
    out += MAGIC
    out += struct.pack(
        ">BBBBBHH",
        VERSION,
        flags,
        meta.quality,
        meta.trunc_level,
        skip_byte,
        meta.width,
        meta.height,
    )
    out += np.asarray(meta.quant_payload, dtype=np.uint8).reshape(64).tobytes()
    for ch in channels:
        out += struct.pack(">BI", ch.channel_id, ch.block_count)
        out += _pack_bitmap(ch.skip_flags)
        out += struct.pack(">H", len(ch.table))
        for sym, ln in ch.table:
            out += struct.pack(">BB", sym, ln)
        out += struct.pack(">I", ch.bit_length)
        out += ch.payload
    return bytes(out)


class _Cursor:
    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        """The next n bytes, a view of the container: no payload is copied."""
        if self.pos + n > len(self.data):
            raise CorruptStreamError("container truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_container(
    data: bytes, max_pixels: int = MAX_PIXELS
) -> tuple[ContainerMeta, list[ChannelStream]]:
    """The header and channel streams of a container. A header of more than
    max_pixels pixels raises PixelBudgetError before any channel is read, so
    a few bytes cannot ask the decoder for gigabytes."""
    cur = _Cursor(data)
    if cur.take(4) != MAGIC:
        raise CorruptStreamError("bad magic")
    version, flags, quality, trunc, skip_byte, width, height = cur.unpack(">BBBBBHH")
    if version != VERSION:
        raise CorruptStreamError("unsupported version")
    if flags & ~(FLAG_COLOR | FLAG_SHIFT_QUANT | FLAG_DC_EXACT):
        raise CorruptStreamError("unknown flag bits")
    meta = ContainerMeta(
        color=bool(flags & FLAG_COLOR),
        shift_quant=bool(flags & FLAG_SHIFT_QUANT),
        dc_exact=bool(flags & FLAG_DC_EXACT),
        quality=quality,
        trunc_level=trunc,
        skip_level=None if skip_byte == SKIP_DISABLED else skip_byte,
        width=width,
        height=height,
        quant_payload=np.frombuffer(cur.take(64), dtype=np.uint8).astype(np.int64),
    )
    _check_meta(meta)
    if width * height > max_pixels:
        raise PixelBudgetError(f"{width}x{height} image exceeds the pixel budget of {max_pixels}")

    channels = []
    for want_id, (h, w) in enumerate(plane_shapes(height, width, meta.color)):
        rows, cols = block_grid(h, w)
        want_blocks = rows * cols
        cid, block_count = cur.unpack(">BI")
        if cid != want_id:
            raise CorruptStreamError("unexpected channel id")
        if block_count != want_blocks:
            raise CorruptStreamError("block count inconsistent with dimensions")
        bitmap = cur.take((block_count + 7) // 8)
        skip_flags = _unpack_bitmap(bitmap, block_count)
        if meta.skip_level is None and skip_flags.any():
            raise CorruptStreamError("skip flags present with perforation disabled")
        (table_count,) = cur.unpack(">H")
        if table_count > 256:
            raise CorruptStreamError("Huffman table too large")
        table = [cur.unpack(">BB") for _ in range(table_count)]
        _validate_table(table)
        (bit_length,) = cur.unpack(">I")
        payload = cur.take((bit_length + 7) // 8)
        channels.append(
            ChannelStream(cid, block_count, skip_flags, table, bit_length, payload)
        )
    if cur.pos != len(data):
        raise CorruptStreamError("trailing bytes after container")
    return meta, channels


def compression_ratio(width: int, height: int, channels: int, container: bytes) -> float:
    """Raw sample bits over container bits."""
    if not container:
        raise ValueError("empty container")
    return (width * height * 8 * channels) / (8 * len(container))
