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
quantized blocks that were processed, in order, with one skip flag per
block, and decode_channel returns those coded blocks. Skipped blocks emit
nothing; the container carries a per-channel skip bitmap, and the
pipeline gives each skipped block the pixels of its reference, the most
recent coded block.

Both directions work on whole arrays. The encoder builds every symbol of
a channel at once: DC differences from the shifted DC column, zero runs
from the gaps between nonzero scan positions, ZRLs and EOBs placed from
per-block symbol counts, and size categories from the magnitudes' bit
lengths. It counts frequencies with np.bincount and writes each
(code << size) | amplitude word at its cumulative bit offset through
np.packbits. The decoder looks up the symbol and total length of the code
at every bit position in a 16-bit lookahead table (as in ITU-T T.81
Annex F.2.2.3 and libjpeg's HUFF_LOOKAHEAD). A symbol's total length is
its code length plus its low nibble in every context, since DC size
categories and AC symbols share the amplitude rule and ZRL and EOB carry
no amplitude, so one Python loop step per symbol follows the block
structure and checks the stream. Amplitudes are then read in one array
operation and DC values are a cumulative sum of the differences.

Container layout (all integers big-endian):

    magic "AJPG" | version=1 | flags | quality | truncLevel | skipLevel
    | width:2 | height:2 | quant payload:64
    then per channel:
    id | blockCount:4 | skip bitmap | tableCount:2 | (symbol, length)*
    | payloadBits:4 | payload (zero-padded to a byte)

flags: bit0 = color, bit1 = shift quantization, bit2 = exact-DC mode
(shift quantization only). skipLevel is 0xFF when perforation is
disabled. The quant payload holds shift exponents in [0, 7] in shift
mode, nonzero divisors otherwise. read_container checks every header
field, so the decoder trusts the header it returns.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .color import plane_shapes
from .knobs import SKIP_LEVELS, TRUNC_LEVELS
from .quant import QUALITY_LEVELS

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


class CorruptStreamError(ValueError):
    """Structurally invalid or internally inconsistent stream."""


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
    """Optimal length-limited prefix code lengths (package-merge)."""
    syms = sorted(s for s, f in freqs.items() if f > 0)
    if not syms:
        return {}
    if len(syms) == 1:
        return {syms[0]: 1}
    if len(syms) > 1 << limit:
        raise ValueError("alphabet too large for the length limit")
    leaves = sorted((freqs[s], (s,)) for s in syms)
    level = []
    for _ in range(limit):
        merged = sorted(level + leaves)
        level = [
            (a[0] + b[0], a[1] + b[1])
            for a, b in zip(merged[0::2], merged[1::2])
        ]
    lengths = dict.fromkeys(syms, 0)
    for _, members in level[: len(syms) - 1]:
        for s in members:
            lengths[s] += 1
    return lengths


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
    payload: bytes


def _size_category(values: np.ndarray) -> np.ndarray:
    """JPEG size category: the bit length of |value|."""
    return np.frexp(np.abs(values).astype(np.float64))[1].astype(np.int64)


def _amplitude_bits(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """JPEG magnitude convention: negative values stored as value + 2**size - 1."""
    return np.where(values < 0, values + (np.int64(1) << sizes) - 1, values)


def _amplitude_values(bits: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Inverse of _amplitude_bits: a value below 2**(size-1) is negative."""
    top = np.int64(1) << sizes
    return np.where(bits < top >> 1, bits - top + 1, bits)


def _channel_symbols(coded: np.ndarray):
    """Symbol stream of coded zigzag vectors (m, 64) in stream order, as
    arrays (symbol, amplitude bits, amplitude size).

    Each block is its DC symbol, then per nonzero AC coefficient run // 16
    ZRLs and one (run % 16, size) symbol, then EOB unless its last
    coefficient is nonzero. The positions of DC, coefficient and EOB symbols
    follow from per-block symbol counts; every other slot holds a ZRL.
    """
    m = len(coded)
    diff = np.diff(coded[:, 0], prepend=0)
    dc_size = _size_category(diff)
    rows, cols = np.nonzero(coded[:, 1:])
    k = cols + 1  # scan position of each nonzero AC coefficient
    ac = coded[rows, k]
    ac_size = _size_category(ac)
    bad_dc = np.flatnonzero(dc_size > MAX_SIZE)
    bad_ac = rows[ac_size > MAX_SIZE]
    if bad_dc.size and not (bad_ac.size and bad_ac[0] < bad_dc[0]):
        raise CorruptStreamError("DC difference out of range")
    if bad_ac.size:
        raise CorruptStreamError("AC coefficient out of range")

    first = np.ones(len(k), dtype=bool)  # first nonzero of its block
    first[1:] = rows[1:] != rows[:-1]
    last = np.ones(len(k), dtype=bool)
    last[:-1] = first[1:]
    gap = np.diff(k, prepend=0)
    gap[first] = k[first]
    run = gap - 1
    per_coeff = (run >> 4) + 1  # symbols per coefficient, its ZRLs included
    last_k = np.zeros(m, dtype=np.int64)
    last_k[rows[last]] = k[last]
    has_eob = last_k != 63
    in_block = np.bincount(rows, weights=per_coeff, minlength=m).astype(np.int64)
    total = 1 + in_block + has_eob
    starts = np.cumsum(total) - total
    earlier = np.cumsum(in_block) - in_block  # coefficient symbols of earlier blocks
    coeff_at = starts[rows] + np.cumsum(per_coeff) - earlier[rows]

    sym = np.full(int(total.sum()), ZRL, dtype=np.int64)
    amp = np.zeros(len(sym), dtype=np.int64)
    size = np.zeros(len(sym), dtype=np.int64)
    sym[starts] = size[starts] = dc_size
    amp[starts] = _amplitude_bits(diff, dc_size)
    sym[coeff_at] = ((run & 15) << 4) | ac_size
    size[coeff_at] = ac_size
    amp[coeff_at] = _amplitude_bits(ac, ac_size)
    sym[(starts + total - 1)[has_eob]] = EOB
    return sym, amp, size


_PACK_CHUNK = 1 << 15  # symbols per transient (chunk, 32) bit matrix
_BIT_INDEX = np.arange(32)


def _pack(words: np.ndarray, lengths: np.ndarray) -> bytes:
    """Concatenate the low lengths[i] <= 32 bits of each words[i], most
    significant first, zero-padded to a byte."""
    bits = [np.zeros(0, dtype=np.uint8)]
    for lo in range(0, len(words), _PACK_CHUNK):
        ln = lengths[lo : lo + _PACK_CHUNK]
        aligned = (words[lo : lo + _PACK_CHUNK] << (32 - ln)).astype(">u4")
        matrix = np.unpackbits(aligned.view(np.uint8).reshape(-1, 4), axis=1)
        bits.append(matrix[_BIT_INDEX < ln[:, None]])
    return np.packbits(np.concatenate(bits)).tobytes()


def encode_channel(coded: np.ndarray, skip_flags: np.ndarray, channel_id: int = 0) -> ChannelStream:
    """Entropy-code a channel from its coded blocks' quantized values
    (m, 8, 8), in order, and one skip flag per block, m of them unset."""
    skip_flags = np.asarray(skip_flags, dtype=bool)
    coded = np.asarray(coded, dtype=np.int64)
    if skip_flags.ndim != 1 or coded.shape != (np.count_nonzero(~skip_flags), 8, 8):
        raise ValueError("coded block count must match the unskipped flags")
    if len(skip_flags) and skip_flags[0]:
        raise CorruptStreamError("block 0 cannot be skipped")

    sym, amp, size = _channel_symbols(zigzag(coded))
    freqs = np.bincount(sym, minlength=256)
    codes = canonical_codes(code_lengths({int(s): int(freqs[s]) for s in np.flatnonzero(freqs)}))
    code_of = np.zeros(256, dtype=np.int64)
    len_of = np.zeros(256, dtype=np.int64)
    for s, (code, ln) in codes.items():
        code_of[s], len_of[s] = code, ln
    lengths = len_of[sym] + size
    payload = _pack((code_of[sym] << size) | amp, lengths)
    table = sorted(((s, ln) for s, (_, ln) in codes.items()), key=lambda e: (e[1], e[0]))
    return ChannelStream(channel_id, len(skip_flags), skip_flags, table, int(lengths.sum()), payload)


# A symbol's total length, code plus amplitude bits, is at most 16 + 11.
_LOOKAHEAD_PAD = 32
_WINDOW_CHUNK = 1 << 16  # payload bytes per transient (chunk, 8) window matrix
_WINDOW_SHIFTS = np.arange(16, 8, -1, dtype=np.uint32)


def _lookahead(table: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Symbol and total length (code + amplitude bits) for every 16-bit
    window; length 0 marks a window that starts no code.

    Canonical codes in (length, symbol) order tile the window space from 0
    upward, code i covering 2**(16 - length_i) windows.
    """
    ordered = sorted(table, key=lambda e: (e[1], e[0]))
    syms = np.array([s for s, _ in ordered], dtype=np.int64)
    lens = np.array([ln for _, ln in ordered], dtype=np.int64)
    widths = np.int64(1) << (MAX_CODE_LEN - lens)
    lut_sym = np.zeros(1 << MAX_CODE_LEN, dtype=np.uint8)
    lut_len = np.zeros(1 << MAX_CODE_LEN, dtype=np.uint8)
    covered = int(widths.sum())
    lut_sym[:covered] = np.repeat(syms, widths)
    lut_len[:covered] = np.repeat(lens + (syms & 0x0F), widths)
    return lut_sym, lut_len


def _symbols_at(payload: bytes, nbits: int, table) -> tuple[bytearray, bytearray]:
    """The symbol and total length of the code starting at each bit position
    of the payload, one byte each, with _LOOKAHEAD_PAD zero lengths past the
    end so that a read beyond it finds no code."""
    lut_sym, lut_len = _lookahead(table)
    sym_at = bytearray(nbits + _LOOKAHEAD_PAD)
    len_at = bytearray(nbits + _LOOKAHEAD_PAD)
    sym_view = np.frombuffer(sym_at, dtype=np.uint8)
    len_view = np.frombuffer(len_at, dtype=np.uint8)
    data = np.frombuffer(payload + bytes(3), dtype=np.uint8)
    for lo in range(0, len(payload), _WINDOW_CHUNK):
        hi = min(lo + _WINDOW_CHUNK, len(payload))
        b = [data[lo + j : hi + j].astype(np.uint32) for j in range(4)]
        word = (b[0] << 24) | (b[1] << 16) | (b[2] << 8) | b[3]
        windows = (word[:, None] >> _WINDOW_SHIFTS) & 0xFFFF
        sym_view[8 * lo : 8 * hi] = lut_sym[windows].ravel()
        len_view[8 * lo : 8 * hi] = lut_len[windows].ravel()
    sym_view[nbits:] = 0
    len_view[nbits:] = 0
    # A code running past the end is an overrun before its symbol is read.
    tail = np.arange(max(nbits - MAX_CODE_LEN, 0), nbits)
    code_len = len_view[tail].astype(np.int64) - (sym_view[tail] & 0x0F)
    len_view[tail[tail + code_len > nbits]] = 0
    return sym_at, len_at


def _read_bits(payload: bytes, at: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The size[i] <= 11 payload bits starting at bit at[i], as integers."""
    data = np.frombuffer(payload + bytes(3), dtype=np.uint8).astype(np.int64)
    byte = at >> 3
    word = (data[byte] << 16) | (data[byte + 1] << 8) | data[byte + 2]
    return (word >> (24 - (at & 7) - size)) & ((np.int64(1) << size) - 1)


def _no_code(pos: int, nbits: int) -> CorruptStreamError:
    if pos + MAX_CODE_LEN > nbits:
        return CorruptStreamError("payload overrun")
    return CorruptStreamError("invalid Huffman code")


# Scan positions an AC symbol advances the block by: run + 1 for a
# coefficient, 16 for ZRL, 0 for a size category out of range.
_AC_ADVANCE = [
    16 if s == ZRL else (s >> 4) + 1 if 1 <= s & 0x0F <= MAX_SIZE else 0
    for s in range(256)
]


def decode_channel(stream: ChannelStream) -> np.ndarray:
    """Decode a channel back to its coded blocks' quantized values (m, 8, 8),
    in order; skipped blocks have none."""
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
    sym_at, len_at = _symbols_at(stream.payload, nbits, stream.table)

    # One pass per symbol: every symbol's length is known from the lookahead,
    # so the loop only follows the block structure; 2 marks a DC symbol's
    # start and 1 an AC symbol's.
    starts = bytearray(nbits)
    advance = _AC_ADVANCE
    pos = 0
    for _ in range(m):
        t = len_at[pos]
        if not t:
            raise _no_code(pos, nbits)
        if sym_at[pos] > MAX_SIZE:
            raise CorruptStreamError("DC size category out of range")
        starts[pos] = 2
        pos += t
        k = 1
        while k < 64:
            t = len_at[pos]
            if not t:
                raise _no_code(pos, nbits)
            s = sym_at[pos]
            starts[pos] = 1
            pos += t
            if s == EOB:
                break
            a = advance[s]
            if not a:
                raise CorruptStreamError("AC size category out of range")
            k += a
            if k > 64:
                raise CorruptStreamError("AC run overflows the block")
    if pos > nbits:
        raise CorruptStreamError("payload overrun")
    if pos < nbits:
        raise CorruptStreamError("payload underrun")

    marks = np.frombuffer(starts, dtype=np.uint8)
    at = np.flatnonzero(marks)
    is_dc = marks[at] == 2
    sym = np.frombuffer(sym_at, dtype=np.uint8)[at].astype(np.int64)
    del sym_at, len_at
    size = sym & 0x0F
    end = np.append(at[1:], nbits)  # symbols are contiguous
    value = _amplitude_values(_read_bits(stream.payload, end - size, size), size)
    value[is_dc] = np.cumsum(value[is_dc])
    # Scan position: the running sum of run + 1 within the block, minus one
    # (DC advances by 1 and ZRL by 16, so one rule covers every symbol).
    step = (sym >> 4) + 1
    reach = np.cumsum(step)
    block = np.cumsum(is_dc) - 1
    scan = reach - (reach - step)[is_dc][block] - 1
    keep = is_dc | (size > 0)
    coded = np.zeros((m, 64), dtype=np.int64)
    coded.reshape(-1)[64 * block[keep] + ZIGZAG[scan[keep]]] = value[keep]
    return coded.reshape(m, 8, 8)


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


def write_container(meta: ContainerMeta, channels: list[ChannelStream]) -> bytes:
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
    quant = np.asarray(meta.quant_payload, dtype=np.int64).reshape(64)
    if np.any(quant < 0) or np.any(quant > 255):
        raise ValueError("quant payload entries must fit one byte")
    out += quant.astype(np.uint8).tobytes()
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
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptStreamError("container truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_container(data: bytes) -> tuple[ContainerMeta, list[ChannelStream]]:
    cur = _Cursor(data)
    if cur.take(4) != MAGIC:
        raise CorruptStreamError("bad magic")
    version, flags, quality, trunc, skip_byte, width, height = cur.unpack(">BBBBBHH")
    if version != VERSION:
        raise CorruptStreamError("unsupported version")
    if flags & ~(FLAG_COLOR | FLAG_SHIFT_QUANT | FLAG_DC_EXACT):
        raise CorruptStreamError("unknown flag bits")
    if quality not in QUALITY_LEVELS:
        raise CorruptStreamError("quality out of range")
    if trunc not in TRUNC_LEVELS:
        raise CorruptStreamError("truncation level out of range")
    if skip_byte != SKIP_DISABLED and skip_byte not in SKIP_LEVELS:
        raise CorruptStreamError("skip level out of range")
    if width == 0 or height == 0:
        raise CorruptStreamError("zero image dimension")
    quant = np.frombuffer(cur.take(64), dtype=np.uint8).astype(np.int64)
    if flags & FLAG_SHIFT_QUANT:
        if np.any(quant > 7):
            raise CorruptStreamError("shift exponent out of range")
    elif flags & FLAG_DC_EXACT:
        raise CorruptStreamError("exact-DC mode without shift quantization")
    elif not np.all(quant):
        raise CorruptStreamError("zero divisor")
    meta = ContainerMeta(
        color=bool(flags & FLAG_COLOR),
        shift_quant=bool(flags & FLAG_SHIFT_QUANT),
        dc_exact=bool(flags & FLAG_DC_EXACT),
        quality=quality,
        trunc_level=trunc,
        skip_level=None if skip_byte == SKIP_DISABLED else skip_byte,
        width=width,
        height=height,
        quant_payload=quant,
    )

    channels = []
    for want_id, (h, w) in enumerate(plane_shapes(height, width, meta.color)):
        want_blocks = -(-h // 8) * -(-w // 8)
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
