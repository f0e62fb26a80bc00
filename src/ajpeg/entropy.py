"""Entropy coding and the AJPG container.

Quantized blocks are zigzag-scanned and coded JPEG-style: a DC size
category plus difference bits (predicted from the previous coded block,
reset per channel), then (run, size) symbols for AC coefficients with
ZRL = (15, 0) for 16 zeros and EOB = (0, 0) for a trailing zero run.
Amplitude bits use the JPEG magnitude convention (negative values stored
as value + 2**size - 1). DC and AC symbols share one canonical Huffman
table per channel, built from the actual symbol frequencies of that
channel (two-pass), with code lengths capped at 16 bits.

Skipped blocks emit nothing; the container carries a per-channel skip
bitmap and the decoder gives each skipped block the result of its
reference, the most recent coded block (knobs.reuse_index).

Container layout (all integers big-endian):

    magic "AJPG" | version=1 | flags | quality | truncLevel | skipLevel
    | width:2 | height:2 | quant payload:64
    then per channel:
    id | blockCount:4 | skip bitmap | tableCount:2 | (symbol, length)*
    | payloadBits:4 | payload (zero-padded to a byte)

flags: bit0 = color, bit1 = shift quantization, bit2 = exact-DC mode.
skipLevel is 0xFF when perforation is disabled. The quant payload holds
shift exponents in shift mode, divisors otherwise.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .color import plane_shapes
from .knobs import SKIP_LEVELS, TRUNC_LEVELS, reuse_index
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


def _mag_size(v: int) -> int:
    return int(v if v >= 0 else -v).bit_length()


def _amp_bits(v: int, size: int) -> int:
    return v if v >= 0 else v + (1 << size) - 1


def _block_symbols(zz, dc_pred: int):
    """Symbol stream for one block: list of (symbol, amplitude, nbits)."""
    syms = []
    diff = int(zz[0]) - dc_pred
    size = _mag_size(diff)
    if size > MAX_SIZE:
        raise CorruptStreamError("DC difference out of range")
    syms.append((size, _amp_bits(diff, size), size))
    run = 0
    for k in range(1, 64):
        c = int(zz[k])
        if c == 0:
            run += 1
            continue
        while run > 15:
            syms.append((ZRL, 0, 0))
            run -= 16
        size = _mag_size(c)
        if size > MAX_SIZE:
            raise CorruptStreamError("AC coefficient out of range")
        syms.append(((run << 4) | size, _amp_bits(c, size), size))
        run = 0
    if run:
        syms.append((EOB, 0, 0))
    return syms


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


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, nbits: int):
        if nbits == 0:
            return
        self.acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        self.nbits += nbits
        while self.nbits >= 8:
            self.nbits -= 8
            self.out.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def finish(self) -> bytes:
        if self.nbits:
            self.out.append((self.acc << (8 - self.nbits)) & 0xFF)
        return bytes(self.out)


class _BitReader:
    def __init__(self, payload: bytes, nbits: int):
        self.bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        self.nbits = nbits
        self.pos = 0

    def read_bit(self) -> int:
        if self.pos >= self.nbits:
            raise CorruptStreamError("payload overrun")
        b = int(self.bits[self.pos])
        self.pos += 1
        return b

    def read(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v


@dataclass
class ChannelStream:
    """One coded channel: table, skip flags, and the bit payload."""

    channel_id: int
    block_count: int
    skip_flags: np.ndarray
    table: list[tuple[int, int]]  # (symbol, code length), canonical order
    bit_length: int
    payload: bytes


def encode_channel(blocks: np.ndarray, skip_flags: np.ndarray, channel_id: int = 0) -> ChannelStream:
    """Entropy-code a channel's quantized blocks (skipped blocks emit nothing)."""
    n = len(blocks)
    skip_flags = np.asarray(skip_flags, dtype=bool)
    if skip_flags.shape != (n,):
        raise ValueError("skip flag count must match block count")
    if n and skip_flags[0]:
        raise CorruptStreamError("block 0 cannot be skipped")

    zz = zigzag(np.asarray(blocks, dtype=np.int64)) if n else np.zeros((0, 64))
    symbol_stream = []
    pred = 0
    for k in range(n):
        if skip_flags[k]:
            continue
        symbol_stream.append(_block_symbols(zz[k], pred))
        pred = int(zz[k][0])

    freqs: dict[int, int] = {}
    for syms in symbol_stream:
        for sym, _, _ in syms:
            freqs[sym] = freqs.get(sym, 0) + 1
    codes = canonical_codes(code_lengths(freqs))

    writer = _BitWriter()
    nbits = 0
    for syms in symbol_stream:
        for sym, amp, ampbits in syms:
            code, ln = codes[sym]
            writer.write(code, ln)
            writer.write(amp, ampbits)
            nbits += ln + ampbits
    table = sorted(((s, ln) for s, (_, ln) in codes.items()), key=lambda e: (e[1], e[0]))
    return ChannelStream(channel_id, n, skip_flags, table, nbits, writer.finish())


def decode_channel(stream: ChannelStream) -> np.ndarray:
    """Decode a channel back to quantized blocks; skipped blocks carry their
    reference's block."""
    n = stream.block_count
    if n == 0:
        return np.zeros((0, 8, 8), dtype=np.int64)
    if len(stream.skip_flags) != n:
        raise CorruptStreamError("skip flag count does not match block count")
    if stream.skip_flags[0]:
        raise CorruptStreamError("block 0 cannot be skipped")
    _validate_table(stream.table)
    decode_map = {
        (ln, code): sym
        for sym, (code, ln) in canonical_codes(dict(stream.table)).items()
    }
    if len(stream.payload) != (stream.bit_length + 7) // 8:
        raise CorruptStreamError("payload length does not match bit count")
    reader = _BitReader(stream.payload, stream.bit_length)

    def read_symbol() -> int:
        code = 0
        for ln in range(1, MAX_CODE_LEN + 1):
            code = (code << 1) | reader.read_bit()
            sym = decode_map.get((ln, code))
            if sym is not None:
                return sym
        raise CorruptStreamError("invalid Huffman code")

    def read_amplitude(size: int) -> int:
        if size == 0:
            return 0
        bits = reader.read(size)
        if bits < 1 << (size - 1):
            return bits - (1 << size) + 1
        return bits

    coded = np.zeros((n - np.count_nonzero(stream.skip_flags), 64), dtype=np.int64)
    pred = 0
    for block in coded:
        size = read_symbol()
        if size > MAX_SIZE:
            raise CorruptStreamError("DC size category out of range")
        pred += read_amplitude(size)
        block[0] = pred
        pos = 1
        while pos < 64:
            sym = read_symbol()
            if sym == EOB:
                break
            if sym == ZRL:
                pos += 16
                if pos > 64:
                    raise CorruptStreamError("AC run overflows the block")
                continue
            run, size = sym >> 4, sym & 0x0F
            pos += run
            if size == 0 or size > MAX_SIZE:
                raise CorruptStreamError("AC size category out of range")
            if pos >= 64:
                raise CorruptStreamError("AC run overflows the block")
            block[pos] = read_amplitude(size)
            pos += 1
    if reader.pos != stream.bit_length:
        raise CorruptStreamError("payload underrun")
    return inv_zigzag(coded)[reuse_index(stream.skip_flags)]


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
