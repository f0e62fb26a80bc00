"""End-to-end pipeline: container round trips, knob semantics, stats."""

import collections
import hashlib
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ajpeg import entropy, fdct, knobs, pipeline
from ajpeg.energy import (
    KNOBS,
    QECurve,
    QEPoint,
    default_activity_model,
    estimate_image_energy,
    extract_qe_curve,
)
from ajpeg.entropy import CorruptStreamError, read_container
from ajpeg.knobs import SKIP_LEVELS, TRUNC_LEVELS
from ajpeg.metrics import psnr, sad_pct, ssim
from ajpeg.ops import UNCOUNTED, OpCounter
from ajpeg.pipeline import EncodeConfig, decode, encode, reconstruct, reconstruct_many
from ajpeg.raster import RasterImage


def _gray(rng, h=24, w=24, lo=0, hi=256):
    return RasterImage(rng.integers(lo, hi, size=(h, w), dtype=np.uint8))


def _smooth(rng, h=64, w=64):
    base = rng.integers(80, 176)
    yy, xx = np.mgrid[0:h, 0:w]
    img = base + 30 * np.sin(xx / 9.0) + 20 * np.cos(yy / 7.0)
    return RasterImage(np.clip(img, 0, 255).astype(np.uint8))


CONFIG_GRID = [
    EncodeConfig(),
    EncodeConfig(quality=90),
    EncodeConfig(quant_mode="div"),
    EncodeConfig(quant_mode="div", quality=75),
    EncodeConfig(trunc_level=2),
    EncodeConfig(skip_level=2),
    EncodeConfig(trunc_level=3, skip_level=4),
    EncodeConfig(dc_exact=True, quality=90),
    EncodeConfig(quality=10, trunc_level=1, skip_level=6),
]


@pytest.mark.parametrize("cfg", CONFIG_GRID, ids=[str(k) for k in range(len(CONFIG_GRID))])
def test_decode_equals_reconstruct_gray(cfg):
    rng = np.random.default_rng(21)
    img = _gray(rng)
    data, stats_e = encode(img, cfg)
    via_container = decode(data)
    direct, stats_r = reconstruct(img, cfg)
    assert via_container == direct
    assert stats_e == stats_r


@pytest.mark.parametrize("cfg", [EncodeConfig(), EncodeConfig(quant_mode="div"),
                                 EncodeConfig(trunc_level=1, skip_level=3)])
def test_decode_equals_reconstruct_color(cfg):
    rng = np.random.default_rng(22)
    img = RasterImage(rng.integers(0, 256, size=(20, 18, 3), dtype=np.uint8))
    data, _ = encode(img, cfg)
    direct, _ = reconstruct(img, cfg)
    assert decode(data) == direct


def test_standard_decode_matrix_matches_too():
    rng = np.random.default_rng(23)
    img = _gray(rng)
    data, _ = encode(img, EncodeConfig(quality=90))
    direct, _ = reconstruct(img, EncodeConfig(quality=90), decode_matrix="standard")
    assert decode(data, decode_matrix="standard") == direct


def test_non_multiple_of_eight_dimensions():
    rng = np.random.default_rng(24)
    img = _gray(rng, h=13, w=21)
    data, _ = encode(img)
    out = decode(data)
    assert (out.height, out.width) == (13, 21)
    assert out == reconstruct(img)[0]


def test_encode_is_deterministic():
    rng = np.random.default_rng(25)
    img = _gray(rng)
    cfg = EncodeConfig(skip_level=1, trunc_level=1)
    assert encode(img, cfg)[0] == encode(img, cfg)[0]


def test_constant_image_skips_all_but_first_block():
    img = RasterImage(np.full((64, 64), 133, dtype=np.uint8))
    for level in (0, 6):
        _, stats = reconstruct(img, EncodeConfig(skip_level=level))
        assert stats.blocks_processed == 1
        assert stats.blocks_skipped == 63
        assert stats.skip_enabled


def test_skip_disabled_stats():
    rng = np.random.default_rng(26)
    img = _gray(rng, 32, 32)
    _, stats = reconstruct(img, EncodeConfig())
    assert stats.blocks_skipped == 0
    assert stats.blocks_processed == 16
    assert not stats.skip_enabled
    assert stats.trunc_level == 0


def test_color_block_accounting():
    img = RasterImage(np.random.default_rng(27).integers(
        0, 256, size=(24, 24, 3), dtype=np.uint8))
    _, stats = reconstruct(img, EncodeConfig())
    # 9 luma blocks + two 12x12 chroma planes of 4 blocks each
    assert stats.total_blocks == 9 + 4 + 4


def test_skip_reference_chain_at_image_level():
    # one block row: constants 100, 103, 106, 103 with eps = 5
    vals = np.repeat(np.array([100, 103, 106, 103], dtype=np.uint8), 8)
    img = RasterImage(np.tile(vals, (8, 1)))
    out, stats = reconstruct(img, EncodeConfig(skip_level=1))
    assert stats.blocks_processed == 2 and stats.blocks_skipped == 2
    px = out.pixels
    assert np.array_equal(px[:, 8:16], px[:, 0:8])    # block 1 reuses block 0
    assert np.array_equal(px[:, 24:32], px[:, 16:24])  # block 3 reuses block 2


def test_truncation_coarsens_pixels():
    img = _smooth(np.random.default_rng(28))
    fine, _ = reconstruct(img, EncodeConfig(trunc_level=0))
    coarse, _ = reconstruct(img, EncodeConfig(trunc_level=4))
    assert psnr(img, fine) > psnr(img, coarse)
    # level-4 output pixels sit on a 16-step lattice before level unshift
    assert ssim(img, coarse) < ssim(img, fine)


def test_reconstruction_quality_sanity():
    img = _smooth(np.random.default_rng(29))
    out, _ = reconstruct(img, EncodeConfig(quality=50))
    assert psnr(img, out) > 25.0
    assert ssim(img, out) > 0.8


def test_dc_exact_changes_dc_path():
    img = _smooth(np.random.default_rng(30))
    plain, _ = reconstruct(img, EncodeConfig(quality=90))
    exact, _ = reconstruct(img, EncodeConfig(quality=90, dc_exact=True))
    assert plain != exact  # Q90 DC divisor 3 is not a power of two
    data, _ = encode(img, EncodeConfig(quality=90, dc_exact=True))
    assert decode(data) == exact


def test_custom_qmatrix_override():
    img = _smooth(np.random.default_rng(31))
    flat = np.full((8, 8), 16, dtype=np.int64)
    cfg = EncodeConfig(qmatrix=flat)
    data, _ = encode(img, cfg)
    assert decode(data) == reconstruct(img, cfg)[0]


def test_qmatrix_is_an_immutable_value():
    q = np.full((8, 8), 16, dtype=np.int64)
    cfg = EncodeConfig(qmatrix=q)
    assert cfg == EncodeConfig(qmatrix=q.copy())
    assert hash(cfg) == hash(EncodeConfig(qmatrix=q.tolist()))
    with pytest.raises(TypeError):
        cfg.qmatrix[0, 0] = 0
    q[0, 0] = 0  # the caller's array is not shared with the config
    cfg.divisor_matrix()[0, 0] = 0  # nor is the returned matrix
    assert np.array_equal(cfg.divisor_matrix(), np.full((8, 8), 16))


@pytest.mark.parametrize(
    "cfg",
    [EncodeConfig(), EncodeConfig(quant_mode="div"), EncodeConfig(qmatrix=[[16] * 8] * 8)],
    ids=["shift", "div", "custom"],
)
def test_config_derives_its_quant_tables_once(cfg):
    qmat, smat = cfg.quant_tables
    assert cfg.quant_tables[0] is qmat and cfg.quant_tables[1] is smat
    assert np.array_equal(qmat, cfg.divisor_matrix())
    assert (smat is None) == (cfg.quant_mode == "div")
    for table in (t for t in (qmat, smat) if t is not None):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
    # the cache is no field: equal configs stay equal and hash alike
    fresh = replace(cfg)
    assert fresh == cfg and hash(fresh) == hash(cfg)
    assert "quant_tables" not in vars(fresh)  # replace derives them afresh
    assert fresh.quant_tables[0] is not qmat
    assert np.array_equal(fresh.quant_tables[0], qmat)
    assert fresh == cfg and hash(fresh) == hash(cfg)


def test_qmatrix_entries_must_be_integral():
    for value in (16.7, 1.1, 255.5):
        with pytest.raises(ValueError, match="integer entries"):
            EncodeConfig(qmatrix=np.full((8, 8), value))
    cfg = EncodeConfig(qmatrix=np.full((8, 8), 16.0))
    assert cfg == EncodeConfig(qmatrix=np.full((8, 8), 16, dtype=np.int64))


def test_shift_encode_uses_no_multiplies():
    rng = np.random.default_rng(32)
    img = _gray(rng, 32, 32)
    ops = OpCounter()
    encode(img, EncodeConfig(trunc_level=1, skip_level=2, dc_exact=True), ops)
    assert ops.muls == 0
    assert ops.addsub > 0 and ops.shifts > 0


def test_config_validation():
    for kw in (
        dict(quality=0),
        dict(quality=100),
        dict(quant_mode="fast"),
        dict(trunc_level=5),
        dict(skip_level=7),
        dict(dc_exact=True, quant_mode="div"),
        dict(qmatrix=np.zeros((8, 8), dtype=np.int64)),
        dict(qmatrix=np.full((4, 4), 16, dtype=np.int64)),
        dict(dc_exact=True, qmatrix=np.full((8, 8), 16, dtype=np.int64)),
        dict(qmatrix=np.full((8, 8), np.nan)),
        dict(qmatrix=np.full((8, 8), np.inf)),
        dict(qmatrix=np.full((8, 8), -np.inf)),
        # entries that make no float64 array
        dict(qmatrix=[[16] * 8] * 7 + [[16] * 7]),
        dict(qmatrix=[["sixteen"] * 8] * 8),
        # levels equal to an allowed integer but not integers themselves
        dict(quality=50.0),
        dict(trunc_level=2.0),
        dict(skip_level=3.0),
        dict(trunc_level=True),
        # dc_exact is a bool, not a truthy value
        dict(dc_exact="no"),
        dict(dc_exact=1),
        dict(dc_exact=None),
    ):
        with warnings.catch_warnings(), pytest.raises(ValueError):
            warnings.simplefilter("error")
            EncodeConfig(**kw)


def test_decode_matrix_validation():
    img = RasterImage(np.full((8, 8), 100, dtype=np.uint8))
    data, _ = encode(img)
    with pytest.raises(ValueError, match="decode_matrix"):
        decode(data, decode_matrix="inverse")
    with pytest.raises(ValueError, match="decode_matrix"):
        reconstruct(img, EncodeConfig(), decode_matrix="inverse")


def test_oversized_dimensions_rejected():
    img = RasterImage(np.zeros((1, 8), dtype=np.uint8))
    ok, _ = encode(img)  # minimal size passes
    assert decode(ok).width == 8
    big = RasterImage(np.zeros((1, 70000), dtype=np.uint8))
    with pytest.raises(ValueError, match="container limit"):
        encode(big)


def test_decode_inverts_only_coded_blocks(corpus, monkeypatch):
    # a skipped block gathers its reference's pixels rather than a second IDCT
    img = RasterImage(np.stack([corpus[i].pixels for i in (1, 6, 11)], axis=-1))
    cfg = EncodeConfig(trunc_level=2, skip_level=3)
    data, stats = encode(img, cfg)
    direct, _ = reconstruct(img, cfg)
    coded = sum(int(np.count_nonzero(~s.skip_flags)) for s in read_container(data)[1])
    assert coded == stats.blocks_processed < stats.total_blocks
    inverted = []
    idct = pipeline.ref_idct_2d
    monkeypatch.setattr(pipeline, "ref_idct_2d", lambda c: inverted.append(len(c)) or idct(c))
    assert decode(data) == direct
    assert sum(inverted) == coded


def _rounding_probes():
    """Floats where rounding half away from zero is easy to get wrong: the
    ties k + 1/2, their neighbours an ulp either side (0.49999999999999994
    among them), +-0.0, and values at and next to 2**k."""
    ties = np.arange(300) + 0.5
    powers = 2.0 ** np.arange(53)
    near = np.concatenate([ties, powers])
    x = np.concatenate([near, np.nextafter(near, 0), np.nextafter(near, np.inf), [0.0]])
    x = np.concatenate([x, -x])
    return np.concatenate([x, np.zeros(-len(x) % 64)]).reshape(-1, 8, 8)


@pytest.mark.parametrize("trunc_level", TRUNC_LEVELS)
def test_decode_rounding_is_half_away_from_zero(monkeypatch, trunc_level):
    # the decoder's rounding, which ref_idct_2d applies, on the probes, and
    # _decode_blocks on the samples it leaves
    x = _rounding_probes()
    assert np.signbit(x).any() and (x == 0).any()  # -0.0 is among them
    rounded = np.sign(x) * np.floor(np.abs(x) + 0.5)
    samples = fdct.round_half_away(x.copy())
    assert np.array_equal(samples, rounded)
    monkeypatch.setattr(pipeline, "ref_idct_2d", lambda c: samples.copy())
    zeros = np.zeros(x.shape, dtype=np.int64)
    got = pipeline._decode_blocks(zeros, np.ones((8, 8), dtype=np.int64), trunc_level)
    want = np.clip((rounded.astype(np.int64) << trunc_level) + 128, 0, 255).astype(np.uint8)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "trunc_level, samples, want",
    [
        # exact ties round away from zero; -0.5 to -1, not to -0
        (
            0,
            [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -0.0, 126.5, -128.5],
            [129, 127, 130, 126, 131, 125, 128, 255, 0],
        ),
        # at B = 4 a step is 16 pixel levels: 7.5 rounds to 8 and clips at
        # 256, -8.5 to -9 and clips at -16
        (4, [0.5, -0.5, 7.49, 7.5, -7.5, -8.49, -8.5, 6.5], [144, 112, 240, 255, 0, 0, 0, 240]),
    ],
)
def test_decode_rounds_ties_away_and_clips(monkeypatch, trunc_level, samples, want):
    x = np.zeros((1, 8, 8))
    x.flat[: len(samples)] = samples
    rounded = fdct.round_half_away(x)
    monkeypatch.setattr(pipeline, "ref_idct_2d", lambda c: rounded.copy())
    zeros = np.zeros((1, 8, 8), dtype=np.int64)
    got = pipeline._decode_blocks(zeros, np.ones((8, 8), dtype=np.int64), trunc_level)
    assert got.dtype == np.uint8
    assert got.flat[: len(want)].tolist() == want
    assert np.all(got.flat[len(want):] == 128)


def _traced_peak(fn):
    """fn's result and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_memory_is_bounded_by_output():
    # every block but the first is skipped: the decoder inverts one block
    # and gathers uint8 pixels, with no per-block coefficient or float
    # buffer; color converts in row strips, so only uint8 planes are
    # image-sized
    for shape, bound in [((1024, 1024), 8), ((1024, 1024, 3), 3)]:
        img = RasterImage(np.full(shape, 77, dtype=np.uint8))
        cfg = EncodeConfig(skip_level=0)
        data, stats = encode(img, cfg)
        assert stats.blocks_processed == img.channels
        out, peak = _traced_peak(lambda: decode(data))
        assert out == reconstruct(img, cfg)[0]
        assert peak < bound * out.pixels.nbytes


def test_entropy_memory_is_bounded_by_image():
    # noise codes every block, so the entropy layer's symbols and bits are
    # as many as they get: they live in one slice at a time, beside narrow
    # per-symbol records on encode
    rng = np.random.default_rng(12)
    img = RasterImage(rng.integers(0, 256, size=(1024, 1024), dtype=np.uint8))
    (data, stats), encode_peak = _traced_peak(lambda: encode(img))
    assert stats.blocks_skipped == 0
    out, decode_peak = _traced_peak(lambda: decode(data))
    assert out == reconstruct(img)[0]
    assert encode_peak < 7 * img.pixels.nbytes
    assert decode_peak < 10 * img.pixels.nbytes


def test_encode_memory_is_tiles_records_and_slice_buffers(corpus, monkeypatch):
    # a smooth 2048x2048 image codes every block: encode holds its int8
    # tiles, one byte per sample, and the entropy coder's 3-byte symbol
    # records, and the quantized coded blocks only a slice at a time, so
    # the rest of its peak is a few slice-sized buffers. An image-sized
    # int16 array of the coded blocks would add twice the tiles.
    img = RasterImage(np.tile(corpus[6].pixels, (4, 4)))
    symbols = 0
    channel_symbols = entropy._channel_symbols

    def counted(part, dc):
        nonlocal symbols
        result = channel_symbols(part, dc)
        symbols += len(result[0])
        return result

    monkeypatch.setattr(entropy, "_channel_symbols", counted)
    (_, stats), peak = _traced_peak(lambda: encode(img))
    assert stats.blocks_skipped == 0
    tiles = img.pixels.size * np.dtype(np.int8).itemsize
    buffer = _S * 64 * np.dtype(np.float64).itemsize
    assert peak < tiles + 3 * symbols + 6 * buffer


def test_smooth_image_peaks_hold_one_byte_per_tiled_sample(corpus):
    # the 2048x2048 smooth image codes every block. encode holds the int8
    # tiles, the symbol records (under a byte per sample here) and slice
    # buffers; reconstruct holds the tiles, the round trip's uint8 pixel
    # blocks and the untiled plane, one byte per sample each, beside two
    # float64 slice buffers and an int16 one. int16 tiles and a third
    # float64 buffer took them to 13.3 and 18.0 MB.
    img = RasterImage(np.tile(corpus[6].pixels, (4, 4)))
    (_, stats), encode_peak = _traced_peak(lambda: encode(img))
    (out, _), reconstruct_peak = _traced_peak(lambda: reconstruct(img))
    assert stats.blocks_skipped == 0 and out.pixels.shape == img.pixels.shape
    buffer = _S * 64 * np.dtype(np.float64).itemsize
    assert encode_peak < 2 * img.pixels.nbytes + 2 * buffer
    assert reconstruct_peak < 3 * img.pixels.nbytes + 3 * buffer


def _rgb_image(corpus):
    """A 512x512 RGB image: three corpus images as its channels."""
    return RasterImage(np.stack([corpus[i].pixels for i in (4, 5, 6)], axis=-1))


def test_rgb_codec_working_set(corpus):
    # the benchmark's codec config on a 512x512 RGB image. encode holds
    # the YCbCr planes, one image, and then each plane's tiles and int16
    # slices; decode holds the RGB result, the decoded planes (half an
    # image), an int64 entropy slice beside half a slice of float64 samples,
    # and float64 colour strips. Full-resolution chroma on decode and int64
    # and float64 slices of a whole slice took both to 3.4x the image.
    img = _rgb_image(corpus)
    cfg = EncodeConfig(quality=50, trunc_level=2, skip_level=3, dc_exact=True)
    (data, _), encode_peak = _traced_peak(lambda: encode(img, cfg))
    out, decode_peak = _traced_peak(lambda: decode(data))
    assert out == reconstruct(img, cfg)[0]
    assert encode_peak < 2.6 * img.pixels.nbytes
    assert decode_peak < 2.9 * img.pixels.nbytes


def test_rgb_decode_holds_no_full_resolution_chroma(corpus):
    # a 2048x2048 RGB decode holds its result, the three decoded planes
    # (half the result) and slice and strip buffers: 21.0 MB, where the two
    # upsampled chroma planes, a third of the result each, took it to 30.0
    img = RasterImage(np.tile(_rgb_image(corpus).pixels, (4, 4, 1)))
    data, _ = encode(img)
    out, peak = _traced_peak(lambda: decode(data))
    assert out.pixels.shape == img.pixels.shape
    assert peak < 22e6 < 1.75 * img.pixels.nbytes


def test_decode_drops_each_plane_before_the_next_channel(monkeypatch, corpus):
    # as each channel starts to entropy-decode, the pixel blocks of every
    # plane untiled before it are gone: no loop variable keeps them
    img = RasterImage(_rgb_image(corpus).pixels[:96, :128])
    data, _ = encode(img)
    untiled = []  # a weakref to the pixel blocks of each plane untiled so far
    alive = []  # per channel, whether each of those is alive as it starts
    decode_channel, untile_blocks = entropy.decode_channel, pipeline.untile_blocks

    def watched_decode(*args, **kwargs):
        alive.append([ref() is not None for ref in untiled])
        return decode_channel(*args, **kwargs)

    def watched_untile(blocks, *args, **kwargs):
        untiled.append(weakref.ref(blocks))
        return untile_blocks(blocks, *args, **kwargs)

    monkeypatch.setattr(entropy, "decode_channel", watched_decode)
    monkeypatch.setattr(pipeline, "untile_blocks", watched_untile)
    out = decode(data)
    assert alive == [[], [False], [False, False]]
    assert out == reconstruct(img)[0]


@pytest.mark.parametrize("skip_level", [None, 3], ids=["no-skips", "skips"])
def test_decode_gathers_only_channels_that_skip(monkeypatch, corpus, skip_level):
    # a channel that skips nothing hands untile_blocks the very pixel blocks
    # decode_channel returned; one that skips hands over their gather
    img = RasterImage(_rgb_image(corpus).pixels[:96, :128])
    cfg = EncodeConfig(skip_level=skip_level)
    data, _ = encode(img, cfg)
    skips = [s.skip_flags.any() for s in read_container(data)[1]]
    decoded, untiled = [], []
    decode_channel, untile_blocks = entropy.decode_channel, pipeline.untile_blocks

    def recording_decode(*args, **kwargs):
        decoded.append(decode_channel(*args, **kwargs))
        return decoded[-1]

    def recording_untile(blocks, *args, **kwargs):
        untiled.append(blocks)
        return untile_blocks(blocks, *args, **kwargs)

    monkeypatch.setattr(entropy, "decode_channel", recording_decode)
    monkeypatch.setattr(pipeline, "untile_blocks", recording_untile)
    assert decode(data) == reconstruct(img, cfg)[0]
    assert any(skips) == (skip_level is not None)
    assert [u is d for u, d in zip(untiled, decoded)] == [not s for s in skips]


def test_reconstruct_memory_is_bounded_by_image():
    # noise codes every block: its coefficients and float buffers live in
    # one slice at a time, and the tiles are int8
    rng = np.random.default_rng(11)
    img = RasterImage(rng.integers(0, 256, size=(1024, 1024, 3), dtype=np.uint8))
    (out, stats), peak = _traced_peak(lambda: reconstruct(img))
    assert stats.blocks_skipped == 0 and out.pixels.shape == img.pixels.shape
    assert peak < 4 * img.pixels.nbytes



@pytest.mark.parametrize("kind, bound", [("loop", 6.7), ("trunc", 5.6)])
def test_qe_curve_working_set_of_a_larger_image(corpus, kind, bound):
    # a 1024x1024 gray sweep: beside the tiles, the reference and one
    # level's image, a skip group holds its union's pixel blocks and its
    # union mask, and builds each level's carried index with its image;
    # the last level of a group takes the pixel blocks with it.
    # Every level's index held for the whole group, and pixel blocks that
    # outlived the group's last level, took the curves to 7.26x and 6.29x.
    img = RasterImage(np.tile(corpus[6].pixels, (2, 2)))
    _, peak = _traced_peak(lambda: extract_qe_curve(kind, [img]))
    assert peak < bound * img.pixels.nbytes

# Containers of gray noise 8 pixels high, so every block is coded, at block
# counts around the slice edges; generated before the block path ran in
# slices.
_SLICE_EDGE_DIGESTS = {
    1023: "7f67002da8a58f2088f4b079738ac68ee27481f8715ca54c2858bf107fca8179",
    1024: "be625c8dd124bb1ff2f773e12b4d60c8b0eb74ec3ef5dcf2ba77f7904d865128",
    1025: "7e690cb641c5d19a82d6a5b13c45643dc4286433a6c916264bb5a1460b4c7ad3",
    2049: "adbe1a6c41a8bb508a119c7c475af8c4083fc8a396765191e2c54038579ffa0b",
}


def _census(ops: OpCounter):
    return ops.adds, ops.subs, ops.shifts, ops.muls, ops.kernel_calls


@pytest.mark.parametrize("offset", [-1, 0, 1, pipeline._SLICE_BLOCKS + 1])
def test_slice_edges_keep_bytes_pixels_and_census(monkeypatch, offset):
    count = pipeline._SLICE_BLOCKS + offset
    rng = np.random.default_rng(count)
    img = RasterImage(rng.integers(0, 256, size=(8, 8 * count), dtype=np.uint8))
    cfg = EncodeConfig(dc_exact=True, trunc_level=2)
    configs = [cfg, replace(cfg, skip_level=2), replace(cfg, skip_level=6)]

    def run():
        ops_e, ops_r = OpCounter(), OpCounter()
        data, stats = encode(img, cfg, ops_e)
        shared = list(reconstruct_many(img, configs, ops=ops_r))
        return data, stats, shared, _census(ops_e), _census(ops_r)

    sliced = run()
    data, stats, shared = sliced[:3]
    assert stats.blocks_processed == count
    assert hashlib.sha256(data).hexdigest() == _SLICE_EDGE_DIGESTS[count]
    assert decode(data) == shared[0][0]
    monkeypatch.setattr(pipeline, "_SLICE_BLOCKS", 2**40)  # one step per stack
    assert run() == sliced


# A custom table with a non-power-of-two DC divisor and a few unit entries.
_CUSTOM_Q = np.clip(np.add.outer(np.arange(8), np.arange(8)) * 9 + 1, 1, 255)


def _image(shape, color, amp, seed):
    """A flat image plus noise of +-amp: small amp lets blocks skip."""
    rng = np.random.default_rng(seed)
    size = (*shape, 3) if color else shape
    noise = rng.integers(-amp, amp + 1, size=size)
    return RasterImage(np.clip(rng.integers(40, 216) + noise, 0, 255).astype(np.uint8))


@st.composite
def _config_runs(draw):
    """Configs in runs that share everything but skip_level, so the list
    mixes groups (a base may recur after another one)."""
    configs = []
    for _ in range(draw(st.integers(1, 3))):
        quant = draw(st.sampled_from(["shift", "div", "dc_exact"]))
        base = EncodeConfig(
            quality=draw(st.sampled_from([10, 50, 90])),
            quant_mode="div" if quant == "div" else "shift",
            dc_exact=quant == "dc_exact",
            trunc_level=draw(st.sampled_from(TRUNC_LEVELS)),
            qmatrix=None if quant == "dc_exact" else draw(st.sampled_from([None, _CUSTOM_Q])),
        )
        levels = draw(st.lists(st.sampled_from([None, *SKIP_LEVELS]), min_size=1, max_size=5))
        configs += [replace(base, skip_level=lv) for lv in levels]
    return configs


_LOOP = [EncodeConfig(skip_level=lv) for lv in [None, *SKIP_LEVELS]]
_MIXED = [
    *_LOOP[:3],
    EncodeConfig(quant_mode="div", trunc_level=4, qmatrix=_CUSTOM_Q, skip_level=6),
    EncodeConfig(dc_exact=True, quality=90, trunc_level=1, skip_level=2),
    _LOOP[1],
]


@settings(max_examples=40)
@given(
    shape=st.sampled_from([(37, 53), (8, 8), (1, 8), (13, 21)]),
    color=st.booleans(),
    amp=st.sampled_from([0, 3, 12, 60]),
    seed=st.integers(0, 2**16),
    configs=_config_runs(),
    decode_matrix=st.sampled_from(["matched", "standard"]),
)
@example(shape=(37, 53), color=False, amp=3, seed=1, configs=_MIXED, decode_matrix="matched")
@example(shape=(37, 53), color=True, amp=12, seed=2, configs=_MIXED, decode_matrix="standard")
@example(shape=(8, 8), color=False, amp=3, seed=3, configs=_LOOP, decode_matrix="matched")
@example(shape=(8, 8), color=True, amp=3, seed=4, configs=_MIXED, decode_matrix="standard")
@example(shape=(1, 8), color=False, amp=60, seed=5, configs=_MIXED, decode_matrix="matched")
@example(shape=(1, 8), color=True, amp=0, seed=6, configs=_LOOP, decode_matrix="standard")
def test_reconstruct_many_equals_reconstruct_per_config(
    shape, color, amp, seed, configs, decode_matrix
):
    img = _image(shape, color, amp, seed)
    shared = list(reconstruct_many(img, configs, decode_matrix))
    assert shared == [reconstruct(img, cfg, decode_matrix) for cfg in configs]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(37, 53), (8, 8), (1, 8), (13, 21), (9, 1), (2, 3)]),
    color=st.booleans(),
    amp=st.sampled_from([0, 3, 12, 60]),
    seed=st.integers(0, 2**16),
    configs=_config_runs(),
    decode_matrix=st.sampled_from(["matched", "standard"]),
)
def test_decode_of_encode_equals_reconstruct_for_any_input(
    shape, color, amp, seed, configs, decode_matrix
):
    img = _image(shape, color, amp, seed)
    for cfg in configs:
        data, stats = encode(img, cfg)
        assert (decode(data, decode_matrix), stats) == reconstruct(img, cfg, decode_matrix)


def test_reconstruct_many_is_lazy_and_streams_in_order():
    img = _image((37, 53), False, 3, 7)
    results = reconstruct_many(img, iter(_MIXED))
    for cfg in _MIXED:
        assert next(results) == reconstruct(img, cfg)
    with pytest.raises(StopIteration):
        next(results)


def test_reconstruct_many_validates_before_work(monkeypatch):
    def no_tiling(*args, **kwargs):
        raise AssertionError("tiled before the arguments were checked")

    monkeypatch.setattr(pipeline, "tile_blocks", no_tiling)
    monkeypatch.setattr(pipeline, "skip_flags_many", no_tiling)
    img = _image((16, 16), True, 3, 8)
    with pytest.raises(ValueError, match="decode_matrix"):
        reconstruct_many(img, _LOOP, decode_matrix="inverse")
    for empty in ([], iter(())):
        with pytest.raises(ValueError, match="configs"):
            reconstruct_many(img, empty)


@pytest.mark.parametrize("color", [False, True])
def test_shared_skip_levels_scan_each_plane_once(monkeypatch, color):
    # the seven skip levels of a group share one skip scan per plane
    calls = []
    scan = pipeline.skip_flags_many

    def counted(blocks, epsilons, ops):
        calls.append(list(epsilons))
        return scan(blocks, epsilons, ops)

    monkeypatch.setattr(pipeline, "skip_flags_many", counted)
    img = _image((37, 53), color, 3, 10)
    shared = list(reconstruct_many(img, _LOOP))
    assert calls == [[5 * lv for lv in SKIP_LEVELS]] * (3 if color else 1)
    assert len(shared) == len(_LOOP)


@pytest.mark.parametrize("color", [False, True])
@pytest.mark.parametrize("shape", [(37, 53), (9, 15)])
def test_the_pipeline_never_decides_skips_with_skip_check(monkeypatch, color, shape):
    # tiles are int8 level-shifted samples, and the distance table decides
    # every skip; skip_check is only the band's spec
    def spec(*args, **kwargs):
        raise AssertionError("skip_check called")

    monkeypatch.setattr(knobs, "skip_check", spec)
    img = _image(shape, color, 3, 12)
    img.pixels[::4, ::3] = 0  # the sample range's ends
    img.pixels[2::4, 1::3] = 255
    configs = [EncodeConfig(skip_level=lv) for lv in SKIP_LEVELS]
    for cfg in configs:
        assert decode(encode(img, cfg)[0]).pixels.shape == img.pixels.shape
    assert len(list(reconstruct_many(img, configs))) == len(configs)


@pytest.mark.parametrize("color", [False, True])
def test_reconstruct_many_tiles_each_plane_once(monkeypatch, color):
    # five truncation levels are five groups; they share the planes' tiles
    calls = []
    tile = pipeline.tile_blocks
    monkeypatch.setattr(pipeline, "tile_blocks", lambda plane: calls.append(plane.shape) or tile(plane))
    img = _image((37, 53), color, 3, 11)
    configs = [EncodeConfig(trunc_level=lv, skip_level=2) for lv in TRUNC_LEVELS]
    shared = list(reconstruct_many(img, configs))
    assert len(calls) == (3 if color else 1)
    assert shared == [reconstruct(img, cfg) for cfg in configs]


def test_shared_skip_levels_transform_each_block_once(corpus):
    # skip off processes every block, so the union is the whole plane: the
    # shared pass costs one skip-off reconstruct plus one band per reference
    # candidate (128 lanes for blocks 0 .. n-2) for each of the 7 levels
    img = corpus[5]
    single, shared = OpCounter(), OpCounter()
    reconstruct(img, EncodeConfig(), ops=single)
    list(reconstruct_many(img, _LOOP, ops=shared))
    assert shared.addsub == single.addsub + len(SKIP_LEVELS) * 128 * (4096 - 1)
    assert (shared.shifts, shared.muls) == (single.shifts, 0)
    assert shared.kernel_calls == single.kernel_calls


@pytest.mark.parametrize(
    "cfg, addsub, shifts",
    [
        (EncodeConfig(), 4259840, 3932160),
        (EncodeConfig(trunc_level=2, skip_level=3), 3672768, 2920448),
        (EncodeConfig(dc_exact=True), 4263936, 3940352),
    ],
    ids=["skip-off", "skip3-trunc2", "exact-dc"],
)
def test_reconstruct_op_census_pinned(corpus, cfg, addsub, shifts):
    # totals generated before reconstruct shared work across configs: one
    # config's census is the skip bands plus truncate, FDCT and quantize on
    # its processed blocks only
    ops = OpCounter()
    reconstruct(corpus[5], cfg, ops=ops)
    assert (ops.addsub, ops.shifts, ops.muls) == (addsub, shifts, 0)


@st.composite
def _round_trip_configs(draw):
    """Shift, division and exact-DC configs at the quality extremes, with
    the custom table and every truncation level."""
    quant = draw(st.sampled_from(["shift", "div", "dc_exact"]))
    return EncodeConfig(
        quality=draw(st.sampled_from([1, 50, 99])),
        quant_mode="div" if quant == "div" else "shift",
        dc_exact=quant == "dc_exact",
        trunc_level=draw(st.sampled_from(TRUNC_LEVELS)),
        qmatrix=None if quant == "dc_exact" else draw(st.sampled_from([None, _CUSTOM_Q])),
    )


_S = pipeline._SLICE_BLOCKS


@settings(max_examples=150, deadline=None)
@given(
    cfg=_round_trip_configs(),
    decode_matrix=st.sampled_from(["matched", "standard"]),
    count=st.sampled_from([0, 1, _S - 1, _S, _S + 1, 2 * _S + 76]),
    subset=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(EncodeConfig(dc_exact=True, trunc_level=4), "matched", 2 * _S + 76, False, 1)
@example(EncodeConfig(quant_mode="div", qmatrix=_CUSTOM_Q), "standard", _S + 1, True, 2)
@example(EncodeConfig(quality=1, trunc_level=1), "standard", 1, False, 3)
@example(EncodeConfig(quality=99), "matched", 0, False, 4)
# block 33 ends on the tie -0.5, which a strided einsum rounds to 0
@example(EncodeConfig(quality=1, trunc_level=3, qmatrix=_CUSTOM_Q), "matched", _S - 1, False, 0)
def test_round_trip_equals_the_stage_chain(cfg, decode_matrix, count, subset, seed):
    # random int8 tiles, every fifth all -128 and the next all 127; a
    # subset gathers its blocks by index, the whole stack reads them in place
    rng = np.random.default_rng(seed)
    blocks = rng.integers(-128, 128, size=(count, 8, 8)).astype(np.int8)
    blocks[::5] = -128
    blocks[1::5] = 127
    index = np.flatnonzero(rng.random(count) < 0.7) if subset else np.arange(count)
    meta = pipeline._container_meta(RasterImage(np.zeros((8, 8), np.uint8)), cfg)
    divisors = pipeline._decode_divisors(meta, decode_matrix)
    chain, fused = OpCounter(), OpCounter()
    quantized = pipeline._compress_blocks(blocks[index], cfg, chain)
    assert quantized.dtype == np.int16
    want = pipeline._decode_blocks(quantized, divisors, cfg.trunc_level)
    got = pipeline._round_trip(blocks, index, cfg, divisors, fused)
    assert got.dtype == np.uint8 and got.shape == (len(index), 8, 8)
    assert np.array_equal(got, want)
    assert _census(fused) == _census(chain)


@pytest.mark.parametrize("subset", [False, True], ids=["dense", "gathered"])
def test_round_trip_reads_tiles_in_either_layout(subset):
    # tile_blocks' lane-major tiles and a block-major copy of them give the
    # same pixels, dense slices and gathered ones alike
    plane = np.random.default_rng(14).integers(0, 256, size=(400, 344), dtype=np.uint8)
    tiles = pipeline.tile_blocks(plane)
    assert tiles.transpose(2, 1, 0).flags.c_contiguous and len(tiles) > 2 * _S
    index = np.arange(len(tiles))
    if subset:
        index = np.flatnonzero(np.random.default_rng(15).random(len(tiles)) < 0.6)
    cfg = EncodeConfig(trunc_level=3, dc_exact=True)
    qmat = cfg.divisor_matrix()
    args = (index, cfg, qmat, UNCOUNTED)
    got = pipeline._round_trip(tiles, *args)
    assert np.array_equal(got, pipeline._round_trip(np.ascontiguousarray(tiles), *args))
    quantized = pipeline._compress_blocks(tiles[index], cfg, UNCOUNTED)
    assert np.array_equal(got, pipeline._decode_blocks(quantized, qmat, cfg.trunc_level))


def test_configs_that_skip_nothing_get_images_of_their_own():
    # a level that skips nothing takes its group's pixel blocks as they are;
    # every image still owns its pixels, one block wide or wider
    for shape in [(40, 8), (40, 24)]:
        img = RasterImage(np.random.default_rng(16).integers(0, 256, size=shape, dtype=np.uint8))
        configs = [EncodeConfig(), EncodeConfig(skip_level=0)]
        (a, _), (b, stats) = reconstruct_many(img, configs)
        assert stats.blocks_skipped == 0 and a == b
        assert not np.shares_memory(a.pixels, b.pixels)


def test_round_trip_memory_is_two_slice_buffers():
    # five truncation levels are five groups: each round trip works in two
    # float64 slice buffers, beside the int8 tiles and its uint8 pixel
    # blocks, and a group's blocks are gone before the next one starts
    img = RasterImage(np.random.default_rng(13).integers(0, 256, size=(256, 768), dtype=np.uint8))
    configs = [EncodeConfig(trunc_level=lv) for lv in TRUNC_LEVELS]
    tiles = 32 * 96 * 64 * np.dtype(np.int8).itemsize
    assert tiles == 3 * _S * 64
    _, peak = _traced_peak(lambda: collections.deque(reconstruct_many(img, configs), maxlen=0))
    buffer = _S * 64 * np.dtype(np.float64).itemsize
    assert peak < tiles + 2 * img.pixels.nbytes + 2 * buffer + 16384


def test_round_trip_recomputes_near_tie_blocks_through_the_stage_chain(monkeypatch):
    # a tie slack this large makes every block of every slice a candidate
    # of the IDCT's near-tie path, which no benchmark block takes: the
    # round trip then recomputes each block's quantized values from its
    # samples (_compress_blocks) and inverts them with the einsum. 1,320
    # blocks cross a slice edge; each truncation level's round trip reads
    # every block, and the skip levels share one over a sparse index of
    # more than a slice (the flat left band skips at every level)
    rng = np.random.default_rng(16)
    pixels = rng.integers(0, 256, size=(264, 320), dtype=np.uint8)
    pixels[:, :64] = 100
    img = RasterImage(pixels)
    configs = [EncodeConfig(trunc_level=lv) for lv in TRUNC_LEVELS]
    configs += [EncodeConfig(skip_level=lv) for lv in SKIP_LEVELS]
    configs += [EncodeConfig(quant_mode="div", trunc_level=1), EncodeConfig(dc_exact=True)]
    want = [decode(encode(img, cfg)[0]) for cfg in configs]
    indexed, recomputed = [], []
    round_trip, compress = pipeline._round_trip, pipeline._compress_blocks

    def recording_round_trip(blocks, index, *args):
        indexed.append((len(index), len(blocks)))
        return round_trip(blocks, index, *args)

    def recording_compress(blocks, *args):
        recomputed.append(len(blocks))
        return compress(blocks, *args)

    monkeypatch.setattr(fdct, "_TIE_SLACK", 1.0)
    monkeypatch.setattr(pipeline, "_round_trip", recording_round_trip)
    monkeypatch.setattr(pipeline, "_compress_blocks", recording_compress)
    got = [out for out, _ in reconstruct_many(img, configs)]
    assert got == want
    assert sum(recomputed) == sum(n for n, _ in indexed) and len(recomputed) > len(indexed)
    sparse = [n for n, total in indexed if n < total]
    assert len(sparse) == 1 and sparse[0] > _S and indexed[0] == (1320, 1320)


@pytest.mark.parametrize("image, slices", [("noise", 3), ("smooth", 4)])
def test_decode_memory_is_slice_buffers(image, slices):
    # every block is coded, so decode's uint8 pixel blocks are as large as
    # its output. Per entropy slice it holds the int64 values, dequantized
    # in place, and ref_idct_2d its float64 result and one lane buffer that
    # also takes the products: three slice-sized arrays, beside the entropy
    # decoder's own. Noise fills the entropy layer's 8 KB lookahead window
    # within 259 blocks; the smooth image's slices are _SLICE_BLOCKS long,
    # and a separate array of the dequantized values breaks its bound.
    if image == "noise":
        pixels = np.random.default_rng(12).integers(0, 256, size=(1024, 1024), dtype=np.uint8)
    else:
        yy, xx = np.mgrid[0:1024, 0:1024]
        pixels = np.clip(128 + 60 * np.sin(xx / 37) + 50 * np.cos(yy / 23), 0, 255).astype(np.uint8)
    data, stats = encode(RasterImage(pixels))
    assert stats.blocks_skipped == 0
    out, peak = _traced_peak(lambda: decode(data))
    buffer = _S * 64 * np.dtype(np.float64).itemsize
    assert peak < len(data) + out.pixels.nbytes + slices * buffer


def _per_config_curve(kind, images, base, model):
    """extract_qe_curve as one reconstruct call per level and image, level 0
    measured against itself too."""
    field, levels = KNOBS[kind]
    configs = [replace(base, **{field: lv}) for lv in levels]
    sums_d = np.zeros(len(levels))
    sums_e = np.zeros(len(levels))
    for img in images:
        ref_img, ref_stats = reconstruct(img, configs[0])
        ref_energy = estimate_image_energy(model, ref_stats)
        for idx, cfg in enumerate(configs):
            out, stats = reconstruct(img, cfg)
            sums_d[idx] += sad_pct(ref_img, out)
            sums_e[idx] += estimate_image_energy(model, stats) / ref_energy
    mean_d = sums_d / len(images)
    mean_e = sums_e / len(images)
    points = [QEPoint(lv, float(d), float(e)) for lv, d, e in zip(levels, mean_d, mean_e)]
    return QECurve(kind, points)


@pytest.mark.parametrize("kind", ["loop", "trunc"])
@pytest.mark.parametrize(
    "base",
    [EncodeConfig(), EncodeConfig(quant_mode="div", quality=75, trunc_level=1, skip_level=2)],
    ids=["default", "div-trunc1-skip2"],
)
def test_qe_curve_equals_per_config_loop(corpus, kind, base):
    model = default_activity_model()
    images = [corpus[9], _image((37, 53), True, 3, 9)]
    curve, _ = extract_qe_curve(kind, images, base, model=model)
    assert curve == _per_config_curve(kind, images, base, model)


def _fuzz_containers():
    """Valid containers of small gray and RGB images whose flat areas let
    blocks skip, under shift, division and exact-DC configs."""
    configs = [
        EncodeConfig(trunc_level=1, skip_level=2),
        EncodeConfig(quant_mode="div", quality=75, skip_level=5),
        EncodeConfig(quant_mode="div", qmatrix=_CUSTOM_Q),
        EncodeConfig(dc_exact=True, quality=90, trunc_level=2, skip_level=4),
    ]
    images = [_image((13, 21), False, 3, 12), _image((19, 17), True, 12, 13)]
    return [encode(img, cfg)[0] for img in images for cfg in configs]


_FUZZ_CONTAINERS = _fuzz_containers()


@st.composite
def _corrupt_containers(draw):
    """A valid container after one to four bit flips, byte overwrites,
    deletions or insertions."""
    data = bytearray(draw(st.sampled_from(_FUZZ_CONTAINERS)))
    # positions are uniform: integers() would favour the magic at offset 0
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "overwrite", "delete", "insert"]))
        at = rng.randrange(len(data))
        if kind == "flip":
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "overwrite":
            data[at] = draw(st.integers(0, 255))
        elif kind == "delete":
            del data[at]
        else:
            data.insert(at, draw(st.integers(0, 255)))
    return bytes(data)


@settings(max_examples=400, deadline=2000)
@given(_corrupt_containers(), st.sampled_from(["matched", "standard"]))
def test_corrupt_container_decodes_to_its_header_shape_or_raises_the_structured_error(
    data, decode_matrix
):
    try:
        meta, _ = read_container(data)
    except CorruptStreamError:
        meta = None
    try:
        out = decode(data, decode_matrix)
    except CorruptStreamError:
        return
    assert meta is not None
    shape = (meta.height, meta.width, 3) if meta.color else (meta.height, meta.width)
    assert out.pixels.shape == shape and out.pixels.dtype == np.uint8
