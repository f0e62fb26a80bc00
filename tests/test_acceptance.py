"""End-to-end acceptance checks for the approximate JPEG model.

Each test pins one contract: bit-exact shift-add kernels over their full
input range, a multiplier-free encode path, quality and compression-ratio
direction under shift vs. division quantization, monotone degradation under
truncation, modeled energy savings under block skipping and their link to
image homogeneity, decoder-matrix mismatch direction, tuner feasibility and
oracle agreement on convex curve pairs, skip-check semantics, and container
robustness under corruption. Corpus-dependent expected values were measured
once on the frozen 12-image corpus and asserted with explicit margins.
"""

import time

import numpy as np
import pytest

from ajpeg.energy import (
    QECurve,
    QEPoint,
    default_activity_model,
    energy_saved,
)
from ajpeg.entropy import (
    CorruptStreamError,
    compression_ratio,
    read_container,
    write_container,
)
from ajpeg.fdct import (
    fdct_1d,
    fdct_2d,
    kernel_butterfly_i,
    kernel_butterfly_ii,
    kernel_butterfly_iii,
    kernel_scaler,
    ref_dct_2d,
)
from ajpeg.knobs import perforate, skip_check
from ajpeg.metrics import homogeneity, pearson, psnr, ssim
from ajpeg.ops import OpCounter
from ajpeg.pipeline import EncodeConfig, decode, encode, reconstruct
from ajpeg.raster import RasterImage
from ajpeg.tuner import TunerInput, exhaustive_oracle, tune


# ---------------------------------------------------------------------------
# 1. Kernel bit-exactness over the full signed 12-bit input square.
# ---------------------------------------------------------------------------

def test_kernels_bit_exact_exhaustive():
    start = time.perf_counter()
    xs = np.arange(-2048, 2048, dtype=np.int64)
    assert np.array_equal(kernel_scaler(xs), (181 * xs) // 256)

    specs = [
        (kernel_butterfly_i, 473, 196, 512),
        (kernel_butterfly_ii, 213, 142, 256),
        (kernel_butterfly_iii, 251, 50, 256),
    ]
    # 256-row slabs keep the 4096x4096 outer product under a few hundred MB
    for kern, hi_c, lo_c, den in specs:
        for lo_row in range(-2048, 2048, 256):
            x = np.arange(lo_row, lo_row + 256, dtype=np.int64)[:, None]
            y = xs[None, :]
            got_hi, got_lo = kern(x, y)
            assert np.array_equal(got_hi, (hi_c * x + lo_c * y) // den)
            assert np.array_equal(got_lo, (lo_c * x - hi_c * y) // den)

    # unit impulse isolates the odd-stage rational pair (251/256, 50/256)
    assert kernel_butterfly_iii(256, 0) == (251, 50)
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 2. Multiplier-free encode and the pinned per-transform op census.
# ---------------------------------------------------------------------------

def test_fdct_op_census_pinned():
    ops = OpCounter()
    fdct_1d(np.arange(8), ops)
    assert ops.kernel_calls == {
        "scaler": 4,
        "butterfly_i": 1,
        "butterfly_ii": 1,
        "butterfly_iii": 1,
    }
    assert (ops.adds, ops.subs, ops.shifts, ops.muls) == (35, 26, 56, 0)

    ops2d = OpCounter()
    fdct_2d(np.zeros((8, 8), dtype=np.int8), ops2d)
    assert ops2d.addsub == 976


def test_full_encode_is_multiplier_free(corpus):
    cfg = EncodeConfig(
        quality=50, quant_mode="shift", trunc_level=2, skip_level=3, dc_exact=True
    )
    ops = OpCounter()
    encode(corpus[0], cfg, ops)
    assert ops.muls == 0
    assert ops.addsub > 0


# ---------------------------------------------------------------------------
# 3. Fixed-point transform accuracy against the float DCT.
# ---------------------------------------------------------------------------

def test_fdct_accuracy_bound_10k_blocks():
    rng = np.random.default_rng(31)
    blocks = rng.integers(-128, 128, size=(10_000, 8, 8), dtype=np.int8)
    err = np.abs(fdct_2d(blocks).astype(np.float64) - ref_dct_2d(blocks))
    assert err.max() <= 6.0  # measured 4.198 once, then pinned


# ---------------------------------------------------------------------------
# 4. Shift quantization beats division quantization on quality metrics.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quality_sweep(corpus):
    start = time.perf_counter()
    out = {}
    for quality in (50, 90):
        for mode in ("shift", "div"):
            cfg = EncodeConfig(quality=quality, quant_mode=mode)
            pairs = []
            for img in corpus:
                recon, _ = reconstruct(img, cfg)
                pairs.append((ssim(img, recon), psnr(img, recon)))
            out[(quality, mode)] = pairs
    out["elapsed"] = time.perf_counter() - start
    return out


def test_shift_beats_div_on_mean_quality(quality_sweep):
    for quality in (50, 90):
        shift = quality_sweep[(quality, "shift")]
        div = quality_sweep[(quality, "div")]
        assert np.mean([s for s, _ in shift]) > np.mean([s for s, _ in div])
        assert np.mean([p for _, p in shift]) > np.mean([p for _, p in div])

    s50 = np.mean([s for s, _ in quality_sweep[(50, "shift")]])
    d50 = np.mean([s for s, _ in quality_sweep[(50, "div")]])
    uplift_pct = (s50 - d50) / d50 * 100.0
    assert 0.5 <= uplift_pct <= 8.0  # measured +1.34% on the frozen corpus
    assert quality_sweep["elapsed"] < 120.0


# ---------------------------------------------------------------------------
# 5. Compression ratio drops when switching division -> shift quantization.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ratio_sweep(corpus):
    out = {}
    for quality in (50, 90):
        for mode in ("shift", "div"):
            cfg = EncodeConfig(quality=quality, quant_mode=mode)
            ratios = []
            for img in corpus:
                data, _ = encode(img, cfg)
                ratios.append(compression_ratio(img.width, img.height, 1, data))
            out[(quality, mode)] = ratios
    return out


def test_ratio_declines_div_to_shift(ratio_sweep):
    for quality in (50, 90):
        div_mean = np.mean(ratio_sweep[(quality, "div")])
        shift_mean = np.mean(ratio_sweep[(quality, "shift")])
        assert shift_mean < div_mean

    div50 = ratio_sweep[(50, "div")]
    decline_pct = (np.mean(div50) - np.mean(ratio_sweep[(50, "shift")])) \
        / np.mean(div50) * 100.0
    assert 5.0 <= decline_pct <= 35.0  # measured 19.2% on the frozen corpus
    for ratio in div50:  # measured range [4.53, 15.15]
        assert 3.0 <= ratio <= 16.0


# ---------------------------------------------------------------------------
# 6. Quality falls strictly as the truncation level rises.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trunc_sweep(corpus):
    means = []
    for level in range(5):
        cfg = EncodeConfig(quality=50, quant_mode="shift", trunc_level=level)
        pairs = [(ssim(img, reconstruct(img, cfg)[0]),
                  psnr(img, reconstruct(img, cfg)[0])) for img in corpus]
        means.append((np.mean([s for s, _ in pairs]),
                      np.mean([p for _, p in pairs])))
    return means


def test_quality_strictly_decreases_with_truncation(trunc_sweep):
    for (s_lo, p_lo), (s_hi, p_hi) in zip(trunc_sweep, trunc_sweep[1:]):
        assert s_hi < s_lo
        assert p_hi < p_lo
    drop_pct = (trunc_sweep[0][0] - trunc_sweep[1][0]) / trunc_sweep[0][0] * 100.0
    assert drop_pct <= 10.0  # measured 3.34% at level 1


# ---------------------------------------------------------------------------
# 7 + 8. Modeled energy savings grow with the skip level and track the
# per-image homogeneity score.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def skip_sweep(corpus):
    model = default_activity_model()
    saved = []
    for level in range(7):
        cfg = EncodeConfig(quality=50, quant_mode="shift", skip_level=level)
        saved.append([energy_saved(model, reconstruct(img, cfg)[1])
                      for img in corpus])
    return saved


def test_energy_saved_monotone_in_skip_level(skip_sweep):
    means = [np.mean(row) for row in skip_sweep]
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 1e-12
    assert means[0] < 0.05   # level 0 skips duplicates only; measured 0.12%
    assert means[6] > 0.25   # measured 36.9% on the frozen corpus


def test_energy_saved_tracks_homogeneity(corpus, skip_sweep):
    assert len(corpus) >= 10
    scores = [homogeneity(img) for img in corpus]
    for level in range(2, 7):
        r = pearson(skip_sweep[level], scores)
        assert r > 0.5  # measured 0.906..0.930 for levels 2..6


# ---------------------------------------------------------------------------
# 9. Decoding shift-quantized streams with the standard matrix loses
# quality, and the mismatch widens at higher quality settings.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def decode_matrix_sweep(corpus, quality_sweep):
    out = {}
    for quality in (50, 90):
        cfg = EncodeConfig(quality=quality, quant_mode="shift")
        matched = [s for s, _ in quality_sweep[(quality, "shift")]]
        standard = [ssim(img, reconstruct(img, cfg, decode_matrix="standard")[0])
                    for img in corpus]
        out[quality] = (matched, standard)
    return out


def test_standard_matrix_decode_worse_and_gap_grows(decode_matrix_sweep):
    matched90, standard90 = decode_matrix_sweep[90]
    for m, s in zip(matched90, standard90):
        assert s < m
    gap90 = np.mean(matched90) - np.mean(standard90)
    matched50, standard50 = decode_matrix_sweep[50]
    gap50 = np.mean(matched50) - np.mean(standard50)
    assert gap90 > gap50  # measured 0.0816 vs 0.0527


# ---------------------------------------------------------------------------
# 10. Tuner: always feasible; equals the exhaustive oracle on curve pairs
# whose composed quality/energy staircase is strictly convex.
# ---------------------------------------------------------------------------

def _curve(kind, dq, de):
    q = np.concatenate([[0.0], np.cumsum(dq)])
    e = np.concatenate([[1.0], 1.0 - np.cumsum(de)])
    return QECurve(kind, [QEPoint(k, float(q[k]), float(e[k]))
                          for k in range(len(q))])


def _random_pair(rng):
    curves = []
    for kind, n in (("loop", 7), ("trunc", 5)):
        dq = rng.uniform(0.0005, 0.03, n - 1)
        de = rng.uniform(0.01, 0.12, n - 1)
        if de.sum() > 0.95:
            de *= 0.95 / de.sum()
        curves.append(_curve(kind, dq, de))
    return curves


def _separated_pair(rng, loop_dominant):
    # one knob gets cheap steps with large gains, the other costly steps
    # with small gains; this is what makes the composed staircase convex
    n_dom = 6 if loop_dominant else 4
    n_sec = 4 if loop_dominant else 6
    dq_dom = rng.uniform(0.001, 0.01, n_dom)
    de_dom = rng.uniform(0.08, 0.15, n_dom)
    dq_sec = rng.uniform(0.02, 0.08, n_sec)
    de_sec = rng.uniform(0.01, 0.04, n_sec)
    total = de_dom.sum() + de_sec.sum()
    if total > 0.9:  # keep composed energy positive; preserves separation
        de_dom *= 0.9 / total
        de_sec *= 0.9 / total

    def ordered(dq, de):
        order = np.argsort(dq / de)
        return dq[order], de[order]

    dq_dom, de_dom = ordered(dq_dom, de_dom)
    dq_sec, de_sec = ordered(dq_sec, de_sec)
    if loop_dominant:
        return [_curve("loop", dq_dom, de_dom), _curve("trunc", dq_sec, de_sec)]
    return [_curve("loop", dq_sec, de_sec), _curve("trunc", dq_dom, de_dom)]


def _knob_strictly_convex(curve):
    prev = None
    for a, b in zip(curve.points, curve.points[1:]):
        dq = b.quality_degradation - a.quality_degradation
        de = a.relative_energy - b.relative_energy
        if dq <= 0.0 or de <= 0.0:
            return False
        ratio = dq / de
        if prev is not None and ratio <= prev + 1e-12:
            return False
        prev = ratio
    return True


def _staircase_strictly_convex(loop, trunc):
    pts = sorted(
        (lp.quality_degradation + tp.quality_degradation,
         lp.relative_energy + tp.relative_energy - 1.0)
        for lp in loop.points for tp in trunc.points
    )
    frontier = []
    for q, e in pts:
        if not frontier or e < frontier[-1][1] - 1e-15:
            frontier.append((q, e))
    slopes = [(b[1] - a[1]) / (b[0] - a[0])
              for a, b in zip(frontier, frontier[1:])]
    return all(s2 > s1 + 1e-12 for s1, s2 in zip(slopes, slopes[1:]))


def test_tuner_feasible_always_and_exact_on_convex_pairs():
    rng = np.random.default_rng(777)
    members = mixed_optima = 0
    for trial in range(1000):
        if trial % 2 == 0:
            loop, trunc = _random_pair(rng)
        else:
            loop, trunc = _separated_pair(rng, loop_dominant=(trial // 2) % 2 == 0)
        top = loop.points[-1].quality_degradation \
            + trunc.points[-1].quality_degradation
        bound = float(rng.uniform(0.0, 1.1 * top))
        inp = TunerInput(loop, trunc, bound)
        got = tune(inp)
        assert got.predicted_quality <= bound
        if _knob_strictly_convex(loop) and _knob_strictly_convex(trunc) \
                and _staircase_strictly_convex(loop, trunc):
            members += 1
            best = exhaustive_oracle(inp)
            if best.i > 0 and best.j > 0:
                mixed_optima += 1
            assert (got.i, got.j) == (best.i, best.j)
            assert got.predicted_energy == best.predicted_energy
    # the check must not be vacuous: seed 777 yields 500 members, 407 of
    # which have both knobs active at the optimum
    assert members >= 450
    assert mixed_optima >= 300


def test_tuner_meets_energy_target_on_reference_curves():
    # loop curve: aggressive early savings that flatten out; trunc curve:
    # the activity model's per-level process costs
    loop = QECurve("loop", [
        QEPoint(k, q, e) for k, (q, e) in enumerate(zip(
            [0.0, 0.002, 0.005, 0.009, 0.014, 0.020, 0.027],
            [1.0, 0.95, 0.88, 0.80, 0.72, 0.64, 0.57]))
    ])
    trunc = QECurve("trunc", [
        QEPoint(k, q, e) for k, (q, e) in enumerate(zip(
            [0.0, 0.004, 0.011, 0.025, 0.05],
            [1.0, 0.8827, 0.7654, 0.6481, 0.5308]))
    ])
    res = tune(TunerInput(loop, trunc, 0.02))
    assert res.predicted_quality <= 0.02
    assert res.predicted_energy <= 0.80


# ---------------------------------------------------------------------------
# 11. Skip-check semantics: duplicate-only at epsilon 0, clamped comparison
# band at the pixel-domain limits, reference chaining.
# ---------------------------------------------------------------------------

def test_epsilon_zero_skips_only_duplicates():
    a = np.full((8, 8), 10, dtype=np.int8)
    b = np.full((8, 8), 11, dtype=np.int8)
    blocks = np.stack([a, a.copy(), b, a.copy()])
    res = perforate(blocks, 0, lambda blk: blk.sum())
    assert list(res.skipped) == [False, True, False, False]


def test_skip_band_clamps_at_domain_limits():
    ref = np.full((8, 8), 125, dtype=np.int64)
    # ceiling is min(125 + 5, 127): 127 stays inside the band
    assert skip_check(np.full((8, 8), 127, dtype=np.int64), ref, 5)
    lo_ref = np.full((8, 8), -126, dtype=np.int64)
    # floor is max(-126 - 5, -128): -128 stays inside the band
    assert skip_check(np.full((8, 8), -128, dtype=np.int64), lo_ref, 5)
    # outside the unclamped band still rejects
    assert not skip_check(np.full((8, 8), 119, dtype=np.int64), ref, 5)


def test_reference_chain_skips_exactly_middle_block():
    blocks = np.stack([np.full((8, 8), v, dtype=np.int8) for v in (10, 13, 16)])
    res = perforate(blocks, 5, lambda blk: blk.copy())
    # 13 sits within 5 of the reference 10; 16 does not (reference stays 10)
    assert list(res.skipped) == [False, True, False]


# ---------------------------------------------------------------------------
# 12. Container: lossless coefficient round trip, byte-identical rewrite,
# and structured failure on arbitrary corruption.
# ---------------------------------------------------------------------------

CYCLE_CONFIGS = [
    EncodeConfig(),
    EncodeConfig(quality=90),
    EncodeConfig(quality=25, quant_mode="div"),
    EncodeConfig(trunc_level=2),
    EncodeConfig(skip_level=3),
    EncodeConfig(quality=75, trunc_level=1, skip_level=5, dc_exact=True),
]


def test_decode_matches_reconstruct_on_100_random_images():
    rng = np.random.default_rng(2024)
    for k in range(100):
        h = int(rng.integers(1, 49))
        w = int(rng.integers(1, 49))
        shape = (h, w, 3) if k % 5 == 4 else (h, w)
        img = RasterImage(rng.integers(0, 256, size=shape, dtype=np.uint8))
        cfg = CYCLE_CONFIGS[k % len(CYCLE_CONFIGS)]
        data, _ = encode(img, cfg)
        want, _ = reconstruct(img, cfg)
        assert np.array_equal(decode(data).pixels, want.pixels)


def test_container_rewrite_is_byte_identical():
    rng = np.random.default_rng(55)
    gray = RasterImage(rng.integers(0, 256, size=(24, 16), dtype=np.uint8))
    color = RasterImage(rng.integers(0, 256, size=(24, 16, 3), dtype=np.uint8))
    for img in (gray, color):
        data, _ = encode(img, EncodeConfig(skip_level=2))
        meta, channels = read_container(data)
        assert write_container(meta, channels) == data


def test_corrupt_streams_always_fail_structurally():
    rng = np.random.default_rng(4242)
    pixels = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    pixels[0:8, 8:16] = pixels[0:8, 0:8]  # guarantees one skipped block
    data, _ = encode(RasterImage(pixels), EncodeConfig(skip_level=2))
    base = bytearray(data)
    for _ in range(10_000):
        buf = bytearray(base)
        op = int(rng.integers(0, 4))
        if op == 0:
            buf[int(rng.integers(0, len(buf)))] = int(rng.integers(0, 256))
        elif op == 1:
            buf = buf[: int(rng.integers(0, len(buf)))]
        elif op == 2:
            buf += bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)),
                                      dtype=np.uint8))
        else:
            buf[int(rng.integers(0, len(buf)))] ^= 1 << int(rng.integers(0, 8))
        try:
            decode(bytes(buf))
        except CorruptStreamError:
            pass
        # benign mutations may still decode; anything else must not escape
