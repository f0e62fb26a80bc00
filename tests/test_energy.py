"""Energy proxy model, Q-E curves, and level selection."""

import dataclasses

import numpy as np
import pytest

from ajpeg.energy import (
    KNOBS,
    EnergyModel,
    EnergyStats,
    QECurve,
    QEPoint,
    default_activity_model,
    energy_saved,
    estimate_image_energy,
    extract_qe_curve,
    select_level,
)
from ajpeg.pipeline import EncodeConfig
from ajpeg.raster import RasterImage

# Census of one instrumented block transform: 16 1-D passes x 61 addsubs.
DCT_OPS = 976
# Baseline lane-ops per block: (dct + quant + entropy) * width.
BASE = (DCT_OPS + 0 + 64) * 8


def test_default_model_census():
    model = default_activity_model()
    assert model.dct_ops == DCT_OPS
    assert model.entropy_ops == 64.0 and model.skip_check_ops == 64.0
    assert model.skip_output_ops == 0.0


def test_process_cost_row():
    model = default_activity_model()
    want = [(DCT_OPS * (8 - b) + 64 * 8) / BASE for b in range(5)]
    assert [model.process_cost(b) for b in range(5)] == pytest.approx(want, abs=0)
    assert want == pytest.approx([1.0, 0.8827, 0.7654, 0.6481, 0.5308], abs=5e-5)
    assert model.process_cost(0) == 1.0


def test_check_and_skip_costs():
    model = default_activity_model()
    assert model.check_cost() == pytest.approx(512 / BASE)
    assert model.check_cost() == pytest.approx(4 / 65)
    assert model.skip_cost() == 0.0


def test_model_rejects_skip_cost_above_process_cost():
    with pytest.raises(ValueError, match="skip cost"):
        EnergyModel(dct_ops=10.0, skip_output_ops=1e6)


@pytest.mark.parametrize(
    "counts",
    [
        dict(dct_ops=976.0, skip_check_ops=-64.0),  # check_cost() would be -0.0615
        dict(dct_ops=-976.0, entropy_ops=2000.0),
        dict(dct_ops=976.0, quant_ops=float("nan")),
        dict(dct_ops=float("inf")),
        dict(dct_ops=976.0, skip_output_ops=-1.0),
    ],
)
def test_model_rejects_negative_and_non_finite_op_counts(counts):
    with pytest.raises(ValueError, match="finite and non-negative"):
        EnergyModel(**counts)


def test_model_rejects_a_zero_baseline():
    # every cost is a fraction of the baseline, which would divide by zero
    with pytest.raises(ValueError, match="baseline"):
        EnergyModel(dct_ops=0.0, entropy_ops=0.0)
    assert EnergyModel(dct_ops=0.0).process_cost(0) == 1.0


@pytest.mark.parametrize(
    "field, value",
    [("skip_check_ops", -64.0), ("dct_ops", 0.0), ("kind", "x"), ("points", [])],
)
def test_models_and_curves_are_immutable(field, value):
    # the checks of __post_init__ hold for an object's whole life: a field
    # set afterwards would skip them
    target = default_activity_model() if field.endswith("_ops") else _curve("loop", [0.0], [1.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(target, field, value)


def test_estimate_image_energy_spot_value():
    model = default_activity_model()
    stats = EnergyStats(blocks_processed=60, blocks_skipped=40,
                        trunc_level=0, skip_enabled=True)
    # 60 * 1.0 + 40 * 0 + 100 * (4/65)
    assert estimate_image_energy(model, stats) == pytest.approx(60 + 400 / 65)
    assert estimate_image_energy(model, stats) == pytest.approx(66.1538, abs=1e-4)


def test_estimate_without_skip_hardware():
    model = default_activity_model()
    stats = EnergyStats(100, 0, 0, skip_enabled=False)
    assert estimate_image_energy(model, stats) == pytest.approx(100.0)


def test_energy_saved_spot_value():
    model = default_activity_model()
    stats = EnergyStats(60, 40, 0, skip_enabled=True)
    # 1 - (60 + 100c)/(100 + 100c) with c = 4/65 -> exactly 26/69
    assert energy_saved(model, stats) == pytest.approx(26 / 69)
    assert energy_saved(model, stats) == pytest.approx(0.3768, abs=1e-4)


def test_energy_saved_zero_when_nothing_skipped():
    model = default_activity_model()
    assert energy_saved(model, EnergyStats(64, 0, 0, True)) == 0.0
    assert energy_saved(model, EnergyStats(64, 0, 3, False)) == 0.0


def test_energy_saved_never_negative():
    model = default_activity_model()
    for skipped in (0, 1, 17, 63):
        stats = EnergyStats(64 - skipped, skipped, 0, True)
        assert energy_saved(model, stats) >= 0.0


def _curve(kind, degr, energy):
    return QECurve(kind, [QEPoint(i, d, e) for i, (d, e) in enumerate(zip(degr, energy))])


def test_qecurve_validation():
    _curve("loop", [0.0, 0.1], [1.0, 0.8])  # valid
    for kind, (_, levels) in KNOBS.items():  # so is every level of the knob
        QECurve(kind, [QEPoint(lv, 0.01 * lv, 1.0 - 0.1 * lv) for lv in levels])
    with pytest.raises(ValueError, match="kind"):
        _curve("zoom", [0.0, 0.1], [1.0, 0.8])
    with pytest.raises(ValueError, match="at least one"):
        QECurve("loop", [])
    with pytest.raises(ValueError, match="point 0"):
        _curve("loop", [0.1, 0.2], [1.0, 0.8])
    with pytest.raises(ValueError, match="point 0"):
        _curve("loop", [0.0, 0.2], [0.9, 0.8])
    with pytest.raises(ValueError, match="non-increasing"):
        _curve("loop", [0.0, 0.2], [1.0, 1.2])
    with pytest.raises(ValueError, match="strictly increasing"):
        QECurve("loop", [QEPoint(0, 0.0, 1.0), QEPoint(0, 0.1, 0.9)])


@pytest.mark.parametrize(
    "kind, point, match",
    [
        ("loop", QEPoint(7, 0.1, 0.8), "levels must be in"),  # loop levels are 0 .. 6
        ("loop", QEPoint(9, 0.1, 0.8), "levels must be in"),
        ("trunc", QEPoint(5, 0.1, 0.8), "levels must be in"),  # trunc levels are 0 .. 4
        ("loop", QEPoint(1, float("nan"), 0.8), "finite"),
        ("loop", QEPoint(1, float("inf"), 0.8), "finite"),
        ("trunc", QEPoint(1, 0.1, float("nan")), "finite"),
        ("trunc", QEPoint(1, 0.1, -float("inf")), "finite"),
    ],
)
def test_qecurve_rejects_levels_outside_the_knob_and_non_finite_values(kind, point, match):
    with pytest.raises(ValueError, match=match):
        QECurve(kind, [QEPoint(0, 0.0, 1.0), point])
    with pytest.raises(ValueError, match=match):
        QECurve.from_csv(QECurve(kind, [QEPoint(0, 0.0, 1.0)]).to_csv()
                         + f"{kind},{point.level},{point.quality_degradation!r},{point.relative_energy!r}\n")


def test_qecurve_allows_flat_energy():
    c = _curve("trunc", [0.0, 0.05], [1.0, 1.0])
    assert c.points[1].relative_energy == 1.0


def test_qecurve_csv_round_trip_is_exact():
    c = _curve("loop", [0.0, 1 / 3, 0.7071067811865476], [1.0, 2 / 3, 0.1])
    back = QECurve.from_csv(c.to_csv())
    assert back.kind == c.kind
    assert back.points == c.points  # repr() serialization keeps every bit


def test_qecurve_csv_rejects_bad_input():
    with pytest.raises(ValueError, match="header"):
        QECurve.from_csv("a,b,c\n")
    good = _curve("loop", [0.0, 0.1], [1.0, 0.5]).to_csv()
    mixed = good + "trunc,2,0.2,0.4\n"
    with pytest.raises(ValueError, match="one knob"):
        QECurve.from_csv(mixed)


def test_select_level_scan():
    c = _curve("loop", [0.0, 0.01, 0.02, 0.05], [1.0, 0.9, 0.8, 0.7])
    assert select_level(c, 0.02) == (2, False)   # boundary is inclusive
    assert select_level(c, 0.019) == (1, False)
    assert select_level(c, 0.0) == (0, False)
    assert select_level(c, 1.0) == (3, False)
    assert select_level(c, -0.1) == (0, True)    # infeasible flag


def test_select_level_stops_at_first_violation():
    # scan semantics: a later point under the bound is not reachable
    c = _curve("loop", [0.0, 0.03, 0.01], [1.0, 0.9, 0.8])
    assert select_level(c, 0.02) == (0, False)


def test_extract_qe_curve_small_corpus():
    rng = np.random.default_rng(9)
    imgs = [RasterImage(rng.integers(0, 256, (32, 32), dtype=np.uint8)),
            RasterImage((rng.integers(100, 140, (32, 32))).astype(np.uint8))]
    curve, picks = extract_qe_curve("trunc", imgs, required_bounds=[0.0, 1e9])
    assert curve.kind == "trunc"
    assert [p.level for p in curve.points] == [0, 1, 2, 3, 4]
    assert curve.points[0] == QEPoint(0, 0.0, 1.0)
    energies = [p.relative_energy for p in curve.points]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert picks[0] == (0, False)
    assert picks[1] == (4, False)


def test_extract_qe_curve_loop_levels():
    img = RasterImage(np.full((32, 32), 90, dtype=np.uint8))
    curve, _ = extract_qe_curve("loop", [img])
    assert [p.level for p in curve.points] == list(range(7))
    # constant image: every level skips everything beyond block 0 equally
    assert curve.points[1].relative_energy == pytest.approx(
        curve.points[6].relative_energy
    )


def test_extract_qe_curve_rejects_bad_input():
    with pytest.raises(ValueError, match="knob kind"):
        extract_qe_curve("zoom", [RasterImage(np.zeros((8, 8), dtype=np.uint8))])
    with pytest.raises(ValueError, match="corpus"):
        extract_qe_curve("loop", [])


def test_extract_qe_curve_keeps_base_qmatrix():
    # each level's config derives from the base config, so a custom table
    # must reach the sweep and move the curve off the default table's
    rng = np.random.default_rng(9)
    imgs = [RasterImage(rng.integers(0, 256, (32, 32), dtype=np.uint8))]
    default, _ = extract_qe_curve("trunc", imgs)
    flat, _ = extract_qe_curve("trunc", imgs, EncodeConfig(qmatrix=np.ones((8, 8))))
    assert flat.points != default.points
