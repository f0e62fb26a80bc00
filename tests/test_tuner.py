"""Greedy knob tuner vs the exhaustive oracle."""

import json

import numpy as np
import pytest

from ajpeg.energy import QECurve, QEPoint
from ajpeg.tuner import TunerInput, TunerResult, exhaustive_oracle, tune


def curve(kind, degr, energy):
    return QECurve(kind, [QEPoint(i, d, e) for i, (d, e) in enumerate(zip(degr, energy))])


LOOP = curve("loop", [0.0, 0.01, 0.03, 0.07], [1.0, 0.9, 0.8, 0.7])
TRUNC = curve("trunc", [0.0, 0.02, 0.06], [1.0, 0.85, 0.7])


def test_input_validation():
    with pytest.raises(ValueError, match="loop and one trunc"):
        TunerInput(TRUNC, TRUNC, 0.1)
    with pytest.raises(ValueError, match="loop and one trunc"):
        TunerInput(LOOP, LOOP, 0.1)
    with pytest.raises(ValueError, match="non-negative"):
        TunerInput(LOOP, TRUNC, -0.01)
    with pytest.raises(ValueError, match="non-negative"):
        TunerInput(LOOP, TRUNC, float("nan"))


def test_zero_bound_stays_home():
    res = tune(TunerInput(LOOP, TRUNC, 0.0))
    assert (res.i, res.j) == (0, 0)
    assert res.predicted_quality == 0.0
    assert res.predicted_energy == 1.0


def test_result_is_always_feasible():
    rng = np.random.default_rng(4)
    for _ in range(200):
        ld = np.concatenate([[0.0], np.sort(rng.uniform(0, 0.1, 6))])
        le = np.concatenate([[1.0], np.sort(rng.uniform(0.3, 1.0, 6))[::-1]])
        td = np.concatenate([[0.0], np.sort(rng.uniform(0, 0.1, 4))])
        te = np.concatenate([[1.0], np.sort(rng.uniform(0.3, 1.0, 4))[::-1]])
        inp = TunerInput(curve("loop", ld, le), curve("trunc", td, te),
                         float(rng.uniform(0, 0.25)))
        res = tune(inp)
        assert res.predicted_quality <= inp.bound
        assert res.predicted_quality == pytest.approx(ld[res.i] + td[res.j])
        assert res.predicted_energy == pytest.approx(le[res.i] + te[res.j] - 1.0)


def test_greedy_takes_cheaper_ratio_first():
    # both first steps fit the 0.02 bound; loop spends 0.01 per 0.1 saved
    # (ratio 0.1) vs trunc 0.02 per 0.15 (0.133), so loop advances and the
    # remaining budget allows nothing else
    res = tune(TunerInput(LOOP, TRUNC, 0.02))
    assert (res.i, res.j) == (1, 0)


def test_tie_prefers_truncation():
    loop = curve("loop", [0.0, 0.01], [1.0, 0.9])
    trunc = curve("trunc", [0.0, 0.01], [1.0, 0.9])
    res = tune(TunerInput(loop, trunc, 0.01))
    assert (res.i, res.j) == (0, 1)


def test_free_steps_taken_before_costly_ones():
    # an energy gain with zero quality cost ranks ahead of everything
    loop = curve("loop", [0.0, 0.0, 0.05], [1.0, 0.7, 0.6])
    trunc = curve("trunc", [0.0, 0.04], [1.0, 0.5])
    res = tune(TunerInput(loop, trunc, 0.04))
    assert res.i >= 1  # the free loop step is always taken
    oracle = exhaustive_oracle(TunerInput(loop, trunc, 0.04))
    assert (res.i, res.j) == (oracle.i, oracle.j) == (1, 1)


def test_oracle_minimizes_energy_then_levels():
    inp = TunerInput(LOOP, TRUNC, 1.0)
    res = exhaustive_oracle(inp)
    assert (res.i, res.j) == (3, 2)  # everything feasible: deepest corner
    # exact energy tie between (0-cost steps) resolves to smaller i then j
    loop = curve("loop", [0.0, 0.01], [1.0, 0.9])
    trunc = curve("trunc", [0.0, 0.01], [1.0, 0.9])
    res = exhaustive_oracle(TunerInput(loop, trunc, 0.01))
    assert res.predicted_energy == pytest.approx(0.9)
    assert (res.i, res.j) == (0, 1)  # smaller i wins the energy tie


def test_gapped_curves_report_levels_not_indices():
    # a curve need not hold every level: the pick is the point's level
    loop = QECurve("loop", [QEPoint(0, 0.0, 1.0), QEPoint(3, 0.01, 0.8), QEPoint(6, 0.05, 0.6)])
    trunc = QECurve("trunc", [QEPoint(0, 0.0, 1.0), QEPoint(2, 0.005, 0.9), QEPoint(4, 0.1, 0.5)])
    inp = TunerInput(loop, trunc, 0.02)
    for res in (tune(inp), exhaustive_oracle(inp)):
        assert (res.i, res.j) == (3, 2)
        assert res.predicted_quality == pytest.approx(0.015)
        assert res.predicted_energy == pytest.approx(0.7)


def test_oracle_never_beaten_by_greedy():
    rng = np.random.default_rng(10)
    for _ in range(300):
        ld = np.concatenate([[0.0], np.sort(rng.uniform(0, 0.08, 6))])
        le = np.concatenate([[1.0], np.sort(rng.uniform(0.3, 0.99, 6))[::-1]])
        td = np.concatenate([[0.0], np.sort(rng.uniform(0, 0.08, 4))])
        te = np.concatenate([[1.0], np.sort(rng.uniform(0.3, 0.99, 4))[::-1]])
        inp = TunerInput(curve("loop", ld, le), curve("trunc", td, te),
                         float(rng.uniform(0, 0.2)))
        assert exhaustive_oracle(inp).predicted_energy <= tune(inp).predicted_energy + 1e-12


def test_tune_is_deterministic():
    inp = TunerInput(LOOP, TRUNC, 0.05)
    assert tune(inp) == tune(inp)
    assert exhaustive_oracle(inp) == exhaustive_oracle(inp)


def test_result_json_round_trip():
    res = tune(TunerInput(LOOP, TRUNC, 0.05))
    back = TunerResult.from_json(res.to_json())
    assert back == res


_VALID = {"i": 2, "j": 1, "predicted_quality": 0.01, "predicted_energy": 0.8}


@pytest.mark.parametrize(
    "payload",
    [
        [_VALID],  # not an object
        "i",
        None,
        {k: v for k, v in _VALID.items() if k != "i"},  # a key missing
        {k: v for k, v in _VALID.items() if k != "predicted_energy"},
        {**_VALID, "i": None},
        {**_VALID, "j": "1"},
        {**_VALID, "i": 1.5},  # not integral
        {**_VALID, "j": float("nan")},
        {**_VALID, "i": float("inf")},
        {**_VALID, "i": True},  # a boolean is not a level
        {**_VALID, "j": False},
        {**_VALID, "predicted_quality": None},
        {**_VALID, "predicted_energy": "0.8"},
    ],
)
def test_result_from_json_rejects_malformed_payload(payload):
    with pytest.raises(ValueError):
        TunerResult.from_json(json.dumps(payload))


def test_result_from_json_accepts_integral_floats():
    back = TunerResult.from_json(json.dumps({**_VALID, "i": 2.0, "j": 1.0}))
    assert back == TunerResult(2, 1, 0.01, 0.8)
