"""Greedy two-knob tuner over quality/energy curves, plus an exhaustive oracle.

Both knobs' curves start at (level 0, degradation 0, energy 1.0). The
composition model is additive in the deltas: a configuration (i, j) has
predicted degradation Ql[i] + Qt[j] and predicted relative energy
El[i] + Et[j] - 1. The tuner walks one level at a time, always advancing
the knob whose next step costs less quality per unit of energy saved,
and only while the composed degradation stays within the bound. Ties
advance the truncation knob. The oracle enumerates every pair and picks
the minimum-energy feasible one (ties: smaller loop level, then smaller
truncation level); on curves whose composed quality/energy frontier is
convex the greedy walk matches it. Both walk the curves' points by index
and report the chosen points' levels, so a curve may skip levels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .energy import QECurve


@dataclass(frozen=True)
class TunerInput:
    loop_curve: QECurve
    trunc_curve: QECurve
    bound: float  # max predicted quality degradation

    def __post_init__(self):
        if self.loop_curve.kind != "loop" or self.trunc_curve.kind != "trunc":
            raise ValueError("curves must be one loop and one trunc, in that order")
        if not math.isfinite(self.bound) or self.bound < 0.0:
            raise ValueError("bound must be a non-negative finite number")


@dataclass(frozen=True)
class TunerResult:
    i: int  # loop (skip) level
    j: int  # truncation level
    predicted_quality: float  # composed degradation
    predicted_energy: float  # composed relative energy

    def to_json(self) -> str:
        return json.dumps(
            {
                "i": self.i,
                "j": self.j,
                "predicted_quality": self.predicted_quality,
                "predicted_energy": self.predicted_energy,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "TunerResult":
        """The result that to_json wrote. Raises ValueError on anything
        else: a payload that is not an object, a missing key, a level that
        is boolean or not integral, or a prediction that is not a number."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("tuner result must be a JSON object")
        names = [f.name for f in fields(cls)]
        missing = [k for k in names if k not in d]
        if missing:
            raise ValueError(f"tuner result lacks {', '.join(missing)}")
        values = [d[k] for k in names]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise ValueError("tuner result fields must be numbers")
        i, j, quality, energy = values
        if not all(isinstance(v, int) or v.is_integer() for v in (i, j)):
            raise ValueError("tuner levels i and j must be integers")
        return cls(int(i), int(j), float(quality), float(energy))


def _columns(curve: QECurve) -> tuple[list[int], list[float], list[float]]:
    return (
        [p.level for p in curve.points],
        [p.quality_degradation for p in curve.points],
        [p.relative_energy for p in curve.points],
    )


def _compose(ql, el, qt, et, i: int, j: int) -> tuple[float, float]:
    return ql[i] + qt[j], el[i] + et[j] - 1.0


def _step_ratio(q_cost: float, e_gain: float) -> float:
    """Quality spent per unit energy saved; free steps rank first."""
    if e_gain > 0.0:
        return q_cost / e_gain
    return 0.0 if q_cost <= 0.0 else math.inf


def tune(inp: TunerInput) -> TunerResult:
    """Greedy ratio descent over the two curves under the degradation bound."""
    ll, ql, el = _columns(inp.loop_curve)
    lt, qt, et = _columns(inp.trunc_curve)
    i = j = 0
    while True:
        loop_ok = i + 1 < len(ql) and ql[i + 1] + qt[j] <= inp.bound
        trunc_ok = j + 1 < len(qt) and ql[i] + qt[j + 1] <= inp.bound
        if not loop_ok and not trunc_ok:
            break
        ratio_loop = _step_ratio(ql[i + 1] - ql[i], el[i] - el[i + 1]) if loop_ok else math.inf
        ratio_trunc = _step_ratio(qt[j + 1] - qt[j], et[j] - et[j + 1]) if trunc_ok else math.inf
        # The loop step must be strictly cheaper to win; ties take truncation.
        if trunc_ok and (not loop_ok or ratio_loop >= ratio_trunc):
            j += 1
        else:
            i += 1
    q, e = _compose(ql, el, qt, et, i, j)
    return TunerResult(ll[i], lt[j], q, e)


def exhaustive_oracle(inp: TunerInput) -> TunerResult:
    """Minimum-energy feasible pair; ties prefer smaller i, then smaller j."""
    ll, ql, el = _columns(inp.loop_curve)
    lt, qt, et = _columns(inp.trunc_curve)
    best = None
    best_key = None
    for i in range(len(ql)):
        for j in range(len(qt)):
            q, e = _compose(ql, el, qt, et, i, j)
            if q > inp.bound:
                continue
            key = (e, i, j)
            if best_key is None or key < best_key:
                best_key = key
                best = TunerResult(ll[i], lt[j], q, e)
    # (0, 0) composes to degradation 0 and the bound is non-negative, so a
    # feasible pair always exists.
    assert best is not None
    return best
