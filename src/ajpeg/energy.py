"""Relative energy proxy and quality/energy curve extraction.

The proxy counts adder/subtractor operations weighted by active datapath
width; shifts cost nothing (wiring). Per-block process cost at truncation
level B scales the transform/quantizer census by (8 - B)/8 and is
normalized so one block at B = 0 costs 1.0. When skipping is enabled,
every block pays the similarity-check cost and skipped blocks pay only
the (near-zero) skip output cost.

extract_qe_curve sweeps one knob over a corpus against the knob's level-0
reconstruction, yielding mean quality degradation (SAD fraction) and mean
relative energy per level, plus the most aggressive level within each
requested degradation bound.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .fdct import fdct_2d
from .knobs import SKIP_LEVELS, TRUNC_LEVELS
from .ops import OpCounter

DATAPATH_WIDTH = 8


def _dct_census() -> int:
    """Adder/subtractor count of one instrumented 8x8 block transform."""
    counter = OpCounter()
    fdct_2d(np.zeros((8, 8), dtype=np.int64), counter)
    return counter.addsub


@dataclass
class EnergyModel:
    """Per-block op counts; costs are fractions of the B=0 process cost."""

    dct_ops: float
    quant_ops: float = 0.0
    entropy_ops: float = 64.0
    skip_check_ops: float = 64.0
    skip_output_ops: float = 0.0

    def __post_init__(self):
        for b in range(5):
            if not self.skip_cost() < self.process_cost(b):
                raise ValueError("skip cost must stay below every process cost")

    def _baseline(self) -> float:
        return (self.dct_ops + self.quant_ops + self.entropy_ops) * DATAPATH_WIDTH

    def process_cost(self, trunc_level: int) -> float:
        """Cost of transforming + coding one block at truncation level B."""
        active = DATAPATH_WIDTH - trunc_level
        raw = (self.dct_ops + self.quant_ops) * active + self.entropy_ops * DATAPATH_WIDTH
        return raw / self._baseline()

    def skip_cost(self) -> float:
        return self.skip_output_ops * DATAPATH_WIDTH / self._baseline()

    def check_cost(self) -> float:
        return self.skip_check_ops * DATAPATH_WIDTH / self._baseline()


def default_activity_model() -> EnergyModel:
    """Model with the transform census measured from the instrumented path."""
    return EnergyModel(dct_ops=float(_dct_census()))


@dataclass
class EnergyStats:
    """Per-image encode accounting."""

    blocks_processed: int
    blocks_skipped: int
    trunc_level: int
    skip_enabled: bool

    @property
    def total_blocks(self) -> int:
        return self.blocks_processed + self.blocks_skipped


def estimate_image_energy(model: EnergyModel, stats: EnergyStats) -> float:
    """Relative energy of one encode (1.0 = one B=0 block, no skip hardware)."""
    energy = stats.blocks_processed * model.process_cost(stats.trunc_level)
    energy += stats.blocks_skipped * model.skip_cost()
    if stats.skip_enabled:
        energy += stats.total_blocks * model.check_cost()
    return energy


def energy_saved(model: EnergyModel, stats: EnergyStats) -> float:
    """Fractional saving versus the same configuration with no block skipped.

    The baseline keeps the similarity checker running (it is part of the
    skipping hardware), so the saving is never negative.
    """
    baseline = estimate_image_energy(
        model,
        EnergyStats(stats.total_blocks, 0, stats.trunc_level, stats.skip_enabled),
    )
    return 1.0 - estimate_image_energy(model, stats) / baseline


@dataclass(frozen=True)
class QEPoint:
    level: int
    quality_degradation: float
    relative_energy: float


@dataclass
class QECurve:
    """Quality-degradation / relative-energy curve for one knob."""

    kind: str  # "loop" or "trunc"
    points: list[QEPoint]

    def __post_init__(self):
        if self.kind not in ("loop", "trunc"):
            raise ValueError("curve kind must be 'loop' or 'trunc'")
        if not self.points:
            raise ValueError("curve must have at least one point")
        levels = [p.level for p in self.points]
        if levels != sorted(set(levels)):
            raise ValueError("curve levels must be strictly increasing")
        first = self.points[0]
        if first.level != 0 or first.quality_degradation != 0.0 or first.relative_energy != 1.0:
            raise ValueError("curve point 0 must be (0, 0.0, 1.0)")
        energies = [p.relative_energy for p in self.points]
        if any(b > a + 1e-12 for a, b in zip(energies, energies[1:])):
            raise ValueError("relative energy must be non-increasing in level")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "level", "quality_degradation", "relative_energy"])
        for p in self.points:
            writer.writerow([self.kind, p.level, repr(p.quality_degradation), repr(p.relative_energy)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "QECurve":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["kind", "level", "quality_degradation", "relative_energy"]:
            raise ValueError("bad curve CSV header")
        kinds = {r[0] for r in rows[1:]}
        if len(kinds) != 1:
            raise ValueError("curve CSV must describe exactly one knob")
        points = [QEPoint(int(r[1]), float(r[2]), float(r[3])) for r in rows[1:]]
        return cls(kinds.pop(), points)


def select_level(curve: QECurve, bound: float) -> tuple[int, bool]:
    """Most aggressive level reached before degradation exceeds the bound.

    Scans levels in order and stops at the first point over the bound,
    returning the previous one. The flag is True when even level 0 violates
    the bound (possible only for a negative bound), in which case level 0
    is still returned.
    """
    if curve.points[0].quality_degradation > bound:
        return 0, True
    chosen = curve.points[0].level
    for p in curve.points[1:]:
        if p.quality_degradation > bound:
            break
        chosen = p.level
    return chosen, False


def extract_qe_curve(
    kind: str,
    images: list,
    base_config=None,
    required_bounds: list[float] | None = None,
    model: EnergyModel | None = None,
) -> tuple[QECurve, list[tuple[int, bool]]]:
    """Sweep one knob over a corpus and assemble its quality/energy curve.

    Each level is measured against the same image reconstructed at level 0
    of the knob, so the curve isolates the knob's own degradation and
    starts at (0, 0.0, 1.0) exactly. Bounds, if given, are resolved to
    levels via select_level.

    Each image's levels come from one pipeline.reconstruct_many call. The
    skip levels of the loop knob share one transform pass: each block
    processed at any level is truncated, transformed, quantized and decoded
    once. Truncation levels change every block's result, so each takes a
    pass of its own.
    """
    from . import pipeline  # imported late; pipeline depends on this module
    from .metrics import sad_pct

    if model is None:
        model = default_activity_model()
    base = base_config if base_config is not None else pipeline.EncodeConfig()
    if kind == "loop":
        levels = SKIP_LEVELS
        configs = [replace(base, skip_level=lv) for lv in levels]
    elif kind == "trunc":
        levels = TRUNC_LEVELS
        configs = [replace(base, trunc_level=lv) for lv in levels]
    else:
        raise ValueError("knob kind must be 'loop' or 'trunc'")

    if not images:
        raise ValueError("corpus is empty")

    sums_d = np.zeros(len(levels))
    sums_e = np.zeros(len(levels))
    for img in images:
        for idx, (out, stats) in enumerate(pipeline.reconstruct_many(img, configs)):
            if idx == 0:
                ref_img, ref_energy = out, estimate_image_energy(model, stats)
            sums_d[idx] += sad_pct(ref_img, out)
            sums_e[idx] += estimate_image_energy(model, stats) / ref_energy
    mean_d = sums_d / len(images)
    mean_e = sums_e / len(images)
    mean_d[0] = 0.0  # exact by construction
    mean_e[0] = 1.0

    points = [
        QEPoint(lv, float(d), float(e))
        for lv, d, e in zip(levels, mean_d, mean_e)
    ]
    curve = QECurve(kind, points)
    selections = [select_level(curve, b) for b in (required_bounds or [])]
    return curve, selections
