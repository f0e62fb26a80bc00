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
import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .fdct import _BLOCK_CENSUS
from .knobs import SKIP_LEVELS, TRUNC_LEVELS

DATAPATH_WIDTH = 8

# Each knob kind: the EncodeConfig field it sets, and the levels it sweeps.
KNOBS = {"loop": ("skip_level", SKIP_LEVELS), "trunc": ("trunc_level", TRUNC_LEVELS)}


@dataclass(frozen=True)
class EnergyModel:
    """Per-block op counts; costs are fractions of the B=0 process cost."""

    dct_ops: float
    quant_ops: float = 0.0
    entropy_ops: float = 64.0
    skip_check_ops: float = 64.0
    skip_output_ops: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0 for v in astuple(self)):
            raise ValueError("op counts must be finite and non-negative")
        if self._baseline() == 0:
            raise ValueError("the baseline (dct, quant and entropy ops) must be positive")
        for b in TRUNC_LEVELS:
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
    """Model with the transform census of the shift-add spec: the adders and
    subtractors of one 8x8 block (fdct._BLOCK_CENSUS)."""
    return EnergyModel(dct_ops=float(_BLOCK_CENSUS.addsub))


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


@dataclass(frozen=True)
class QECurve:
    """Quality-degradation / relative-energy curve for one knob."""

    kind: str  # a key of KNOBS
    points: list[QEPoint]

    def __post_init__(self):
        if self.kind not in KNOBS:
            raise ValueError(f"curve kind must be one of {', '.join(KNOBS)}")
        if not self.points:
            raise ValueError("curve must have at least one point")
        levels = [p.level for p in self.points]
        if levels != sorted(set(levels)):
            raise ValueError("curve levels must be strictly increasing")
        knob_levels = KNOBS[self.kind][1]
        if any(lv not in knob_levels for lv in levels):
            raise ValueError(f"{self.kind} curve levels must be in [0, {knob_levels[-1]}]")
        if not all(math.isfinite(p.quality_degradation) and math.isfinite(p.relative_energy)
                   for p in self.points):
            raise ValueError("curve degradations and energies must be finite")
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
        # a row of any other length fails to unpack, with a ValueError
        kinds = {kind for kind, _, _, _ in rows[1:]}
        if len(kinds) != 1:
            raise ValueError("curve CSV must describe exactly one knob")
        points = [QEPoint(int(lv), float(d), float(e)) for _, lv, d, e in rows[1:]]
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
    of the knob, so the curve isolates the knob's own degradation. Level 0
    is that reference and is not measured: its point is (0, 0.0, 1.0)
    exactly. Bounds, if given, are resolved to levels via select_level.

    Each image's levels come from one pipeline.reconstruct_many call. The
    skip levels of the loop knob share one skip scan per plane and one
    transform pass: each block processed at any level is truncated,
    transformed, quantized and decoded once. Truncation levels change every
    block's result, so each takes a pass of its own.
    """
    from . import pipeline  # imported late; pipeline depends on this module
    from .metrics import sad_pct, sample_sum

    if model is None:
        model = default_activity_model()
    base = base_config if base_config is not None else pipeline.EncodeConfig()
    if kind not in KNOBS:
        raise ValueError(f"knob kind must be one of {', '.join(KNOBS)}")
    field, levels = KNOBS[kind]
    configs = [replace(base, **{field: lv}) for lv in levels]

    if not images:
        raise ValueError("corpus is empty")

    sums_d = np.zeros(len(levels))  # level 0's stays 0, its own degradation
    sums_e = np.zeros(len(levels))
    sums_e[0] = len(images)  # 1 per image, its own relative energy
    for img in images:
        results = pipeline.reconstruct_many(img, configs)
        ref_img, ref_stats = next(results)
        ref_energy = estimate_image_energy(model, ref_stats)
        ref_sum = sample_sum(ref_img)
        for idx, (out, stats) in enumerate(results, start=1):
            sums_d[idx] += sad_pct(ref_img, out, ref_sum=ref_sum)
            sums_e[idx] += estimate_image_energy(model, stats) / ref_energy
    mean_d = sums_d / len(images)
    mean_e = sums_e / len(images)

    points = [
        QEPoint(lv, float(d), float(e))
        for lv, d, e in zip(levels, mean_d, mean_e)
    ]
    curve = QECurve(kind, points)
    selections = [select_level(curve, b) for b in (required_bounds or [])]
    return curve, selections
