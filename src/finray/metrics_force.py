"""Force decomposition, error metrics, the threshold trigger, and report
tables.

Grasp force is the smaller jaw force magnitude; manipulation force is the
signed left-minus-right difference. NRMSD normalizes RMSE by the observed
force range of the evaluation protocol (11.04 N) when scoring
report-shaped outputs. The same ``NORMALIZATION_RANGE_N`` bounds the trial
forces of the per-candidate regularization tuner
(``harness_cli.tune_epsilon``), so the schedule is tuned over the range it
is scored on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

NORMALIZATION_RANGE_N = 11.04
# version of the ``MetricsReport.as_dict`` layout
REPORT_SCHEMA_VERSION = 1


def decompose(f_left: float, f_right: float) -> tuple[float, float]:
    """(grasp, manipulation) from the per-jaw scalar forces.

    Grasp is min(|left|, |right|); manipulation is left - right, positive
    toward the left jaw's direction.
    """
    grasp = min(abs(f_left), abs(f_right))
    manip = f_left - f_right
    return grasp, manip


def max_error(sim: np.ndarray, gt: np.ndarray) -> float:
    return float(np.abs(np.asarray(sim) - np.asarray(gt)).max())


def rmse_nrmsd(sim: Sequence[float], gt: Sequence[float]) -> tuple[float, float]:
    """Root-mean-square error and its percentage of ``NORMALIZATION_RANGE_N``."""
    sim = np.asarray(sim, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if sim.shape != gt.shape or sim.size == 0:
        raise ValueError("series must align and be non-empty")
    rmse = float(np.sqrt(np.mean((sim - gt) ** 2)))
    return rmse, rmse / NORMALIZATION_RANGE_N * 100.0


class ThresholdTrigger:
    """Latched stop signal on the grasp-force stream."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.fired = False
        self.fire_index: Optional[int] = None
        self._count = 0

    def update(self, grasp_force: float) -> bool:
        if not self.fired and grasp_force >= self.threshold:
            self.fired = True
            self.fire_index = self._count
        self._count += 1
        return self.fired


@dataclass
class ConditionMetrics:
    """Aggregated accuracy for one grid condition."""

    label: str
    rmse_mean: float
    rmse_std: float
    nrmsd_mean: float
    nrmsd_std: float
    max_error: float
    n_cycles: int
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_cycles(cls, label: str, sims: Iterable[np.ndarray],
                    gts: Iterable[np.ndarray], **extra) -> "ConditionMetrics":
        rmses, nrmsds, maxes = [], [], []
        for sim, gt in zip(sims, gts):
            r, n = rmse_nrmsd(sim, gt)
            rmses.append(r)
            nrmsds.append(n)
            maxes.append(max_error(sim, gt))
        rmses = np.array(rmses)
        nrmsds = np.array(nrmsds)
        return cls(label, float(rmses.mean()), float(rmses.std()),
                   float(nrmsds.mean()), float(nrmsds.std()),
                   float(max(maxes)), len(rmses), dict(extra))

    def row(self) -> dict:
        return {
            "condition": self.label,
            "rmse_mean": self.rmse_mean,
            "rmse_std": self.rmse_std,
            "nrmsd_mean": self.nrmsd_mean,
            "nrmsd_std": self.nrmsd_std,
            "max_error": self.max_error,
            "n_cycles": self.n_cycles,
            **self.extra,
        }


@dataclass
class MetricsReport:
    suite: str
    conditions: list[ConditionMetrics]
    notes: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "suite": self.suite,
            "force_range": NORMALIZATION_RANGE_N,
            "conditions": [c.row() for c in self.conditions],
            "notes": self.notes,
        }

    def markdown(self) -> str:
        lines = [
            f"### {self.suite}",
            "",
            "| Condition | RMSE (N) | NRMSD (%) | Max Error (N) |",
            "| --- | --- | --- | --- |",
        ]
        for c in self.conditions:
            lines.append(
                f"| {c.label} | {c.rmse_mean:.2f} ± {c.rmse_std:.2f} "
                f"| {c.nrmsd_mean:.2f} ± {c.nrmsd_std:.2f} | {c.max_error:.2f} |")
        return "\n".join(lines) + "\n"
