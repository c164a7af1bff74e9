"""Regularized least-squares recovery of the contact force at the mounted
candidate from effector position targets.

The solve minimizes  0.5 * lam' (W_ea' W_ea + eps W_aa) lam + lam' W_ea d
over the unconstrained 3-vector lam, where d is the effector mismatch in
the actuator-free configuration (rest positions minus targets, active rows
only) and eps the mounted candidate's weight. The stationarity system is
3x3 and solved directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contact_localizer import PoseTransform
from .fem_core import ComplianceOperators

MIN_ACTIVE_EFFECTORS = 3
# lowest keypoint confidence the filter accepts
CONFIDENCE_THRESHOLD = 0.6
# regularization weight of every candidate when no schedule is given
DEFAULT_EPSILON = 1e-4


class DegenerateSolveError(RuntimeError):
    """Effector selection leaves the stationarity system singular."""


class InsufficientEffectorsError(RuntimeError):
    """Fewer than three active effectors survive filtering."""


@dataclass(frozen=True, eq=False)
class KeypointFilter:
    """Confidence thresholding at ``CONFIDENCE_THRESHOLD`` followed by
    filtering to the workspace box ``bbox_lo``..``bbox_hi`` in the jaw
    frame, held as finite float64 arrays from construction on. The
    estimator sizes the box from its fixture. The threshold is
    fixed: it lies between the confidence the simulated detector gives
    visible keypoints and the one it gives the occluded keypoints it flags,
    and those are constants too."""

    bbox_lo: np.ndarray
    bbox_hi: np.ndarray

    def __post_init__(self):
        for name in ("bbox_lo", "bbox_hi"):
            bound = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(bound).all():
                raise ValueError("the workspace box must be finite")
            object.__setattr__(self, name, bound)

    def accept(self, positions_jaw: np.ndarray, confidence: np.ndarray) -> np.ndarray:
        """Rows with enough confidence whose every coordinate lies in the
        box, bounds included. The box is finite, so a NaN or infinite
        coordinate fails one of its two comparisons and is rejected
        without a separate finiteness test."""
        in_box = (positions_jaw >= self.bbox_lo) & (positions_jaw <= self.bbox_hi)
        return (confidence >= CONFIDENCE_THRESHOLD) & in_box.all(axis=1)


@dataclass
class EffectorSet:
    """Position effectors: vertex ids, rest positions and current targets
    (jaw frame), and per-effector activation flags."""

    vertex_ids: np.ndarray
    rest_positions: np.ndarray
    targets: np.ndarray
    active: np.ndarray

    @classmethod
    def from_fixture(cls, fixture) -> "EffectorSet":
        rest = fixture.mesh.vertices[fixture.keypoint_ids].copy()
        return cls(
            vertex_ids=fixture.keypoint_ids.copy(),
            rest_positions=rest,
            targets=rest.copy(),
            active=np.ones(len(fixture.keypoint_ids), dtype=bool),
        )

    @property
    def n_active(self) -> int:
        return int(self.active.sum())


def set_targets(effectors: EffectorSet, observation, cam_to_jaw: PoseTransform,
                keypoint_filter: KeypointFilter) -> EffectorSet:
    """Update targets from a frame's keypoint observation.

    Keypoints rejected by confidence or bounding-box filtering deactivate
    their effector for this iteration (binary switch, no smoothing).
    """
    pos_jaw = cam_to_jaw.apply(observation.keypoints)
    accepted = keypoint_filter.accept(pos_jaw, observation.confidence)
    targets = np.where(accepted[:, None], pos_jaw, effectors.targets)
    return EffectorSet(effectors.vertex_ids, effectors.rest_positions, targets, accepted)


@dataclass
class ContactCandidateSet:
    """The force-point mount candidates along the inner-surface central
    axis, with their per-candidate regularization weights."""

    vertex_ids: np.ndarray
    positions: np.ndarray
    epsilons: np.ndarray
    mounted_index: int = field(default=0)

    def __post_init__(self):
        self.vertex_ids = np.asarray(self.vertex_ids, dtype=np.int64)
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.epsilons = np.asarray(self.epsilons, dtype=np.float64)
        # a NaN or infinite weight would otherwise first fail in the
        # solve, as a LinAlgError from its eigenvalue guard
        if not (np.isfinite(self.epsilons).all() and (self.epsilons >= 0).all()):
            raise ValueError("epsilon weights must be finite and non-negative")
        if not 0 <= self.mounted_index < len(self.vertex_ids):
            raise ValueError("mounted index out of range")

    @classmethod
    def from_fixture(cls, fixture, epsilons=None, mounted_index: int | None = None) -> "ContactCandidateSet":
        n = len(fixture.candidate_ids)
        if epsilons is None:
            eps = np.full(n, DEFAULT_EPSILON)
        else:
            eps = np.broadcast_to(np.asarray(epsilons, dtype=np.float64), (n,)).copy()
        if mounted_index is None:
            mounted_index = n // 2  # initialize on the middle candidate
        return cls(
            vertex_ids=fixture.candidate_ids.copy(),
            positions=fixture.candidate_positions.copy(),
            epsilons=eps,
            mounted_index=mounted_index,
        )

    @property
    def n_candidates(self) -> int:
        return len(self.vertex_ids)

    @property
    def mounted_epsilon(self) -> float:
        return float(self.epsilons[self.mounted_index])


def remount(candidates: ContactCandidateSet, new_index: int) -> ContactCandidateSet:
    """Switch the actuator mount; compliance blocks are precomputed so no
    refactorization happens."""
    if not 0 <= new_index < candidates.n_candidates:
        raise ValueError(f"candidate index {new_index} out of range")
    return ContactCandidateSet(candidates.vertex_ids, candidates.positions, candidates.epsilons,
                               new_index)


@dataclass(frozen=True)
class ForceSolution:
    lam: np.ndarray
    objective: float
    effector_residual: float
    stationarity_residual: float


def solve(compliance: ComplianceOperators, effectors: EffectorSet,
          candidates: ContactCandidateSet) -> ForceSolution:
    """Recover the actuator force at the mounted candidate, with that
    candidate's regularization weight.

    The mismatch is measured from the effector rest positions (the
    zero-actuator-force configuration). Raises if fewer than three active
    effectors remain or the reduced system is numerically singular.

    The active effectors' rows of ``w_ea`` and of the mismatch are one
    ``compress`` each, and every norm is ``math.sqrt(v @ v)``, which is
    what ``np.linalg.norm`` computes for a vector.
    """
    if effectors.n_active < MIN_ACTIVE_EFFECTORS:
        raise InsufficientEffectorsError(
            f"{effectors.n_active} active effectors (< {MIN_ACTIVE_EFFECTORS})")
    m = candidates.mounted_index
    rows = effectors.active.repeat(3)
    w = compliance.w_ea[m].compress(rows, axis=0)
    delta = (effectors.rest_positions - effectors.targets).reshape(-1).compress(rows)
    w_aa = compliance.w_aa[m]
    a = w.T @ w + candidates.mounted_epsilon * w_aa
    b = w.T @ delta
    # scale-aware singularity guard: w rows can be all zero for degenerate
    # effector selections at eps = 0
    eigs = np.linalg.eigvalsh(a)
    if eigs[-1] <= 0.0 or eigs[0] < 1e-12 * eigs[-1]:
        raise DegenerateSolveError("stationarity system is numerically singular")
    lam = np.linalg.solve(a, -b)
    objective = float(0.5 * lam @ a @ lam + lam @ b)
    # relative form: ||A lam + b|| / max(1, ||b||)
    r_stat, r_eff = a @ lam + b, w @ lam + delta
    resid_stat = math.sqrt(r_stat @ r_stat) / max(1.0, math.sqrt(b @ b))
    resid_eff = math.sqrt(r_eff @ r_eff)
    return ForceSolution(
        lam=lam,
        objective=objective,
        effector_residual=resid_eff,
        stationarity_residual=resid_stat,
    )


def estimate_deformation(compliance: ComplianceOperators, lam: np.ndarray,
                         mounted_index: int) -> np.ndarray:
    """(n_vertices, 3) displacement under the solved point force, from the
    precomputed unit-load fields: one (3 n_vertices, 3) matrix-vector
    product on the field's rows, where numpy runs the (n_vertices, 3, 3)
    form as n_vertices separate products, bit for bit the same."""
    unit = compliance.fields[mounted_index]
    return (unit.reshape(-1, 3) @ np.asarray(lam, dtype=np.float64)).reshape(unit.shape[:2])
