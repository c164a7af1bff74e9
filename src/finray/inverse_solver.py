"""Regularized least-squares recovery of the contact force at the mounted
candidate from effector position targets.

The solve minimizes  0.5 * lam' (W_ea' W_ea + eps W_aa) lam + lam' W_ea d
over the unconstrained 3-vector lam, where d is the effector mismatch in
the actuator-free configuration (rest positions minus targets, active rows
only) and eps the mounted candidate's weight. The stationarity system is
3x3 and solved directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .contact_localizer import PoseTransform
from .fem_core import ComplianceOperators
from .mesh_model import DeformedState

MIN_ACTIVE_EFFECTORS = 3
# lowest keypoint confidence the filter accepts
CONFIDENCE_THRESHOLD = 0.6
# regularization weight of every candidate when no schedule is given
DEFAULT_EPSILON = 1e-4


class DegenerateSolveError(RuntimeError):
    """Effector selection leaves the stationarity system singular."""


class InsufficientEffectorsError(RuntimeError):
    """Fewer than three active effectors survive filtering."""


@dataclass(frozen=True)
class KeypointFilter:
    """Confidence thresholding at ``CONFIDENCE_THRESHOLD`` followed by
    filtering to the workspace box ``bbox_lo``..``bbox_hi`` in the jaw
    frame. The estimator sizes the box from its fixture. The threshold is
    fixed: it lies between the confidence the simulated detector gives
    visible keypoints and the one it gives the occluded keypoints it flags,
    and those are constants too."""

    bbox_lo: tuple[float, float, float]
    bbox_hi: tuple[float, float, float]

    def accept(self, positions_jaw: np.ndarray, confidence: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.bbox_lo)
        hi = np.asarray(self.bbox_hi)
        conf_ok = confidence >= CONFIDENCE_THRESHOLD
        finite = np.all(np.isfinite(positions_jaw), axis=1)
        in_box = finite & np.all((positions_jaw >= lo) & (positions_jaw <= hi), axis=1)
        return conf_ok & in_box


@dataclass
class EffectorSet:
    """Position effectors: vertex ids, outer/inner class, current targets
    (jaw frame), and per-effector activation flags."""

    vertex_ids: np.ndarray
    is_outer: np.ndarray
    rest_positions: np.ndarray
    targets: np.ndarray
    active: np.ndarray

    @classmethod
    def from_fixture(cls, fixture) -> "EffectorSet":
        rest = fixture.mesh.vertices[fixture.keypoint_ids].copy()
        return cls(
            vertex_ids=fixture.keypoint_ids.copy(),
            is_outer=fixture.keypoint_is_outer.copy(),
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
    targets = effectors.targets.copy()
    targets[accepted] = pos_jaw[accepted]
    return replace(effectors, targets=targets, active=accepted)


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
        if np.any(self.epsilons < 0):
            raise ValueError("epsilon weights must be non-negative")
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
    return replace(candidates, mounted_index=new_index)


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
    """
    if effectors.n_active < MIN_ACTIVE_EFFECTORS:
        raise InsufficientEffectorsError(
            f"{effectors.n_active} active effectors (< {MIN_ACTIVE_EFFECTORS})")
    m = candidates.mounted_index
    active = effectors.active
    w = compliance.w_ea[m].reshape(compliance.n_effectors, 3, 3)[active].reshape(-1, 3)
    delta = (effectors.rest_positions - effectors.targets)[active].ravel()
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
    resid_stat = float(np.linalg.norm(a @ lam + b) / max(1.0, np.linalg.norm(b)))
    resid_eff = float(np.linalg.norm(w @ lam + delta))
    return ForceSolution(
        lam=lam,
        objective=objective,
        effector_residual=resid_eff,
        stationarity_residual=resid_stat,
    )


def estimate_deformation(compliance: ComplianceOperators, lam: np.ndarray,
                         mounted_index: int) -> DeformedState:
    """Full-field displacement under the solved point force, from the
    precomputed unit-load fields."""
    u = compliance.fields[mounted_index] @ np.asarray(lam, dtype=np.float64)
    return DeformedState(u)
