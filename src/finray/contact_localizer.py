"""Frame transforms and the building blocks of contact localization.

Each estimator iteration places an object twin in the jaw frame (pose
chained from the camera, or pre-estimated along the grasp axis before
contact), intersects it with the deformed jaw surface, and snaps the
intersection center through the undeformed mesh onto the nearest contact
candidate. That iteration, with the ``ContactState`` transition, is
``pipeline.localize``; this module holds its pieces (the state, the
pre-estimate and the candidate snap). The mounted candidate is not part of
that state: the estimator's ``ContactCandidateSet`` holds it, and
``localize`` reads it from there. A rate gate models the slow pose stream
feeding a faster camera loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .mesh_model import (
    SurfaceMesh,
    TetMesh,
    content_key,
    project_to_inner_surface,
    registered,
)

if TYPE_CHECKING:
    from .inverse_solver import ContactCandidateSet


class FrameError(ValueError):
    """Frame labels do not chain."""


# read-only identity that every PoseTransform's orthonormality check compares against
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)

# a pose sample older than this (s) degrades a frame before stable contact
POSE_TIMEOUT_S = 0.5
# snaps in a row to the mounted candidate that make contact stable
STABLE_FRAMES = 5


def checked_rotation(rotation) -> np.ndarray:
    """``rotation`` as a float64 3x3 array; ``FrameError`` unless it is
    orthonormal to 1e-10. A rotation that is fixed for a rig, an
    estimator or a scenario is checked here once, where it is made, and
    its poses are then built by ``PoseTransform.trusted``."""
    r = np.asarray(rotation, dtype=np.float64)
    if r.shape != (3, 3):
        raise FrameError("rotation must be 3x3")
    if np.abs(r.T @ r - _EYE3).max() > 1e-10:
        raise FrameError("rotation is not orthonormal")
    return r


@dataclass(frozen=True)
class PoseTransform:
    """Rigid transform mapping points from ``frame_from`` to ``frame_to``.

    The constructor (and ``replace``) checks the shapes and, through
    ``checked_rotation``, that the rotation is orthonormal. ``trusted``
    skips both checks, for a rotation checked once where it was made,
    such as a rig's or an estimator's fixed rotation."""

    rotation: np.ndarray
    translation: np.ndarray
    frame_from: str = "o"
    frame_to: str = "g"

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64)
        if t.shape != (3,):
            raise FrameError("translation must have length 3")
        object.__setattr__(self, "rotation", checked_rotation(self.rotation))
        object.__setattr__(self, "translation", t)

    @classmethod
    def trusted(cls, rotation: np.ndarray, translation: np.ndarray,
                frame_from: str, frame_to: str) -> "PoseTransform":
        """The pose of an orthonormal float64 3x3 ``rotation`` and a
        float64 3-vector ``translation``, built without the constructor's
        checks: the caller has checked the rotation once already."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "rotation", rotation)
        object.__setattr__(pose, "translation", translation)
        object.__setattr__(pose, "frame_from", frame_from)
        object.__setattr__(pose, "frame_to", frame_to)
        return pose

    @classmethod
    def identity(cls, frame_from: str = "o", frame_to: str = "o") -> "PoseTransform":
        return cls(np.eye(3), np.zeros(3), frame_from, frame_to)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ self.rotation.T + self.translation

    def inverse(self) -> "PoseTransform":
        """The inverse transform. The transpose of a checked rotation is
        orthonormal, so it is built without the check."""
        return PoseTransform.trusted(self.rotation.T, -self.rotation.T @ self.translation,
                                     self.frame_to, self.frame_from)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


def chain_pose(outer: PoseTransform, inner: PoseTransform) -> PoseTransform:
    """Compose ``outer . inner``: inner maps a->b, outer maps b->c. The
    rotation is the product of the two checked rotations, which the
    constructor checks in turn."""
    if inner.frame_to != outer.frame_from:
        raise FrameError(
            f"cannot chain {outer.frame_from}->{outer.frame_to} "
            f"after {inner.frame_from}->{inner.frame_to}")
    return PoseTransform(outer.rotation @ inner.rotation,
                         outer.rotation @ inner.translation + outer.translation,
                         inner.frame_from, outer.frame_to)


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_about(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def look_at(eye: np.ndarray, target: np.ndarray) -> PoseTransform:
    """Camera pose (camera->world): +z looks at the target, +x right,
    +y down (world +z up), matching pinhole conventions."""
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
    if np.linalg.norm(right) < 1e-12:
        right = np.cross(fwd, np.array([0.0, 1.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    r = np.column_stack([right, down, fwd])
    return PoseTransform(r, eye, "c", "w")


@dataclass
class ContactState:
    """The localizer's per-jaw state between frames: the contact status
    flag, how many frames in a row snapped to the mounted candidate, the
    last intersection center, and the grasp-axis offset ``l0`` used by the
    pre-estimate. The mounted candidate itself is held only by the
    estimator's ``ContactCandidateSet``. Contact is stable after
    ``STABLE_FRAMES`` snaps in a row; from then on the pose gate flags no
    stale pose."""

    status: bool = False
    centroid: Optional[np.ndarray] = None
    l0: float = 0.0
    stable_frames: int = 0

    def is_stable(self) -> bool:
        return self.status and self.stable_frames >= STABLE_FRAMES


def pre_estimate_translation(state: ContactState, rotation: np.ndarray,
                             obj: SurfaceMesh) -> float:
    """Grasp-axis translation that brings the rotated twin just into the
    inner surface: offset plus half the rotated x-extent."""
    x = obj.vertices @ np.asarray(rotation, dtype=np.float64).T[:, 0]
    extent = float(x.max() - x.min())
    if extent <= 0.0:
        raise ValueError("object has zero extent along the grasp axis")
    return state.l0 + 0.5 * extent


def snap_memo(undeformed: TetMesh, candidate_positions: np.ndarray) -> dict:
    """The process-wide memo of ``select_candidate``'s snap per surface
    vertex id for this undeformed mesh and these candidate positions.

    The snap reads only the mesh's vertices, its inner triangles and the
    positions, so the memo is registered under their content and every
    estimator of that jaw shares it; remounts keep the positions. It
    starts empty and ``select_candidate`` fills it. Two threads that miss
    the same vertex at once both store its one snap."""
    key = ("snaps", content_key(undeformed.vertices, undeformed.inner_triangles(),
                                candidate_positions))
    return registered(key, dict)


def select_candidate(centroid: np.ndarray, deformed_vertices: np.ndarray,
                     surface_vertex_ids: np.ndarray, undeformed: TetMesh,
                     candidates: "ContactCandidateSet", snaps: dict) -> int:
    """Snap an intersection center to a contact candidate.

    Finds the deformed surface vertex nearest the center, maps it to its
    undeformed position by index, projects onto the inner contact surface,
    and returns the nearest candidate (lowest index on ties). That snap
    depends only on the vertex, so ``snaps`` keeps it per vertex id; one
    dict serves one (undeformed mesh, candidate positions) pair, and the
    estimator passes the shared one of ``snap_memo``. The surface
    vertices are gathered by ``np.take``, several times faster than a
    fancy index on (n, 3) rows, and their squared distances summed by
    ``np.einsum``, whose order decides ties between vertices.
    """
    rel = np.take(deformed_vertices, surface_vertex_ids, axis=0) - centroid
    j = int(surface_vertex_ids[int(np.argmin(np.einsum("ij,ij->i", rel, rel)))])
    if j not in snaps:
        q_p = project_to_inner_surface(undeformed, undeformed.vertices[j])
        snaps[j] = int(np.argmin(np.linalg.norm(candidates.positions - q_p, axis=1)))
    return snaps[j]


@dataclass
class PoseRateGate:
    """Zero-order hold over a slow pose stream.

    Before stable contact the gate serves the latest sample and flags the
    frame degraded when the sample is older than ``POSE_TIMEOUT_S``, five
    periods of the simulated 10 Hz pose stream, whose rate no run varies
    either. Once contact is stable the pipeline no longer waits on pose
    freshness: the held pose stays valid and staleness is not flagged.
    """

    last_pose: Optional[PoseTransform] = None
    last_time: float = -np.inf

    def feed(self, pose: Optional[PoseTransform], timestamp: float) -> None:
        if pose is not None:
            self.last_pose = pose
            self.last_time = timestamp

    def get(self, now: float, contact_stable: bool) -> tuple[Optional[PoseTransform], str, bool]:
        """Returns (pose, source, degraded); source is fresh/held/stale."""
        if self.last_pose is None:
            return None, "none", not contact_stable
        age = now - self.last_time
        if age <= 1e-9:
            return self.last_pose, "fresh", False
        if contact_stable:
            return self.last_pose, "held", False
        if age > POSE_TIMEOUT_S:
            return self.last_pose, "stale", True
        return self.last_pose, "held", False
