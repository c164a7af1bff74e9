"""Correctness checks of the benchmark's workloads.

Every check is a pure function of plain arrays. Each one compares the
program's output with a computation made here, apart from the program, or
with a property the method must have; none compares with a stored copy of
earlier output. The self-test feeds each one a corrupted value and
requires it to fail.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

GRASP_PHASES = ["pre", "load", "hold", "unload", "post"]
BALANCE_TOL_N = 1e-6
# the estimator solves the 3x3 normal equations, the reference solves the
# stacked least-squares problem by SVD; both agree to rounding, far inside
# this relative tolerance
SOLVE_RTOL = 1e-6
SOLVE_ATOL_N = 1e-9
SCALE_RTOL = 0.01
FACE_EXCLUSION_M = 1e-9


# -- grasp schedule and equilibrium ------------------------------------------

def balance_failures(f_left: np.ndarray, f_right: np.ndarray,
                     tol: float = BALANCE_TOL_N) -> np.ndarray:
    """Per frame: the two jaws' ground-truth grasp-axis forces differ by
    more than ``tol``. At object equilibrium they are equal and opposite."""
    return np.abs(np.asarray(f_left) - np.asarray(f_right)) > tol


def stage_sequence_ok(stages) -> bool:
    """The grasp passes pre -> load -> hold -> unload -> post once."""
    runs = [s for i, s in enumerate(stages) if i == 0 or s != stages[i - 1]]
    return runs == GRASP_PHASES


def hold_length_ok(stages, hold_s: float, camera_hz: float) -> bool:
    """Hold spans the scheduled time at the camera rate, within one frame."""
    n_hold = sum(1 for s in stages if s == "hold")
    return abs(n_hold - hold_s * camera_hz) <= 1.0


def target_at_switch_ok(stages, grasp_truth, target: float) -> bool:
    """True grasp force has reached the target on the first hold frame."""
    stages = list(stages)
    if "hold" not in stages:
        return False
    return bool(grasp_truth[stages.index("hold")] >= target)


def distinct_mounts_ok(mounted, true_candidate, minimum: int = 2) -> bool:
    """The estimator mounts at least ``minimum`` distinct candidates over
    the frames in contact."""
    contact = np.asarray(true_candidate) >= 0
    return len(set(np.asarray(mounted)[contact].tolist())) >= minimum


# -- force solve ---------------------------------------------------------------

def reference_force(w_ea: np.ndarray, w_aa: np.ndarray, eps: float,
                    rest: np.ndarray, targets: np.ndarray,
                    active: np.ndarray) -> np.ndarray:
    """Regularized least squares by ``numpy.linalg.lstsq``: the active
    effector rows of ``w_ea`` stacked over ``sqrt(eps) * chol(w_aa)^T``,
    with the effector mismatch on the right-hand side."""
    w = w_ea.reshape(-1, 3, 3)[active].reshape(-1, 3)
    rhs = (targets - rest)[active].ravel()
    if eps > 0.0:
        chol = np.linalg.cholesky(0.5 * (w_aa + w_aa.T))
        w = np.vstack([w, np.sqrt(eps) * chol.T])
        rhs = np.concatenate([rhs, np.zeros(3)])
    return np.linalg.lstsq(w, rhs, rcond=None)[0]


def solve_mismatch(lam: np.ndarray, expected: np.ndarray,
                   rtol: float = SOLVE_RTOL, atol: float = SOLVE_ATOL_N) -> bool:
    """The returned force differs from the expected one beyond tolerance."""
    err = float(np.linalg.norm(np.asarray(lam) - expected))
    return not err <= atol + rtol * float(np.linalg.norm(expected))


# -- twins ---------------------------------------------------------------------

def scale_ok(total_scale: float, mis_scale: float, rtol: float = SCALE_RTOL) -> bool:
    """Calibrated scale undoes the known mis-scale of the reconstruction."""
    return abs(total_scale * mis_scale - 1.0) <= rtol


def watertight_ok(triangles: np.ndarray) -> bool:
    """Every directed edge appears once and its reverse appears once: the
    surface is closed and consistently oriented."""
    tris = np.asarray(triangles)
    if len(tris) == 0:
        return False
    edges = Counter()
    for a, b, c in tris.tolist():
        edges[(a, b)] += 1
        edges[(b, c)] += 1
        edges[(c, a)] += 1
    return all(n == 1 and edges.get((b, a)) == 1 for (a, b), n in edges.items())


def halfspace_inside(vertices: np.ndarray, triangles: np.ndarray,
                     points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Containment in a convex, outward-oriented triangle mesh from its face
    planes. Returns (inside, near_face): ``near_face`` marks points within
    ``FACE_EXCLUSION_M`` of a face plane, where the answer is ambiguous."""
    tv = vertices[triangles]
    normals = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = -np.einsum("ij,ij->i", normals, tv[:, 0])
    signed = points @ normals.T + offsets
    inside = np.all(signed < 0.0, axis=1)
    near_face = np.any(np.abs(signed) <= FACE_EXCLUSION_M, axis=1)
    return inside, near_face


def containment_disagreements(vertices, triangles, points, inside) -> int:
    """Points, away from every face, where the program's containment answer
    differs from the half-space test."""
    ref, near_face = halfspace_inside(np.asarray(vertices), np.asarray(triangles),
                                      np.asarray(points))
    return int(np.sum((np.asarray(inside) != ref) & ~near_face))


# -- static grid ---------------------------------------------------------------

def plateau_frames(ramp_s: float, settle_s: float, record_s: float,
                   camera_hz: float) -> tuple[int, int, int]:
    """(ramp, settle, record) frame counts of one plateau."""
    return (max(1, round(ramp_s * camera_hz)), max(0, round(settle_s * camera_hz)),
            max(1, round(record_s * camera_hz)))


def expected_static_frames(plateaus, cycles: int, ramp_s: float, settle_s: float,
                           record_s: float, camera_hz: float) -> int:
    return cycles * len(plateaus) * sum(plateau_frames(ramp_s, settle_s, record_s, camera_hz))


def static_truth_ok(f_gt: np.ndarray, plateaus, per_plateau: int,
                    n_record: int) -> bool:
    """Truth is zero over the first plateau (0 mm) and the recorded truth
    rises from the first 4 mm plateau to the 10 mm plateau."""
    f_gt = np.asarray(f_gt)
    first = f_gt[:per_plateau]

    def recorded(i):
        return f_gt[(i + 1) * per_plateau - n_record:(i + 1) * per_plateau]

    p4 = list(plateaus).index(4)
    p10 = list(plateaus).index(10)
    return bool(plateaus[0] == 0 and np.all(first == 0.0) and p4 < p10
                and 0.0 < recorded(p4).min() and recorded(p4).max() < recorded(p10).min())


def same_bytes(a: bytes, b: bytes) -> bool:
    return a == b
