"""Ground-truth oracle and synthetic sensor.

Replaces the physical camera/robot testbed: a quasi-static penalty-contact
forward simulation produces true forces and deformations, and a synthetic
observation model renders noisy, occluded, rate-limited keypoint and pose
streams from them.

World frame: grasp center between the jaws at x = 0, +z up along the jaw
height, +y across the jaw width toward the camera side. Each jaw has its
own frame (origin at its base center, inner contact face toward the
object); the left jaw is axis-aligned with the world, the right jaw is
rotated half a turn about z.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .contact_localizer import PoseTransform, checked_rotation, look_at, rot_z, rotation_about
from .fem_core import MaterialModel, StiffnessSystem, assemble
from .fixtures import JawFixture, ShapeSpec, canonical_jaw, make_object_mesh, make_sdf
from .mesh_calibration import CameraModel, PointCloud, partial_view
from .mesh_model import _BOX_MARGIN, DeformableSurface, SurfaceMesh, content_key, registered

logger = logging.getLogger(__name__)


class ContactConvergenceError(RuntimeError):
    """Penalty fixed point failed to converge, or one pass's non-negative
    least-squares step hit its iteration cap."""


# fraction of the linearised penalty step taken per pass: the full step,
# then, when it does not converge (it can cycle where the SDF normals jump
# between the faces of a polyhedron), the half step from the same start
_PENALTY_STEPS = (1.0, 0.5)

# the penalty law: stiffness (N/m), the force change (N) under which a
# solve has converged, and the passes per step size before it gives up
PENALTY_STIFFNESS = 1e6
PENALTY_TOL = 1e-8
PENALTY_MAX_ITERS = 200

# keypoint confidence (mean, standard deviation) of a visible keypoint, of
# an occluded one flagged by the detector, and of one drifted onto the
# occluder or the background
CONFIDENCE_VISIBLE = (0.95, 0.02)
CONFIDENCE_OCCLUDED = (0.2, 0.1)
CONFIDENCE_DRIFT = (0.9, 0.05)

# rig geometry: distance (m) between the untouched inner faces at zero
# closure, and the world point the camera looks at
JAW_GAP = 0.048
CAMERA_TARGET = (0.0, 0.0, 0.045)

# rate (Hz) of the object pose stream beside the camera's keypoints
POSE_HZ = 10.0

# grasp force (N) above which a grasp leaves "pre", and below which an
# unloading grasp enters "post"
RELEASE_THRESHOLD_N = 0.02

# entries in each of an engine's memos (one per rig for contact solves, one
# per jaw for observation geometry); it must hold the 38 closures of one
# cycle of the default 11-plateau static schedule
MEMO_CAPACITY = 64


@dataclass(frozen=True)
class NoiseConfig:
    """Sensor noise: keypoint position noise (m, in the camera frame), the
    pose stream's rotation (deg) and translation (m) noise, and the chance
    that a drifted keypoint lands on the background rather than on the
    occluder. The suites vary these. The confidence distributions the
    detector reports are the constants ``CONFIDENCE_VISIBLE``,
    ``CONFIDENCE_OCCLUDED`` and ``CONFIDENCE_DRIFT``: the estimator's fixed
    ``inverse_solver.CONFIDENCE_THRESHOLD`` lies between the first two, so
    they are part of the sensor model rather than a run's settings."""

    keypoint_sigma: float = 0.001
    pose_rot_deg: float = 2.0
    pose_trans_sigma: float = 0.002
    drift_background_prob: float = 0.3

    @classmethod
    def ideal(cls) -> "NoiseConfig":
        return cls(keypoint_sigma=0.0, pose_rot_deg=0.0, pose_trans_sigma=0.0)


@dataclass(frozen=True)
class ContactModelConfig:
    """Penalty contact parameters for the forward oracle.

    ``model`` selects single-node contact at the deepest candidate
    ("point", identifiable by a point-force estimator) or penalty forces on
    every inner-surface node ("distributed"). ``viscous_gamma`` > 0 adds a
    slow stress-relaxation surrogate with time constant ``viscous_tau``
    (s), applied to the reported force only, never to the deformation.

    The penalty law is fixed by module constants, since the truth every
    suite scores against is defined by it: ``PENALTY_STIFFNESS`` (N/m),
    ``PENALTY_TOL`` and ``PENALTY_MAX_ITERS``. A solve starts from zero
    force at the rest shape, so it is a function of the pose and the SDF
    alone. Each pass takes the full linearised penalty step, a non-negative
    least-squares problem that Lawson and Hanson's active-set method solves
    exactly; with one eligible node, as in point mode, the step has a
    closed form that gives the same bits. The solve has converged once a
    pass changes no component of an eligible node's force by
    ``PENALTY_TOL`` (N) or more. After ``PENALTY_MAX_ITERS`` passes
    without converging it starts again with half steps, and after as many
    more raises ``ContactConvergenceError``. That error is also raised if
    one step's active-set method reaches its cap of three iterations per
    eligible node, the only way a step can fail.
    """

    model: str = "point"
    viscous_gamma: float = 0.0
    viscous_tau: float = 25.0


@dataclass(frozen=True)
class ScheduleConfig:
    """Closure schedule: static plateaus, or a grasp that closes, no
    further than ``max_closure_mm``, until ``target_force``, holds, and
    opens. A grasp's stage boundaries at contact and release are
    ``RELEASE_THRESHOLD_N``."""

    kind: str = "static"  # static | grasp
    plateaus_mm: tuple = (0, 2, 4, 6, 8, 10, 8, 6, 4, 2, 0)
    ramp_s: float = 0.2
    settle_s: float = 0.2
    record_s: float = 0.3
    cycles: int = 5
    closing_speed_mm_s: float = 1.0
    target_force: float = 5.0
    hold_s: float = 6.0
    max_closure_mm: float = 14.0


@dataclass(frozen=True)
class Scenario:
    """Everything a run varies: object, contact placement, schedule, sensor
    noise, occlusion mode, camera rate and position, and the seed.

    What no run varies is a module constant: the jaw gap ``JAW_GAP``, the
    camera's target ``CAMERA_TARGET``, the pose stream's ``POSE_HZ``, and
    the jaw material, ``MaterialModel()``, which the estimator's compliance
    shares with the oracle."""

    shape: ShapeSpec = field(default_factory=ShapeSpec)
    contact_position: str = "middle"  # upper | middle | lower
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig.ideal)
    contact: ContactModelConfig = field(default_factory=ContactModelConfig)
    occlusion_mode: str = "off"  # off | confidence | drift
    camera_hz: float = 30.0
    seed: int = 0
    dual_jaw: bool = False
    clearance_mm: float = 0.5
    object_yaw_deg: float = 0.0
    object_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    camera_eye: tuple[float, float, float] = (0.02, 0.09, 0.16)

    def __post_init__(self):
        if self.camera_hz <= 0:
            raise ValueError("camera rate must be positive")
        if self.contact_position not in ("upper", "middle", "lower"):
            raise ValueError(f"unknown contact position {self.contact_position!r}")
        if self.occlusion_mode not in ("off", "confidence", "drift"):
            raise ValueError(f"unknown occlusion mode {self.occlusion_mode!r}")

    def contact_height(self, jaw_height: float) -> float:
        frac = {"lower": 0.25, "middle": 0.50, "upper": 0.78}[self.contact_position]
        return frac * jaw_height


@dataclass
class Observation:
    """Per-frame synthetic sensor output in the camera frame."""

    timestamp: float
    keypoints: np.ndarray
    confidence: np.ndarray
    visible: np.ndarray
    reference: np.ndarray
    pose_sample: Optional[PoseTransform] = None


@dataclass
class JawTruth:
    force: np.ndarray  # on the jaw, jaw frame
    candidate: int  # deepest-loaded candidate, -1 when free
    contact_point: Optional[np.ndarray]
    pose_jaw_from_obj: PoseTransform
    displacements: np.ndarray

    @property
    def force_scalar(self) -> float:
        """The component of ``force`` pressing into the inner surface."""
        return float(-self.force[0])


@dataclass
class GroundTruthFrame:
    timestamp: float
    stage: str
    recording: bool
    closure: float
    jaws: tuple[JawTruth, ...]


@dataclass
class FramePacket:
    truth: GroundTruthFrame
    observations: tuple[Observation, ...]


@dataclass
class RunManifest:
    seed: int
    stage_times: dict
    n_frames: int
    camera_hz: float
    duration: float


@dataclass
class ScenarioResult:
    frames: list[FramePacket]
    manifest: RunManifest


# ---------------------------------------------------------------------------
# Forward contact oracle

class ForwardContactModel:
    """Quasi-static penalty contact for one jaw against an analytic SDF.

    Builds two matrices from the system's unit-load fields at its n contact
    nodes once. ``load_fields`` (3n x 3 n_vertices): row (a, d) is the
    displacement of every jaw vertex under a unit load on node a along
    axis d. ``node_compliance`` (3n x 3n): row (i, b) and column (a, d)
    hold node i's displacement along axis b under that load, averaged with
    its transpose: reciprocal bit for bit, as a one-triangle Cholesky needs.

    A solve gathers the node-compliance block W of its m eligible nodes,
    those the undeformed jaw pushes into the object, and iterates on that
    block alone. Each pass evaluates the SDF at the deformed eligible
    nodes, linearises the penalty law there with g = B^T W B (B the
    block-diagonal matrix of the current normals), solves that linear
    complementarity problem for the non-negative normal forces as
    non-negative least squares on the Cholesky factor of g + I/k (in closed
    form for one node), and takes that solution whole. Where that iteration
    cycles, as it can when the SDF normals jump between the faces of a
    polyhedron, the solve starts again from the same state with half steps
    and logs a warning. Every solve starts from zero force at the rest
    shape and holds no state after it, so it is a pure function of the pose
    and the SDF, and the jaws of one engine share a model.
    """

    def __init__(self, system: StiffnessSystem, fixture: JawFixture,
                 cfg: ContactModelConfig):
        self.system = system
        self.fixture = fixture
        self.cfg = cfg
        if cfg.model == "point":
            self.node_ids = fixture.candidate_ids.copy()
        elif cfg.model == "distributed":
            self.node_ids = fixture.mesh.inner_surface_ids.copy()
        else:
            raise ValueError(f"unknown contact model {cfg.model!r}")
        # (loaded node, load axis, vertex, axis): one bank field per node
        fields = np.stack([f.transpose(2, 0, 1) for f in system.unit_load_fields(self.node_ids)])
        self.load_fields = fields.reshape(3 * len(self.node_ids), -1)
        w = self.load_fields[:, _dofs(self.node_ids)]
        self.node_compliance = 0.5 * (w + w.T)
        self.rest = fixture.mesh.vertices[self.node_ids]

    def _implicit_normal_forces(self, g: np.ndarray, depth: np.ndarray,
                                lam: np.ndarray) -> np.ndarray:
        """Non-negative normal force magnitudes solving the linearized
        penalty equilibrium lam = k * depth(lam) on the eligible nodes.
        ``g`` maps their normal forces to their normal displacements and
        ``depth`` is the penetration under the current forces ``lam``.

        With d_free the depth at zero normal force and M = g + I/k (SPD),
        the step is the linear complementarity problem lam >= 0,
        M lam - d_free >= 0, lam . (M lam - d_free) = 0, which is the
        non-negative least-squares problem min |L^T lam - L^-1 d_free| over
        lam >= 0 for M = L L^T; Lawson and Hanson's active-set method
        (``scipy.optimize.nnls``, imported on the first step that needs it)
        solves it. Raises ``ContactConvergenceError`` if that method hits
        its iteration cap. With one node, L = c = sqrt(g + 1/k) and the
        answer is max((d_free / c) / c, 0), which is the triple's result
        bit for bit, +0.0 included where d_free <= 0."""
        d_free = depth + g @ lam
        if len(g) == 1:
            c = math.sqrt(g[0, 0] + 1.0 / PENALTY_STIFFNESS)
            lam1 = (d_free[0] / c) / c
            return np.array([lam1 if lam1 > 0.0 else 0.0])
        import scipy.optimize  # deferred: point contact never reaches it
        chol = scipy.linalg.cholesky(g + np.eye(len(g)) / PENALTY_STIFFNESS, lower=True)
        rhs = scipy.linalg.solve_triangular(chol, d_free, lower=True)
        try:
            return scipy.optimize.nnls(chol.T, rhs)[0]
        except RuntimeError as exc:
            raise ContactConvergenceError(
                f"non-negative least-squares penalty step hit its iteration cap "
                f"over {len(g)} eligible nodes") from exc

    def solve(self, jaw_from_obj: PoseTransform, sdf: Callable):
        """Returns (per-node forces, net force, contact point, candidate).

        Point mode loads only the candidate with the deepest undeformed
        penetration (lowest index on ties); distributed mode resolves
        penalty forces on every penetrating inner node. The solve starts
        from zero force at the rest shape, so it is a pure function of the
        pose and the SDF. Each pass solves the penalty equilibrium
        linearised at the current deformation and takes that solution
        whole; the solve stops once no component of an eligible node's
        force differs by ``PENALTY_TOL`` or more from the force that gave
        the pass its deformation.
        """
        cfg = self.cfg
        obj_from_jaw = jaw_from_obj.inverse()
        forces = np.zeros((len(self.node_ids), 3))
        d0, _ = sdf(obj_from_jaw.apply(self.rest))
        idx = np.flatnonzero(d0 < 0.0)
        if len(idx) == 0:
            return forces, np.zeros(3), None, -1
        if cfg.model == "point":
            idx = np.array([np.argmin(d0)])

        m = len(idx)
        dofs = _dofs(idx)
        w = self.node_compliance[np.ix_(dofs, dofs)]
        rest = self.rest[idx]
        for step in _PENALTY_STEPS:
            lam, normals, residual = np.zeros(m), np.zeros((m, 3)), np.inf
            for _ in range(PENALTY_MAX_ITERS):
                # the normals are zero before the first pass, so it
                # evaluates the SDF at the rest shape
                applied = lam[:, None] * normals
                disp = (w @ applied.ravel()).reshape(m, 3)
                d, normals_obj = sdf(obj_from_jaw.apply(rest + disp))
                normals = normals_obj @ jaw_from_obj.rotation.T
                # g = B^T W B, B the (3m x m) block-diagonal matrix of the normals
                wb = (w.reshape(3 * m, m, 3) * normals).sum(axis=2)
                g = (normals[:, :, None] * wb.reshape(m, 3, m)).sum(axis=1)
                lam_target = self._implicit_normal_forces(g, -d, lam)
                residual = float(np.abs(lam_target[:, None] * normals - applied).max())
                lam = lam + step * (lam_target - lam)
                if residual < PENALTY_TOL:
                    break
            if residual < PENALTY_TOL:
                break
            logger.warning("penalty fixed point with step %g did not converge in %d "
                           "iterations: last residual %.3g N over %d eligible nodes",
                           step, PENALTY_MAX_ITERS, residual, m)
        else:
            raise ContactConvergenceError(
                f"penalty fixed point did not converge in {PENALTY_MAX_ITERS} iterations: "
                f"last residual {residual:.3g} N over {m} eligible nodes")
        block = lam[:, None] * normals
        forces[idx] = block
        net = block.sum(axis=0)
        candidate = -1
        contact_point = None
        if lam.max() > 0.0:
            pts = rest + (w @ block.ravel()).reshape(m, 3)
            contact_point = (pts * lam[:, None]).sum(axis=0) / lam.sum()
            loaded = int(idx[np.argmax(lam)])
            if cfg.model == "point":
                candidate = loaded
            else:
                candidate = int(np.argmin(
                    np.linalg.norm(self.fixture.candidate_positions
                                   - self.fixture.mesh.vertices[self.node_ids[loaded]],
                                   axis=1)))
        return forces, net, contact_point, candidate

    def full_displacement(self, forces: np.ndarray) -> np.ndarray:
        """Displacement of every jaw vertex under per-node ``forces``, from
        the ``load_fields`` rows of the nodes that carry force."""
        rows = _dofs(np.flatnonzero(forces.any(axis=1)))
        return (forces.ravel()[rows] @ self.load_fields[rows]).reshape(-1, 3)


def _dofs(nodes: np.ndarray) -> np.ndarray:
    """Row or column indices (node, axis) of ``nodes`` in a 3-per-node matrix."""
    return (3 * nodes[:, None] + np.arange(3)).ravel()


# ---------------------------------------------------------------------------
# Scene and engine

@dataclass
class JawRig:
    side: str  # "left" | "right"
    fixture: JawFixture
    system: StiffnessSystem
    contact_model: ForwardContactModel
    rot_world_from_jaw: np.ndarray  # checked once, at construction
    base_offset: float  # |world x| of the jaw origin at zero closure

    def __post_init__(self):
        self.rot_world_from_jaw = checked_rotation(self.rot_world_from_jaw)

    def origin(self, closure: float) -> np.ndarray:
        sign = -1.0 if self.side == "left" else 1.0
        return np.array([sign * (self.base_offset - closure), 0.0, 0.0])

    def world_from_jaw(self, closure: float) -> PoseTransform:
        return PoseTransform.trusted(self.rot_world_from_jaw, self.origin(closure),
                                     "g" + self.side[0], "w")


def _object_origin(scenario: Scenario, x_center: float, z_center: float) -> np.ndarray:
    return np.array([x_center, 0.0, z_center]) + np.asarray(scenario.object_offset)


def cached_system(mesh, material: MaterialModel) -> StiffnessSystem:
    """One stiffness system, with its factorization and field bank, per
    mesh content and material, from the process-wide registry. The
    builder looks ``assemble`` up in this module, where perfbench's
    tracer wraps it."""
    key = ("system", content_key(mesh.vertices, mesh.tets, mesh.fixed_vertex_ids,
                                 mesh.inner_surface_ids),
           material.youngs_modulus, material.poisson_ratio)
    return registered(key, lambda: assemble(mesh, material))


class LruMemo:
    """A map of at most ``MEMO_CAPACITY`` entries that forgets the least
    recently used one first. ``get`` returns None on a miss."""

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, entry):
        self._entries[key] = entry
        if len(self._entries) > MEMO_CAPACITY:
            self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def _locked(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if array is not None:
        array.flags.writeable = False
    return array


@dataclass
class SolvedContact:
    """One memoised contact solve: the object pose in the jaw frame, the
    penalty solve's (per-node forces, net force, contact point, candidate)
    and, once ``_jaw_truth`` has asked for it, the jaw's displacement
    field; every array write-locked."""

    pose: PoseTransform
    result: tuple
    displacements: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ObservationGeometry:
    """What one jaw's observation computes before it draws from the rng,
    write-locked: the keypoints in the world frame, which of them an
    occluder hides and where each ray first hits (NaN where none does), and
    the noise-free keypoints and reference point in the camera frame."""

    kp_world: np.ndarray
    occluded: np.ndarray
    drift_points: np.ndarray
    kp_cam: np.ndarray
    ref_cam: np.ndarray


class SimEngine:
    """Builds the scene for a scenario and steps ground truth plus
    synthetic observations under a commanded closure.

    The deterministic part of a frame is memoised, since the schedules come
    back to the same closures again and again: a static plateau repeats its
    closure on every frame, and every cycle repeats the plateaus.

    The SDF (``sdf``) and the object mesh (``object_mesh``), the occluder
    the rays are cast against, are made from the scenario's shape and are
    fixed for the engine's life, so no memo key holds them.

    - ``_solves``, one ``LruMemo`` per rig, holds a ``SolvedContact`` per
      pose, keyed by the bytes of the pose's translation: the rig's
      rotation is fixed. A solve starts cold, so it is a pure function of
      the pose.
    - ``_views``, one ``LruMemo`` per jaw, holds its
      ``ObservationGeometry``, keyed by the bytes of the closure and the
      object's grasp-axis position, which fix every jaw's pose and
      deformation. It is not keyed by the pose: distinct closures can
      share a jaw pose, since ``world_from_jaw(closure)`` differs from
      them in the last bits.

    Each memo keeps ``MEMO_CAPACITY`` entries and forgets the least
    recently used first. The memos live as long as their engine and are
    never shared between engines; ``pipeline.run_estimation`` builds a
    fresh engine for each run, so separate runs share nothing. A hit
    returns the same arrays and draws nothing from the rng, so a run's
    outputs are those of the same run without the memos. ``work`` counts
    the penalty solves and occluder casts run and those the memos skipped.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        fixture = canonical_jaw()
        sides = ("left", "right") if scenario.dual_jaw else ("left",)
        self.rigs: list[JawRig] = []
        depth = fixture.params.depth
        system = cached_system(fixture.mesh, MaterialModel())
        model = ForwardContactModel(system, fixture, scenario.contact)
        for side in sides:
            rot = np.eye(3) if side == "left" else rot_z(math.pi)
            self.rigs.append(JawRig(side, fixture, system, model, rot,
                                    JAW_GAP / 2.0 + depth / 2.0))
        self.fixture = fixture
        # each jaw occludes the other's keypoints: one surface per rig,
        # refit to that jaw's deformation on every observation
        self._occluders = ([DeformableSurface(fixture.mesh.surface()) for _ in self.rigs]
                           if len(self.rigs) > 1 and scenario.occlusion_mode != "off" else [])
        self.object_mesh = make_object_mesh(scenario.shape)
        self.sdf = make_sdf(scenario.shape)
        self.world_from_cam = look_at(np.asarray(scenario.camera_eye),
                                      np.asarray(CAMERA_TARGET))
        self.cam_from_world = self.world_from_cam.inverse()
        self.z_contact = scenario.contact_height(fixture.params.height)
        self.rng = np.random.default_rng(np.random.SeedSequence(scenario.seed))
        # rotations fixed for the scenario and its rigs, checked once here
        self._rot_world_from_obj = checked_rotation(rot_z(math.radians(scenario.object_yaw_deg)))
        self._rot_jaw_from_obj = [
            checked_rotation(rig.rot_world_from_jaw.T @ self._rot_world_from_obj)
            for rig in self.rigs]
        self._rot_cam_from_obj = checked_rotation(
            self.cam_from_world.rotation @ self._rot_world_from_obj)
        self._solves = [LruMemo() for _ in self.rigs]
        self._views = [LruMemo() for _ in self.rigs]
        self.work: Counter = Counter()
        self._rho = [0.0 for _ in self.rigs]  # viscous relaxation state
        self._object_x = self._initial_object_x()
        self._pose_frame_period = max(1, round(scenario.camera_hz / POSE_HZ))

    # -- object placement ---------------------------------------------------

    def _object_half_extent_x(self) -> float:
        x = self.object_mesh.vertices @ self._rot_world_from_obj.T[:, 0]
        return float(max(x.max(), -x.min()))

    def _initial_object_x(self) -> float:
        sc = self.scenario
        if sc.dual_jaw:
            return 0.0
        # single jaw: object surface sits `clearance` from the untouched
        # inner face (which lies at world -JAW_GAP/2 at zero closure)
        half = self._object_half_extent_x()
        return -JAW_GAP / 2.0 + sc.clearance_mm * 1e-3 + half

    # -- ground truth -------------------------------------------------------

    def _solve_contact(self, idx: int, closure: float, object_x: float) -> SolvedContact:
        """Object pose in the jaw frame and the jaw's penalty solve, from
        the rig's memo when it holds that pose. The bisection,
        ``_jaw_truth``, every frame of a static plateau and every cycle of
        a static schedule ask for the same poses again; a hit returns the
        same objects without solving, so a half-step warning is not logged
        again."""
        rig = self.rigs[idx]
        r = self._rot_jaw_from_obj[idx]
        t = rig.rot_world_from_jaw.T @ (
            _object_origin(self.scenario, object_x, self.z_contact) - rig.origin(closure))
        key = t.tobytes()
        solved = self._solves[idx].get(key)
        if solved is not None:
            self.work["solves_skipped"] += 1
            return solved
        self.work["solves_run"] += 1
        jaw_from_obj = PoseTransform.trusted(r, t, "o", "g")
        forces, net, contact_point, candidate = rig.contact_model.solve(jaw_from_obj, self.sdf)
        return self._solves[idx].put(key, SolvedContact(
            jaw_from_obj, (_locked(forces), _locked(net), _locked(contact_point), candidate)))

    def _jaw_truth(self, idx: int, closure: float, object_x: float) -> JawTruth:
        solved = self._solve_contact(idx, closure, object_x)
        forces, net, contact_point, candidate = solved.result
        if solved.displacements is None:
            solved.displacements = _locked(
                self.rigs[idx].contact_model.full_displacement(forces))
        return JawTruth(
            force=net,
            candidate=candidate,
            contact_point=contact_point,
            pose_jaw_from_obj=solved.pose,
            displacements=solved.displacements,
        )

    def _net_object_force_x(self, closure: float, object_x: float) -> float:
        total = 0.0
        for idx, rig in enumerate(self.rigs):
            net = self._solve_contact(idx, closure, object_x).result[1]
            f_world = rig.rot_world_from_jaw @ net
            total -= f_world[0]  # reaction on the object
        return total

    def _solve_object_equilibrium(self, closure: float) -> float:
        """Grasp-axis position where jaw reactions on the object balance
        (net force decreases as the object moves toward +x)."""
        x = self._object_x
        f = self._net_object_force_x(closure, x)
        if abs(f) <= 1e-7:
            return x
        # expand a bracket in the force direction; keeping steps small
        # avoids unphysical deep-overlap states where sdf normals flip
        step = 1e-4 if f > 0 else -1e-4
        a, fa = x, f
        b, fb = a, fa
        for _ in range(40):
            b = a + step
            fb = self._net_object_force_x(closure, b)
            if fa * fb <= 0.0:
                break
            a, fa = b, fb
            step *= 1.8
        else:
            logger.warning("no object equilibrium bracket at closure %.9g m: net force "
                           "%.3g N at x = %.9g m; keeping the previous position",
                           closure, f, x)
            return x
        for _ in range(100):
            mid = 0.5 * (a + b)
            fm = self._net_object_force_x(closure, mid)
            if abs(fm) <= 1e-7:
                return mid
            if abs(b - a) < 1e-15:
                break
            if fa * fm <= 0.0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        logger.warning("object equilibrium bisection at closure %.9g m stopped with "
                       "residual net force %.3g N", closure, fm)
        return mid

    def step_truth(self, t: float, closure: float, stage: str = "",
                   recording: bool = False, dt: float | None = None) -> GroundTruthFrame:
        sc = self.scenario
        if sc.dual_jaw:
            self._object_x = self._solve_object_equilibrium(closure)
        jaws = tuple(self._jaw_truth(i, closure, self._object_x)
                     for i in range(len(self.rigs)))
        if dt is not None and sc.contact.viscous_gamma > 0.0:
            jaws = tuple(self._apply_inelastic(i, jt, dt) for i, jt in enumerate(jaws))
        return GroundTruthFrame(t, stage, recording, closure, jaws)

    def _apply_inelastic(self, idx: int, jt: JawTruth, dt: float) -> JawTruth:
        """Surrogate slow stress relaxation: the reported force decays by
        the jaw's relaxation state while in contact and recovers out of
        it. Deformation stays elastic."""
        cfg = self.scenario.contact
        in_contact = 1.0 if jt.candidate >= 0 else 0.0
        rho = self._rho[idx]
        rho += dt * (cfg.viscous_gamma * in_contact - rho) / cfg.viscous_tau
        self._rho[idx] = rho
        force = (1.0 - rho) * jt.force
        return replace(jt, force=force)

    # -- synthetic sensor ---------------------------------------------------

    def _observation_geometry(self, truth: GroundTruthFrame,
                              jaw_index: int) -> ObservationGeometry:
        """The jaw's ``ObservationGeometry`` under ``truth``, from the jaw's
        memo when it holds this closure and object position. With
        occlusion on, rays to the keypoints are cast against the object
        and the other jaw; the other jaw's surface is refit to its
        deformation, not rebuilt. An occluder whose box the rays' box
        misses is not cast at, so the other jaw's tree is only refit, or
        first built, on frames whose rays can reach it."""
        sc = self.scenario
        n_occluders = len(self.rigs) if sc.occlusion_mode != "off" else 0
        key = np.array((truth.closure, self._object_x)).tobytes()
        geometry = self._views[jaw_index].get(key)
        if geometry is not None:
            self.work["casts_skipped"] += n_occluders
            return geometry
        self.work["casts_run"] += n_occluders
        rig = self.rigs[jaw_index]
        jt = truth.jaws[jaw_index]
        world_from_jaw = rig.world_from_jaw(truth.closure)
        kp_ids = rig.fixture.keypoint_ids
        kp_jaw = rig.fixture.mesh.vertices[kp_ids] + jt.displacements[kp_ids]
        kp_world = world_from_jaw.apply(kp_jaw)
        ref_world = world_from_jaw.apply(rig.fixture.mesh.vertices[rig.fixture.reference_id])

        n_kp = len(kp_ids)
        occluded = np.zeros(n_kp, dtype=bool)
        drift_points = np.full((n_kp, 3), np.nan)
        if n_occluders:
            hit_t = np.full(n_kp, np.inf)
            origins = np.broadcast_to(self.world_from_cam.translation, (n_kp, 3))
            world_from_obj = PoseTransform.trusted(
                self._rot_world_from_obj, _object_origin(sc, self._object_x, self.z_contact),
                "o", "w")
            occluder_meshes = [(world_from_obj, self.object_mesh)]
            for other in range(len(self.rigs)):
                if other == jaw_index:
                    continue
                other_rig = self.rigs[other]
                surf = self._occluders[other]
                surf.update(other_rig.fixture.mesh.vertices + truth.jaws[other].displacements)
                occluder_meshes.append((other_rig.world_from_jaw(truth.closure), surf))
            for world_from_frame, mesh in occluder_meshes:
                frame_from_world = world_from_frame.inverse()
                o_local = frame_from_world.apply(origins)
                t_local = frame_from_world.apply(kp_world)
                hit_t = np.minimum(hit_t, _occluder_hits(mesh, o_local, t_local))
            occluded = np.isfinite(hit_t)
            drift_points = origins + hit_t[:, None] * (kp_world - origins)
        arrays = (kp_world, occluded, drift_points, self.cam_from_world.apply(kp_world),
                  self.cam_from_world.apply(ref_world))
        return self._views[jaw_index].put(
            key, ObservationGeometry(*(_locked(a) for a in arrays)))

    def render_observation(self, truth: GroundTruthFrame, jaw_index: int) -> Observation:
        """Synthetic camera frame for one jaw, for the ``truth`` this
        engine's ``step_truth`` just returned. Everything before the first
        draw from the rng, the keypoints' world and camera positions and
        their occlusion, comes from ``_observation_geometry``, which the
        jaw's memo answers for a closure and object position it has seen.
        The noise, the confidences and the drift are drawn on every frame,
        in the same order with or without the memo."""
        sc = self.scenario
        noise = sc.noise
        rng = self.rng
        geometry = self._observation_geometry(truth, jaw_index)
        kp_cam, ref_cam, occluded = geometry.kp_cam, geometry.ref_cam, geometry.occluded
        cam_pos = self.world_from_cam.translation
        n_kp = len(kp_cam)
        confidence = np.empty(n_kp)
        visible = ~occluded
        mu_v, sd_v = CONFIDENCE_VISIBLE
        confidence[:] = np.clip(mu_v + sd_v * rng.standard_normal(n_kp), 0.0, 1.0)
        if occluded.any():
            if sc.occlusion_mode == "confidence":
                mu_o, sd_o = CONFIDENCE_OCCLUDED
                confidence[occluded] = np.clip(
                    mu_o + sd_o * rng.standard_normal(int(occluded.sum())), 0.0, 1.0)
            else:  # drift: confidently wrong, surface hit or background
                mu_d, sd_d = CONFIDENCE_DRIFT
                confidence[occluded] = np.clip(
                    mu_d + sd_d * rng.standard_normal(int(occluded.sum())), 0.0, 1.0)
                kp_cam = kp_cam.copy()
                for k in np.flatnonzero(occluded):
                    if rng.random() < noise.drift_background_prob:
                        direction = geometry.kp_world[k] - cam_pos
                        direction = direction / np.linalg.norm(direction)
                        kp_cam[k] = self.cam_from_world.apply(cam_pos + 0.6 * direction)
                    else:
                        kp_cam[k] = self.cam_from_world.apply(geometry.drift_points[k])
        if noise.keypoint_sigma > 0.0:
            kp_cam = kp_cam + noise.keypoint_sigma * rng.standard_normal((n_kp, 3))
            ref_cam = ref_cam + 0.5 * noise.keypoint_sigma * rng.standard_normal(3)

        pose_sample = None
        frame_idx = int(round(truth.timestamp * sc.camera_hz))
        if frame_idx % self._pose_frame_period == 0:
            cam_from_obj = PoseTransform.trusted(
                self._rot_cam_from_obj,
                self.cam_from_world.apply(_object_origin(sc, self._object_x, self.z_contact)),
                "o", "c")
            if noise.pose_rot_deg > 0.0 or noise.pose_trans_sigma > 0.0:
                axis = rng.standard_normal(3)
                angle = math.radians(noise.pose_rot_deg) * rng.standard_normal()
                r_noise = rotation_about(axis, angle)
                t_noise = noise.pose_trans_sigma * rng.standard_normal(3)
                cam_from_obj = PoseTransform(
                    r_noise @ cam_from_obj.rotation,
                    cam_from_obj.translation + t_noise, "o", "c")
            pose_sample = cam_from_obj
        return Observation(
            timestamp=truth.timestamp,
            keypoints=kp_cam,
            confidence=confidence,
            visible=visible,
            reference=ref_cam,
            pose_sample=pose_sample,
        )

    def jaw_cam_rotation(self, jaw_index: int) -> np.ndarray:
        """Known jaw-from-camera rotation (rig geometry, camera mount)."""
        rig = self.rigs[jaw_index]
        return rig.rot_world_from_jaw.T @ self.world_from_cam.rotation

    def frame(self, t: float, closure: float, stage: str = "",
              recording: bool = False, dt: float | None = None) -> FramePacket:
        truth = self.step_truth(t, closure, stage, recording, dt)
        obs = tuple(self.render_observation(truth, i) for i in range(len(self.rigs)))
        return FramePacket(truth, obs)


def _occluder_hits(mesh, origins: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """First hit fraction of each segment origin -> target on ``mesh``
    within (1e-9, 1 - 1e-6), +inf where it is unobstructed. When the
    segments' box misses ``mesh.bounds()`` widened by ``_BOX_MARGIN``, no
    segment can enter the tree's root box, which its slab test widens as
    much, so every fraction is +inf without asking ``mesh.bvh()``, which
    would build or refit the tree."""
    lo, hi = mesh.bounds()
    seg_lo = np.minimum(origins.min(axis=0), targets.min(axis=0))
    seg_hi = np.maximum(origins.max(axis=0), targets.max(axis=0))
    if np.any(seg_lo > hi + _BOX_MARGIN) or np.any(seg_hi < lo - _BOX_MARGIN):
        return np.full(len(origins), np.inf)
    return mesh.bvh().first_hit_fraction(origins, targets)


# ---------------------------------------------------------------------------
# Schedules

def static_profile(schedule: ScheduleConfig, camera_hz: float):
    """(time, closure, stage, recording) tuples for the plateau cycles."""
    dt = 1.0 / camera_hz
    seq = []
    plateaus = [p * 1e-3 for p in schedule.plateaus_mm]
    t = 0.0
    prev = 0.0
    for cycle in range(schedule.cycles):
        peak = max(plateaus)
        seen_peak = False
        for i, target in enumerate(plateaus):
            if target == peak:
                seen_peak = True
            if target == 0.0:
                stage = "pre" if not seen_peak else "post"
            else:
                stage = "load" if not seen_peak or target == peak else "unload"
            n_ramp = max(1, round(schedule.ramp_s * camera_hz))
            for k in range(n_ramp):
                alpha = (k + 1) / n_ramp
                seq.append((t, prev + alpha * (target - prev), stage, False))
                t += dt
            for k in range(max(0, round(schedule.settle_s * camera_hz))):
                seq.append((t, target, stage, False))
                t += dt
            for k in range(max(1, round(schedule.record_s * camera_hz))):
                seq.append((t, target, stage, True))
                t += dt
            prev = target
    return seq


def run_scenario(scenario: Scenario, engine: SimEngine | None = None,
                 packet_hook: Callable[[int, FramePacket], None] | None = None,
                 keep_frames: bool | None = None) -> ScenarioResult:
    """Execute the scenario schedule.

    ``packet_hook`` receives each frame as it is produced (streaming
    consumers); ``keep_frames`` defaults to False when a hook is given so
    long runs do not hold every displacement field in memory. The penalty
    solves and occluder casts the run made, and those the engine's memos
    skipped, are logged at DEBUG level.
    """
    eng = engine or SimEngine(scenario)
    work_before = Counter(eng.work)
    sched = scenario.schedule
    dt = 1.0 / scenario.camera_hz
    if keep_frames is None:
        keep_frames = packet_hook is None
    frames: list[FramePacket] = []
    n_frames = 0

    def emit(pkt: FramePacket) -> None:
        nonlocal n_frames
        if packet_hook is not None:
            packet_hook(n_frames, pkt)
        if keep_frames:
            frames.append(pkt)
        n_frames += 1

    stage_times: dict = {}
    if sched.kind == "static":
        profile = static_profile(sched, scenario.camera_hz)
        transitions = []
        last_stage = None
        for t, closure, stage, recording in profile:
            if stage != last_stage:
                transitions.append((t, stage))
                last_stage = stage
            emit(eng.frame(t, closure, stage, recording, dt))
        stage_times["transitions"] = transitions
        duration = profile[-1][0] + dt if profile else 0.0
    elif sched.kind == "grasp":
        speed = sched.closing_speed_mm_s * 1e-3
        max_closure = sched.max_closure_mm * 1e-3
        closure = 0.0
        t = 0.0
        phase = "pre"
        hold_until = np.inf
        while True:
            truth = eng.step_truth(t, closure, phase, True, dt)
            grasp = min(j.force_scalar for j in truth.jaws)
            if phase == "pre" and grasp > RELEASE_THRESHOLD_N:
                phase = "load"
                stage_times["stage1"] = t
            if phase in ("pre", "load") and (grasp >= sched.target_force
                                             or closure >= max_closure):
                phase = "hold"
                stage_times["stage2"] = t
                hold_until = t + sched.hold_s
            elif phase == "hold" and t >= hold_until:
                phase = "unload"
                stage_times["stage3"] = t
            elif phase == "unload" and grasp <= RELEASE_THRESHOLD_N:
                phase = "post"
                stage_times["stage4"] = t
            truth = replace(truth, stage=phase)
            obs = tuple(eng.render_observation(truth, i) for i in range(len(eng.rigs)))
            emit(FramePacket(truth, obs))
            if phase in ("pre", "load"):
                closure = min(closure + speed * dt, max_closure)
            elif phase in ("unload", "post"):
                closure = max(0.0, closure - speed * dt)
            t += dt
            if phase == "post" and closure == 0.0:
                break
            if t > 600.0:
                raise RuntimeError("grasp schedule failed to terminate")
        duration = t
    else:
        raise ValueError(f"unknown schedule kind {sched.kind!r}")
    work = eng.work - work_before
    logger.debug("oracle work over %d frames: penalty solves %d run, %d skipped; "
                  "occluder casts %d run, %d skipped", n_frames, work["solves_run"],
                  work["solves_skipped"], work["casts_run"], work["casts_skipped"])
    manifest = RunManifest(
        seed=scenario.seed,
        stage_times=stage_times,
        n_frames=n_frames,
        camera_hz=scenario.camera_hz,
        duration=duration,
    )
    return ScenarioResult(frames, manifest)


# ---------------------------------------------------------------------------
# Synthetic scans for the calibration pipeline

def synthetic_scan(mesh: SurfaceMesh, camera: CameraModel, depth_sigma: float = 0.001,
                   seed: int = 0) -> PointCloud:
    """Partial-view scan of a mesh posed in the camera frame with range
    noise along each viewing ray."""
    pv = partial_view(mesh, camera)
    pts = pv.points
    if depth_sigma > 0.0:
        rng = np.random.default_rng(seed)
        ranges = np.linalg.norm(pts, axis=1, keepdims=True)
        rays = pts / ranges
        pts = pts + rays * (depth_sigma * rng.standard_normal((len(pts), 1)))
    return PointCloud(pts)
