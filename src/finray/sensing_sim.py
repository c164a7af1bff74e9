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

import hashlib
import logging
import math
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.optimize

from .contact_localizer import PoseTransform, look_at, rot_z, rotation_about
from .fem_core import MaterialModel, StiffnessSystem, assemble
from .fixtures import JawFixture, ShapeSpec, canonical_jaw, make_object_mesh, make_sdf
from .mesh_calibration import CameraModel, PointCloud, partial_view
from .mesh_model import DeformableSurface, SurfaceMesh

logger = logging.getLogger(__name__)


class ContactConvergenceError(RuntimeError):
    """Penalty fixed point failed to converge, or one pass's non-negative
    least-squares step hit its iteration cap."""


# fraction of the linearised penalty step taken per pass: the full step,
# then, when it does not converge (it can cycle where the SDF normals jump
# between the faces of a polyhedron), the half step from the same start
_PENALTY_STEPS = (1.0, 0.5)


@dataclass(frozen=True)
class NoiseConfig:
    keypoint_sigma: float = 0.001
    pose_rot_deg: float = 2.0
    pose_trans_sigma: float = 0.002
    confidence_visible: tuple[float, float] = (0.95, 0.02)
    confidence_occluded: tuple[float, float] = (0.2, 0.1)
    confidence_drift: tuple[float, float] = (0.9, 0.05)
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

    ``stiffness`` is the penalty stiffness in N/m. Each pass of a solve
    takes the full linearised penalty step, a non-negative least-squares
    problem that Lawson and Hanson's active-set method solves exactly; the
    solve has converged once a pass changes no component of an eligible
    node's force by ``tol`` (N) or more. After ``max_iters`` passes without
    converging it starts again with half steps, and after as many more
    raises ``ContactConvergenceError``. That error is also raised if one
    step's active-set method reaches its cap of three iterations per
    eligible node, the only way a step can fail.
    """

    stiffness: float = 1e6
    tol: float = 1e-8
    max_iters: int = 200
    model: str = "point"
    viscous_gamma: float = 0.0
    viscous_tau: float = 25.0


@dataclass(frozen=True)
class ScheduleConfig:
    kind: str = "static"  # static | grasp
    plateaus_mm: tuple = (0, 2, 4, 6, 8, 10, 8, 6, 4, 2, 0)
    ramp_s: float = 0.2
    settle_s: float = 0.2
    record_s: float = 0.3
    cycles: int = 5
    closing_speed_mm_s: float = 1.0
    target_force: float = 5.0
    hold_s: float = 6.0
    release_threshold: float = 0.02
    max_closure_mm: float = 14.0


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: object, contact placement, schedule, sensor
    noise, occlusion mode, frame rates, and the seed."""

    shape: ShapeSpec = field(default_factory=ShapeSpec)
    contact_position: str = "middle"  # upper | middle | lower
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig.ideal)
    contact: ContactModelConfig = field(default_factory=ContactModelConfig)
    occlusion_mode: str = "off"  # off | confidence | drift
    camera_hz: float = 30.0
    pose_hz: float = 10.0
    seed: int = 0
    dual_jaw: bool = False
    gap: float = 0.048
    clearance_mm: float = 0.5
    object_yaw_deg: float = 0.0
    object_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    camera_eye: tuple[float, float, float] = (0.02, 0.09, 0.16)
    camera_target: tuple[float, float, float] = (0.0, 0.0, 0.045)
    material_e: float = 26e6
    material_nu: float = 0.48

    def __post_init__(self):
        if self.camera_hz <= 0 or self.pose_hz <= 0:
            raise ValueError("frame rates must be positive")
        if self.contact_position not in ("upper", "middle", "lower"):
            raise ValueError(f"unknown contact position {self.contact_position!r}")

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
    force_scalar: float  # component pressing into the inner surface
    candidate: int  # deepest-loaded candidate, -1 when free
    contact_point: Optional[np.ndarray]
    pose_jaw_from_obj: PoseTransform
    displacements: np.ndarray


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
    hold node i's displacement along axis b under that load.

    A solve gathers the node-compliance block W of its m eligible nodes,
    those the undeformed jaw pushes into the object, and iterates on that
    block alone. Each pass evaluates the SDF at the deformed eligible
    nodes, linearises the penalty law there with g = B^T W B (B the
    block-diagonal matrix of the current normals), solves that linear
    complementarity problem for the non-negative normal forces as
    non-negative least squares on the Cholesky factor of g + I/k, and
    takes that solution whole. Where that iteration cycles, as it can when
    the SDF normals jump between the faces of a polyhedron, the solve
    starts again from the same state with half steps and logs a warning.
    Holds no state between solves, so the jaws of one engine share a
    model.
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
        self.node_compliance = np.ascontiguousarray(self.load_fields[:, _dofs(self.node_ids)].T)
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
        (``scipy.optimize.nnls``) solves it. Raises
        ``ContactConvergenceError`` if that method hits its iteration cap."""
        d_free = depth + g @ lam
        chol = scipy.linalg.cholesky(g + np.eye(len(g)) / self.cfg.stiffness, lower=True)
        rhs = scipy.linalg.solve_triangular(chol, d_free, lower=True)
        try:
            return scipy.optimize.nnls(chol.T, rhs)[0]
        except RuntimeError as exc:
            raise ContactConvergenceError(
                f"non-negative least-squares penalty step hit its iteration cap "
                f"over {len(g)} eligible nodes") from exc

    def solve(self, jaw_from_obj: PoseTransform,
              sdf: Callable, forces0: np.ndarray | None = None):
        """Returns (per-node forces, net force, contact point, candidate).

        Point mode loads only the candidate with the deepest undeformed
        penetration (lowest index on ties); distributed mode resolves
        penalty forces on every penetrating inner node. ``forces0`` warm-
        starts the force magnitudes. Each pass solves the penalty
        equilibrium linearised at the current deformation and takes that
        solution whole; the solve stops once no component of an eligible
        node's force differs by ``tol`` or more from the force that gave
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
        lam0 = np.zeros(m) if forces0 is None else np.linalg.norm(forces0[idx], axis=1)
        for step in _PENALTY_STEPS:
            lam, normals, residual = lam0, np.zeros((m, 3)), np.inf
            for _ in range(cfg.max_iters):
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
                if residual < cfg.tol:
                    break
            if residual < cfg.tol:
                break
            logger.warning("penalty fixed point with step %g did not converge in %d "
                           "iterations: last residual %.3g N over %d eligible nodes",
                           step, cfg.max_iters, residual, m)
        else:
            raise ContactConvergenceError(
                f"penalty fixed point did not converge in {cfg.max_iters} iterations: "
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
    rot_world_from_jaw: np.ndarray
    base_offset: float  # |world x| of the jaw origin at zero closure

    def world_from_jaw(self, closure: float) -> PoseTransform:
        sign = -1.0 if self.side == "left" else 1.0
        t = np.array([sign * (self.base_offset - closure), 0.0, 0.0])
        return PoseTransform(self.rot_world_from_jaw, t, "g" + self.side[0], "w")


def _object_world_pose(scenario: Scenario, x_center: float, z_center: float) -> PoseTransform:
    rot = rot_z(math.radians(scenario.object_yaw_deg))
    t = np.array([x_center, 0.0, z_center]) + np.asarray(scenario.object_offset)
    return PoseTransform(rot, t, "o", "w")


_SYSTEM_CACHE: dict = {}
_SYSTEM_LOCK = threading.Lock()


def cached_system(mesh, material: MaterialModel) -> StiffnessSystem:
    """One stiffness system, with its factorization and field bank, per
    mesh content and material; shared across engines, jaws and threads."""
    digest = hashlib.sha256()
    for arr in (mesh.vertices, mesh.tets, mesh.fixed_vertex_ids, mesh.inner_surface_ids):
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    key = (digest.hexdigest(), material.youngs_modulus, material.poisson_ratio)
    with _SYSTEM_LOCK:
        if key not in _SYSTEM_CACHE:
            _SYSTEM_CACHE[key] = assemble(mesh, material)
        return _SYSTEM_CACHE[key]


class SimEngine:
    """Builds the scene for a scenario and steps ground truth plus
    synthetic observations under a commanded closure."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        fixture = canonical_jaw()
        material = MaterialModel(scenario.material_e, scenario.material_nu)
        sides = ("left", "right") if scenario.dual_jaw else ("left",)
        self.rigs: list[JawRig] = []
        depth = fixture.params.depth
        system = cached_system(fixture.mesh, material)
        model = ForwardContactModel(system, fixture, scenario.contact)
        for side in sides:
            rot = np.eye(3) if side == "left" else rot_z(math.pi)
            self.rigs.append(JawRig(side, fixture, system, model, rot,
                                    scenario.gap / 2.0 + depth / 2.0))
        self.fixture = fixture
        # each jaw occludes the other's keypoints: one surface per rig,
        # refit to that jaw's deformation on every observation
        self._occluders = ([DeformableSurface(fixture.mesh.surface()) for _ in self.rigs]
                           if len(self.rigs) > 1 and scenario.occlusion_mode != "off" else [])
        self.object_mesh = make_object_mesh(scenario.shape)
        self.sdf = make_sdf(scenario.shape)
        self.world_from_cam = look_at(np.asarray(scenario.camera_eye),
                                      np.asarray(scenario.camera_target))
        self.cam_from_world = self.world_from_cam.inverse()
        self.z_contact = scenario.contact_height(fixture.params.height)
        self.rng = np.random.default_rng(np.random.SeedSequence(scenario.seed))
        self._prev_forces = [None for _ in self.rigs]
        self._rho = [0.0 for _ in self.rigs]  # viscous relaxation state
        self._object_x = self._initial_object_x()
        self._pose_frame_period = max(1, round(scenario.camera_hz / scenario.pose_hz))

    # -- object placement ---------------------------------------------------

    def _object_half_extent_x(self) -> float:
        rot = rot_z(math.radians(self.scenario.object_yaw_deg))
        x = self.object_mesh.vertices @ rot.T[:, 0]
        return float(max(x.max(), -x.min()))

    def _initial_object_x(self) -> float:
        sc = self.scenario
        if sc.dual_jaw:
            return 0.0
        # single jaw: object surface sits `clearance` from the untouched
        # inner face (which lies at world -gap/2 at zero closure)
        half = self._object_half_extent_x()
        return -sc.gap / 2.0 + sc.clearance_mm * 1e-3 + half

    # -- ground truth -------------------------------------------------------

    def _solve_contact(self, idx: int, closure: float, object_x: float):
        """Object pose in the jaw frame and the jaw's penalty solve,
        warm-started from and updating the jaw's previous node forces."""
        world_from_jaw = self.rigs[idx].world_from_jaw(closure)
        world_from_obj = _object_world_pose(self.scenario, object_x, self.z_contact)
        r = world_from_jaw.rotation.T @ world_from_obj.rotation
        t = world_from_jaw.rotation.T @ (world_from_obj.translation - world_from_jaw.translation)
        jaw_from_obj = PoseTransform(r, t, "o", "g")
        result = self.rigs[idx].contact_model.solve(
            jaw_from_obj, self.sdf, self._prev_forces[idx])
        self._prev_forces[idx] = result[0]
        return jaw_from_obj, result

    def _jaw_truth(self, idx: int, closure: float, object_x: float) -> JawTruth:
        jaw_from_obj, (forces, net, contact_point, candidate) = self._solve_contact(
            idx, closure, object_x)
        disp = self.rigs[idx].contact_model.full_displacement(forces)
        return JawTruth(
            force=net,
            force_scalar=float(-net[0]),
            candidate=candidate,
            contact_point=contact_point,
            pose_jaw_from_obj=jaw_from_obj,
            displacements=disp,
        )

    def _net_object_force_x(self, closure: float, object_x: float) -> float:
        total = 0.0
        for idx, rig in enumerate(self.rigs):
            _, (_, net, _, _) = self._solve_contact(idx, closure, object_x)
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
        return replace(jt, force=force, force_scalar=float(-force[0]))

    # -- synthetic sensor ---------------------------------------------------

    def render_observation(self, truth: GroundTruthFrame, jaw_index: int) -> Observation:
        """Synthetic camera frame for one jaw. With occlusion on, rays to
        the keypoints are cast against the object and the other jaw; the
        other jaw's surface is refit to its deformation, not rebuilt."""
        sc = self.scenario
        rig = self.rigs[jaw_index]
        jt = truth.jaws[jaw_index]
        noise = sc.noise
        rng = self.rng
        world_from_jaw = rig.world_from_jaw(truth.closure)
        kp_ids = rig.fixture.keypoint_ids
        kp_jaw = rig.fixture.mesh.vertices[kp_ids] + jt.displacements[kp_ids]
        kp_world = world_from_jaw.apply(kp_jaw)
        ref_world = world_from_jaw.apply(rig.fixture.mesh.vertices[rig.fixture.reference_id])
        cam_pos = self.world_from_cam.translation

        n_kp = len(kp_ids)
        occluded = np.zeros(n_kp, dtype=bool)
        drift_points = np.full((n_kp, 3), np.nan)
        if sc.occlusion_mode != "off":
            hit_t = np.full(n_kp, np.inf)
            origins = np.broadcast_to(cam_pos, (n_kp, 3))
            occluder_meshes = [( _object_world_pose(sc, self._object_x, self.z_contact),
                                 self.object_mesh)]
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
                t_hit = mesh.bvh().first_hit_fraction(o_local, t_local, t_hi=1.0 - 1e-6)
                hit_t = np.minimum(hit_t, t_hit)
            occluded = np.isfinite(hit_t)
            drift_points = origins + hit_t[:, None] * (kp_world - origins)

        kp_cam = self.cam_from_world.apply(kp_world)
        ref_cam = self.cam_from_world.apply(ref_world)
        confidence = np.empty(n_kp)
        visible = ~occluded
        mu_v, sd_v = noise.confidence_visible
        confidence[:] = np.clip(mu_v + sd_v * rng.standard_normal(n_kp), 0.0, 1.0)
        if occluded.any():
            if sc.occlusion_mode == "confidence":
                mu_o, sd_o = noise.confidence_occluded
                confidence[occluded] = np.clip(
                    mu_o + sd_o * rng.standard_normal(int(occluded.sum())), 0.0, 1.0)
            else:  # drift: confidently wrong, surface hit or background
                mu_d, sd_d = noise.confidence_drift
                confidence[occluded] = np.clip(
                    mu_d + sd_d * rng.standard_normal(int(occluded.sum())), 0.0, 1.0)
                for k in np.flatnonzero(occluded):
                    if rng.random() < noise.drift_background_prob:
                        direction = kp_world[k] - cam_pos
                        direction = direction / np.linalg.norm(direction)
                        kp_cam[k] = self.cam_from_world.apply(cam_pos + 0.6 * direction)
                    else:
                        kp_cam[k] = self.cam_from_world.apply(drift_points[k])
        if noise.keypoint_sigma > 0.0:
            kp_cam = kp_cam + noise.keypoint_sigma * rng.standard_normal((n_kp, 3))
            ref_cam = ref_cam + 0.5 * noise.keypoint_sigma * rng.standard_normal(3)

        pose_sample = None
        frame_idx = int(round(truth.timestamp * sc.camera_hz))
        if frame_idx % self._pose_frame_period == 0:
            world_from_obj = _object_world_pose(sc, self._object_x, self.z_contact)
            cam_from_obj = PoseTransform(
                self.cam_from_world.rotation @ world_from_obj.rotation,
                self.cam_from_world.apply(world_from_obj.translation),
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
    long runs do not hold every displacement field in memory.
    """
    eng = engine or SimEngine(scenario)
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
            if phase == "pre" and grasp > sched.release_threshold:
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
            elif phase == "unload" and grasp <= sched.release_threshold:
                phase = "post"
                stage_times["stage4"] = t
            truth = replace(truth, stage=phase)
            obs = tuple(eng.render_observation(truth, i) for i in range(len(eng.rigs)))
            emit(FramePacket(truth, obs))
            if phase in ("pre", "load"):
                closure += speed * dt
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
