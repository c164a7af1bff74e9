"""Per-jaw estimation pipeline: keypoint filtering, rate-gated pose
chaining, the iterative contact localization step (``localize``), and the
force solve, streamed over a scenario's synthetic observations.

Run outputs are a per-frame CSV (force solution, residuals, activation
mask, localization trace) plus a JSON manifest sufficient to reproduce the
run byte-identically, at any BLAS thread count: its ``config`` holds
``scenario_mapping``'s flat keys, which ``run_settings`` reads back, and
``finray run --config <stem>.manifest.json`` reruns it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import ConfigError, config_hash, flatten, from_flat
from .contact_localizer import (
    ContactState,
    PoseRateGate,
    PoseTransform,
    chain_pose,
    checked_rotation,
    pre_estimate_translation,
    select_candidate,
    snap_memo,
)
from .fem_core import precompute_compliance
from .inverse_solver import (
    ContactCandidateSet,
    DegenerateSolveError,
    EffectorSet,
    ForceSolution,
    InsufficientEffectorsError,
    KeypointFilter,
    estimate_deformation,
    remount,
    set_targets,
    solve,
)
from .mesh_model import DeformableSurface, RigidSurface, TetMesh, intersect_approx
from .metrics_force import decompose
from .sensing_sim import (
    FramePacket,
    Observation,
    RunManifest,
    Scenario,
    SimEngine,
    run_scenario,
)

# edge subdivisions of the lattice that samples the jaw for the contact patch
_INTERSECT_DENSITY = 3
# margin (m) around the undeformed jaw of the box that keypoints must lie in
BBOX_MARGIN = 0.012


@dataclass(frozen=True)
class EstimatorSettings:
    """What a run chooses for the estimator: the regularization weights and
    how the candidate is mounted.

    The rest is fixed, by constants in the modules that use them: the
    keypoint filter's ``inverse_solver.CONFIDENCE_THRESHOLD`` and this
    module's ``BBOX_MARGIN``, and the pose gate's
    ``contact_localizer.POSE_TIMEOUT_S`` and ``STABLE_FRAMES``. They are
    set against the simulated sensor, whose confidences and pose rate are
    constants too."""

    epsilons: tuple | float | None = None  # None -> inverse_solver.DEFAULT_EPSILON
    mount_mode: str = "estimator"  # estimator | fixed | matched
    fixed_index: int = 7

    def __post_init__(self):
        if self.mount_mode not in ("estimator", "fixed", "matched"):
            raise ValueError(f"unknown mount mode {self.mount_mode!r}")


def _bit_mask(flags: np.ndarray) -> int:
    """The int with bit i set where ``flags[i]``: the flags packed
    little-endian into bytes, read as one integer, at any length."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


@dataclass
class FrameEstimate:
    lam: np.ndarray
    scalar: float
    mounted_index: int
    status: bool
    pre_estimated: bool
    pose_source: str
    degraded: bool
    n_active: int
    active_mask: int
    objective: float
    stationarity_residual: float
    effector_residual: float
    centroid: Optional[np.ndarray]


def localize(state: ContactState, pose: PoseTransform, jaw_surface,
             twin: RigidSurface, undeformed: TetMesh,
             surface_ids: np.ndarray, candidates: ContactCandidateSet,
             snaps: dict) -> tuple[Optional[int], bool]:
    """One localization iteration; updates ``state`` in place.

    Places the twin by ``pose``. Before contact its grasp-axis
    translation is pre-estimated instead, from the extent of the twin's
    unposed template under the pose's rotation. Samples the deformed jaw
    surface inside the twin and, on overlap, snaps the centre of those
    samples to the nearest candidate (lowest index on ties); ``snaps``
    memoises that snap per surface vertex (see ``select_candidate``). The
    estimator passes the memo that ``snap_memo`` shares between every
    estimator of its jaw mesh and candidate positions in the process.
    A snap to ``candidates.mounted_index`` while in contact extends the
    stable run; any other snap restarts it. The caller remounts.
    Returns (candidate to mount, or None when there is no contact;
    whether the frame was a pre-estimation frame).
    """
    translation = pose.translation.copy()
    pre_estimated = not state.status
    if pre_estimated:
        translation[0] = pre_estimate_translation(state, pose.rotation, twin.template)
    twin.place(pose.rotation, translation)
    inter = intersect_approx(jaw_surface, twin, density=_INTERSECT_DENSITY)
    if inter.is_empty:
        state.status, state.stable_frames, state.centroid = False, 0, None
        return None, pre_estimated
    c = select_candidate(inter.centroid, jaw_surface.vertices, surface_ids,
                         undeformed, candidates, snaps)
    if state.status and c == candidates.mounted_index:
        state.stable_frames += 1
    else:
        state.stable_frames = 1
    state.status, state.centroid = True, inter.centroid
    return c, pre_estimated


class JawEstimator:
    """Streaming estimator for one jaw: holds the effector set, candidate
    mount, localization state, and last solution between frames.

    What a frame does not change is computed once: the jaw-from-camera
    rotation is checked at construction, and ``snaps`` is the candidate
    snap memo that ``snap_memo`` shares, by content, with every estimator
    of the same jaw mesh and candidate positions in the process."""

    def __init__(self, engine: SimEngine, jaw_index: int,
                 settings: EstimatorSettings,
                 twin_mesh=None, compliance=None):
        rig = engine.rigs[jaw_index]
        self.settings = settings
        self.fixture = rig.fixture
        self.compliance = compliance or precompute_compliance(
            rig.system, rig.fixture.keypoint_ids, rig.fixture.candidate_ids)
        self.effectors = EffectorSet.from_fixture(rig.fixture)
        self.candidates = ContactCandidateSet.from_fixture(
            rig.fixture, epsilons=settings.epsilons,
            mounted_index=settings.fixed_index if settings.mount_mode == "fixed" else None)
        self.filter = KeypointFilter(*rig.fixture.bbox(BBOX_MARGIN))
        self.rot_jaw_from_cam = checked_rotation(engine.jaw_cam_rotation(jaw_index))
        self.ref_jaw = rig.fixture.mesh.vertices[rig.fixture.reference_id]
        self.gate = PoseRateGate()
        self.contact_state = ContactState(l0=rig.fixture.l0)
        template = rig.fixture.mesh.surface()
        self.jaw_surface = DeformableSurface(template)
        self.snaps = snap_memo(rig.fixture.mesh, self.candidates.positions)
        obj_mesh = twin_mesh if twin_mesh is not None else engine.object_mesh
        self.twin = RigidSurface(obj_mesh)
        self.last_solution = ForceSolution(
            lam=np.zeros(3), objective=0.0, effector_residual=0.0,
            stationarity_residual=0.0)

    def _jaw_from_cam(self, observation: Observation) -> PoseTransform:
        r = self.rot_jaw_from_cam
        return PoseTransform.trusted(r, self.ref_jaw - r @ observation.reference, "c", "g")

    def step(self, observation: Observation, t: float,
             truth_candidate: int = -1) -> FrameEstimate:
        settings = self.settings
        stable = self.contact_state.is_stable()
        self.gate.feed(observation.pose_sample, t)
        pose_cam_from_obj, pose_source, pose_degraded = self.gate.get(t, stable)

        jaw_from_cam = self._jaw_from_cam(observation)
        self.effectors = set_targets(self.effectors, observation, jaw_from_cam,
                                     self.filter)

        status = self.contact_state.status
        pre_estimated = False
        if settings.mount_mode == "matched":
            if truth_candidate >= 0 and truth_candidate != self.candidates.mounted_index:
                self.candidates = remount(self.candidates, truth_candidate)
            status = truth_candidate >= 0
        elif settings.mount_mode == "fixed":
            status = True
        elif pose_cam_from_obj is not None:
            # the jaw as the last solution deformed it; nothing remounts
            # between the end of a step and the next step's localization
            self.jaw_surface.update(self.fixture.mesh.vertices + estimate_deformation(
                self.compliance, self.last_solution.lam, self.candidates.mounted_index))
            remount_to, pre_estimated = localize(
                self.contact_state, chain_pose(jaw_from_cam, pose_cam_from_obj),
                self.jaw_surface, self.twin, self.fixture.mesh,
                self.jaw_surface.vertex_ids, self.candidates, self.snaps)
            if remount_to is not None and remount_to != self.candidates.mounted_index:
                self.candidates = remount(self.candidates, remount_to)
            status = self.contact_state.status
        # None in the matched and fixed modes, which never localize
        centroid = self.contact_state.centroid

        # the gate flags no staleness once contact is stable
        degraded = pose_degraded
        try:
            self.last_solution = solve(self.compliance, self.effectors, self.candidates)
        except (InsufficientEffectorsError, DegenerateSolveError):
            degraded = True  # hold the last solution
        sol = self.last_solution

        return FrameEstimate(
            lam=sol.lam,
            scalar=float(-sol.lam[0]),
            mounted_index=self.candidates.mounted_index,
            status=status,
            pre_estimated=pre_estimated,
            pose_source=pose_source,
            degraded=degraded,
            n_active=self.effectors.n_active,
            active_mask=_bit_mask(self.effectors.active),
            objective=sol.objective,
            stationarity_residual=sol.stationarity_residual,
            effector_residual=sol.effector_residual,
            centroid=None if centroid is None else np.asarray(centroid),
        )


# ---------------------------------------------------------------------------
# Run orchestration

def _flag(raw: str) -> bool:
    return raw == "1"


# the run CSV's columns in file order, each with the parser that reads it
# back; the str columns are also the object-typed ones of ``RunResult.column``
_CSV_COLUMNS = {
    "frame": int, "t": float, "jaw": int, "stage": str, "recording": _flag,
    "f_sim_x": float, "f_sim_y": float, "f_sim_z": float, "f_sim_n": float,
    "f_gt_x": float, "f_gt_y": float, "f_gt_z": float, "f_gt_n": float,
    "true_candidate": int, "mounted": int, "status": _flag, "pre_estimated": _flag,
    "pose_source": str, "degraded": _flag, "n_active": int, "active_mask": int,
    "objective": float, "resid_stat": float, "resid_eff": float,
    "centroid_x": float, "centroid_y": float, "centroid_z": float,
    "grasp_sim": float, "manip_sim": float, "grasp_gt": float,
}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass
class RunResult:
    scenario: Scenario
    settings: EstimatorSettings
    manifest: RunManifest
    frames: list[dict]

    def column(self, name: str, jaw: int = 0) -> np.ndarray:
        vals = [row[name] for row in self.frames if row["jaw"] == jaw]
        return np.array(vals, dtype=object if _CSV_COLUMNS.get(name) is str else None)

    def recorded_mask(self, jaw: int = 0) -> np.ndarray:
        return self.column("recording", jaw).astype(bool)

    def to_csv(self, path: str | Path) -> None:
        lines = [",".join(_CSV_COLUMNS)]
        for row in self.frames:
            lines.append(",".join(_fmt(row[c]) for c in _CSV_COLUMNS))
        Path(path).write_text("\n".join(lines) + "\n")

    def manifest_dict(self) -> dict:
        cfg = scenario_mapping(self.scenario, self.settings)
        return {
            "version": __version__,
            "seed": self.scenario.seed,
            "config_hash": config_hash(cfg),
            "config": cfg,
            "stage_times": self.manifest.stage_times,
            "n_frames": self.manifest.n_frames,
            "camera_hz": self.manifest.camera_hz,
            "duration": self.manifest.duration,
        }

    def write_manifest(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.manifest_dict(), indent=2, sort_keys=True) + "\n")


def scenario_mapping(scenario: Scenario, settings: EstimatorSettings) -> dict:
    """A run's settings as flat keys, ``scenario.*`` and ``solver.*``: the
    manifest's ``config``."""
    return {**flatten("scenario", scenario), **flatten("solver", settings)}


def run_settings(config: dict) -> tuple[Scenario, EstimatorSettings]:
    """The inverse of ``scenario_mapping``: the scenario and settings that a
    manifest's ``config`` was written from. Every key must be present and no
    other key; rerunning them writes the same CSV and manifest bytes."""
    missing = set(scenario_mapping(Scenario(), EstimatorSettings())) - set(config)
    if missing:
        raise ConfigError(f"manifest config lacks {min(missing)!r}")
    solver = {k: v for k, v in config.items() if k.startswith("solver.")}
    scenario = from_flat(Scenario(), {k: v for k, v in config.items() if k not in solver},
                         "scenario")
    return scenario, from_flat(EstimatorSettings(), solver, "solver")


def run_estimation(scenario: Scenario, settings: EstimatorSettings | None = None) -> RunResult:
    """Run the scenario and the per-jaw estimators over its observation
    stream; returns frame-by-frame rows ready for CSV."""
    settings = settings or EstimatorSettings()
    eng = SimEngine(scenario)
    estimators = [JawEstimator(eng, i, settings) for i in range(len(eng.rigs))]
    rows: list[dict] = []
    result = run_scenario(scenario, eng, packet_hook=lambda idx, pkt: _collect(
        rows, estimators, idx, pkt))
    return RunResult(scenario, settings, result.manifest, rows)


def _collect(rows: list, estimators: list[JawEstimator], idx: int,
             pkt: FramePacket) -> None:
    scalars = []
    for jaw, est in enumerate(estimators):
        jt = pkt.truth.jaws[jaw]
        fe = est.step(pkt.observations[jaw], pkt.truth.timestamp,
                      truth_candidate=jt.candidate)
        scalars.append((fe.scalar, jt.force_scalar))
        centroid = fe.centroid if fe.centroid is not None else (np.nan, np.nan, np.nan)
        rows.append({
            "frame": idx,
            "t": pkt.truth.timestamp,
            "jaw": jaw,
            "stage": pkt.truth.stage,
            "recording": pkt.truth.recording,
            "f_sim_x": fe.lam[0], "f_sim_y": fe.lam[1], "f_sim_z": fe.lam[2],
            "f_sim_n": fe.scalar,
            "f_gt_x": jt.force[0], "f_gt_y": jt.force[1], "f_gt_z": jt.force[2],
            "f_gt_n": jt.force_scalar,
            "true_candidate": jt.candidate,
            "mounted": fe.mounted_index,
            "status": fe.status,
            "pre_estimated": fe.pre_estimated,
            "pose_source": fe.pose_source,
            "degraded": fe.degraded,
            "n_active": fe.n_active,
            "active_mask": fe.active_mask,
            "objective": fe.objective,
            "resid_stat": fe.stationarity_residual,
            "resid_eff": fe.effector_residual,
            "centroid_x": centroid[0], "centroid_y": centroid[1],
            "centroid_z": centroid[2],
            "grasp_sim": np.nan, "manip_sim": np.nan, "grasp_gt": np.nan,
        })
    if len(estimators) == 2:
        g_sim, m_sim = decompose(scalars[0][0], scalars[1][0])
        g_gt, _ = decompose(scalars[0][1], scalars[1][1])
        for back in (1, 2):
            rows[-back]["grasp_sim"] = g_sim
            rows[-back]["manip_sim"] = m_sim
            rows[-back]["grasp_gt"] = g_gt


def load_run_csv(path: str | Path) -> list[dict]:
    """Rows of a run CSV, typed by ``_CSV_COLUMNS``; a column it does not
    list reads as float."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    parsers = [_CSV_COLUMNS.get(key, float) for key in header]
    return [{key: parse(raw) for key, parse, raw in zip(header, parsers, line.split(","))}
            for line in lines[1:]]
