"""The benchmark's workloads, driven through finray's public API.

A workload has four stages. ``prepare`` makes the inputs that set-up
consumes (untimed). ``setup`` is timed as the workload's set-up: a fresh
process until the first frame can be processed. ``prepare_loop`` makes the
inputs of the timed loop (untimed). ``run_round`` is one pass over the
inputs; the timed loop repeats whole rounds. Every round does the same
operations, and it only collects evidence: the checks run after the loop,
in ``evaluate``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from finray import harness_cli, mesh_calibration, mesh_model, pipeline, sensing_sim
from finray.contact_localizer import rotation_about
from finray.fixtures import ShapeSpec, make_object_mesh
from finray.mesh_calibration import CameraModel
from finray.mesh_model import SurfaceMesh
from finray.metrics_force import decompose
from finray.pipeline import EstimatorSettings, JawEstimator
from finray.sensing_sim import ContactModelConfig, ScheduleConfig, SimEngine

import checks
from reference import SpeedGauge

GRASP_OBJECTS = {
    "cyl25": ShapeSpec.cylinder(0.025),
    "cube30": ShapeSpec.cuboid((0.030, 0.080, 0.030)),
    "asym": ShapeSpec.wedge(),
}


class Instruments:
    """Frame clock, speed gauge and estimator-state capture, installed for
    every run.

    Frames made by ``pipeline.run_scenario`` are timed from the end of one
    packet hook to the end of the next: the oracle step, the rendering and
    the estimator steps. After each frame a reference slice runs outside
    the frame's time (``after_frame``). After each ``JawEstimator.step``
    the estimator's effectors, candidates and returned force are kept for
    the force check; keeping three references is the only work added to a
    frame.
    """

    def __init__(self):
        self.frame_times: list[float] = []
        self.gauge = SpeedGauge()
        self.slice_s = 0.0  # wall time spent in reference slices
        self.captures: list[tuple] = []  # (estimator, effectors, candidates, lam)

    def after_frame(self) -> None:
        self.slice_s += self.gauge.sample()

    @contextmanager
    def installed(self):
        run_scenario = pipeline.__dict__["run_scenario"]
        step = pipeline.JawEstimator.__dict__["step"]
        frame_times, captures = self.frame_times, self.captures

        def timed_run_scenario(scenario, engine=None, packet_hook=None, keep_frames=None):
            if packet_hook is None:
                return run_scenario(scenario, engine, keep_frames=keep_frames)
            last = perf_counter()

            def hook(idx, pkt):
                nonlocal last
                packet_hook(idx, pkt)
                frame_times.append(perf_counter() - last)
                self.after_frame()
                last = perf_counter()

            return run_scenario(scenario, engine, packet_hook=hook, keep_frames=keep_frames)

        def captured_step(est, observation, t, truth_candidate=-1):
            fe = step(est, observation, t, truth_candidate)
            captures.append((est, est.effectors, est.candidates, fe.lam))
            return fe

        pipeline.run_scenario = timed_run_scenario
        pipeline.JawEstimator.step = captured_step
        try:
            yield self
        finally:
            pipeline.JawEstimator.step = step
            pipeline.run_scenario = run_scenario


@dataclass
class Outcome:
    """Checked evidence of one round."""

    attempted: int = 0
    failed: int = 0
    sq_err: list = field(default_factory=list)
    load_sq_err: list = field(default_factory=list)
    mount_err: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def solve_failures(captures: list, n_jaws: int) -> np.ndarray:
    """Per frame: some jaw's returned force disagrees with the reference
    least-squares solve (or, with fewer than three active effectors, with
    the force the estimator held from its previous frame)."""
    held: dict = {}
    bad = np.zeros(len(captures), dtype=bool)
    for k, (est, eff, cand, lam) in enumerate(captures):
        prev = held.get(id(est), np.zeros(3))
        if eff.n_active < 3:
            expected = prev
        else:
            m = cand.mounted_index
            expected = checks.reference_force(
                est.compliance.w_ea[m], est.compliance.w_aa[m], float(cand.epsilons[m]),
                eff.rest_positions, eff.targets, eff.active)
        bad[k] = checks.solve_mismatch(lam, expected)
        held[id(est)] = lam
    return bad.reshape(-1, n_jaws).any(axis=1)


def mount_errors(mounted: np.ndarray, true_candidate: np.ndarray) -> list:
    contact = true_candidate >= 0
    return np.abs(mounted[contact] - true_candidate[contact]).tolist()


def grasp_scenario(shape: ShapeSpec, seed: int, closing_speed_mm_s: float = 4.0,
                   hold_s: float = 2.0):
    """A ``suite_onrobot`` cell: dual-jaw grasp to 5 N at the middle
    position, noisy sensor with confidence occlusion, point contact."""
    return harness_cli.default_noisy_scenario(
        shape=shape, contact_position="middle", seed=seed, dual_jaw=True,
        schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=closing_speed_mm_s,
                                target_force=5.0, hold_s=hold_s),
        contact=ContactModelConfig(model="point"))


class Workload:
    name = ""

    def __init__(self, seed: int, small: bool, out_dir: Path):
        self.seed = seed
        self.settings = None

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_loop(self) -> None:
        pass

    def run_round(self, inst: Instruments) -> tuple[list, int]:
        """Returns (evidence, frames)."""
        raise NotImplementedError

    def evaluate(self, evidence: list) -> Outcome:
        raise NotImplementedError

    def extra_layer_metrics(self) -> dict:
        return {"mesh_calibration.twin_triangles": 0}

    def _load_settings(self) -> None:
        self.settings = EstimatorSettings(epsilons=harness_cli.load_epsilon_schedule())


# ---------------------------------------------------------------------------

class GraspSim(Workload):
    """The ``suite_onrobot --quick`` cells through ``run_estimation``."""

    name = "grasp_sim"

    def __init__(self, seed, small, out_dir):
        super().__init__(seed, small, out_dir)
        names = ["asym"] if small else list(GRASP_OBJECTS)
        kw = dict(closing_speed_mm_s=8.0, hold_s=0.5) if small else {}
        # suite_onrobot seeds repeat r of a cell with seed * 997 + r
        self.scenarios = {n: grasp_scenario(GRASP_OBJECTS[n], seed * 997, **kw) for n in names}

    def setup(self):
        self._load_settings()
        engine = SimEngine(next(iter(self.scenarios.values())))
        self._first = [JawEstimator(engine, i, self.settings) for i in range(2)]

    def run_round(self, inst):
        evidence, frames = [], 0
        for label, scenario in self.scenarios.items():
            start = len(inst.captures)
            res = pipeline.run_estimation(scenario, self.settings)
            evidence.append((label, res, inst.captures[start:]))
            frames += res.manifest.n_frames
        return evidence, frames

    def evaluate(self, evidence):
        out = Outcome()
        for label, res, caps in evidence:
            sched = res.scenario.schedule
            bad = checks.balance_failures(res.column("f_gt_n", 0), res.column("f_gt_n", 1))
            bad |= solve_failures(caps, 2)
            for k in np.flatnonzero(bad):
                out.failures.append(f"{label} frame {k}")
            out.attempted += len(bad)
            out.failed += int(bad.sum())
            stages = list(res.column("stage"))
            grasp_gt = res.column("grasp_gt")
            out.op(checks.stage_sequence_ok(stages)
                   and checks.hold_length_ok(stages, sched.hold_s, res.scenario.camera_hz)
                   and checks.target_at_switch_ok(stages, grasp_gt, sched.target_force)
                   and (label != "asym" or checks.distinct_mounts_ok(
                       res.column("mounted"), res.column("true_candidate"))),
                   f"{label} schedule")
            err = res.column("grasp_sim") - grasp_gt
            out.sq_err.append(err ** 2)
            out.load_sq_err.append(err[np.array(stages) == "load"] ** 2)
            for jaw in (0, 1):
                out.mount_err += mount_errors(res.column("mounted", jaw),
                                              res.column("true_candidate", jaw))
        return out


# ---------------------------------------------------------------------------

# one cell per position and per diameter; upper-d15 is the suite's cell
# whose truth flips sign past 7.5 mm of closure (see README), so its
# plateau check fails on every seed
STATIC_CELLS = (("upper", 15), ("middle", 25), ("lower", 35))
STATIC_RERUN = "middle-d25"


class StaticDistributed(Workload):
    """Cells of the single-jaw static suite, run through ``run_grid`` with
    a CSV and a manifest written per cell, plus a rerun of one cell."""

    name = "static_distributed"

    def __init__(self, seed, small, out_dir):
        super().__init__(seed, small, out_dir)
        self.schedule = replace(
            ScheduleConfig(kind="static", cycles=1, ramp_s=0.2, settle_s=0.2, record_s=0.3),
            plateaus_mm=(0, 4, 10, 4, 0))
        self.cells = {
            f"{pos}-d{d}": harness_cli.default_noisy_scenario(
                shape=ShapeSpec.cylinder(d * 1e-3), contact_position=pos,
                schedule=self.schedule, seed=seed,
                contact=ContactModelConfig(model="distributed", viscous_gamma=0.25,
                                           viscous_tau=8.0))
            for pos, d in STATIC_CELLS if not small or f"{pos}-d{d}" == STATIC_RERUN}
        self.rerun_label = STATIC_RERUN
        self.run_dir = out_dir / f"static-s{seed}"

    def setup(self):
        self._load_settings()
        self.settings_for = {label: self.settings for label in self.cells}
        engine = SimEngine(self.cells[self.rerun_label])
        self._first = JawEstimator(engine, 0, self.settings)

    def prepare_loop(self):
        (self.run_dir / "rerun").mkdir(parents=True, exist_ok=True)

    def _write(self, res, label: str, directory: Path) -> bytes:
        csv = directory / f"static-{label}.csv"
        manifest = directory / f"static-{label}.manifest.json"
        res.to_csv(csv)
        res.write_manifest(manifest)
        return csv.read_bytes() + b"\0" + manifest.read_bytes()

    def run_round(self, inst):
        start = len(inst.captures)
        results = harness_cli.run_grid(self.cells, self.settings_for)
        written = {label: self._write(res, label, self.run_dir)
                   for label, res in results.items()}
        label = self.rerun_label
        again = harness_cli.run_grid({label: self.cells[label]},
                                     {label: self.settings})[label]
        rewritten = self._write(again, label, self.run_dir / "rerun")
        caps = inst.captures[start:]
        evidence, k = [], 0
        for lab, res in [*results.items(), (f"{label} rerun", again)]:
            n = len(res.frames)
            evidence.append((lab, res, caps[k:k + n]))
            k += n
        evidence.append(("rerun bytes", written[label], rewritten))
        return evidence, k

    def evaluate(self, evidence):
        out = Outcome()
        sched = self.schedule
        hz = next(iter(self.cells.values())).camera_hz
        ramp, settle, record = checks.plateau_frames(sched.ramp_s, sched.settle_s,
                                                     sched.record_s, hz)
        expected = checks.expected_static_frames(sched.plateaus_mm, sched.cycles, sched.ramp_s,
                                                 sched.settle_s, sched.record_s, hz)
        for label, res, caps in evidence[:-1]:
            bad = solve_failures(caps, 1)
            for k in np.flatnonzero(bad):
                out.failures.append(f"{label} frame {k}")
            out.attempted += len(bad)
            out.failed += int(bad.sum())
            f_gt = res.column("f_gt_n")
            out.op(res.manifest.n_frames == expected and len(f_gt) == expected
                   and checks.static_truth_ok(f_gt, sched.plateaus_mm,
                                              ramp + settle + record, record),
                   f"{label} plateaus")
            rec = res.recorded_mask()
            err = res.column("f_sim_n")[rec] - f_gt[rec]
            out.sq_err.append(err ** 2)
            out.load_sq_err.append(err[res.column("stage")[rec] == "load"] ** 2)
            out.mount_err += mount_errors(res.column("mounted"), res.column("true_candidate"))
        _, first, again = evidence[-1]
        out.op(checks.same_bytes(first, again), "rerun bytes")
        return out


# ---------------------------------------------------------------------------

def subdivided(mesh: SurfaceMesh, times: int) -> SurfaceMesh:
    """Midpoint subdivision: each triangle becomes four, sharing edge
    midpoints, so a closed surface stays closed."""
    for _ in range(times):
        verts = list(mesh.vertices)
        mid: dict = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in mid:
                mid[key] = len(verts)
                verts.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
            return mid[key]

        tris = []
        for a, b, c in mesh.triangles.tolist():
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            tris += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        mesh = SurfaceMesh(np.array(verts), np.array(tris))
    return mesh


@dataclass(frozen=True)
class TwinSpec:
    """An "unseen" object: its reconstruction is denser than the oracle's
    mesh, mis-scaled by a known factor and possibly left open."""

    object_name: str
    mis_scale: float
    left_open: bool

    def reconstruction_template(self) -> SurfaceMesh:
        spec = GRASP_OBJECTS[self.object_name]
        if spec.kind == "cylinder":
            return make_object_mesh(spec, n_seg=48, n_len=8)
        return subdivided(make_object_mesh(spec), 3)


TWINS = (
    TwinSpec("cyl25", mis_scale=1.2, left_open=False),
    TwinSpec("asym", mis_scale=0.85, left_open=True),
)
SCAN_DISTANCE_M = 0.45
SCAN_TILT = rotation_about(np.array([1.0, 0.0, 0.0]), np.deg2rad(30.0))
# the reconstruction's pose error before calibration
RECON_ROTATION_ERROR = rotation_about(np.array([0.2, 1.0, 0.4]), np.deg2rad(8.0))
RECON_OFFSET_M = np.array([0.012, -0.008, 0.01])
CONTAINMENT_POINTS = 2000


class TwinReplay(Workload):
    """Estimator-only replay of dual-jaw grasp streams against calibrated
    twins of the grasped objects."""

    name = "twin_replay"

    def __init__(self, seed, small, out_dir):
        super().__init__(seed, small, out_dir)
        self.twins = TWINS[:1] if small else TWINS
        self.camera = CameraModel()
        self.scenarios = [
            grasp_scenario(GRASP_OBJECTS[t.object_name], seed * 997 + k,
                           closing_speed_mm_s=8.0 if small else 4.0, hold_s=0.5)
            for k, t in enumerate(self.twins)]

    def prepare(self):
        """Scans of the true objects posed in front of the camera, and the
        mis-posed, mis-scaled reconstructions to calibrate against them."""
        self.scans, self.recons = [], []
        shift = np.array([0.0, 0.0, SCAN_DISTANCE_M])
        for k, twin in enumerate(self.twins):
            rng = np.random.default_rng([self.seed, k])
            truth = make_object_mesh(GRASP_OBJECTS[twin.object_name])
            posed = SurfaceMesh(truth.vertices @ SCAN_TILT.T + shift, truth.triangles)
            self.scans.append(sensing_sim.synthetic_scan(
                posed, self.camera, depth_sigma=0.001, seed=int(rng.integers(2**31))))
            r_err = RECON_ROTATION_ERROR @ SCAN_TILT
            template = twin.reconstruction_template()
            tris = template.triangles[:-2] if twin.left_open else template.triangles
            self.recons.append(SurfaceMesh(
                (template.vertices * twin.mis_scale) @ r_err.T + shift + RECON_OFFSET_M, tris))

    def setup(self):
        self._load_settings()
        shift = np.array([0.0, 0.0, SCAN_DISTANCE_M])
        self.engines, self.calibrations, self.twin_meshes = [], [], []
        for scenario, recon, scan in zip(self.scenarios, self.recons, self.scans):
            self.engines.append(SimEngine(scenario))
            cal = mesh_calibration.calibrate(recon, scan, self.camera)
            self.calibrations.append(cal)
            # back into the object frame with the pose the scan was taken at
            self.twin_meshes.append(SurfaceMesh((cal.mesh.vertices - shift) @ SCAN_TILT,
                                                cal.mesh.triangles))
        self._first = [JawEstimator(self.engines[0], i, self.settings,
                                    twin_mesh=self.twin_meshes[0]) for i in range(2)]

    def prepare_loop(self):
        self.streams = [sensing_sim.run_scenario(s).frames for s in self.scenarios]
        self.containment_points = []
        for k, engine in enumerate(self.engines):
            lo, hi = engine.object_mesh.bounds()
            pad = 0.2 * (hi - lo)
            rng = np.random.default_rng([self.seed, 99, k])
            self.containment_points.append(rng.uniform(lo - pad, hi + pad,
                                                       (CONTAINMENT_POINTS, 3)))

    def run_round(self, inst):
        evidence, frames = [], 0
        for k, stream in enumerate(self.streams):
            ests = [JawEstimator(self.engines[k], i, self.settings,
                                 twin_mesh=self.twin_meshes[k]) for i in range(2)]
            start = len(inst.captures)
            for pkt in stream:
                t0 = perf_counter()
                for i, est in enumerate(ests):
                    est.step(pkt.observations[i], pkt.truth.timestamp,
                             truth_candidate=pkt.truth.jaws[i].candidate)
                inst.frame_times.append(perf_counter() - t0)
                inst.after_frame()
            evidence.append((k, inst.captures[start:]))
            frames += len(stream)
        return evidence, frames

    def evaluate(self, evidence):
        out = Outcome()
        twin_ok = []
        for k, twin in enumerate(self.twins):
            mesh = self.engines[k].object_mesh
            pts = self.containment_points[k]
            inside = mesh_model.point_inside(mesh, pts)
            twin_ok.append(
                checks.scale_ok(self.calibrations[k].total_scale, twin.mis_scale)
                and checks.watertight_ok(self.twin_meshes[k].triangles)
                and checks.containment_disagreements(mesh.vertices, mesh.triangles,
                                                     pts, inside) == 0)
        for k, caps in evidence:
            label = self.twins[k].object_name
            bad = solve_failures(caps, 2)
            for j in np.flatnonzero(bad):
                out.failures.append(f"{label} frame {j}")
            out.attempted += len(bad)
            out.failed += int(bad.sum())
            out.op(twin_ok[k], f"{label} twin")
            stream = self.streams[k]
            lam = np.array([c[3] for c in caps]).reshape(len(stream), 2, 3)
            grasp_est = np.array([decompose(-l[0, 0], -l[1, 0])[0] for l in lam])
            grasp_gt = np.array([decompose(p.truth.jaws[0].force_scalar,
                                           p.truth.jaws[1].force_scalar)[0] for p in stream])
            stages = np.array([p.truth.stage for p in stream])
            err = grasp_est - grasp_gt
            out.sq_err.append(err ** 2)
            out.load_sq_err.append(err[stages == "load"] ** 2)
            for jaw in (0, 1):
                mounted = np.array([c[2].mounted_index for c in caps[jaw::2]])
                truth = np.array([p.truth.jaws[jaw].candidate for p in stream])
                out.mount_err += mount_errors(mounted, truth)
        return out

    def extra_layer_metrics(self):
        return {"mesh_calibration.twin_triangles":
                sum(len(m.triangles) for m in self.twin_meshes)}


WORKLOADS = {w.name: w for w in (GraspSim, TwinReplay, StaticDistributed)}
