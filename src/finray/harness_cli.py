"""End-user entry point: fixture generation, mesh calibration, scenario
execution, the evaluation suites (static grid, actuator ablation, dual-jaw
grasp analog, speed sweep, force-threshold grasping), per-candidate
regularization tuning, and report emission.

Every suite but ``chip`` writes per-run CSVs plus a JSON/markdown report
into the output directory. Its report scores each run on the series that
``report`` re-scores from the run's CSV (``scored_series``), so runs can
be re-scored without re-simulation. Exit status is nonzero when a suite's
pattern assertions fail.

A run's manifest is its only scenario file: every CSV has a
``<stem>.manifest.json`` beside it, and ``finray run --config
<stem>.manifest.json --out <dir>`` reruns it into ``<dir>/run.csv`` and
``<dir>/manifest.json`` with the same bytes (``--seed N`` replaces the seed).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, config as cfgmod
from .fem_core import MaterialModel, precompute_compliance
from .fixtures import JawParams, ShapeSpec, canonical_jaw, generate_jaw, save_fixture
from .inverse_solver import DEFAULT_EPSILON, ContactCandidateSet, EffectorSet, solve
from .mesh_calibration import CameraModel, calibrate, load_point_cloud
from .mesh_model import load_obj, load_off, save_obj, save_off, SurfaceMesh
from .metrics_force import (
    ConditionMetrics,
    MetricsReport,
    NORMALIZATION_RANGE_N,
    ThresholdTrigger,
    decompose,
    rmse_nrmsd,
)
from .pipeline import (
    EstimatorSettings,
    JawEstimator,
    RunResult,
    load_run_csv,
    run_estimation,
    run_settings,
)
from .sensing_sim import (
    ContactModelConfig,
    NoiseConfig,
    Scenario,
    ScheduleConfig,
    SimEngine,
    cached_system,
)

logger = logging.getLogger(__name__)

POSITIONS = ("upper", "middle", "lower")
DIAMETERS_MM = (15, 25, 35)
FORCE_LEVELS = {"L": 2.0, "M": 5.0, "H": 9.0}

_EPSILON_FILE = Path(__file__).parent / "data" / "epsilon_schedule.cfg"


def load_epsilon_schedule(path: str | Path | None = None) -> tuple | None:
    """Tuned per-candidate regularization weights, or None when untuned."""
    p = Path(path) if path else _EPSILON_FILE
    if not p.exists():
        return None
    raw = cfgmod.section(cfgmod.load_config(p), "epsilon")
    return tuple(float(raw[str(i)]) for i in range(len(raw)))


def candidate_for_position(position: str) -> int:
    """Candidate index nearest the nominal contact height."""
    fixture = canonical_jaw()
    z = Scenario(contact_position=position).contact_height(fixture.params.height)
    return int(np.argmin(np.abs(fixture.candidate_positions[:, 2] - z)))


# ---------------------------------------------------------------------------
# Scenario construction

def default_noisy_scenario(**kw) -> Scenario:
    base = dict(
        noise=NoiseConfig(),
        occlusion_mode="confidence",
        contact=ContactModelConfig(model="distributed"),
    )
    base.update(kw)
    return Scenario(**base)


def default_ideal_scenario(**kw) -> Scenario:
    base = dict(
        noise=NoiseConfig.ideal(),
        occlusion_mode="off",
        contact=ContactModelConfig(model="point"),
    )
    base.update(kw)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# Cells and per-run scoring

QUICK_PLATEAUS_MM = (0, 4, 10, 4, 0)

GRASP_OBJECTS = {
    "cyl25": ShapeSpec.cylinder(0.025),
    "cube30": ShapeSpec.cuboid((0.030, 0.080, 0.030)),
    "asym": ShapeSpec.wedge(),
}


def static_schedule(cycles: int, quick: bool) -> ScheduleConfig:
    """The static suites' schedule: ``ScheduleConfig``'s plateaus, or with
    ``quick`` the shorter ``QUICK_PLATEAUS_MM``."""
    schedule = ScheduleConfig(kind="static", cycles=cycles)
    return replace(schedule, plateaus_mm=QUICK_PLATEAUS_MM) if quick else schedule


def _grasp_cell(shape: ShapeSpec, position: str, seed: int, closing_speed_mm_s: float,
                target_force: float, hold_s: float) -> Scenario:
    """A noisy dual-jaw grasp of a point-contact object."""
    return default_noisy_scenario(
        shape=shape, contact_position=position, seed=seed, dual_jaw=True,
        schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=closing_speed_mm_s,
                                target_force=target_force, hold_s=hold_s),
        contact=ContactModelConfig(model="point"))


def scored_series(rows: list[dict]) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """(estimate, truth, scored rows) that one run is scored on, from its
    frame rows (a ``RunResult``'s or a loaded CSV's), in run order: one
    jaw's force over its recorded frames, or for a dual-jaw run the grasp
    force (``grasp_sim`` against ``grasp_gt``) over the rows that hold it."""
    jaw0 = [r for r in rows if r["jaw"] == 0]
    if len(jaw0) < len(rows):
        sim_key, gt_key = "grasp_sim", "grasp_gt"
        scored = [r for r in jaw0 if np.isfinite(r["grasp_sim"])]
    else:
        sim_key, gt_key = "f_sim_n", "f_gt_n"
        scored = [r for r in jaw0 if r["recording"]]
    return (np.array([r[sim_key] for r in scored]), np.array([r[gt_key] for r in scored]),
            scored)


def _phase_rmse(sim: np.ndarray, gt: np.ndarray, rows: list[dict], phases) -> dict:
    """``rmse_<phase>`` over the scored rows of each stage in ``phases`` that
    has any."""
    stage = np.array([r["stage"] for r in rows], dtype=object)
    return {f"rmse_{p}": rmse_nrmsd(sim[stage == p], gt[stage == p])[0]
            for p in phases if (stage == p).any()}


def run_grid(cells: dict, settings_for: dict) -> dict:
    """Run labeled scenarios one after another, each with its own settings;
    results come back keyed by label, in label-sorted order."""
    return {k: run_estimation(cells[k], settings_for[k]) for k in sorted(cells)}


def _write_run(res: RunResult, out_dir: Path, stem: str) -> None:
    """``<stem>.csv`` and its ``<stem>.manifest.json``."""
    res.to_csv(out_dir / f"{stem}.csv")
    res.write_manifest(out_dir / f"{stem}.manifest.json")


# ---------------------------------------------------------------------------
# Suites

def suite_static(out_dir: Path, seed: int = 0, ideal: bool = False,
                 cycles: int = 5, quick: bool = False) -> tuple[MetricsReport, bool]:
    """3 diameters x 3 positions x N cycles; Table-style report with
    load/unload split."""
    out_dir.mkdir(parents=True, exist_ok=True)
    schedule = static_schedule(cycles, quick)
    if ideal:
        settings = EstimatorSettings(mount_mode="matched", epsilons=0.0)
    else:
        settings = EstimatorSettings(epsilons=load_epsilon_schedule())
    cells = {}
    for pos in POSITIONS:
        for d in DIAMETERS_MM:
            kw = dict(shape=ShapeSpec.cylinder(d * 1e-3), contact_position=pos,
                      schedule=schedule, seed=seed)
            cells[f"{pos}-d{d}"] = default_ideal_scenario(**kw) if ideal else \
                default_noisy_scenario(**kw, contact=ContactModelConfig(
                    model="distributed", viscous_gamma=0.25, viscous_tau=8.0))
    results = run_grid(cells, dict.fromkeys(cells, settings))
    conditions = []
    ok = True
    for label, res in results.items():
        _write_run(res, out_dir, f"static-{label}")
        sim, gt, rows = scored_series(res.frames)
        cm = ConditionMetrics.from_cycles(label, np.split(sim, cycles), np.split(gt, cycles),
                                          **_phase_rmse(sim, gt, rows, ("load", "unload")))
        conditions.append(cm)
        if ideal and cm.rmse_mean > 1e-5:
            ok = False
    report = MetricsReport("static" + ("-ideal" if ideal else ""), conditions,
                           notes={"seed": seed, "ideal": ideal})
    _write_report(out_dir, report)
    return report, ok


def suite_ablation(out_dir: Path, seeds=(0, 1, 2, 3, 4),
                   quick: bool = False) -> tuple[MetricsReport, bool]:
    """15 mm cylinder at three real positions; four actuator configs:
    fixed at each position plus the contact estimator."""
    out_dir.mkdir(parents=True, exist_ok=True)
    schedule = static_schedule(1, quick)
    settings_for_cfg = {"estimator": EstimatorSettings(epsilons=load_epsilon_schedule())}
    for p in POSITIONS:
        settings_for_cfg[p] = replace(settings_for_cfg["estimator"], mount_mode="fixed",
                                      fixed_index=candidate_for_position(p))
    # per (real position, config): each seed's scored (estimate, truth)
    series: dict[tuple[str, str], list] = {
        (p, c): [] for p in POSITIONS for c in settings_for_cfg}
    for seed in seeds:
        cells = {}
        settings_for = {}
        for real in POSITIONS:
            base = default_noisy_scenario(
                shape=ShapeSpec.cylinder(0.015), contact_position=real, schedule=schedule,
                seed=seed, contact=ContactModelConfig(model="point"))
            for cfg, settings in settings_for_cfg.items():
                cells[f"{real}|{cfg}"] = base
                settings_for[f"{real}|{cfg}"] = settings
        results = run_grid(cells, settings_for)
        for label, res in results.items():
            real, cfg = label.split("|")
            series[real, cfg].append(scored_series(res.frames)[:2])
            _write_run(res, out_dir, f"ablation-{real}-{cfg}-s{seed}")
    conditions = []
    ok = True
    for real in POSITIONS:
        row = {}
        for cfg in settings_for_cfg:
            sims, gts = zip(*series[real, cfg])
            conditions.append(ConditionMetrics.from_cycles(f"real={real}|sim={cfg}", sims, gts))
            row[cfg] = [rmse_nrmsd(sim, gt)[0] for sim, gt in series[real, cfg]]
        matched = row[real]
        for seed_i in range(len(seeds)):
            if row["estimator"][seed_i] > 1.5 * matched[seed_i]:
                ok = False
            for other in POSITIONS:
                if other != real and row[other][seed_i] < 3.0 * matched[seed_i]:
                    ok = False
    report = MetricsReport("ablation", conditions,
                           notes={"seeds": list(seeds), "pattern_ok": ok})
    _write_report(out_dir, report)
    return report, ok


def suite_onrobot(out_dir: Path, seed: int = 0, quick: bool = False) -> tuple[MetricsReport, bool]:
    """Dual-jaw grasp analog: three objects, contact positions, and force
    plateaus; the wedge's sloped face shifts contact during closure."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if quick:
        positions, levels, repeats = ("middle",), ("M",), 1
    else:
        positions, levels, repeats = POSITIONS, tuple(FORCE_LEVELS), 5
    settings = EstimatorSettings(epsilons=load_epsilon_schedule())
    conditions = []
    ok = True
    for shape_name, shape in GRASP_OBJECTS.items():
        for pos in positions:
            for lvl in levels:
                sims, gts, extras = [], [], {}
                for rep in range(repeats):
                    res = run_estimation(_grasp_cell(shape, pos, seed * 997 + rep, 4.0,
                                                     FORCE_LEVELS[lvl], 2.0), settings)
                    _write_run(res, out_dir, f"onrobot-{shape_name}-{pos}-{lvl}-r{rep}")
                    sim, gt, rows = scored_series(res.frames)
                    sims.append(sim)
                    gts.append(gt)
                    for key, r_load in _phase_rmse(sim, gt, rows, ("load",)).items():
                        extras.setdefault(key, []).append(r_load)
                    if shape_name == "asym":
                        mounted = res.column("mounted")
                        contact = res.column("true_candidate") >= 0
                        n_shift = len(set(mounted[contact].tolist()))
                        extras.setdefault("mount_shifts", []).append(n_shift)
                        if n_shift < 2:
                            ok = False
                cm = ConditionMetrics.from_cycles(
                    f"{shape_name}-{pos}-{lvl}", sims, gts,
                    **{k: float(np.mean(v)) for k, v in extras.items()})
                conditions.append(cm)
    report = MetricsReport("onrobot", conditions, notes={"seed": seed, "quick": quick})
    _write_report(out_dir, report)
    return report, ok


def _onset(t: np.ndarray, force: np.ndarray) -> float:
    """Time of the first scored frame above 0.05 N, or NaN."""
    above = force > 0.05
    return t[np.argmax(above)] if above.any() else np.nan


def suite_sweep(out_dir: Path, seed: int = 0,
                speeds_mm_s=(0.5, 1.0, 2.0, 4.0, 8.0)) -> tuple[MetricsReport, bool]:
    """Closing-speed sweep at one force level; reports onset delay and
    accuracy per speed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    settings = EstimatorSettings(epsilons=load_epsilon_schedule())
    conditions = []
    for v in speeds_mm_s:
        res = run_estimation(_grasp_cell(GRASP_OBJECTS["cyl25"], "middle", seed, v, 5.0, 1.0),
                             settings)
        _write_run(res, out_dir, f"sweep-v{v}")
        sim, gt, rows = scored_series(res.frames)
        t = np.array([r["t"] for r in rows])
        conditions.append(ConditionMetrics.from_cycles(
            f"speed-{v}mm_s", [sim], [gt], onset_delay_s=float(_onset(t, sim) - _onset(t, gt))))
    report = MetricsReport("sweep", conditions, notes={"seed": seed})
    _write_report(out_dir, report)
    return report, True


def suite_chip(out_dir: Path, seed: int = 0, thresholds=(1.0, 2.0, 3.0, 4.0, 5.0),
               speed_mm_s: float = 4.0) -> tuple[dict, bool]:
    """Force-threshold grasping: close, no further than the schedule's
    ``max_closure_mm``, until the estimated grasp force crosses each
    threshold, then hold; stop latency is one frame."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    ok = True
    for thr in thresholds:
        scenario = default_ideal_scenario(
            shape=GRASP_OBJECTS["cyl25"], contact_position="middle", dual_jaw=True, seed=seed,
            schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=speed_mm_s))
        engine = SimEngine(scenario)
        # noiseless run: regularization off so the trigger sees the
        # unbiased estimate
        estimators = [JawEstimator(engine, i, EstimatorSettings(epsilons=0.0))
                      for i in range(2)]
        trigger = ThresholdTrigger(thr)
        dt = 1.0 / scenario.camera_hz
        closure = 0.0
        t = 0.0
        speed = speed_mm_s * 1e-3
        max_closure = scenario.schedule.max_closure_mm * 1e-3
        history = []
        for k in range(1200):
            pkt = engine.frame(t, closure, "grasp", True, dt)
            scalars = [estimators[i].step(pkt.observations[i], t,
                                          pkt.truth.jaws[i].candidate).scalar
                       for i in range(2)]
            grasp_est = decompose(*scalars)[0]
            grasp_true = min(j.force_scalar for j in pkt.truth.jaws)
            history.append((t, grasp_est, grasp_true))
            if not trigger.update(grasp_est):
                closure = min(closure + speed * dt, max_closure)
            t += dt
            if trigger.fired and k >= trigger.fire_index + 15:
                break
        h = np.array(history)
        if not trigger.fired:
            ok = False
            rows.append({"threshold": thr, "fired": False})
            continue
        fired_frame = trigger.fire_index
        pre = h[max(0, fired_frame - 1), 1]
        peak = h[fired_frame:, 2].max()
        increment = np.diff(h[:fired_frame + 1, 2]).max() if fired_frame > 0 else 0.0
        overshoot = peak - thr
        rows.append({"threshold": thr, "fired": True, "fire_time": h[fired_frame, 0],
                     "peak_true": float(peak), "overshoot": float(overshoot),
                     "max_frame_increment": float(increment)})
        if pre >= thr or overshoot > increment + 0.25:
            ok = False
    (out_dir / "chip.json").write_text(json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n")
    return {"rows": rows}, ok


def tune_epsilon(out_dir: Path, seed: int = 0, n_trials: int = 150,
                 noise_sigma: float = 0.001, max_displacement: float = 0.010,
                 eps_grid=None) -> Path:
    """Per-candidate line search minimizing round-trip force error on
    noisy single-point-load scenes; writes the schedule file.

    Trial force magnitudes span each candidate's working range: from 0.5 N
    up to the smaller of the operating range ``NORMALIZATION_RANGE_N`` (the
    force range the estimates are scored over) and the force that displaces
    the candidate by ``max_displacement`` along the grasp axis. The cap is
    recorded in the file as ``meta.force_max_n``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    fixture = canonical_jaw()
    system = cached_system(fixture.mesh, MaterialModel())
    ops = precompute_compliance(system, fixture.keypoint_ids, fixture.candidate_ids)
    if eps_grid is None:
        eps_grid = [0.0] + list(np.logspace(-7, -2, 14))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_c = len(fixture.candidate_ids)
    effectors = EffectorSet.from_fixture(fixture)
    rest = effectors.rest_positions
    schedule = {}
    eps_values = list(dict.fromkeys(list(eps_grid) + [DEFAULT_EPSILON]))
    for ci in range(n_c):
        f_max = min(NORMALIZATION_RANGE_N, max_displacement / float(ops.w_aa[ci][0, 0]))
        mags = rng.uniform(0.5, f_max, n_trials)
        dirs = rng.normal(scale=0.2, size=(n_trials, 3)) + np.array([-1.0, 0.0, 0.0])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        forces = mags[:, None] * dirs
        noise = noise_sigma * rng.standard_normal((n_trials, len(rest), 3))
        cand_sets = {eps: ContactCandidateSet.from_fixture(fixture, epsilons=eps,
                                                           mounted_index=ci)
                     for eps in eps_values}
        errors = {eps: [] for eps in eps_values}
        for k in range(n_trials):
            u_kp = ops.w_ea[ci].reshape(-1, 3) @ forces[k]
            targets = rest + u_kp.reshape(-1, 3) + noise[k]
            eff = replace(effectors, targets=targets,
                          active=np.ones(len(rest), dtype=bool))
            for eps in eps_values:
                sol = solve(ops, eff, cand_sets[eps])
                errors[eps].append(np.linalg.norm(sol.lam - forces[k]))
        rmse = {eps: float(np.sqrt(np.mean(np.square(e)))) for eps, e in errors.items()}
        best = min(eps_grid, key=lambda e: rmse[e])
        if rmse[best] >= rmse[DEFAULT_EPSILON]:
            logger.warning("candidate %d: search did not improve on default, keeping %g",
                           ci, DEFAULT_EPSILON)
            best = DEFAULT_EPSILON
        schedule[f"epsilon.{ci}"] = float(best)
    schedule["meta.force_max_n"] = NORMALIZATION_RANGE_N
    schedule["meta.seed"] = seed
    schedule["meta.n_trials"] = n_trials
    schedule["meta.noise_sigma"] = noise_sigma
    path = out_dir / "epsilon_schedule.cfg"
    cfgmod.save_config(schedule, path)
    return path


def _write_report(out_dir: Path, report: MetricsReport) -> None:
    (out_dir / f"report-{report.suite}.json").write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    (out_dir / f"report-{report.suite}.md").write_text(report.markdown())


def rescore_runs(run_dir: Path, out_dir: Path) -> MetricsReport:
    """Re-aggregate metrics from existing run CSVs without re-simulation,
    each scored by ``scored_series``."""
    conditions = []
    for csv_path in sorted(run_dir.glob("*.csv")):
        sim, gt, _ = scored_series(load_run_csv(csv_path))
        if len(sim):
            conditions.append(ConditionMetrics.from_cycles(csv_path.stem, [sim], [gt]))
    report = MetricsReport("rescore", conditions, notes={"source": str(run_dir)})
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir, report)
    return report


# ---------------------------------------------------------------------------
# CLI

def _out_dir(args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{default_name}-{stamp}"


def _load_mesh(path: str) -> SurfaceMesh:
    p = Path(path)
    if p.suffix.lower() == ".obj":
        v, t = load_obj(p)
    else:
        v, t, _ = load_off(p)
    return SurfaceMesh(v, t)


def cmd_genmesh(args) -> int:
    params = JawParams()
    if args.config:
        params = cfgmod.from_flat(params, cfgmod.load_config(args.config), "jaw")
    fixture = generate_jaw(params)
    out = _out_dir(args, "genmesh")
    out.mkdir(parents=True, exist_ok=True)
    off_path, cfg_path = save_fixture(fixture, out / args.name)
    print(f"wrote {off_path} ({fixture.mesh.n_vertices} vertices, "
          f"{len(fixture.mesh.tets)} tets) and {cfg_path}")
    return 0


def cmd_calibrate_mesh(args) -> int:
    mesh = _load_mesh(args.mesh)
    cloud = load_point_cloud(args.cloud)
    camera = CameraModel()
    if args.camera:
        camera = cfgmod.from_flat(camera, cfgmod.load_config(args.camera), "camera")
    truth = _load_mesh(args.truth) if args.truth else None
    result = calibrate(mesh, cloud, camera, truth_mesh=truth)
    out = _out_dir(args, "calibrate")
    out.mkdir(parents=True, exist_ok=True)
    save_off(out / "calibrated.off", result.mesh.vertices, result.mesh.triangles)
    save_obj(out / "calibrated.obj", result.mesh.vertices, result.mesh.triangles)
    (out / "calibration.json").write_text(
        json.dumps(result.report(), indent=2, sort_keys=True) + "\n")
    print(json.dumps(result.report(), indent=2, sort_keys=True))
    return 0


# ``run --suite`` choices: each suite called with the output directory and
# the parsed arguments
_SUITES = {
    "static": lambda out, a: suite_static(out, seed=a.seed, ideal=a.ideal, quick=a.quick),
    "ablation": lambda out, a: suite_ablation(
        out, seeds=tuple(range(a.seed, a.seed + (2 if a.quick else 5))), quick=a.quick),
    "onrobot": lambda out, a: suite_onrobot(out, seed=a.seed, quick=a.quick),
    "sweep": lambda out, a: suite_sweep(out, seed=a.seed),
    "chip": lambda out, a: suite_chip(out, seed=a.seed),
}


def cmd_run(args) -> int:
    if args.suite:
        if args.seed is None:
            args.seed = 0
        out = _out_dir(args, args.suite)
        _, ok = _SUITES[args.suite](out, args)
        print(f"suite {args.suite}: {'ok' if ok else 'FAILED'} -> {out}")
        return 0 if ok else 1
    if not args.config:
        print("run requires --config or --suite", file=sys.stderr)
        return 2
    scenario, settings = run_settings(json.loads(Path(args.config).read_text())["config"])
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    out = _out_dir(args, "run")
    out.mkdir(parents=True, exist_ok=True)
    res = run_estimation(scenario, settings)
    res.to_csv(out / "run.csv")
    res.write_manifest(out / "manifest.json")
    sim, gt, _ = scored_series(res.frames)
    if len(sim):
        r, n = rmse_nrmsd(sim, gt)
        print(f"frames={res.manifest.n_frames} rmse={r:.4f} N nrmsd={n:.2f}%")
    print(f"outputs in {out}")
    return 0


def cmd_tune_epsilon(args) -> int:
    out = _out_dir(args, "tune-epsilon")
    path = tune_epsilon(out, seed=args.seed, n_trials=args.trials)
    print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    report = rescore_runs(Path(args.runs), _out_dir(args, "report"))
    print(report.markdown())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="finray",
        description="Visual grasp-force sensing for fin-ray grippers: "
                    "simulation harness, calibration, and evaluation suites.")
    parser.add_argument("--version", action="version", version=f"finray {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genmesh", help="generate the parametric jaw fixture")
    p.add_argument("--config", help="key-value config with jaw.* parameters")
    p.add_argument("--name", default="jaw")
    p.add_argument("--out")
    p.set_defaults(func=cmd_genmesh)

    p = sub.add_parser("calibrate-mesh", help="scale-calibrate a mesh against a scan")
    p.add_argument("--mesh", required=True, help="OBJ or OFF mesh path")
    p.add_argument("--cloud", required=True, help="PLY or CSV xyz point cloud")
    p.add_argument("--camera", help="key-value config with camera.* intrinsics")
    p.add_argument("--truth", help="optional ground-truth mesh for Chamfer")
    p.add_argument("--out")
    p.set_defaults(func=cmd_calibrate_mesh)

    p = sub.add_parser("run", help="rerun a run's manifest or run an evaluation suite")
    p.add_argument("--config",
                   help="a run's manifest JSON (<stem>.manifest.json or manifest.json): "
                        "reruns the scenario and estimator settings of its config")
    p.add_argument("--suite", choices=list(_SUITES))
    p.add_argument("--ideal", action="store_true",
                   help="noiseless matched-mount mode (static suite)")
    p.add_argument("--quick", action="store_true", help="reduced grids")
    p.add_argument("--seed", type=int,
                   help="seed: a suite's, default 0; with --config, replaces the manifest's")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("tune-epsilon", help="tune per-candidate regularization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=150)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tune_epsilon)

    p = sub.add_parser("report", help="re-score existing run CSVs")
    p.add_argument("--runs", required=True, help="directory of run CSVs")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
