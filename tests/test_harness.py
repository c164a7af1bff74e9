import json
import os
import re
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from finray import harness_cli, pipeline
from finray.config import (
    ConfigError,
    dump_config,
    flatten,
    from_flat,
    load_config,
    parse_config,
    save_config,
    section,
)
from finray.fixtures import JawFixture, JawParams, ShapeSpec, make_object_mesh
from finray.harness_cli import (
    candidate_for_position,
    default_ideal_scenario,
    default_noisy_scenario,
    load_epsilon_schedule,
    main,
    rescore_runs,
    run_grid,
    scored_series,
    static_schedule,
    suite_ablation,
    suite_chip,
    suite_onrobot,
    suite_static,
    suite_sweep,
    tune_epsilon,
)
from finray.mesh_calibration import CameraModel
from finray.mesh_model import MeshError, SurfaceMesh, TetMesh, load_off, save_obj
from finray.metrics_force import rmse_nrmsd
from finray.pipeline import EstimatorSettings, run_estimation, run_settings, scenario_mapping
from finray.sensing_sim import (
    ContactModelConfig,
    NoiseConfig,
    Scenario,
    ScheduleConfig,
    SimEngine,
    synthetic_scan,
)

# a one-cycle static schedule of three short plateaus
SHORT_STATIC = ScheduleConfig(kind="static", plateaus_mm=(0, 6, 0), cycles=1, ramp_s=0.1,
                              settle_s=0.1, record_s=0.1)


def load_fixture(stem) -> JawFixture:
    """The jaw that ``fixtures.save_fixture`` wrote to ``stem``; its params
    are the defaults, which the files do not record."""
    stem = Path(stem)
    verts, _, tets = load_off(stem.with_suffix(".off"))
    if tets is None:
        raise MeshError("fixture OFF file lacks the tet extension block")
    sec = section(load_config(stem.with_suffix(".fixture.cfg")), "fixture")
    mesh = TetMesh(verts, tets, np.array(sec["fixed_ids"]), np.array(sec["inner_ids"]))
    return JawFixture(
        mesh=mesh,
        params=JawParams(),
        candidate_ids=np.array(sec["candidate_ids"]),
        keypoint_ids=np.array(sec["keypoint_ids"]),
        keypoint_is_outer=np.array([bool(b) for b in sec["keypoint_is_outer"]]),
        reference_id=int(sec["reference_id"]),
        l0=float(sec["l0"]),
    )


def write_run_config(path: Path, scenario: Scenario, settings: EstimatorSettings) -> Path:
    """A manifest holding just the ``config`` that ``run --config`` reads."""
    path.write_text(json.dumps({"config": scenario_mapping(scenario, settings)}))
    return path


class TestConfigFormat:
    def test_parse_types(self):
        cfg = parse_config("a.x = 1\na.y = 2.5\na.s = hello\nb.flag = true\n"
                           "b.list = 1, 2, 3\n# comment\n")
        assert cfg["a.x"] == 1
        assert cfg["a.y"] == 2.5
        assert cfg["a.s"] == "hello"
        assert cfg["b.flag"] is True
        assert cfg["b.list"] == (1, 2, 3)

    def test_dump_deterministic(self):
        m = {"b": 2, "a": 1.5, "c": (1, 2)}
        assert dump_config(m) == dump_config(dict(reversed(list(m.items()))))

    def test_roundtrip(self, tmp_path):
        m = {"jaw.height": 0.08, "jaw.n_height": 35, "noise.flag": False}
        p = tmp_path / "c.cfg"
        save_config(m, p)
        assert load_config(p) == m

    def test_section(self):
        out = section({"a.x": 1, "a.y": 2, "b.z": 3}, "a")
        assert out == {"x": 1, "y": 2}

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            parse_config("not a key value line\n")

    @pytest.mark.parametrize("key,value", [
        ("contact.hysteresis_gamma", 0.5),
        ("scenario.refine_oracle", True),
        ("noise.depth_sigma", 0.001),
        ("solver.stationarity_tol", 1e-9),
        ("solver.localize", False),
        ("solver.pre_estimate", False),
        ("solver.initial_mount", 3),
        ("scenario.pose_hz", 10.0),
        ("scenario.gap", 0.048),
        ("scenario.camera_target", (0.0, 0.0, 0.045)),
        ("scenario.material_e", 26e6),
        ("scenario.material_nu", 0.48),
        ("noise.confidence_visible", (0.95, 0.02)),
        ("noise.confidence_occluded", (0.2, 0.1)),
        ("noise.confidence_drift", (0.9, 0.05)),
        ("contact.stiffness", 1e6),
        ("contact.tol", 1e-8),
        ("contact.max_iters", 200),
        ("schedule.release_threshold", 0.02),
        ("solver.confidence_threshold", 0.6),
        ("solver.bbox_margin", 0.012),
        ("solver.pose_timeout", 0.5),
        ("solver.stable_frames", 5),
    ])
    def test_removed_keys_rejected(self, key, value):
        # each key in its manifest form, added to a complete config
        if key.split(".")[0] in ("contact", "noise", "schedule"):
            key = f"scenario.{key}"
        config = scenario_mapping(Scenario(), EstimatorSettings())
        with pytest.raises(ConfigError, match=re.escape(f"unknown config key {key!r}")):
            run_settings({**config, key: value})


class TestCodec:
    """``config.flatten`` and ``config.from_flat``, the one codec between
    settings dataclasses and flat keys."""

    @pytest.mark.parametrize("key,value", [
        ("scenario.dual_jaw", "no"),
        ("scenario.schedule.cycles", 2.9),
        ("scenario.seed", True),
        ("scenario.contact_position", 1),
        ("scenario.object_offset", [0.0, 0.001]),
        ("scenario.shape", 0.01),
        ("solver.epsilons", "0.002"),
    ])
    def test_wrong_type_rejected(self, key, value):
        config = scenario_mapping(Scenario(), EstimatorSettings())
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            run_settings({**config, key: value})

    def test_int_fills_float_and_one_value_or_a_list_fills_tuple(self):
        scenario = from_flat(Scenario(), {"scenario.camera_hz": 60,
                                          "scenario.schedule.plateaus_mm": 4,
                                          "scenario.object_offset": [0, 0.001, 0]}, "scenario")
        assert scenario.camera_hz == 60
        assert scenario.schedule.plateaus_mm == (4,)
        assert scenario.object_offset == (0, 0.001, 0)
        # a float for `tuple | float | None` stays a float, a list is a tuple
        assert from_flat(EstimatorSettings(), {"solver.epsilons": 0.002}, "solver").epsilons == 0.002
        assert from_flat(EstimatorSettings(), {"solver.epsilons": [0.0, 0.1]},
                         "solver").epsilons == (0.0, 0.1)

    def test_flatten_rejects_what_from_flat_cannot_read(self):
        with pytest.raises(ConfigError, match="solver.epsilons"):
            flatten("solver", EstimatorSettings(epsilons=np.array([0.0, 0.1])))
        with pytest.raises(ConfigError, match="scenario.shape.size"):
            flatten("scenario", Scenario(shape=ShapeSpec(size=(np.int64(1), 2, 3))))

    def test_jaw_config_value_of_wrong_type_rejected(self, tmp_path):
        cfg = tmp_path / "jaw.cfg"
        cfg.write_text("jaw.n_height = 35.7\n")
        with pytest.raises(ConfigError, match="'jaw.n_height' takes int, not 35.7"):
            main(["genmesh", "--config", str(cfg), "--out", str(tmp_path)])

    def test_jaw_config_key_outside_prefix_rejected(self, tmp_path):
        cfg = tmp_path / "jaw.cfg"
        cfg.write_text("jaw.n_height = 20\ncamera.fx = 600.0\n")
        with pytest.raises(ConfigError, match="unknown config key 'camera.fx'"):
            main(["genmesh", "--config", str(cfg), "--out", str(tmp_path)])

    def test_camera_config_key_outside_prefix_rejected(self):
        assert from_flat(CameraModel(), {"camera.fx": 600}, "camera").fx == 600
        with pytest.raises(ConfigError, match="unknown config key 'jaw.n_height'"):
            from_flat(CameraModel(), {"camera.fx": 600.0, "jaw.n_height": 20}, "camera")


class TestEpsilonSchedule:
    def test_packaged_schedule_loads(self):
        eps = load_epsilon_schedule()
        assert eps is not None
        assert len(eps) == 14
        assert all(e >= 0 for e in eps)

    def test_tuner_deterministic(self, tmp_path):
        p1 = tune_epsilon(tmp_path / "a", seed=3, n_trials=25)
        p2 = tune_epsilon(tmp_path / "b", seed=3, n_trials=25)
        assert p1.read_bytes() == p2.read_bytes()

    def test_packaged_schedule_reproducible(self, tmp_path):
        packaged = harness_cli._EPSILON_FILE
        meta = section(load_config(packaged), "meta")
        path = tune_epsilon(tmp_path, seed=meta["seed"], n_trials=meta["n_trials"],
                            noise_sigma=meta["noise_sigma"])
        assert path.read_bytes() == packaged.read_bytes()

    def test_tuner_prefers_zero_for_noiseless(self, tmp_path):
        path = tune_epsilon(tmp_path, seed=3, n_trials=20, noise_sigma=0.0)
        eps = load_epsilon_schedule(path)
        assert max(eps) <= 1e-7

    def test_tuned_beats_constant_on_held_out(self, jaw, compliance, rng):
        from dataclasses import replace as dc_replace
        from finray.inverse_solver import ContactCandidateSet, EffectorSet, solve
        tuned = load_epsilon_schedule()
        effectors = EffectorSet.from_fixture(jaw)
        rest = effectors.rest_positions
        err_tuned, err_const = [], []
        for k in range(200):
            ci = int(rng.integers(0, 14))
            mag = rng.uniform(0.5, 10.0)
            d = rng.normal(scale=0.2, size=3) + np.array([-1.0, 0.0, 0.0])
            force = mag * d / np.linalg.norm(d)
            u_kp = compliance.w_ea[ci].reshape(-1, 3) @ force
            targets = rest + u_kp.reshape(-1, 3) + 0.001 * rng.standard_normal((15, 3))
            eff = dc_replace(effectors, targets=targets,
                             active=np.ones(15, dtype=bool))
            for eps, sink in ((tuned[ci], err_tuned), (1e-4, err_const)):
                cand = ContactCandidateSet.from_fixture(jaw, epsilons=eps,
                                                        mounted_index=ci)
                sol = solve(compliance, eff, cand)
                sink.append(np.sum((sol.lam - force) ** 2))
        rmse_tuned = np.sqrt(np.mean(err_tuned))
        rmse_const = np.sqrt(np.mean(err_const))
        assert rmse_tuned <= rmse_const


class TestCLI:
    def test_genmesh(self, tmp_path):
        rc = main(["genmesh", "--out", str(tmp_path), "--name", "jaw"])
        assert rc == 0
        fixture = load_fixture(tmp_path / "jaw")
        assert fixture.mesh.n_vertices == 522
        assert len(fixture.candidate_ids) == 14
        assert len(fixture.keypoint_ids) == 15

    def test_out_defaults_to_stamped_runs_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["genmesh"]) == 0
        assert len(list(tmp_path.glob("runs/genmesh-*/jaw.off"))) == 1

    def test_tune_epsilon_is_not_a_suite(self, capsys):
        # tuning has one entry point, the tune-epsilon subcommand
        with pytest.raises(SystemExit) as exc:
            main(["run", "--suite", "tune-epsilon"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_every_suite_choice_runs_its_suite(self, tmp_path, monkeypatch):
        calls = []
        for name in ("static", "ablation", "onrobot", "sweep", "chip"):
            monkeypatch.setattr(harness_cli, f"suite_{name}",
                                lambda out, name=name, **kw: calls.append((name, kw)) or (None, True))
            assert main(["run", "--suite", name, "--quick", "--seed", "3",
                         "--out", str(tmp_path)]) == 0
        assert calls == [("static", {"seed": 3, "ideal": False, "quick": True}),
                         ("ablation", {"seeds": (3, 4), "quick": True}),
                         ("onrobot", {"seed": 3, "quick": True}),
                         ("sweep", {"seed": 3}), ("chip", {"seed": 3})]

    def test_genmesh_with_config(self, tmp_path):
        cfg = tmp_path / "jaw.cfg"
        cfg.write_text("jaw.n_height = 20\njaw.rib_rows = 5, 9, 13, 17\n")
        rc = main(["genmesh", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        fixture = load_fixture(tmp_path / "jaw")
        assert fixture.mesh.n_vertices < 522

    def test_calibrate_mesh_cli(self, tmp_path):
        cam = CameraModel()
        base = make_object_mesh(ShapeSpec.cuboid((0.03, 0.03, 0.03)))
        truth = SurfaceMesh(base.vertices * 1.2 + np.array([0, 0, 0.35]),
                            base.triangles)
        scan = synthetic_scan(truth, cam, depth_sigma=0.001, seed=4)
        mesh_path = tmp_path / "recon.obj"
        save_obj(mesh_path, base.vertices + np.array([0.01, 0.0, 0.355]),
                 base.triangles)
        cloud_path = tmp_path / "scan.csv"
        np.savetxt(cloud_path, scan.points, fmt="%.17g", delimiter=",")
        out = tmp_path / "out"
        rc = main(["calibrate-mesh", "--mesh", str(mesh_path), "--cloud",
                   str(cloud_path), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "calibration.json").read_text())
        assert report["total_scale"] == pytest.approx(1.2, rel=0.02)
        assert report["watertight"]
        assert isinstance(report["icp_iterations"], int) and report["icp_iterations"] > 0
        assert (out / "calibrated.off").exists()
        assert (out / "calibrated.obj").exists()

    def test_run_scenario_config(self, tmp_path):
        # --seed replaces the manifest's seed and nothing else
        scenario = Scenario(shape=ShapeSpec.cylinder(0.015), schedule=SHORT_STATIC,
                            occlusion_mode="confidence", noise=NoiseConfig(),
                            contact=ContactModelConfig(model="point"))
        settings = EstimatorSettings(epsilons=load_epsilon_schedule())
        cfg = write_run_config(tmp_path / "scenario.manifest.json", scenario, settings)
        out = tmp_path / "run"
        rc = main(["run", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert (out / "run.csv").exists()
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert run_settings(config) == (replace(scenario, seed=3), settings)

    def test_run_determinism_via_cli(self, tmp_path):
        scenario = Scenario(schedule=SHORT_STATIC, occlusion_mode="confidence",
                            noise=NoiseConfig())
        cfg = write_run_config(tmp_path / "scenario.manifest.json", scenario,
                               EstimatorSettings(epsilons=load_epsilon_schedule()))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--seed", "7",
                         "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "run.csv").read_bytes() == (outs[1] / "run.csv").read_bytes()
        assert (outs[0] / "manifest.json").read_bytes() == \
            (outs[1] / "manifest.json").read_bytes()

    def test_report_rescore(self, tmp_path):
        cfg = write_run_config(tmp_path / "scenario.manifest.json",
                               Scenario(schedule=SHORT_STATIC, noise=NoiseConfig()),
                               EstimatorSettings(epsilons=load_epsilon_schedule()))
        run_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg), "--out", str(run_dir)]) == 0
        out = tmp_path / "report"
        rc = main(["report", "--runs", str(run_dir), "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "report-rescore.json").read_text())
        assert data["suite"] == "rescore"
        assert len(data["conditions"]) == 1

    def test_report_scores_dual_jaw_runs_on_the_grasp_force(self, tmp_path):
        scenario = default_noisy_scenario(
            shape=ShapeSpec.cylinder(0.025), seed=3, dual_jaw=True,
            schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=8.0, target_force=2.0,
                                    hold_s=0.2),
            contact=ContactModelConfig(model="point"))
        res = run_estimation(scenario, EstimatorSettings())
        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        res.to_csv(run_dir / "grasp.csv")
        assert main(["report", "--runs", str(run_dir), "--out", str(tmp_path / "report")]) == 0
        (cond,) = json.loads((tmp_path / "report" / "report-rescore.json").read_text())["conditions"]
        grasp_sim, grasp_gt = res.column("grasp_sim"), res.column("grasp_gt")
        finite = np.isfinite(grasp_sim)
        rmse, nrmsd = rmse_nrmsd(grasp_sim[finite], grasp_gt[finite])
        assert cond["rmse_mean"] == pytest.approx(rmse, rel=1e-12)
        assert cond["nrmsd_mean"] == pytest.approx(nrmsd, rel=1e-12)
        assert rmse != pytest.approx(rmse_nrmsd(res.column("f_sim_n"), res.column("f_gt_n"))[0])

    def test_dual_jaw_run_prints_the_rmse_report_gives(self, tmp_path, capsys):
        # `run` and `report` score one dual-jaw CSV by the same rule, the
        # grasp force, not jaw 0's force
        scenario = Scenario(
            shape=ShapeSpec.cylinder(0.025), dual_jaw=True, occlusion_mode="confidence",
            noise=NoiseConfig(), contact=ContactModelConfig(model="point"),
            schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=8.0, target_force=2.0,
                                    hold_s=0.2))
        cfg = write_run_config(tmp_path / "grasp.manifest.json", scenario,
                               EstimatorSettings(epsilons=load_epsilon_schedule()))
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--seed", "3", "--out", str(run_dir)]) == 0
        printed = re.search(r"rmse=(\S+) N", capsys.readouterr().out).group(1)
        assert main(["report", "--runs", str(run_dir), "--out", str(tmp_path / "report")]) == 0
        (cond,) = json.loads((tmp_path / "report" / "report-rescore.json").read_text())["conditions"]
        assert printed == f"{cond['rmse_mean']:.4f}"
        rows = pipeline.load_run_csv(run_dir / "run.csv")
        jaw0 = [r for r in rows if r["jaw"] == 0]
        jaw_rmse, _ = rmse_nrmsd(np.array([r["f_sim_n"] for r in jaw0]),
                                 np.array([r["f_gt_n"] for r in jaw0]))
        assert printed != f"{jaw_rmse:.4f}"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])


class TestSuiteUtilities:
    def test_candidate_for_position_ordering(self):
        lo = candidate_for_position("lower")
        mid = candidate_for_position("middle")
        up = candidate_for_position("upper")
        assert lo < mid < up

    def test_chip_suite(self, tmp_path):
        report, ok = suite_chip(tmp_path, seed=0, thresholds=(2.0, 4.0),
                                speed_mm_s=4.0)
        assert ok
        rows = report["rows"]
        assert all(r["fired"] for r in rows)
        for r in rows:
            # stop latency bounded by one frame of force growth
            assert r["overshoot"] <= r["max_frame_increment"] + 0.25

    def test_chip_stops_closing_at_the_schedule_cap(self, tmp_path, monkeypatch):
        # a threshold no grasp reaches: the jaws close to the schedule's
        # max_closure_mm and hold there until the frame budget runs out
        closures = []
        frame = SimEngine.frame

        def recording_frame(engine, t, closure, *args, **kw):
            closures.append(closure)
            return frame(engine, t, closure, *args, **kw)

        monkeypatch.setattr(SimEngine, "frame", recording_frame)
        report, ok = suite_chip(tmp_path, thresholds=(1000.0,))
        assert not ok
        assert report["rows"] == [{"threshold": 1000.0, "fired": False}]
        assert len(closures) == 1200
        assert max(closures) == ScheduleConfig().max_closure_mm * 1e-3

    def test_reports_agree_with_rescoring_their_csvs(self, tmp_path):
        # each run re-scored from its CSV alone gives the RMSE its suite
        # reported for the run's condition
        reports = [suite_onrobot(tmp_path / "onrobot", quick=True)[0],
                   suite_static(tmp_path / "static", quick=True, cycles=1)[0]]
        for report, n_runs in zip(reports, (3, 9)):
            rescored = rescore_runs(tmp_path / report.suite, tmp_path / f"rescore-{report.suite}")
            condition_of = {c.label: c.rmse_mean for c in report.conditions}
            got = {c.label.removeprefix(f"{report.suite}-").removesuffix("-r0"): c.rmse_mean
                   for c in rescored.conditions}
            assert len(got) == n_runs
            assert got == condition_of

    def test_ideal_static_suite_is_exact(self, tmp_path):
        # ideal sensing, matched mount, eps = 0: every cell within 1e-5 N
        report, ok = suite_static(tmp_path, ideal=True, quick=True, cycles=1)
        assert ok
        assert len(report.conditions) == 9
        assert all(c.rmse_mean <= 1e-5 for c in report.conditions)

    def test_ideal_estimator_mode_upper_d25_is_exact(self):
        # the ideal static cell upper-d25 as the quick suite runs it, with
        # the localizer choosing the mount: every recorded contact frame
        # mounts the true candidate and the estimate is exact
        scenario = default_ideal_scenario(shape=ShapeSpec.cylinder(0.025), contact_position="upper",
                                          schedule=static_schedule(1, quick=True), seed=0)
        res = run_estimation(scenario, EstimatorSettings(mount_mode="estimator", epsilons=0.0))
        recorded = res.recorded_mask()
        true_c = res.column("true_candidate")
        contact = recorded & (true_c >= 0)
        assert contact.sum() == 27
        assert np.array_equal(res.column("mounted")[contact], true_c[contact])
        rmse, _ = rmse_nrmsd(res.column("f_sim_n")[recorded], res.column("f_gt_n")[recorded])
        assert rmse <= 1e-5

    def test_sweep_writes_a_manifest_per_csv(self, tmp_path):
        suite_sweep(tmp_path, speeds_mm_s=(8.0,))
        csvs = sorted(tmp_path.glob("*.csv"))
        assert [p.name for p in csvs] == ["sweep-v8.0.csv"]
        for csv in csvs:
            manifest = json.loads(csv.with_suffix(".manifest.json").read_text())
            assert manifest["n_frames"] * 2 == len(csv.read_text().splitlines()) - 1

    def test_ablation_max_error_is_the_largest_absolute_error(self, tmp_path):
        # each condition's max error is the largest |sim - gt| over its
        # runs' scored series, not the largest per-seed RMSE
        report, _ = suite_ablation(tmp_path, seeds=(0,), quick=True)
        assert len(report.conditions) == 12
        for cm in report.conditions:
            real, cfg = cm.label.removeprefix("real=").split("|sim=")
            sim, gt, _ = scored_series(
                pipeline.load_run_csv(tmp_path / f"ablation-{real}-{cfg}-s0.csv"))
            assert cm.max_error == np.abs(sim - gt).max()
            assert cm.rmse_mean == rmse_nrmsd(sim, gt)[0] < cm.max_error

    def test_run_grid_pairs_cells_with_settings_in_label_order(self, monkeypatch):
        monkeypatch.setattr(harness_cli, "run_estimation", lambda sc, st: (sc, st))
        out = run_grid({"b": "scen-b", "a": "scen-a"}, {"a": "set-a", "b": "set-b"})
        assert list(out.items()) == [("a", ("scen-a", "set-a")), ("b", ("scen-b", "set-b"))]



def rerun_cell(cell: str) -> tuple[Scenario, EstimatorSettings]:
    """A dual-jaw wedge grasp at seed 1 with the tuned schedule and a yawed,
    offset object, or a distributed static cell with a fixed mount and one
    epsilon."""
    if cell == "grasp":
        return (default_noisy_scenario(
                    shape=ShapeSpec.wedge(), dual_jaw=True, seed=1, object_yaw_deg=3.0,
                    object_offset=(0.0, 0.001, 0.0), contact=ContactModelConfig(model="point"),
                    schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=8.0,
                                            target_force=3.0, hold_s=0.2)),
                EstimatorSettings(epsilons=load_epsilon_schedule()))
    return (default_noisy_scenario(
                shape=ShapeSpec.cylinder(0.025), contact_position="lower",
                schedule=ScheduleConfig(kind="static", cycles=1, plateaus_mm=(0, 4, 0)),
                contact=ContactModelConfig(model="distributed", viscous_gamma=0.25,
                                           viscous_tau=8.0)),
            EstimatorSettings(mount_mode="fixed", fixed_index=3, epsilons=0.002))


class TestManifestRerun:
    @pytest.mark.parametrize("cell", ["grasp", "static"])
    def test_rerun_from_manifest_is_byte_identical(self, cell, tmp_path):
        # run, write, rebuild the run settings from the written manifest's
        # config alone, run again, write again
        scenario, settings = rerun_cell(cell)
        written = []
        for name in ("first", "rerun"):
            res = run_estimation(scenario, settings)
            res.to_csv(tmp_path / f"{name}.csv")
            res.write_manifest(tmp_path / f"{name}.manifest.json")
            written.append(((tmp_path / f"{name}.csv").read_bytes(),
                            (tmp_path / f"{name}.manifest.json").read_bytes()))
            config = json.loads(written[-1][1])["config"]
            scenario, settings = run_settings(config)
        assert written[0] == written[1]
        assert len(written[0][0].splitlines()) > 50

    @pytest.mark.parametrize("cell", ["grasp", "static"])
    def test_cli_rerun_of_a_suite_run_is_byte_identical(self, cell, tmp_path):
        # a run written as the suites write it, rerun from its manifest
        # through the command line
        harness_cli._write_run(run_estimation(*rerun_cell(cell)), tmp_path, cell)
        out = tmp_path / "rerun"
        assert main(["run", "--config", str(tmp_path / f"{cell}.manifest.json"),
                     "--out", str(out)]) == 0
        assert (out / "run.csv").read_bytes() == (tmp_path / f"{cell}.csv").read_bytes()
        assert (out / "manifest.json").read_bytes() == \
            (tmp_path / f"{cell}.manifest.json").read_bytes()

    def test_incomplete_or_unknown_keys_rejected(self):
        config = scenario_mapping(default_noisy_scenario(), EstimatorSettings())
        assert run_settings(config) == (default_noisy_scenario(), EstimatorSettings())
        with pytest.raises(ConfigError, match="lacks 'scenario.shape.radius'"):
            run_settings({k: v for k, v in config.items() if k != "scenario.shape.radius"})
        with pytest.raises(ConfigError, match="unknown config key 'scenario.gap'"):
            run_settings({**config, "scenario.gap": 0.048})
        with pytest.raises(ConfigError, match="unknown config key 'seed'"):
            run_settings({**config, "seed": 3})


class TestBlasThreads:
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # a distributed static cell and a dual-jaw wedge grasp, each run in
        # a fresh process with one and with two BLAS threads, write the
        # same CSV and manifest bytes
        code = """
import sys
from pathlib import Path
from finray.fixtures import ShapeSpec
from finray.harness_cli import default_noisy_scenario, load_epsilon_schedule
from finray.pipeline import EstimatorSettings, run_estimation
from finray.sensing_sim import ContactModelConfig, ScheduleConfig
cells = {
    "static": default_noisy_scenario(
        shape=ShapeSpec.cylinder(0.035), contact_position="lower",
        schedule=ScheduleConfig(kind="static", cycles=1, plateaus_mm=(0, 4, 10, 4, 0)),
        contact=ContactModelConfig(model="distributed", viscous_gamma=0.25, viscous_tau=8.0)),
    "grasp": default_noisy_scenario(
        shape=ShapeSpec.wedge(), dual_jaw=True, contact=ContactModelConfig(model="point"),
        schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=8.0, target_force=3.0,
                                hold_s=0.2)),
}
settings = EstimatorSettings(epsilons=load_epsilon_schedule())
for name, scenario in cells.items():
    res = run_estimation(scenario, settings)
    res.to_csv(Path(sys.argv[1]) / f"{name}.csv")
    res.write_manifest(Path(sys.argv[1]) / f"{name}.manifest.json")
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True)
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(written[0]) == 4
        assert written[0] == written[1]
        assert len(written[0]["grasp.csv"].splitlines()) > 100


class TestBenchmarkSelftest:
    def test_perfbench_selftest_passes(self):
        # the benchmark calls the harness and pipeline by name; its self-test
        # runs every workload small and writes only under perfbench/out/
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


class TestTraceTargets:
    def test_every_traced_name_exists(self):
        # perfbench wraps these by name; a missing one stops a traced run,
        # and a missing frame-clock name (the last two) stops every run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spans = types.ModuleType("perfbench_spans")
        exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
        targets = [(owner, attr) for owner, attr, _, _ in spans.TARGETS]
        targets += [(pipeline, "run_scenario"), (pipeline.JawEstimator, "step")]
        missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
                   for owner, attr in targets if attr not in owner.__dict__]
        assert missing == []


def load_bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    module = types.ModuleType("bench_pairs")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


class TestBenchPairs:
    def test_summary_of_synthetic_pairs(self):
        tool = load_bench_pairs()
        parent, change = [10.0, 12.0, 11.0, 13.0, 9.0], [12.0, 12.0, 14.0, 15.0, 8.0]
        higher = tool.summarize(parent, change, "higher")
        assert higher["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
        assert higher["change"] == {"median": 12.0, "q1": 12.0, "q3": 14.0}
        assert (higher["change_wins"], higher["ties"]) == (3, 1)
        assert higher["median_ratio"] == 12.0 / 11.0
        assert higher["parent_iqr"] == 2.0
        assert higher["parent_runs"] == parent and higher["change_runs"] == change
        lower = tool.summarize(parent, change, "lower")
        assert (lower["change_wins"], lower["ties"]) == (1, 1)
        with pytest.raises(ValueError):
            tool.summarize(parent, change[:-1], "higher")

    def test_seed_ranges(self):
        assert load_bench_pairs().parse_seeds("3101-3103,3110") == [3101, 3102, 3103, 3110]

    def test_pairs_alternate_and_keep_each_run(self, monkeypatch):
        # a fake run: the metric is the seed, plus one on the change side
        tool = load_bench_pairs()
        calls = []
        benchmark = json.loads((Path(__file__).resolve().parents[1]
                                / "BENCHMARK.json").read_text())

        def fake_run(checkout, workload, seed, seconds):
            calls.append((checkout.name, seed, seconds))
            value = seed + (checkout.name == "change")
            return {"failed": seed % 2, "attempted": 10, "metrics": {
                spec["name"]: {"value": float(value), "unit": spec["unit"]}
                for spec in benchmark["end_to_end"]}}

        monkeypatch.setattr(tool, "run_once", fake_run)
        entry = tool.run_pairs(Path("parent"), Path("change"), "twin_replay", [4, 5, 6],
                               benchmark)
        seconds = benchmark["run_seconds"]
        assert calls == [("parent", 4, seconds), ("change", 4, seconds),
                         ("change", 5, seconds), ("parent", 5, seconds),
                         ("parent", 6, seconds), ("change", 6, seconds)]
        assert entry["first_in_pair"] == ["parent", "change", "parent"]
        assert entry["failed_attempted"]["parent"] == [[0, 10], [1, 10], [0, 10]]
        fps = entry["metrics"]["frames_per_s"]
        assert fps["parent_runs"] == [4.0, 5.0, 6.0] and fps["change_runs"] == [5.0, 6.0, 7.0]
        assert (fps["change_wins"], entry["metrics"]["setup_s"]["change_wins"]) == (3, 0)
        assert fps["bound"] == 0.2 and fps["unit"] == "1/s"


def load_reference_cells(monkeypatch):
    # the tool pins the BLAS thread counts and puts src/ on the path as it
    # loads; restore both after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parents[1] / "tools" / "reference_cells.py"
    module = types.ModuleType("reference_cells")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


class TestReferenceCells:
    def test_expected_file_holds_every_cell(self, monkeypatch):
        tool = load_reference_cells(monkeypatch)
        root = Path(__file__).resolve().parents[1]
        expected = tool.read_expected(root / "tools" / "reference_cells.sha256")
        assert list(expected) == list(tool.reference_cells())
        assert all(len(h) == 64 and int(h, 16) >= 0 for pair in expected.values() for h in pair)

    def test_expect_names_every_label_that_differs(self, monkeypatch, tmp_path, capsys):
        # two small static cells: the printed lines pass as their own
        # expectation; a changed manifest digest and a missing label fail,
        # and each is named
        tool = load_reference_cells(monkeypatch)
        cell = Scenario(shape=ShapeSpec.cylinder(0.015),
                        schedule=ScheduleConfig(kind="static", plateaus_mm=(0, 4, 0), ramp_s=0.1,
                                                settle_s=0.1, record_s=0.1, cycles=1))
        monkeypatch.setattr(tool, "reference_cells",
                            lambda: {"small": cell, "seeded": replace(cell, seed=4)})
        out = tmp_path / "cells"
        assert tool.main([str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["small", "seeded"]
        good, bad = tmp_path / "good.sha256", tmp_path / "bad.sha256"
        good.write_text("# a comment\n" + "\n".join(lines) + "\n")
        label, csv, manifest = lines[1].split()
        bad.write_text(f"{label} {csv} {manifest[::-1]}\n")
        assert tool.main([str(out), "--expect", str(good)]) == 0
        assert capsys.readouterr().err == ""
        assert tool.main([str(out), "--expect", str(bad)]) == 1
        assert capsys.readouterr().err == f"differs from {bad}: small, seeded\n"
