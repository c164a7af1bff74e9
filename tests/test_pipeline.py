import json
import logging

import numpy as np

from finray.fixtures import ShapeSpec
from finray.mesh_model import TriangleBVH
from finray.pipeline import (
    EstimatorSettings,
    JawEstimator,
    load_run_csv,
    run_estimation,
)
from finray.sensing_sim import (
    ContactModelConfig,
    NoiseConfig,
    Scenario,
    ScheduleConfig,
    SimEngine,
)


def quick_static(cycles=1, plateaus=(0, 4, 10, 4, 0), **kw):
    base = dict(
        shape=ShapeSpec.cylinder(0.015),
        contact_position="middle",
        schedule=ScheduleConfig(kind="static", plateaus_mm=plateaus, ramp_s=0.1,
                                settle_s=0.1, record_s=0.1, cycles=cycles),
        noise=NoiseConfig.ideal(),
        contact=ContactModelConfig(model="point"),
        seed=5,
    )
    base.update(kw)
    return Scenario(**base)


class TestRunEstimation:
    def test_ideal_matched_is_exact(self):
        res = run_estimation(quick_static(), EstimatorSettings(
            mount_mode="matched", epsilons=0.0))
        err = np.abs(np.array(
            [[r["f_sim_x"] - r["f_gt_x"], r["f_sim_y"] - r["f_gt_y"],
              r["f_sim_z"] - r["f_gt_z"]] for r in res.frames]))
        assert err.max() <= 1e-5

    def test_estimator_mode_finds_candidate(self):
        res = run_estimation(quick_static(), EstimatorSettings(
            mount_mode="estimator", epsilons=0.0))
        contact = res.column("true_candidate") >= 0
        mounted = res.column("mounted")
        true_c = res.column("true_candidate")
        assert (mounted[contact] == true_c[contact]).all()

    def test_pre_contact_force_is_zero(self):
        res = run_estimation(quick_static(), EstimatorSettings(
            mount_mode="estimator", epsilons=0.0))
        free = res.column("true_candidate") < 0
        assert np.abs(res.column("f_sim_n")[free]).max() <= 1e-9

    def test_csv_roundtrip(self, tmp_path):
        res = run_estimation(quick_static(), EstimatorSettings())
        path = tmp_path / "run.csv"
        res.to_csv(path)
        rows = load_run_csv(path)
        assert len(rows) == len(res.frames)
        k = len(rows) // 2
        assert rows[k]["f_sim_n"] == res.frames[k]["f_sim_n"]
        assert rows[k]["mounted"] == res.frames[k]["mounted"]
        assert rows[k]["stage"] == res.frames[k]["stage"]

    def test_manifest_fields(self, tmp_path):
        res = run_estimation(quick_static(), EstimatorSettings())
        path = tmp_path / "manifest.json"
        res.write_manifest(path)
        data = json.loads(path.read_text())
        assert data["seed"] == 5
        assert "config_hash" in data
        assert data["n_frames"] == len(res.frames)

    def test_manifest_config_keys_are_pinned(self, tmp_path):
        # every key a run records; a new setting is a deliberate edit here
        res = run_estimation(quick_static(plateaus=(0,)), EstimatorSettings())
        res.write_manifest(tmp_path / "manifest.json")
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert sorted(config) == [
            "scenario.camera_eye", "scenario.camera_hz", "scenario.clearance_mm",
            "scenario.contact.model", "scenario.contact.viscous_gamma",
            "scenario.contact.viscous_tau", "scenario.contact_position", "scenario.dual_jaw",
            "scenario.noise.drift_background_prob", "scenario.noise.keypoint_sigma",
            "scenario.noise.pose_rot_deg", "scenario.noise.pose_trans_sigma",
            "scenario.object_offset", "scenario.object_yaw_deg", "scenario.occlusion_mode",
            "scenario.schedule.closing_speed_mm_s", "scenario.schedule.cycles",
            "scenario.schedule.hold_s", "scenario.schedule.kind",
            "scenario.schedule.max_closure_mm", "scenario.schedule.plateaus_mm",
            "scenario.schedule.ramp_s", "scenario.schedule.record_s",
            "scenario.schedule.settle_s", "scenario.schedule.target_force", "scenario.seed",
            "scenario.shape.half_width_bottom", "scenario.shape.half_width_top",
            "scenario.shape.kind", "scenario.shape.length", "scenario.shape.radius",
            "scenario.shape.size", "scenario.shape.wedge_height",
            "solver.epsilons", "solver.fixed_index", "solver.mount_mode",
        ]

    def test_byte_identical_reruns(self, tmp_path):
        scenario = quick_static(noise=NoiseConfig(), occlusion_mode="confidence",
                                contact=ContactModelConfig(model="distributed"),
                                seed=11)
        settings = EstimatorSettings()
        paths = []
        for i in range(2):
            res = run_estimation(scenario, settings)
            p = tmp_path / f"run{i}.csv"
            res.to_csv(p)
            res.write_manifest(tmp_path / f"man{i}.json")
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "man0.json").read_bytes() == (tmp_path / "man1.json").read_bytes()

    def test_dual_jaw_records_decomposition(self):
        scenario = quick_static(dual_jaw=True)
        res = run_estimation(scenario, EstimatorSettings(mount_mode="matched",
                                                         epsilons=0.0))
        grasp = res.column("grasp_sim")
        assert np.isfinite(grasp).all()
        left = res.column("f_sim_n", jaw=0)
        right = res.column("f_sim_n", jaw=1)
        expect = np.minimum(np.abs(left), np.abs(right))
        assert np.allclose(grasp, expect)


class TestDegradedFrames:
    def test_insufficient_effectors_holds_last(self, jaw):
        scenario = quick_static()
        engine = SimEngine(scenario)
        est = JawEstimator(engine, 0, EstimatorSettings(mount_mode="matched",
                                                        epsilons=0.0))
        dt = 1.0 / 30.0
        pkt = engine.frame(0.0, 0.006, "load", True, dt)
        fe1 = est.step(pkt.observations[0], 0.0, pkt.truth.jaws[0].candidate)
        assert not fe1.degraded
        # starve the filter: every keypoint below the confidence threshold
        obs = pkt.observations[0]
        obs.confidence = np.full(15, 0.1)
        fe2 = est.step(obs, dt, pkt.truth.jaws[0].candidate)
        assert fe2.degraded
        assert fe2.n_active == 0
        assert np.array_equal(fe2.lam, fe1.lam)

    def test_degenerate_solve_holds_last(self, jaw, compliance):
        # at eps = 0 an all-zero effector response leaves the stationarity
        # system singular: the frame is degraded instead of aborting
        class ZeroOps:
            n_effectors = compliance.n_effectors
            w_ea = np.zeros_like(compliance.w_ea)
            w_aa = compliance.w_aa
            fields = compliance.fields

        engine = SimEngine(quick_static())
        est = JawEstimator(engine, 0, EstimatorSettings(epsilons=0.0), compliance=ZeroOps)
        dt = 1.0 / 30.0
        for k, closure in enumerate((0.0, 0.006)):
            pkt = engine.frame(k * dt, closure, "load", True, dt)
            fe = est.step(pkt.observations[0], k * dt, pkt.truth.jaws[0].candidate)
            assert fe.degraded
            assert np.array_equal(fe.lam, np.zeros(3))
            assert fe.mounted_index == est.candidates.mounted_index

    def test_stale_pose_flags_degraded(self):
        scenario = quick_static()
        engine = SimEngine(scenario)
        est = JawEstimator(engine, 0, EstimatorSettings())
        dt = 1.0 / 30.0
        pkt0 = engine.frame(0.0, -0.002, "pre", False, dt)
        est.step(pkt0.observations[0], 0.0, -1)
        # a later frame with no fresh pose and no stable contact
        pkt1 = engine.frame(1.0, -0.002, "pre", False, dt)
        obs = pkt1.observations[0]
        obs.pose_sample = None
        fe = est.step(obs, 2.0, -1)
        assert fe.pose_source == "stale"
        assert fe.degraded


class TestPreEstimationNoInfluence:
    def test_pre_contact_identical_forces(self, rng):
        # random pre-contact poses: the solved force never differs between
        # the localizing estimator and a fixed mount at the initial middle
        # candidate (fixed_index 7)
        diffs = []
        for k in range(10):
            offset = (float(rng.uniform(-0.004, 0.004)),
                      float(rng.uniform(-0.003, 0.003)),
                      float(rng.uniform(-0.004, 0.004)))
            yaw = float(rng.uniform(-12.0, 12.0))
            scenario = quick_static(
                plateaus=(0, 0), object_offset=offset, object_yaw_deg=yaw,
                clearance_mm=3.0, seed=100 + k)
            r_on = run_estimation(scenario, EstimatorSettings(
                mount_mode="estimator", epsilons=0.0))
            r_off = run_estimation(scenario, EstimatorSettings(
                mount_mode="fixed", epsilons=0.0))
            n_on = np.linalg.norm(
                np.column_stack([r_on.column("f_sim_x"), r_on.column("f_sim_y"),
                                 r_on.column("f_sim_z")]), axis=1)
            n_off = np.linalg.norm(
                np.column_stack([r_off.column("f_sim_x"), r_off.column("f_sim_y"),
                                 r_off.column("f_sim_z")]), axis=1)
            assert (r_on.column("true_candidate") < 0).all(), "scene made contact"
            diffs.append(np.abs(n_on - n_off).max())
        assert max(diffs) <= 1e-9


class TestLazyRefit:
    def count_calls(self, monkeypatch, name):
        method = getattr(TriangleBVH, name)
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(self)
            return method(self, *args, **kwargs)

        monkeypatch.setattr(TriangleBVH, name, counting)
        return calls

    def test_disjoint_step_refits_nothing(self, monkeypatch):
        # the pre-estimate moves the twin along x only, so an object 0.2 m
        # above the jaw stays clear of it
        engine = SimEngine(quick_static(plateaus=(0, 0), clearance_mm=3.0,
                                        object_offset=(0.0, 0.0, 0.2)))
        est = JawEstimator(engine, 0, EstimatorSettings())
        calls = self.count_calls(monkeypatch, "refit")
        pkt = engine.frame(0.0, 0.0, "pre", False, 1.0 / 30.0)
        fe = est.step(pkt.observations[0], 0.0, -1)
        assert fe.pose_source == "fresh" and not fe.status
        (lo_j, hi_j), (lo_t, hi_t) = est.jaw_surface.bounds(), est.twin.bounds()
        assert np.any(lo_j > hi_t) or np.any(lo_t > hi_j)
        assert calls == []

    def test_overlapping_steps_fit_no_tree(self, monkeypatch, caplog, fresh_caches):
        # the jaw is only sampled and the twin is placed rigidly and tested
        # in its own frame: over a run of overlapping steps the only tree
        # the estimators build is their twin grid's, fit once by its build,
        # and two estimators on one twin mesh share one grid
        caplog.set_level(logging.DEBUG, logger="finray.mesh_model")
        engine = SimEngine(quick_static())
        n_steps = 4
        packets = [engine.frame(k / 30.0, 0.004 + 0.001 * k, "load", True, 1.0 / 30.0)
                   for k in range(n_steps)]
        builds = self.count_calls(monkeypatch, "__init__")
        refits = self.count_calls(monkeypatch, "refit")
        ests = [JawEstimator(engine, 0, EstimatorSettings()) for _ in range(2)]
        for k, pkt in enumerate(packets):
            for est in ests:
                assert est.step(pkt.observations[0], k / 30.0,
                                pkt.truth.jaws[0].candidate).status
        grid = ests[0].twin.grid()
        assert ests[1].twin.grid() is grid
        assert builds == refits == [grid.bvh()]
        grid_builds = [r for r in caplog.records
                       if r.getMessage().startswith("containment grid")]
        assert len(grid_builds) == 1
