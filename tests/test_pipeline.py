import copy
import dataclasses
import json
import logging

import numpy as np
import pytest

from finray import pipeline
from finray.contact_localizer import FrameError, PoseTransform, select_candidate
from finray.fixtures import ShapeSpec
from finray.mesh_model import TriangleBVH
from finray.pipeline import (
    EstimatorSettings,
    JawEstimator,
    load_run_csv,
    run_estimation,
    run_settings,
    scenario_mapping,
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


def test_unknown_mount_mode_rejected():
    # a mistyped mode used to localize as "estimator"
    with pytest.raises(ValueError, match="fixd"):
        EstimatorSettings(mount_mode="fixd")
    config = scenario_mapping(Scenario(), EstimatorSettings())
    with pytest.raises(ValueError, match="fixd"):
        run_settings({**config, "solver.mount_mode": "fixd"})
    for mode in ("estimator", "fixed", "matched"):
        assert EstimatorSettings(mount_mode=mode).mount_mode == mode


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
        # every column of every row reads back with its value and its kind;
        # NaN reads back as NaN
        res = run_estimation(quick_static(), EstimatorSettings())
        path = tmp_path / "run.csv"
        res.to_csv(path)
        rows = load_run_csv(path)
        assert len(rows) == len(res.frames)
        kind = {int: "i", float: "f", bool: "b", str: "U"}
        for got, want in zip(rows, res.frames):
            assert got.keys() == want.keys()
            for key, value in got.items():
                assert np.asarray(want[key]).dtype.kind == kind[type(value)], key
                assert value == want[key] or (
                    isinstance(value, float) and np.isnan(value) and np.isnan(want[key])), key
        assert any(np.isnan(row["centroid_x"]) for row in rows)
        # a column the table does not list reads as float
        older = tmp_path / "older.csv"
        older.write_text("frame,stage,legacy\n3,hold,0.5\n")
        assert load_run_csv(older) == [{"frame": 3, "stage": "hold", "legacy": 0.5}]

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
        # the estimators build is the one their twin grid casts on, the twin
        # template's, fit once by its build, and two estimators on one twin
        # mesh share one grid
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
        assert builds == refits == [grid.mesh.bvh()]
        assert grid.mesh is ests[0].twin.template
        grid_builds = [r for r in caplog.records
                       if r.getMessage().startswith("containment grid")]
        assert len(grid_builds) == 1


def same_pose(a, b):
    return (a.rotation.tobytes() == b.rotation.tobytes()
            and a.translation.tobytes() == b.translation.tobytes()
            and (a.frame_from, a.frame_to) == (b.frame_from, b.frame_to))


class TestFrameInvariants:
    """Each value a frame does not change is computed once; each such fast
    path gives the bits of the checked path it replaces."""

    def test_poses_match_the_checked_paths_over_a_grasp_stream(self):
        # a noisy dual-jaw grasp: the jaw-from-camera pose, built without
        # the check from the rotation checked at construction, is bit for
        # bit the checked constructor's
        scenario = Scenario(
            shape=ShapeSpec.cylinder(0.025), contact_position="middle", dual_jaw=True,
            schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=8.0,
                                    target_force=3.0, hold_s=0.2),
            noise=NoiseConfig(), contact=ContactModelConfig(model="point"), seed=3)
        engine = SimEngine(scenario)
        packets = [engine.frame(k / 30.0, 0.0005 * k, "load", True, 1.0 / 30.0)
                   for k in range(24)]
        for jaw in (0, 1):
            est = JawEstimator(engine, jaw, EstimatorSettings())
            r = engine.jaw_cam_rotation(jaw)
            for pkt in packets:
                obs = pkt.observations[jaw]
                want = PoseTransform(r, est.ref_jaw - r @ obs.reference, "c", "g")
                assert same_pose(est._jaw_from_cam(obs), want)

    def test_jaw_camera_rotation_checked_at_construction(self, monkeypatch):
        engine = SimEngine(quick_static())
        bad = engine.jaw_cam_rotation(0).copy()
        bad[0, 0] += 1e-9
        monkeypatch.setattr(engine, "jaw_cam_rotation", lambda jaw_index: bad)
        with pytest.raises(FrameError):
            JawEstimator(engine, 0, EstimatorSettings())

    def test_estimators_share_one_lazy_snap_memo(self, fresh_caches):
        # the memo is keyed by the jaw mesh and the candidate positions, so
        # estimators of other engines, settings and mounts share it; it is
        # filled only by the snaps the estimators make, each the snap of a
        # fresh memo
        engine = SimEngine(quick_static())
        ests = [JawEstimator(engine, 0, EstimatorSettings()) for _ in range(2)]
        snaps = ests[0].snaps
        assert ests[1].snaps is snaps and snaps == {}
        for k in range(6):
            pkt = engine.frame(k / 30.0, 0.004 + 0.001 * k, "load", True, 1.0 / 30.0)
            for est in ests:
                est.step(pkt.observations[0], k / 30.0, pkt.truth.jaws[0].candidate)
        assert snaps
        other = JawEstimator(SimEngine(quick_static(seed=9, contact_position="upper")), 0,
                             EstimatorSettings(epsilons=0.0, mount_mode="fixed", fixed_index=3))
        assert other.snaps is snaps
        mesh, cands = ests[0].fixture.mesh, ests[0].candidates
        ids = ests[0].jaw_surface.vertex_ids
        for j, c in snaps.items():
            assert select_candidate(mesh.vertices[j], mesh.vertices, ids, mesh, cands, {}) == c


class TestDerivedDeformation:
    """The estimator keeps no displacement field: it derives the jaw it
    localizes against from its last solution when it localizes."""

    def test_matched_and_fixed_modes_compute_no_field(self, monkeypatch):
        calls = []
        derive = pipeline.estimate_deformation
        monkeypatch.setattr(pipeline, "estimate_deformation",
                            lambda *args: calls.append(args) or derive(*args))
        for mode in ("matched", "fixed"):
            run_estimation(quick_static(), EstimatorSettings(mount_mode=mode))
            assert calls == [], mode
        run_estimation(quick_static(plateaus=(0, 4)), EstimatorSettings())
        assert calls

    def test_localized_surface_is_the_last_solution_at_the_mount(self, monkeypatch):
        # a noisy grasp whose localization remounts on step 3; in a second
        # pass step 3's keypoints are starved, so that step holds the
        # solution of step 2 across the remount
        scenario = Scenario(
            shape=ShapeSpec.cylinder(0.025), contact_position="lower",
            schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=8.0,
                                    target_force=3.0, hold_s=0.2),
            noise=NoiseConfig(), contact=ContactModelConfig(model="point"), seed=3)
        engine = SimEngine(scenario)
        packets = [engine.frame(k / 30.0, 0.0005 * k, "load", True, 1.0 / 30.0)
                   for k in range(16)]
        localize = pipeline.localize
        surfaces = []

        def recording(state, pose, jaw_surface, *args):
            surfaces.append(np.array(jaw_surface.vertices))
            return localize(state, pose, jaw_surface, *args)

        monkeypatch.setattr(pipeline, "localize", recording)
        for starved in (None, 3):
            est = JawEstimator(engine, 0, EstimatorSettings())
            fields, vertices = est.compliance.fields, est.fixture.mesh.vertices
            steps = []
            for k, pkt in enumerate(packets):
                lam, mount = est.last_solution.lam, est.candidates.mounted_index
                obs = pkt.observations[0]
                if k == starved:
                    obs = dataclasses.replace(obs, confidence=np.zeros_like(obs.confidence))
                surfaces.clear()
                steps.append(est.step(obs, pkt.truth.timestamp, pkt.truth.jaws[0].candidate))
                want = vertices + fields[mount] @ lam
                assert [s.tobytes() for s in surfaces] == [want.tobytes()], (starved, k)
            assert steps[3].mounted_index != steps[2].mounted_index
        assert steps[3].degraded and not steps[2].degraded
        assert np.array_equal(steps[3].lam, steps[2].lam) and np.abs(steps[2].lam).max() > 0


class TestStepOutputs:
    """What a step returns or leaves on the estimator is a fresh object
    that later steps never write into: the benchmark keeps references to
    them for its per-frame solve check."""

    def test_later_steps_leave_earlier_outputs_unchanged(self):
        # a noisy dual-jaw grasp that remounts, with one starved frame per
        # jaw whose step holds the previous solution
        scenario = Scenario(
            shape=ShapeSpec.cylinder(0.025), contact_position="lower", dual_jaw=True,
            schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=8.0,
                                    target_force=3.0, hold_s=0.2),
            noise=NoiseConfig(), contact=ContactModelConfig(model="point"), seed=3)
        engine = SimEngine(scenario)
        ests = [JawEstimator(engine, jaw, EstimatorSettings()) for jaw in (0, 1)]
        kept = []
        for k in range(16):
            pkt = engine.frame(k / 30.0, 0.0005 * k, "load", True, 1.0 / 30.0)
            for jaw, est in enumerate(ests):
                obs = pkt.observations[jaw]
                if k == 5 + jaw:
                    obs = dataclasses.replace(obs, confidence=np.zeros_like(obs.confidence))
                fe = est.step(obs, pkt.truth.timestamp, pkt.truth.jaws[jaw].candidate)
                refs = (fe.lam, est.effectors, est.candidates)
                kept.append((refs, copy.deepcopy(refs)))
        assert len({cand.mounted_index for (_, _, cand), _ in kept}) > 1
        for (lam, eff, cand), (lam0, eff0, cand0) in kept:
            assert lam.tobytes() == lam0.tobytes()
            for name in ("vertex_ids", "rest_positions", "targets", "active"):
                assert getattr(eff, name).tobytes() == getattr(eff0, name).tobytes(), name
            for name in ("vertex_ids", "positions", "epsilons"):
                assert getattr(cand, name).tobytes() == getattr(cand0, name).tobytes(), name
            assert cand.mounted_index == cand0.mounted_index

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 63, 64, 70])
    def test_active_mask_sets_the_bit_of_each_active_effector(self, rng, n):
        for _ in range(5):
            flags = rng.random(n) < 0.7
            assert pipeline._bit_mask(flags) == sum(1 << int(i) for i in np.flatnonzero(flags))


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_non_finite_epsilon_rejected_at_construction(eps):
    # such a weight used to build an estimator whose first step died in
    # the solve's eigenvalue guard
    engine = SimEngine(quick_static())
    with pytest.raises(ValueError, match="finite and non-negative"):
        JawEstimator(engine, 0, EstimatorSettings(epsilons=eps))
