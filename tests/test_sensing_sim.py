import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from finray import harness_cli, mesh_model, sensing_sim
from finray.contact_localizer import FrameError, PoseTransform, rot_z
from finray.fem_core import MaterialModel
from finray.fixtures import JawParams, ShapeSpec, generate_jaw, make_object_mesh, make_sdf
from finray.mesh_model import DeformableSurface, SurfaceMesh, TetMesh, TriangleBVH
from finray.sensing_sim import (
    ContactModelConfig,
    ForwardContactModel,
    NoiseConfig,
    Scenario,
    ScheduleConfig,
    SimEngine,
    cached_system,
    run_scenario,
    static_profile,
    synthetic_scan,
)


def same_pose(a, b):
    return (a.rotation.tobytes() == b.rotation.tobytes()
            and a.translation.tobytes() == b.translation.tobytes()
            and (a.frame_from, a.frame_to) == (b.frame_from, b.frame_to))


def middle_pose(jaw, spec, press):
    z = Scenario(contact_position="middle").contact_height(jaw.params.height)
    x = jaw.params.depth / 2.0 + spec.radius - press
    return PoseTransform(np.eye(3), np.array([x, 0.0, z]), "o", "g")


class TestForwardContact:
    def test_no_touch_zero_force(self, jaw, system):
        model = ForwardContactModel(system, jaw, ContactModelConfig(model="point"))
        spec = ShapeSpec.cylinder(0.015)
        pose = middle_pose(jaw, spec, -0.005)
        forces, net, cp, cand = model.solve(pose, make_sdf(spec))
        assert np.abs(net).max() == 0.0
        assert cand == -1
        assert cp is None

    def test_energy_minimization_oracle(self, jaw, system):
        # independent oracle: minimize strain energy plus penalty
        # potential over the free DOFs with L-BFGS
        cfg = ContactModelConfig(model="distributed")
        model = ForwardContactModel(system, jaw, cfg)
        spec = ShapeSpec.cylinder(0.015, 0.04)
        sdf = make_sdf(spec)
        pose = middle_pose(jaw, spec, 0.002)
        forces, net, cp, cand = model.solve(pose, sdf)

        obj_from_jaw = pose.inverse()
        inner = jaw.mesh.inner_surface_ids
        rest_all = jaw.mesh.vertices
        free_dofs = system.free_dofs
        k_ff = system.k_full[free_dofs][:, free_dofs].toarray()
        k_pen = sensing_sim.PENALTY_STIFFNESS

        def energy_grad(u_free):
            u = np.zeros(jaw.mesh.n_vertices * 3)
            u[free_dofs] = u_free
            uv = u.reshape(-1, 3)
            elastic = 0.5 * u_free @ (k_ff @ u_free)
            pts = obj_from_jaw.apply(rest_all[inner] + uv[inner])
            d, normals = sdf(pts)
            depth = np.clip(-d, 0.0, None)
            pen = 0.5 * k_pen * float((depth ** 2).sum())
            grad = k_ff @ u_free
            g_pen = np.zeros_like(uv)
            g_pen[inner] = -(k_pen * depth)[:, None] * (normals @ pose.rotation.T)
            grad = grad + g_pen.reshape(-1)[free_dofs]
            return elastic + pen, grad

        def hessp(u_free, v):
            # Gauss-Newton penalty curvature: k n n^T on penetrating nodes
            u = np.zeros(jaw.mesh.n_vertices * 3)
            u[free_dofs] = u_free
            uv = u.reshape(-1, 3)
            pts = obj_from_jaw.apply(rest_all[inner] + uv[inner])
            d, normals = sdf(pts)
            n_jaw = normals @ pose.rotation.T
            w = np.zeros(jaw.mesh.n_vertices * 3)
            w[free_dofs] = v
            wv = w.reshape(-1, 3)
            hv_pen = np.zeros_like(wv)
            pen = d < 0
            proj = np.einsum("ij,ij->i", n_jaw[pen], wv[inner][pen])
            hv_pen[inner[pen]] = k_pen * proj[:, None] * n_jaw[pen]
            return k_ff @ v + hv_pen.reshape(-1)[free_dofs]

        u0 = np.zeros(system.n_free)
        res = scipy.optimize.minimize(energy_grad, u0, jac=True, hessp=hessp,
                                      method="Newton-CG",
                                      options={"maxiter": 400, "xtol": 1e-14})
        u_opt = np.zeros(jaw.mesh.n_vertices * 3)
        u_opt[free_dofs] = res.x
        uv = u_opt.reshape(-1, 3)
        pts = obj_from_jaw.apply(rest_all[inner] + uv[inner])
        d, normals = sdf(pts)
        depth = np.clip(-d, 0.0, None)
        net_oracle = ((k_pen * depth)[:, None] * (normals @ pose.rotation.T)).sum(axis=0)
        assert np.linalg.norm(net - net_oracle) <= 1e-3

    def test_doubling_penetration_roughly_doubles_force(self, jaw, system):
        model = ForwardContactModel(system, jaw, ContactModelConfig(model="point"))
        spec = ShapeSpec.cylinder(0.015)
        sdf = make_sdf(spec)
        _, f1, _, _ = model.solve(middle_pose(jaw, spec, 0.002), sdf)
        _, f2, _, _ = model.solve(middle_pose(jaw, spec, 0.004), sdf)
        ratio = np.linalg.norm(f2) / np.linalg.norm(f1)
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_point_mode_loads_single_candidate(self, jaw, system):
        model = ForwardContactModel(system, jaw, ContactModelConfig(model="point"))
        spec = ShapeSpec.cylinder(0.015)
        forces, net, cp, cand = model.solve(middle_pose(jaw, spec, 0.003),
                                            make_sdf(spec))
        loaded = np.flatnonzero(np.linalg.norm(forces, axis=1) > 0)
        assert len(loaded) == 1
        assert loaded[0] == cand

    @pytest.mark.parametrize("model", ["point", "distributed"])
    def test_node_compliance_is_reciprocal(self, jaw, system, model):
        # Maxwell-Betti: node i's displacement under a unit load at node a
        # equals node a's under the same load at i, bit for bit; the
        # gathered fields differ from the mean only in their last digits
        contact = ForwardContactModel(system, jaw, ContactModelConfig(model=model))
        w = contact.node_compliance
        assert np.array_equal(w, w.T)
        gathered = contact.load_fields[:, sensing_sim._dofs(contact.node_ids)].T
        assert np.abs(w - gathered).max() <= 1e-9 * np.abs(w).max()

    def test_convergence_error_propagates(self, jaw, system, monkeypatch):
        monkeypatch.setattr(sensing_sim, "PENALTY_MAX_ITERS", 1)
        model = ForwardContactModel(system, jaw, ContactModelConfig(model="point"))
        spec = ShapeSpec.cylinder(0.015)
        from finray.sensing_sim import ContactConvergenceError
        with pytest.raises(ContactConvergenceError,
                           match=r"last residual \S+ N over 1 eligible nodes"):
            model.solve(middle_pose(jaw, spec, 0.004), make_sdf(spec))


def active_set_step(g, d_free, stiffness):
    """The linearised penalty step as it was solved before the NNLS step:
    start from the nodes with d_free > 0, drop those solved negative and
    admit those the solution would push into penetration, one linear
    solve per sweep, for at most 40 sweeps."""
    eye_k = np.eye(len(g)) / stiffness
    active = d_free > 0.0
    lam = np.zeros(len(g))
    for _ in range(40):
        if not active.any():
            break
        a = np.flatnonzero(active)
        sol = np.linalg.solve(g[np.ix_(a, a)] + eye_k[np.ix_(a, a)], d_free[a])
        lam[:] = 0.0
        lam[a] = sol
        if np.all(sol >= 0.0):
            violated = (~active) & (d_free - g @ lam > 1e-15)
            if not violated.any():
                break
            active |= violated
        else:
            active[a[sol < 0.0]] = False
    return np.clip(lam, 0.0, None)


def relaxed_reference(model, jaw_from_obj, sdf, tol=1e-10, max_iters=2000):
    """The penalty fixed point as it was solved before the full step: every
    node's 3x3 unit-load blocks in 4-D einsums, the normal forces moved
    half way to the linearised solution per pass. Returns (forces, net,
    contact point, candidate, eligible mask, stacked fields)."""
    fields = np.stack(model.system.unit_load_fields(model.node_ids))  # (n, n_v, 3, 3)
    self_c = fields[:, model.node_ids]
    obj_from_jaw = jaw_from_obj.inverse()
    n = len(model.node_ids)
    d0, _ = sdf(obj_from_jaw.apply(model.rest))
    eligible = np.zeros(n, dtype=bool)
    if model.cfg.model == "point":
        if d0.min() < 0.0:
            eligible[int(np.argmin(d0))] = True
    else:
        eligible[d0 < 0.0] = True
    if not eligible.any():
        return np.zeros((n, 3)), np.zeros(3), None, -1, eligible, fields
    idx = np.flatnonzero(eligible)
    c_sub_t = np.swapaxes(self_c[np.ix_(idx, idx)], 1, 2)
    lam = np.zeros(n)
    normals = np.zeros((n, 3))
    for _ in range(max_iters):
        disp = np.einsum("aibd,ad->ib", self_c, lam[:, None] * normals)
        d, normals_obj = sdf(obj_from_jaw.apply(model.rest + disp))
        normals = normals_obj @ jaw_from_obj.rotation.T
        n_sub = normals[idx]
        g = np.einsum("ab,abcd,cd->ac", n_sub, c_sub_t, n_sub)
        target = np.zeros(n)
        target[idx] = active_set_step(g, -d[idx] + g @ lam[idx], sensing_sim.PENALTY_STIFFNESS)
        residual = np.abs(target - lam).max()
        lam = lam + 0.5 * (target - lam)
        if residual < tol:
            break
    else:
        raise AssertionError("reference penalty solve did not converge")
    forces = lam[:, None] * normals
    pts = model.rest + np.einsum("aibd,ad->ib", self_c, forces)
    contact_point = (pts * lam[:, None]).sum(axis=0) / lam.sum() if lam.max() > 0 else None
    candidate = -1
    if lam.max() > 0.0:
        loaded = int(np.argmax(lam))
        candidate = loaded if model.cfg.model == "point" else int(np.argmin(np.linalg.norm(
            model.fixture.candidate_positions - model.fixture.mesh.vertices[model.node_ids[loaded]],
            axis=1)))
    return forces, forces.sum(axis=0), contact_point, candidate, eligible, fields


def press_poses(jaw, spec, position, presses, yaw_deg=0.0):
    """Object poses pressing ``presses`` (m) into the jaw's inner face at
    one contact position, the object yawed about the grasp axis' normal."""
    z = Scenario(contact_position=position).contact_height(jaw.params.height)
    rot = sensing_sim.rot_z(np.deg2rad(yaw_deg))
    half = float((make_object_mesh(spec).vertices @ rot.T)[:, 0].min())
    return [PoseTransform(rot, np.array([jaw.params.depth / 2.0 - half - p, 0.0, z]), "o", "g")
            for p in presses]


class TestFullStepPenalty:
    """The full-step solve on the eligible-node block against the relaxed
    einsum loop it replaces, solved at tol = 1e-10 (the model's tol is
    1e-8 N)."""

    SHAPES = {"d15": ShapeSpec.cylinder(0.015), "d25": ShapeSpec.cylinder(0.025),
              "d35": ShapeSpec.cylinder(0.035),
              "cuboid": ShapeSpec.cuboid((0.030, 0.080, 0.030)), "wedge": ShapeSpec.wedge()}

    def test_matches_tight_relaxed_reference(self, jaw, system):
        """Either solve stops once a pass moves no node's force by tol or
        more, so each can stop up to tol per eligible node from the fixed
        point: 105 inner nodes x 1e-8 N bounds the net force gap by about
        1e-6 N. The displacement field is the same linear map written as a
        matrix product, so it must agree to 1e-12 relative. Distributed
        contact runs on the cylinders only; on the polyhedra the fixed
        point is not unique (see the recovery test below)."""
        rng = np.random.default_rng(11)
        presses = np.linspace(0.0005, 0.0095, 9)
        cases = [("point", name) for name in self.SHAPES]
        cases += [("distributed", name) for name in ("d15", "d25", "d35")]
        poses = 0
        in_contact = 0
        for kind, name in cases:
            model = ForwardContactModel(system, jaw, ContactModelConfig(model=kind))
            spec = self.SHAPES[name]
            sdf = make_sdf(spec)
            for position in ("upper", "middle", "lower"):
                yaw = float(rng.uniform(-10.0, 10.0))
                for pose in press_poses(jaw, spec, position, presses, yaw):
                    poses += 1
                    seen = []

                    def recording_sdf(pts):
                        seen.append(pts)
                        return sdf(pts)

                    forces, net, cp, cand = model.solve(pose, recording_sdf)
                    _, r_net, r_cp, r_cand, eligible, fields = relaxed_reference(
                        model, pose, sdf)
                    # the first pass evaluates the SDF at the undeformed
                    # eligible nodes, so it names the solve's eligible set
                    first_pass = seen[1] if len(seen) > 1 else np.empty((0, 3))
                    expect = pose.inverse().apply(model.rest[eligible])
                    assert np.array_equal(first_pass, expect), (kind, name, position)
                    assert not forces[~eligible].any()
                    assert cand == r_cand, (kind, name, position)
                    assert np.linalg.norm(net - r_net) <= 1e-6, (kind, name, position)
                    disp = model.full_displacement(forces)
                    disp_ref = np.einsum("avbd,ad->vb", fields, forces)
                    scale = np.abs(disp_ref).max()
                    assert np.abs(disp - disp_ref).max() <= 1e-12 * scale
                    assert (cp is None) == (r_cp is None)
                    in_contact += int(forces.any())
        assert poses >= 200
        assert in_contact > poses // 2

    def test_stops_on_force_vectors_not_magnitudes(self, jaw, system):
        # a yawed d35 point contact whose force magnitude repeats within
        # tol on the second pass while its normal is still turning
        model = ForwardContactModel(system, jaw, ContactModelConfig(model="point"))
        spec = self.SHAPES["d35"]
        sdf = make_sdf(spec)
        (pose,) = press_poses(jaw, spec, "lower", [0.008], 8.967)
        net = model.solve(pose, sdf)[1]
        assert np.linalg.norm(net - relaxed_reference(model, pose, sdf)[1]) <= 1e-6

    def test_passes_per_contact_solve(self, monkeypatch):
        # the asymmetric wedge grasped as the benchmark's grasp cell runs
        # it at seed 0; the half step took 27.15 passes per contact solve
        scenario = harness_cli.default_noisy_scenario(
            shape=ShapeSpec.wedge(), contact_position="middle", seed=0, dual_jaw=True,
            schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=4.0, target_force=5.0,
                                    hold_s=2.0),
            contact=ContactModelConfig(model="point"))
        eng = SimEngine(scenario)
        calls = []
        sdf = eng.sdf

        def counting_sdf(pts):
            calls.append(len(pts))
            return sdf(pts)

        eng.sdf = counting_sdf
        per_solve = []
        solve = ForwardContactModel.solve

        def counting_solve(self, *args, **kwargs):
            start = len(calls)
            result = solve(self, *args, **kwargs)
            per_solve.append(len(calls) - start)
            return result

        monkeypatch.setattr(ForwardContactModel, "solve", counting_solve)
        run_scenario(scenario, eng)
        # one call picks the eligible nodes, then one call per pass
        passes = np.array(per_solve) - 1
        in_contact = passes[passes > 0]
        assert len(in_contact) > 500
        assert in_contact.mean() <= 6.0

    def test_half_step_recovers_where_full_step_cycles(self, jaw, system, caplog):
        # distributed contact on the cuboid's edge: nodes near the edge
        # switch between two faces' normals, and the full step cycles
        # through three states without converging
        model = ForwardContactModel(system, jaw, ContactModelConfig(model="distributed"))
        spec = self.SHAPES["cuboid"]
        sdf = make_sdf(spec)
        (pose,) = press_poses(jaw, spec, "upper", [0.001])
        with caplog.at_level(logging.WARNING, logger="finray.sensing_sim"):
            forces, net, cp, cand = model.solve(pose, sdf)
        (record,) = caplog.records
        assert "with step 1 did not converge in 200 iterations" in record.getMessage()
        r_forces, r_net, _, r_cand, _, _ = relaxed_reference(model, pose, sdf)
        assert cand == r_cand
        assert np.linalg.norm(net - r_net) <= 1e-6
        assert net[0] < -1.0



class TestNonNegativeStep:
    """The linearised penalty step, ``_implicit_normal_forces``, solved as
    non-negative least squares on the Cholesky factor of g + I/k."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_kkt_conditions(self, jaw, system, seed):
        """Random eligible subsets of the canonical jaw's inner nodes with
        random unit normals, depths of -5 to 5 mm and warm-start forces of
        0 to 20 N. With tol = 1e-10 * max|d_free| (m), the step must give
        lam >= 0, w = (g + I/k) lam - d_free >= -tol and
        |lam_i w_i| <= tol * max(lam) (N m); measured worst cases over 300
        seeds are 6.5e-14 * max|d_free| and 4.4e-13 N m."""
        model = ForwardContactModel(system, jaw, ContactModelConfig(model="distributed"))
        rng = np.random.default_rng(seed)
        n = len(model.node_ids)
        m = int(rng.integers(1, n + 1))
        dofs = sensing_sim._dofs(np.sort(rng.choice(n, m, replace=False)))
        normals = rng.normal(size=(m, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        b = np.zeros((3 * m, m))
        b[np.arange(3 * m), np.repeat(np.arange(m), 3)] = normals.ravel()
        g = b.T @ model.node_compliance[np.ix_(dofs, dofs)] @ b
        depth = rng.uniform(-0.005, 0.005, m)
        lam0 = rng.uniform(0.0, 20.0, m) * (rng.random(m) < 0.5)
        lam = model._implicit_normal_forces(g, depth, lam0)
        d_free = depth + g @ lam0
        w = (g + np.eye(m) / sensing_sim.PENALTY_STIFFNESS) @ lam - d_free
        tol = 1e-10 * np.abs(d_free).max()
        assert (lam >= 0.0).all()
        assert (w >= -tol).all()
        assert (np.abs(lam * w) <= tol * max(lam.max(), 1.0)).all()

    def test_matches_active_set_loop_on_recorded_passes(self, monkeypatch):
        """Every pass of four distributed static cells (lower-d35, up to 42
        eligible nodes, lower-d25, lower-d15 and middle-d25) and of
        point-contact wedge grasps at the middle and upper positions,
        recorded and solved again by
        ``active_set_step``: the same loaded nodes, and forces within 1e-9 N
        (7.2e-12 N measured)."""
        passes = []
        step = ForwardContactModel._implicit_normal_forces

        def recording_step(self, g, depth, lam):
            out = step(self, g, depth, lam)
            passes.append((g, depth + g @ lam, sensing_sim.PENALTY_STIFFNESS, out))
            return out

        monkeypatch.setattr(ForwardContactModel, "_implicit_normal_forces", recording_step)
        for position, diameter in (("lower", 0.035), ("lower", 0.025), ("lower", 0.015),
                                   ("middle", 0.025)):
            static = harness_cli.default_noisy_scenario(
                shape=ShapeSpec.cylinder(diameter), contact_position=position,
                schedule=ScheduleConfig(kind="static", cycles=1, plateaus_mm=(0, 4, 10, 4, 0)),
                contact=ContactModelConfig(model="distributed"))
            eng = SimEngine(static)
            for t, closure, _, _ in static_profile(static.schedule, static.camera_hz):
                eng.step_truth(t, closure)
        n_static = len(passes)
        for position in ("middle", "upper"):
            grasp = harness_cli.default_noisy_scenario(
                shape=ShapeSpec.wedge(), contact_position=position, seed=0, dual_jaw=True,
                schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=8.0, target_force=5.0,
                                        hold_s=0.5),
                contact=ContactModelConfig(model="point"))
            run_scenario(grasp, SimEngine(grasp))
        assert n_static > 500 and max(len(p[0]) for p in passes[:n_static]) > 30
        assert len(passes) - n_static > 1000
        for g, d_free, stiffness, lam in passes:
            ref = active_set_step(g, d_free, stiffness)
            assert np.array_equal(lam > 0.0, ref > 0.0)
            assert np.abs(lam - ref).max() <= 1e-9

    def test_one_node_closed_form_matches_nnls_triple(self, jaw, system, monkeypatch):
        """The one-node step's closed form against the Cholesky,
        ``solve_triangular`` and ``nnls`` triple it skips, bit for bit:
        random 1x1 inputs with d_free below, at and above zero, down to
        subnormal depths, and every pass of point-contact grasps of the
        wedge, the cuboid and a cylinder."""
        model = ForwardContactModel(system, jaw, ContactModelConfig(model="point"))
        k = sensing_sim.PENALTY_STIFFNESS
        rng = np.random.default_rng(5)
        inputs = []
        for _ in range(3000):
            g = np.array([[rng.uniform(1e-6, 1e-3)]])
            lam = np.array([rng.uniform(0.0, 20.0)]) if rng.random() < 0.5 else np.zeros(1)
            sign = rng.choice([-1.0, 1.0])
            d_free = sign * 10.0 ** rng.uniform(-320.0, -1.0)
            inputs.append((g, np.array([d_free]) - g @ lam, lam))
        for g in (np.array([[1e-4]]), np.array([[3e-6]])):
            inputs += [(g, np.zeros(1), np.zeros(1)), (g, np.array([-0.0]), np.zeros(1))]
        # (d_free / c) / c underflows to -0.0 here; nnls returns +0.0
        inputs.append((np.array([[4.0]]), np.array([-5e-324]), np.zeros(1)))
        step = ForwardContactModel._implicit_normal_forces
        recorded = []

        def recording_step(self, g, depth, lam):
            if len(g) == 1:
                recorded.append((g, depth, lam))
            return step(self, g, depth, lam)

        monkeypatch.setattr(ForwardContactModel, "_implicit_normal_forces", recording_step)
        for shape in (ShapeSpec.wedge(), TestFullStepPenalty.SHAPES["cuboid"],
                      ShapeSpec.cylinder(0.025)):
            run_scenario(dual_grasp_scenario(shape=shape))
        assert len(recorded) > 500
        signs = {"<": 0, "=": 0, ">": 0}
        for g, depth, lam in inputs + recorded:
            d_free = depth + g @ lam
            signs["<" if d_free[0] < 0.0 else "=" if d_free[0] == 0.0 else ">"] += 1
            assert step(model, g, depth, lam).tobytes() == nnls_triple(g, d_free, k).tobytes()
        assert min(signs.values()) >= 4


def nnls_triple(g, d_free, stiffness):
    """The multi-node step as ``_implicit_normal_forces`` solves it:
    Cholesky factor of g + I/k, one triangular solve, then ``nnls``."""
    chol = scipy.linalg.cholesky(g + np.eye(len(g)) / stiffness, lower=True)
    rhs = scipy.linalg.solve_triangular(chol, d_free, lower=True)
    return scipy.optimize.nnls(chol.T, rhs)[0]


def test_unknown_occlusion_mode_rejected():
    # a mistyped mode used to render drift occlusion
    with pytest.raises(ValueError, match="confidance"):
        Scenario(occlusion_mode="confidance")
    with pytest.raises(ValueError, match="confidance"):
        harness_cli.scenario_from_config({"scenario.occlusion_mode": "confidance"})
    for mode in ("off", "confidence", "drift"):
        assert Scenario(occlusion_mode=mode).occlusion_mode == mode


class TestRenderObservation:
    def _engine(self, **kw):
        base = dict(shape=ShapeSpec.cylinder(0.025), contact_position="middle",
                    schedule=ScheduleConfig(kind="static"),
                    noise=NoiseConfig.ideal(),
                    contact=ContactModelConfig(model="point"))
        base.update(kw)
        return SimEngine(Scenario(**base))

    def test_ideal_frame_exact(self, jaw):
        eng = self._engine()
        pkt = eng.frame(0.0, 0.0, "pre", False, 1 / 30.0)
        obs = pkt.observations[0]
        assert obs.visible.all()
        assert (obs.confidence > 0.6).all()
        # camera-frame keypoints map back to the undeformed positions
        rig = eng.rigs[0]
        world_from_jaw = rig.world_from_jaw(0.0)
        expect = eng.cam_from_world.apply(world_from_jaw.apply(
            jaw.mesh.vertices[jaw.keypoint_ids]))
        assert np.abs(obs.keypoints - expect).max() <= 1e-12

    def test_pose_samples_on_slow_grid(self):
        eng = self._engine()
        have = []
        for k in range(9):
            pkt = eng.frame(k / 30.0, 0.0, "pre", False, 1 / 30.0)
            have.append(pkt.observations[0].pose_sample is not None)
        assert have == [True, False, False] * 3

    def test_fixed_rotations_checked_once(self):
        # the rig, object, jaw-from-object and camera-from-object rotations
        # are fixed for the engine and checked when it is made; the poses
        # built from them carry the checked constructor's bits
        eng = self._engine(object_yaw_deg=7.0, dual_jaw=True)
        rot_obj = rot_z(math.radians(7.0))
        pkt = eng.frame(0.0, 0.003, "load", True, 1 / 30.0)
        x = eng._object_x
        origin = sensing_sim._object_origin(eng.scenario, x, eng.z_contact)
        assert same_pose(pkt.observations[0].pose_sample, PoseTransform(
            eng.cam_from_world.rotation @ rot_obj, eng.cam_from_world.apply(origin), "o", "c"))
        for idx, rig in enumerate(eng.rigs):
            frame = "g" + rig.side[0]
            assert same_pose(rig.world_from_jaw(0.003),
                             PoseTransform(rig.rot_world_from_jaw, rig.origin(0.003), frame, "w"))
            r = rig.rot_world_from_jaw.T
            assert same_pose(eng._solve_contact(idx, 0.003, x).pose,
                             PoseTransform(r @ rot_obj, r @ (origin - rig.origin(0.003)), "o", "g"))
        bad = rig.rot_world_from_jaw.copy()
        bad[0, 0] += 1e-9
        with pytest.raises(FrameError):
            sensing_sim.JawRig(rig.side, rig.fixture, rig.system, rig.contact_model, bad,
                               rig.base_offset)

    def test_occlusion_grows_with_diameter(self):
        counts = {}
        for d in (0.015, 0.035):
            eng = self._engine(shape=ShapeSpec.cylinder(d, 0.08),
                               contact_position="upper",
                               occlusion_mode="confidence")
            pkt = eng.frame(0.0, 0.0045, "load", True, 1 / 30.0)
            counts[d] = int((~pkt.observations[0].visible).sum())
        assert counts[0.035] > counts[0.015]

    def test_occlusion_monotone_in_object_size(self):
        # fixed pose and deformation: a ray blocked by the small cylinder
        # is blocked by any larger coaxial one. Each size has its own
        # engine, whose object mesh is fixed for its life; each renders the
        # d15 engine's truth with the object where that engine holds it
        engines = [self._engine(shape=ShapeSpec.cylinder(d, 0.08), contact_position="upper",
                                occlusion_mode="confidence") for d in (0.015, 0.025, 0.035)]
        truth = engines[0].step_truth(0.0, 0.003, "load", True)
        counts = []
        for eng in engines:
            eng._object_x = engines[0]._object_x
            counts.append(int((~eng.render_observation(truth, 0).visible).sum()))
        assert 0 < counts[0] <= counts[1] <= counts[2]

    def test_confidence_mode_drops_occluded(self):
        eng = self._engine(shape=ShapeSpec.cylinder(0.035, 0.08),
                           contact_position="upper", occlusion_mode="confidence",
                           noise=NoiseConfig())
        pkt = eng.frame(0.0, 0.005, "load", True, 1 / 30.0)
        obs = pkt.observations[0]
        assert (~obs.visible).any()
        assert (obs.confidence[~obs.visible] < 0.6).all()

    def test_drift_mode_lands_on_object_surface(self):
        eng = self._engine(shape=ShapeSpec.cylinder(0.035, 0.08),
                           contact_position="upper", occlusion_mode="drift",
                           noise=NoiseConfig(keypoint_sigma=0.0,
                                             drift_background_prob=0.0))
        pkt = eng.frame(0.0, 0.005, "load", True, 1 / 30.0)
        obs = pkt.observations[0]
        occluded = ~obs.visible
        assert occluded.any()
        # drifted keypoints keep high confidence but sit on the occluder's
        # mesh surface (the ray's first hit)
        assert (obs.confidence[occluded] > 0.6).all()
        from finray.mesh_model import closest_point_on_triangles
        world = eng.world_from_cam.apply(obs.keypoints[occluded])
        sc = eng.scenario
        pose = PoseTransform(rot_z(math.radians(sc.object_yaw_deg)), sensing_sim._object_origin(
            sc, eng._object_x, eng.z_contact), "o", "w")
        local = pose.inverse().apply(world)
        tv = eng.object_mesh.vertices[eng.object_mesh.triangles]
        for p in local:
            _, d2 = closest_point_on_triangles(p, tv)
            assert np.sqrt(d2.min()) <= 1e-9

    def test_drift_background_rejected_by_bbox(self, jaw):
        eng = self._engine(shape=ShapeSpec.cylinder(0.035, 0.08),
                           contact_position="upper", occlusion_mode="drift",
                           noise=NoiseConfig(keypoint_sigma=0.0,
                                             drift_background_prob=1.0))
        pkt = eng.frame(0.0, 0.005, "load", True, 1 / 30.0)
        obs = pkt.observations[0]
        occluded = ~obs.visible
        assert occluded.any()
        from finray.inverse_solver import KeypointFilter
        from finray.pipeline import BBOX_MARGIN
        lo, hi = jaw.bbox(BBOX_MARGIN)
        filt = KeypointFilter(tuple(lo), tuple(hi))
        rig = eng.rigs[0]
        r_gc = eng.jaw_cam_rotation(0)
        t_gc = jaw.mesh.vertices[jaw.reference_id] - r_gc @ obs.reference
        pos_jaw = obs.keypoints @ r_gc.T + t_gc
        accepted = filt.accept(pos_jaw, obs.confidence)
        assert not accepted[occluded].any()


class TestRunScenario:
    def test_static_schedule_eleven_plateaus(self):
        sched = ScheduleConfig(kind="static", cycles=1, ramp_s=0.1, settle_s=0.1,
                               record_s=0.1)
        profile = static_profile(sched, 30.0)
        n_record_blocks = 0
        prev = False
        for _, _, _, rec in profile:
            if rec and not prev:
                n_record_blocks += 1
            prev = rec
        assert n_record_blocks == 11

    def test_deterministic_repetition(self):
        scenario = Scenario(
            shape=ShapeSpec.cylinder(0.015), contact_position="middle",
            schedule=ScheduleConfig(kind="static", plateaus_mm=(0, 6, 0),
                                    ramp_s=0.1, settle_s=0.1, record_s=0.1,
                                    cycles=2),
            noise=NoiseConfig(), occlusion_mode="confidence",
            contact=ContactModelConfig(model="point"), seed=42)
        r1 = run_scenario(scenario)
        r2 = run_scenario(scenario)
        assert len(r1.frames) == len(r2.frames)
        for a, b in zip(r1.frames, r2.frames):
            assert np.array_equal(a.observations[0].keypoints,
                                  b.observations[0].keypoints)
            assert np.array_equal(a.truth.jaws[0].force, b.truth.jaws[0].force)

    def test_grasp_schedule_emits_four_stages(self):
        scenario = Scenario(
            shape=ShapeSpec.cylinder(0.025), contact_position="middle",
            schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=8.0,
                                    target_force=3.0, hold_s=0.3),
            noise=NoiseConfig.ideal(), contact=ContactModelConfig(model="point"),
            dual_jaw=True, seed=1)
        result = run_scenario(scenario)
        st = result.manifest.stage_times
        assert set(st) == {"stage1", "stage2", "stage3", "stage4"}
        assert st["stage1"] < st["stage2"] < st["stage3"] < st["stage4"]
        stages = [p.truth.stage for p in result.frames]
        for phase in ("pre", "load", "hold", "unload", "post"):
            assert phase in stages

    def test_unreachable_grasp_holds_at_the_closure_cap(self):
        # a target no closure reaches: the jaws close to max_closure_mm
        # exactly, hold there, and no frame closes further
        scenario = dual_grasp_scenario(
            occlusion_mode="off",
            schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=4.0, target_force=1e9,
                                    hold_s=0.2))
        frames = run_scenario(scenario).frames
        closures = np.array([pkt.truth.closure for pkt in frames])
        stages = np.array([pkt.truth.stage for pkt in frames])
        cap = scenario.schedule.max_closure_mm * 1e-3
        assert closures.max() == cap
        assert (stages == "hold").sum() > 1 and np.all(closures[stages == "hold"] == cap)

    def test_dual_jaw_third_law(self):
        for shape in (ShapeSpec.cylinder(0.025), ShapeSpec.wedge()):
            scenario = Scenario(
                shape=shape, contact_position="middle",
                schedule=ScheduleConfig(kind="grasp"),
                noise=NoiseConfig.ideal(), contact=ContactModelConfig(model="point"),
                dual_jaw=True)
            eng = SimEngine(scenario)
            closure = eng.rigs[0].base_offset - eng.fixture.params.depth / 2.0 \
                - eng._object_half_extent_x() + 0.003
            truth = eng.step_truth(0.0, closure, "hold", True)
            fx_world = 0.0
            for rig, jt in zip(eng.rigs, truth.jaws):
                fx_world += (rig.rot_world_from_jaw @ jt.force)[0]
            assert min(j.force_scalar for j in truth.jaws) > 0.5
            assert abs(fx_world) <= 1e-6

    def test_viscous_relaxation_reduces_reported_force(self):
        base = dict(
            shape=ShapeSpec.cylinder(0.015), contact_position="middle",
            schedule=ScheduleConfig(kind="static", plateaus_mm=(0, 6, 6, 6, 0),
                                    ramp_s=0.1, settle_s=0.3, record_s=0.3,
                                    cycles=1),
            noise=NoiseConfig.ideal(), seed=3)
        elastic = run_scenario(Scenario(
            **base, contact=ContactModelConfig(model="point")))
        creeping = run_scenario(Scenario(
            **base, contact=ContactModelConfig(model="point", viscous_gamma=0.3,
                                               viscous_tau=2.0)))
        f_el = np.array([p.truth.jaws[0].force_scalar for p in elastic.frames])
        f_cr = np.array([p.truth.jaws[0].force_scalar for p in creeping.frames])
        late = f_el > 1.0
        # same displacements, relaxed truth force strictly below elastic
        assert np.all(f_cr[late] < f_el[late])


def dual_grasp_scenario(**kw):
    base = dict(shape=ShapeSpec.cylinder(0.025), contact_position="middle",
                schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=8.0,
                                        target_force=3.0, hold_s=0.2),
                noise=NoiseConfig.ideal(), contact=ContactModelConfig(model="point"),
                dual_jaw=True, occlusion_mode="confidence", seed=1)
    base.update(kw)
    return Scenario(**base)


def clear_memos(eng):
    for memo in (*eng._solves, *eng._views):
        memo.clear()


def recorded_run(scenario, clear, packet_hook=None):
    """Frames of ``scenario`` run on one engine, with the per-node forces
    of every ``_solve_contact`` call; with ``clear`` every memo is cleared
    before each call of ``_solve_contact`` and ``_observation_geometry``."""
    eng = SimEngine(scenario)
    solve_contact, geometry = eng._solve_contact, eng._observation_geometry
    forces = []

    def recording(*args):
        if clear:
            clear_memos(eng)
        solved = solve_contact(*args)
        forces.append(solved.result[0].tobytes())
        return solved

    def cleared_geometry(*args):
        if clear:
            clear_memos(eng)
        return geometry(*args)

    eng._solve_contact, eng._observation_geometry = recording, cleared_geometry
    frames = run_scenario(scenario, eng, packet_hook=packet_hook, keep_frames=True).frames
    return eng, frames, forces


def assert_same_frames(mine, theirs):
    """Bitwise equal truth and observations, frame by frame."""
    def same(a, b):
        assert (a is None) == (b is None)
        assert a is None or a.tobytes() == b.tobytes()

    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert (a.truth.closure, a.truth.stage) == (b.truth.closure, b.truth.stage)
        for ja, jb in zip(a.truth.jaws, b.truth.jaws, strict=True):
            assert ja.candidate == jb.candidate and ja.force_scalar == jb.force_scalar
            for name in ("force", "contact_point", "displacements"):
                same(getattr(ja, name), getattr(jb, name))
            same(ja.pose_jaw_from_obj.rotation, jb.pose_jaw_from_obj.rotation)
            same(ja.pose_jaw_from_obj.translation, jb.pose_jaw_from_obj.translation)
        for oa, ob in zip(a.observations, b.observations, strict=True):
            assert oa.timestamp == ob.timestamp
            for name in ("keypoints", "confidence", "visible", "reference"):
                same(getattr(oa, name), getattr(ob, name))
            assert (oa.pose_sample is None) == (ob.pose_sample is None)
            if oa.pose_sample is not None:
                same(oa.pose_sample.rotation, ob.pose_sample.rotation)
                same(oa.pose_sample.translation, ob.pose_sample.translation)


def touch_closure(eng):
    """Closure at which the jaws first reach the centred object."""
    return (eng.rigs[0].base_offset - eng.fixture.params.depth / 2.0
            - eng._object_half_extent_x())


class TestOracleFastPaths:
    def test_refit_occluder_matches_rebuilt_bvh(self, jaw):
        # reference: the fresh SurfaceMesh and BVH the renderer used to
        # build for the other jaw on every observation; exact agreement
        eng = SimEngine(dual_grasp_scenario())
        surf = eng._occluders[1]
        model = eng.rigs[1].contact_model
        rest = jaw.mesh.vertices
        triangles = jaw.mesh.surface().triangles
        lo, hi = rest.min(axis=0), rest.max(axis=0)
        rng = np.random.default_rng(7)
        n_rays = 200
        hits = 0
        for _ in range(100):
            forces = np.zeros((len(model.node_ids), 3))
            loaded = rng.choice(len(forces), size=int(rng.integers(1, 4)), replace=False)
            forces[loaded] = rng.normal(scale=30.0, size=(len(loaded), 3))
            vertices = rest + model.full_displacement(forces)
            surf.update(vertices)
            dirs = rng.normal(size=(n_rays, 3))
            origins = 0.5 * (lo + hi) + 0.1 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
            targets = rng.uniform(lo, hi, (n_rays, 3))
            refit = surf.bvh().first_hit_fraction(origins, targets)
            rebuilt = SurfaceMesh(vertices, triangles).bvh().first_hit_fraction(origins, targets)
            assert np.array_equal(refit, rebuilt)
            hits += int(np.isfinite(refit).sum())
        assert hits > 5000

    def test_occluder_bvh_built_once_per_rig(self, jaw, monkeypatch):
        # each rig's occluder tree is built at most once, and only for a
        # rig whose box the other jaw's keypoint rays met on some frame,
        # counted here from the frames' own geometry
        eng = SimEngine(dual_grasp_scenario())
        jaw_triangles = jaw.mesh.surface().triangles
        builds = []
        build = TriangleBVH.__init__

        def counting_build(self, vertices, triangles, *args, **kwargs):
            if np.array_equal(triangles, jaw_triangles):
                builds.append([k for k, surf in enumerate(eng._occluders)
                               if surf.vertices is vertices])
            build(self, vertices, triangles, *args, **kwargs)

        monkeypatch.setattr(TriangleBVH, "__init__", counting_build)
        result = run_scenario(eng.scenario, eng)
        assert len(result.frames) > 20
        surface_ids = np.unique(jaw_triangles)
        cam = eng.world_from_cam.translation
        met = set()
        for pkt in result.frames:
            truth = pkt.truth
            for idx, other in ((0, 1), (1, 0)):
                kp = jaw.keypoint_ids
                kp_world = eng.rigs[idx].world_from_jaw(truth.closure).apply(
                    jaw.mesh.vertices[kp] + truth.jaws[idx].displacements[kp])
                segments = eng.rigs[other].world_from_jaw(truth.closure).inverse().apply(
                    np.vstack([cam, kp_world]))
                box = (jaw.mesh.vertices + truth.jaws[other].displacements)[surface_ids]
                margin = mesh_model._BOX_MARGIN
                if (np.all(segments.min(axis=0) <= box.max(axis=0) + margin)
                        and np.all(segments.max(axis=0) >= box.min(axis=0) - margin)):
                    met.add(other)
        assert met
        assert sorted(builds) == [[k] for k in sorted(met)]

    def test_box_culled_cast_matches_refit_cast(self, jaw, monkeypatch):
        # the occluder cast that skips a tree whose box the segments miss,
        # against a surface refit and cast on every call: bitwise over
        # random deformed jaws, with segments crossing the jaw and segment
        # sets lying beyond one face of its box by -1e-9 m to 1 mm; a
        # skipped cast refits no tree, and a set at the trees' box margin
        # (2e-9 m) is still cast
        model = SimEngine(dual_grasp_scenario()).rigs[1].contact_model
        surf = DeformableSurface(jaw.mesh.surface())
        always = DeformableSurface(jaw.mesh.surface())
        refits = []
        refit = TriangleBVH.refit

        def counting_refit(self, vertices):
            refits.append(self)
            refit(self, vertices)

        monkeypatch.setattr(TriangleBVH, "refit", counting_refit)
        rng = np.random.default_rng(17)
        gaps = (-1e-9, 0.0, 2e-9, 3e-9, 1e-8, 1e-6, 1e-3)
        n_rays, hits, skipped = 100, 0, 0
        for trial in range(140):
            forces = np.zeros((len(model.node_ids), 3))
            loaded = rng.choice(len(forces), size=int(rng.integers(1, 4)), replace=False)
            forces[loaded] = rng.normal(scale=30.0, size=(len(loaded), 3))
            vertices = jaw.mesh.vertices + model.full_displacement(forces)
            surf.update(vertices)
            always.update(vertices)
            lo, hi = surf.bounds()
            gap = gaps[trial % len(gaps)] if trial % 2 else None
            if gap is None:  # rays from outside to targets in the box
                dirs = rng.normal(size=(n_rays, 3))
                origins = 0.5 * (lo + hi) + 0.1 * dirs / np.linalg.norm(
                    dirs, axis=1, keepdims=True)
                targets = rng.uniform(lo, hi, (n_rays, 3))
            else:  # every endpoint beyond one face, the nearest at ``gap``
                axis, side = int(rng.integers(3)), rng.choice([-1.0, 1.0])
                face = hi[axis] if side > 0 else lo[axis]
                origins, targets = (rng.uniform(lo - 0.02, hi + 0.02, (n_rays, 3))
                                    for _ in range(2))
                for ends in (origins, targets):
                    ends[:, axis] = face + side * (gap + rng.uniform(0.0, 0.02, n_rays))
                targets[0, axis] = face + side * gap
            before = len(refits)
            got = sensing_sim._occluder_hits(surf, origins, targets)
            cast = len(refits) > before
            assert cast == (gap is None or gap <= 2e-9)
            expect = always.bvh().first_hit_fraction(origins, targets)
            assert np.array_equal(got, expect)
            hits += int(np.isfinite(got).sum())
            skipped += not cast
        assert hits > 2000 and skipped == 40

    def test_culled_render_matches_unculled(self, monkeypatch):
        # a drift-mode grasp seen from the side, where one jaw hides the
        # other's keypoints, rendered with the occluder box test and with
        # every occluder's box made infinite so that each is cast at:
        # bitwise equal observations, with fewer tree refits
        scenario = dual_grasp_scenario(occlusion_mode="drift", camera_eye=(-0.15, 0.02, 0.12))
        refits = []
        refit = TriangleBVH.refit

        def counting_refit(self, vertices):
            refits.append(1)
            refit(self, vertices)

        monkeypatch.setattr(TriangleBVH, "refit", counting_refit)
        runs = []
        for cull in (True, False):
            eng = SimEngine(scenario)
            if not cull:
                endless = (np.full(3, -np.inf), np.full(3, np.inf))
                for mesh in (*eng._occluders, eng.object_mesh):
                    monkeypatch.setattr(mesh, "bounds", lambda: endless)
            start = len(refits)
            frames = run_scenario(scenario, eng).frames
            runs.append(([obs for pkt in frames for obs in pkt.observations],
                         len(refits) - start))
        (culled, n_culled), (full, n_full) = runs
        assert len(culled) == len(full) > 40
        assert n_culled < n_full
        assert sum(int((~obs.visible).sum()) for obs in full) > 100
        for a, b in zip(culled, full):
            for name in ("keypoints", "confidence", "visible", "reference"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert (a.pose_sample is None) == (b.pose_sample is None)

    def test_solve_memo_matches_cleared_memo(self):
        # a dual-jaw wedge grasp with each rig's solve memo, against the
        # same grasp with every memo cleared before every _solve_contact:
        # every call gives the same pose and solve bits, and fewer penalty
        # solves run
        def run(clear):
            eng = SimEngine(dual_grasp_scenario(shape=ShapeSpec.wedge()))
            model = eng.rigs[0].contact_model
            solve, solve_contact = model.solve, eng._solve_contact
            solves, calls = [], []

            def counting_solve(*args):
                solves.append(1)
                return solve(*args)

            def recording(idx, closure, object_x):
                if clear:
                    clear_memos(eng)
                solved = solve_contact(idx, closure, object_x)
                forces, net, cp, cand = solved.result
                calls.append((idx, forces.tobytes(), net.tobytes(), cand,
                              None if cp is None else cp.tobytes(),
                              solved.pose.rotation.tobytes(), solved.pose.translation.tobytes()))
                return solved

            model.solve = counting_solve
            eng._solve_contact = recording
            run_scenario(eng.scenario, eng)
            return calls, len(solves)

        (memo, n_memo), (cleared, n_cleared) = run(False), run(True)
        assert n_cleared == len(cleared) > 500
        assert memo == cleared
        assert n_memo < n_cleared
        assert sum(c[3] >= 0 for c in memo) > 100

    def test_static_truth_is_a_function_of_closure(self, monkeypatch):
        # a distributed static d25 cell stepped through its schedule on one
        # engine, against each of its closures stepped on a fresh engine:
        # bitwise equal truth, and one penalty solve per distinct jaw pose,
        # none for the repeated frames of a plateau or a closure the
        # unloading half of the cycle comes back to
        scenario = harness_cli.default_noisy_scenario(
            shape=ShapeSpec.cylinder(0.025), contact_position="middle",
            schedule=ScheduleConfig(kind="static", cycles=1, plateaus_mm=(0, 4, 10, 4, 0)),
            contact=ContactModelConfig(model="distributed"))
        solves = []
        solve = ForwardContactModel.solve

        def counting_solve(self, jaw_from_obj, sdf):
            solves.append(1)
            return solve(self, jaw_from_obj, sdf)

        monkeypatch.setattr(ForwardContactModel, "solve", counting_solve)
        closures = [c for _, c, _, _ in static_profile(scenario.schedule, scenario.camera_hz)]
        eng = SimEngine(scenario)
        stepped, poses = {}, set()
        for closure in closures:
            truth = eng.step_truth(0.0, closure).jaws[0]
            forces = eng._solve_contact(0, closure, eng._object_x).result[0]
            stepped.setdefault(closure, []).append((truth, forces))
            poses.add((truth.pose_jaw_from_obj.rotation.tobytes(),
                       truth.pose_jaw_from_obj.translation.tobytes()))
        assert len(solves) == len(poses) < len(closures) // 2
        in_contact = 0
        for closure, runs in stepped.items():
            fresh = SimEngine(scenario)
            truth = fresh.step_truth(0.0, closure).jaws[0]
            forces = fresh._solve_contact(0, closure, fresh._object_x).result[0]
            for mine, my_forces in runs:
                assert my_forces.tobytes() == forces.tobytes()
                assert mine.force.tobytes() == truth.force.tobytes()
                assert mine.candidate == truth.candidate
                assert (mine.contact_point is None) == (truth.contact_point is None)
                if truth.contact_point is not None:
                    assert mine.contact_point.tobytes() == truth.contact_point.tobytes()
                assert mine.displacements.tobytes() == truth.displacements.tobytes()
            in_contact += truth.candidate >= 0
        assert len(stepped) > 10 and in_contact == len(stepped) - 1  # all but closure 0

    def test_net_force_matches_jaw_truth(self):
        # the bisection's net-force-only evaluation against the full
        # per-jaw truth it replaces, on twin engines; bitwise agreement
        fast, ref = SimEngine(dual_grasp_scenario()), SimEngine(dual_grasp_scenario())
        c0 = touch_closure(fast)
        nets = []
        for closure, x in [(c0 - 0.002, 0.0), (c0 - 0.0005, 3e-4), (c0 + 0.001, 0.0),
                           (c0 + 0.002, 4e-4), (c0 + 0.003, -3e-4), (c0 + 0.003, 0.0)]:
            net = fast._net_object_force_x(closure, x)
            expect = 0.0
            for idx, rig in enumerate(ref.rigs):
                expect -= (rig.rot_world_from_jaw @ ref._jaw_truth(idx, closure, x).force)[0]
            assert np.float64(net).tobytes() == np.float64(expect).tobytes()
            # both engines' memos hold the same poses, in the same order,
            # with the same forces, per rig
            for mine, theirs in zip(fast._solves, ref._solves):
                assert len(mine) == len(theirs)
                for (my_key, my_solve), (key, solve) in zip(mine._entries.items(),
                                                            theirs._entries.items()):
                    assert my_key == key
                    assert my_solve.result[0].tobytes() == solve.result[0].tobytes()
            nets.append(net)
        assert nets[0] == 0.0 and max(abs(n) for n in nets) > 0.1

    def test_engines_of_one_scenario_share_memo_keys(self):
        # the memo keys hold content only: two engines built from one
        # scenario and run through the same frames hold equal keys, in the
        # same order, in every memo
        scenario = dual_grasp_scenario()
        engines = [SimEngine(scenario) for _ in range(2)]
        for eng in engines:
            run_scenario(scenario, eng)
        mine, theirs = ([list(memo._entries) for memo in (*eng._solves, *eng._views)]
                        for eng in engines)
        assert mine == theirs
        assert all(len(keys) > 10 for keys in mine)

    def test_second_static_cycle_runs_no_oracle_work(self, monkeypatch):
        # a two-cycle distributed static d25 cell with the memos, against
        # the same cell with every memo cleared before every call: bitwise
        # equal frames and solves; the second cycle, whose closures the
        # first already visited, runs no penalty solve and no occluder cast
        scenario = harness_cli.default_noisy_scenario(
            shape=ShapeSpec.cylinder(0.025), contact_position="middle",
            schedule=ScheduleConfig(kind="static", cycles=2, plateaus_mm=(0, 4, 10, 4, 0)),
            contact=ContactModelConfig(model="distributed"))
        work = {"solve": 0, "cast": 0}
        solve, hits = ForwardContactModel.solve, sensing_sim._occluder_hits

        def counting_solve(self, jaw_from_obj, sdf):
            work["solve"] += 1
            return solve(self, jaw_from_obj, sdf)

        def counting_hits(mesh, origins, targets):
            work["cast"] += 1
            return hits(mesh, origins, targets)

        monkeypatch.setattr(ForwardContactModel, "solve", counting_solve)
        monkeypatch.setattr(sensing_sim, "_occluder_hits", counting_hits)
        after_frame = []
        eng, memo, memo_forces = recorded_run(
            scenario, False, lambda idx, pkt: after_frame.append(dict(work)))
        n_memo = dict(work)
        _, cleared, cleared_forces = recorded_run(scenario, True)
        assert_same_frames(memo, cleared)
        assert memo_forces == cleared_forces
        n_cycle = len(memo) // 2
        assert after_frame[n_cycle - 1] == after_frame[-1] == n_memo
        assert 0 < n_memo["solve"] <= n_memo["cast"] < n_cycle // 5
        assert work["solve"] - n_memo["solve"] == work["cast"] - n_memo["cast"] == len(memo)
        assert eng.work == {"solves_run": n_memo["solve"], "casts_run": n_memo["cast"],
                            "solves_skipped": len(memo) - n_memo["solve"],
                            "casts_skipped": len(memo) - n_memo["cast"]}
        assert sum(pkt.truth.jaws[0].candidate >= 0 for pkt in memo) > n_cycle

    def test_drift_side_view_matches_cleared_memos(self, monkeypatch):
        # the drift-mode side-camera grasp, where one jaw hides the other's
        # keypoints, with the memos and with every memo cleared before
        # every call: bitwise equal frames and solves, and fewer casts
        scenario = dual_grasp_scenario(occlusion_mode="drift", camera_eye=(-0.15, 0.02, 0.12))
        casts = []
        hits = sensing_sim._occluder_hits

        def counting_hits(mesh, origins, targets):
            casts.append(1)
            return hits(mesh, origins, targets)

        monkeypatch.setattr(sensing_sim, "_occluder_hits", counting_hits)
        eng, memo, memo_forces = recorded_run(scenario, False)
        n_memo = len(casts)
        _, cleared, cleared_forces = recorded_run(scenario, True)
        assert_same_frames(memo, cleared)
        assert memo_forces == cleared_forces
        # two jaws, each seen past the object and the other jaw
        assert len(casts) - n_memo == 4 * len(memo) > 4 * 40
        assert eng.work["casts_run"] == n_memo < len(casts) - n_memo
        assert eng.work["casts_run"] + eng.work["casts_skipped"] == 4 * len(memo)
        assert sum(int((~obs.visible).sum()) for pkt in memo for obs in pkt.observations) > 100

    def test_evicted_pose_is_solved_again(self, monkeypatch):
        # a rig's memo holds MEMO_CAPACITY poses and forgets the least
        # recently used one first; a forgotten pose is solved again, with
        # bitwise equal results
        eng = SimEngine(dual_grasp_scenario())
        solves = []
        solve = ForwardContactModel.solve

        def counting_solve(self, jaw_from_obj, sdf):
            solves.append(1)
            return solve(self, jaw_from_obj, sdf)

        monkeypatch.setattr(ForwardContactModel, "solve", counting_solve)
        capacity = sensing_sim.MEMO_CAPACITY
        closures = [touch_closure(eng) + 0.001 + 2e-5 * k for k in range(capacity + 1)]
        truths, first = [], []
        for c in closures[:capacity]:
            truths.append(eng._jaw_truth(0, c, 0.0))
            first.append(eng._solve_contact(0, c, 0.0))
        assert len(solves) == len(eng._solves[0]) == capacity
        assert eng._solve_contact(0, closures[0], 0.0) is first[0]
        eng._jaw_truth(0, closures[capacity], 0.0)  # forgets closures[1]
        assert len(solves) == capacity + 1 and len(eng._solves[0]) == capacity
        assert eng._solve_contact(0, closures[0], 0.0) is first[0]
        assert len(solves) == capacity + 1
        again = eng._jaw_truth(0, closures[1], 0.0)
        solved = eng._solve_contact(0, closures[1], 0.0)
        assert len(solves) == capacity + 2 and solved is not first[1]
        for mine, theirs in zip(solved.result[:3], first[1].result[:3]):
            assert mine.tobytes() == theirs.tobytes()
        assert solved.result[3] == first[1].result[3] >= 0
        for name in ("force", "contact_point", "displacements"):
            assert getattr(again, name).tobytes() == getattr(truths[1], name).tobytes()
        assert again.displacements is not truths[1].displacements
        assert again.pose_jaw_from_obj.translation.tobytes() == \
            truths[1].pose_jaw_from_obj.translation.tobytes()
        assert np.abs(again.force).max() > 0.5

    def test_moved_object_misses_the_view_memo(self):
        # the same closure with the object elsewhere on the grasp axis, as
        # a bisection from another start can leave it, is a new view, the
        # one an engine without the memo entry renders
        scenario = dual_grasp_scenario(shape=ShapeSpec.wedge())
        eng, other = SimEngine(scenario), SimEngine(scenario)
        truth = eng.step_truth(0.0, touch_closure(eng) + 0.002)
        geometry = eng._observation_geometry(truth, 0)
        assert eng._observation_geometry(truth, 0) is geometry
        eng._object_x += 1e-4
        other._object_x = eng._object_x
        moved = eng._observation_geometry(truth, 0)
        assert moved is not geometry
        expect = other._observation_geometry(truth, 0)
        for name in ("kp_world", "occluded", "drift_points", "kp_cam", "ref_cam"):
            assert getattr(moved, name).tobytes() == getattr(expect, name).tobytes()
        assert eng.work["casts_run"] == 4

    def test_memo_arrays_are_write_locked(self):
        eng = SimEngine(dual_grasp_scenario(occlusion_mode="drift"))
        truth = eng.step_truth(0.0, touch_closure(eng) + 0.002)
        geometry = eng._observation_geometry(truth, 0)
        solved = eng._solve_contact(0, truth.closure, eng._object_x)
        for array in (*solved.result[:3], solved.displacements, geometry.kp_world,
                      geometry.occluded, geometry.drift_points, geometry.kp_cam,
                      geometry.ref_cam):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_run_logs_oracle_work(self, caplog):
        scenario = Scenario(
            shape=ShapeSpec.cylinder(0.015), noise=NoiseConfig(), occlusion_mode="confidence",
            schedule=ScheduleConfig(kind="static", plateaus_mm=(0, 6, 0), ramp_s=0.1,
                                    settle_s=0.1, record_s=0.1, cycles=2))
        eng = SimEngine(scenario)
        with caplog.at_level(logging.DEBUG, logger="finray.sensing_sim"):
            run_scenario(scenario, eng)
            first = dict(eng.work)
            n_frames = run_scenario(scenario, eng).manifest.n_frames
        w = eng.work
        assert w["solves_run"] + w["solves_skipped"] == 2 * n_frames
        assert 0 < first["solves_run"] == w["solves_run"] < first["solves_skipped"]
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [
            f"oracle work over {n_frames} frames: penalty solves {first['solves_run']} run, "
            f"{first['solves_skipped']} skipped; occluder casts {first['casts_run']} run, "
            f"{first['casts_skipped']} skipped",
            f"oracle work over {n_frames} frames: penalty solves 0 run, {n_frames} skipped; "
            f"occluder casts 0 run, {n_frames} skipped"]

    def test_equilibrium_without_bracket_warns(self, monkeypatch, caplog):
        eng = SimEngine(dual_grasp_scenario())
        x0 = eng._object_x
        monkeypatch.setattr(eng, "_net_object_force_x", lambda closure, x: 2.5)
        with caplog.at_level(logging.WARNING, logger="finray.sensing_sim"):
            x = eng._solve_object_equilibrium(0.004)
        assert x == x0
        (record,) = caplog.records
        assert "no object equilibrium bracket" in record.getMessage()
        assert "0.004" in record.getMessage() and "2.5 N" in record.getMessage()

    def test_equilibrium_stalled_bisection_warns(self, monkeypatch, caplog):
        # a force jump with no balanced position: the bisection closes on
        # the jump and stops with the full jump as residual
        eng = SimEngine(dual_grasp_scenario())
        jump = eng._object_x + 3e-4
        monkeypatch.setattr(eng, "_net_object_force_x",
                            lambda closure, x: 1.5 if x < jump else -1.5)
        with caplog.at_level(logging.WARNING, logger="finray.sensing_sim"):
            x = eng._solve_object_equilibrium(0.004)
        assert abs(x - jump) <= 1e-15
        (record,) = caplog.records
        assert "stopped with residual net force" in record.getMessage()
        assert "1.5 N" in record.getMessage()

    def test_balanced_equilibrium_is_silent(self, caplog):
        eng = SimEngine(dual_grasp_scenario(shape=ShapeSpec.wedge()))
        closure = touch_closure(eng) + 0.002
        with caplog.at_level(logging.WARNING, logger="finray.sensing_sim"):
            x = eng._solve_object_equilibrium(closure)
        assert abs(eng._net_object_force_x(closure, x)) <= 1e-7
        assert not caplog.records


class TestDeferredImport:
    def test_point_contact_grasp_leaves_out_nnls(self):
        # a fresh process that runs a point-contact dual-jaw grasp with its
        # estimators never imports scipy.optimize; its first multi-node
        # (distributed) penalty step does
        code = """
import sys
from finray.fixtures import ShapeSpec
from finray.pipeline import run_estimation
from finray.sensing_sim import ContactModelConfig, Scenario, ScheduleConfig, SimEngine
grasp = Scenario(shape=ShapeSpec.cylinder(0.025), dual_jaw=True, occlusion_mode="confidence",
                 schedule=ScheduleConfig(kind="grasp", closing_speed_mm_s=8.0,
                                         target_force=3.0, hold_s=0.2),
                 contact=ContactModelConfig(model="point"))
in_contact = sum(f["true_candidate"] >= 0 for f in run_estimation(grasp).frames)
after_point = "scipy.optimize" in sys.modules
press = Scenario(shape=ShapeSpec.cylinder(0.035), contact_position="lower",
                 contact=ContactModelConfig(model="distributed"))
force = SimEngine(press).step_truth(0.0, 0.004).jaws[0].force_scalar
print(in_contact, after_point, "scipy.optimize" in sys.modules, force > 1.0)
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        assert int(out[0]) > 10
        assert out[1:] == ["False", "True", "True"]


class TestSyntheticScan:
    def test_noise_scale(self):
        from finray.mesh_calibration import CameraModel
        from finray.fixtures import box_points, _hull_mesh
        from finray.mesh_model import SurfaceMesh
        cam = CameraModel()
        cube = _hull_mesh(box_points((0.04, 0.04, 0.04)))
        posed = SurfaceMesh(cube.vertices + np.array([0, 0, 0.4]), cube.triangles)
        clean = synthetic_scan(posed, cam, depth_sigma=0.0, seed=0)
        noisy = synthetic_scan(posed, cam, depth_sigma=0.001, seed=0)
        assert len(clean.points) == len(noisy.points)
        d = np.linalg.norm(noisy.points - clean.points, axis=1)
        assert 0.0005 <= d.std() <= 0.0015


class TestSystemCache:
    def test_keyed_by_mesh_content_and_material(self, fresh_caches):
        a, b = generate_jaw(JawParams()).mesh, generate_jaw(JawParams()).mesh
        assert a is not b
        system = cached_system(a, MaterialModel())
        assert cached_system(b, MaterialModel()) is system
        assert cached_system(b, MaterialModel(youngs_modulus=30e6)) is not system
        free = np.setdiff1d(np.arange(a.n_vertices), a.fixed_vertex_ids)[0]
        vertices = np.array(a.vertices)
        vertices[free, 1] += 1e-7
        moved = TetMesh(vertices, a.tets, a.fixed_vertex_ids, a.inner_surface_ids)
        assert cached_system(moved, MaterialModel()) is not system
        assert len(mesh_model._REGISTRY) == 3
