import numpy as np
import pytest

from finray.contact_localizer import PoseTransform
from finray.inverse_solver import (
    ContactCandidateSet,
    DegenerateSolveError,
    EffectorSet,
    InsufficientEffectorsError,
    KeypointFilter,
    estimate_deformation,
    remount,
    set_targets,
    solve,
)
from finray.pipeline import BBOX_MARGIN
from finray.sensing_sim import Observation


def forward_targets(jaw, compliance, force, cand_index):
    """Effector targets produced by a known point force (forward oracle)."""
    u = compliance.w_ea[cand_index].reshape(-1, 3) @ force
    return jaw.mesh.vertices[jaw.keypoint_ids] + u.reshape(-1, 3)


def make_effectors(jaw, targets=None):
    eff = EffectorSet.from_fixture(jaw)
    if targets is not None:
        eff.targets = targets
    return eff


class TestSetTargets:
    def _observation(self, jaw, positions, confidence):
        return Observation(
            timestamp=0.0,
            keypoints=positions,
            confidence=confidence,
            visible=np.ones(len(positions), dtype=bool),
            reference=jaw.mesh.vertices[jaw.reference_id],
        )

    def _filter(self, jaw):
        lo, hi = jaw.bbox(BBOX_MARGIN)
        return KeypointFilter(tuple(lo), tuple(hi))

    def test_all_keypoints_valid(self, jaw):
        eff = make_effectors(jaw)
        # identity camera frame: observation already in jaw coordinates
        obs = self._observation(jaw, eff.rest_positions.copy(), np.full(15, 0.95))
        ident = PoseTransform(np.eye(3), np.zeros(3), "c", "g")
        out = set_targets(eff, obs, ident, self._filter(jaw))
        assert out.n_active == 15
        assert np.allclose(out.targets, eff.rest_positions)

    def test_low_confidence_deactivates(self, jaw):
        eff = make_effectors(jaw)
        conf = np.full(15, 0.95)
        inner = np.flatnonzero(~jaw.keypoint_is_outer)[:4]
        conf[inner] = 0.2
        obs = self._observation(jaw, eff.rest_positions.copy(), conf)
        ident = PoseTransform(np.eye(3), np.zeros(3), "c", "g")
        out = set_targets(eff, obs, ident, self._filter(jaw))
        assert out.n_active == 11
        assert not out.active[inner].any()
        assert out.active[jaw.keypoint_is_outer].all()

    def test_bbox_rejects_high_confidence_outlier(self, jaw):
        eff = make_effectors(jaw)
        pos = eff.rest_positions.copy()
        pos[0] = [0.5, 0.5, 0.5]  # far outside the workspace box
        obs = self._observation(jaw, pos, np.full(15, 0.99))
        ident = PoseTransform(np.eye(3), np.zeros(3), "c", "g")
        out = set_targets(eff, obs, ident, self._filter(jaw))
        assert not out.active[0]
        assert out.n_active == 14

    def test_rejected_keeps_previous_target(self, jaw):
        eff = make_effectors(jaw)
        prev = eff.targets.copy()
        pos = eff.rest_positions + 0.001
        conf = np.full(15, 0.95)
        conf[3] = 0.1
        obs = self._observation(jaw, pos, conf)
        ident = PoseTransform(np.eye(3), np.zeros(3), "c", "g")
        out = set_targets(eff, obs, ident, self._filter(jaw))
        assert np.array_equal(out.targets[3], prev[3])


class TestSolve:
    def test_zero_mismatch_gives_zero_force(self, jaw, compliance):
        eff = make_effectors(jaw)
        cands = ContactCandidateSet.from_fixture(jaw, epsilons=0.0)
        sol = solve(compliance, eff, cands)
        assert np.abs(sol.lam).max() == 0.0
        assert sol.objective == 0.0

    def test_round_trip_recovery(self, jaw, compliance):
        force = np.array([4.0, 0.0, 0.0])
        eff = make_effectors(jaw, forward_targets(jaw, compliance, force, 7))
        cands = ContactCandidateSet.from_fixture(jaw, epsilons=0.0, mounted_index=7)
        sol = solve(compliance, eff, cands)
        assert np.linalg.norm(sol.lam - force) <= 1e-6

    def test_regularization_shrinks(self, jaw, compliance):
        force = np.array([4.0, 0.0, 0.0])
        eff = make_effectors(jaw, forward_targets(jaw, compliance, force, 7))
        sol0 = solve(compliance, eff,
                     ContactCandidateSet.from_fixture(jaw, epsilons=0.0, mounted_index=7))
        sol1 = solve(compliance, eff,
                     ContactCandidateSet.from_fixture(jaw, epsilons=1e-3, mounted_index=7))
        assert np.linalg.norm(sol1.lam) < 4.0
        w_aa = compliance.w_aa[7]
        assert sol1.lam @ w_aa @ sol1.lam < sol0.lam @ w_aa @ sol0.lam

    def test_noiseless_identifiability_up_to_10N(self, jaw, compliance, rng):
        cands = ContactCandidateSet.from_fixture(jaw, epsilons=0.0, mounted_index=9)
        for mag in (0.1, 1.0, 5.0, 10.0):
            d = rng.normal(size=3)
            force = mag * d / np.linalg.norm(d)
            eff = make_effectors(jaw, forward_targets(jaw, compliance, force, 9))
            sol = solve(compliance, eff, cands)
            assert np.linalg.norm(sol.lam - force) <= 1e-6

    def test_stationarity_residual(self, jaw, compliance, rng):
        for _ in range(20):
            eff = make_effectors(jaw)
            eff.targets = eff.rest_positions + 0.002 * rng.standard_normal((15, 3))
            cands = ContactCandidateSet.from_fixture(
                jaw, epsilons=10.0 ** rng.uniform(-6, -2),
                mounted_index=int(rng.integers(0, 14)))
            sol = solve(compliance, eff, cands)
            assert sol.stationarity_residual <= 1e-9

    def test_local_optimality(self, jaw, compliance, rng):
        eff = make_effectors(jaw)
        eff.targets = eff.rest_positions + 0.002 * rng.standard_normal((15, 3))
        cands = ContactCandidateSet.from_fixture(jaw, epsilons=1e-4, mounted_index=6)
        sol = solve(compliance, eff, cands)

        w = compliance.w_ea[6]
        delta = (eff.rest_positions - eff.targets).ravel()
        a = w.T @ w + 1e-4 * compliance.w_aa[6]
        b = w.T @ delta

        def objective(lam):
            return 0.5 * lam @ a @ lam + lam @ b

        j0 = objective(sol.lam)
        for _ in range(100):
            d = rng.normal(size=3)
            d *= 1e-3 / np.linalg.norm(d)
            assert objective(sol.lam + d) >= j0

    def test_regularization_monotonicity(self, jaw, compliance, rng):
        eff = make_effectors(jaw)
        eff.targets = eff.rest_positions + 0.003 * rng.standard_normal((15, 3))
        prev = np.inf
        w_aa = compliance.w_aa[7]
        for eps in np.logspace(-7, -1, 13):
            cands = ContactCandidateSet.from_fixture(jaw, epsilons=eps, mounted_index=7)
            sol = solve(compliance, eff, cands)
            energy = sol.lam @ w_aa @ sol.lam
            assert energy <= prev * (1 + 1e-12)
            prev = energy

    def test_mask_equals_rebuild(self, jaw, compliance, rng):
        # deactivating rows must be bitwise-equal to rebuilding the system
        # from the surviving effectors
        eff = make_effectors(jaw)
        eff.targets = eff.rest_positions + 0.002 * rng.standard_normal((15, 3))
        eff.active = rng.random(15) > 0.4
        if eff.n_active < 3:
            eff.active[:3] = True
        cands = ContactCandidateSet.from_fixture(jaw, epsilons=1e-4, mounted_index=5)
        sol_masked = solve(compliance, eff, cands)

        keep = np.flatnonzero(eff.active)
        sub = EffectorSet(
            vertex_ids=eff.vertex_ids[keep],
            rest_positions=eff.rest_positions[keep],
            targets=eff.targets[keep],
            active=np.ones(len(keep), dtype=bool),
        )

        class SubOps:
            n_effectors = len(keep)
            w_ea = compliance.w_ea[:, np.repeat(keep, 3) * 3 + np.tile([0, 1, 2], len(keep))]
            w_aa = compliance.w_aa
            fields = compliance.fields

        sol_sub = solve(SubOps, sub, cands)
        assert np.array_equal(sol_masked.lam, sol_sub.lam)
        assert sol_masked.objective == sol_sub.objective

    def test_insufficient_effectors(self, jaw, compliance):
        eff = make_effectors(jaw)
        eff.active[:] = False
        eff.active[:2] = True
        cands = ContactCandidateSet.from_fixture(jaw)
        with pytest.raises(InsufficientEffectorsError):
            solve(compliance, eff, cands)

    def test_degenerate_system(self, jaw, compliance):
        class ZeroOps:
            n_effectors = compliance.n_effectors
            w_ea = np.zeros_like(compliance.w_ea)
            w_aa = compliance.w_aa
            fields = compliance.fields

        eff = make_effectors(jaw)
        cands = ContactCandidateSet.from_fixture(jaw, epsilons=0.0)
        with pytest.raises(DegenerateSolveError):
            solve(ZeroOps, eff, cands)


class TestRemount:
    def test_initial_mount_is_middle(self, jaw):
        cands = ContactCandidateSet.from_fixture(jaw)
        assert cands.n_candidates == 14
        assert cands.mounted_index == 7

    def test_remount_then_solve_round_trip(self, jaw, compliance):
        force = np.array([-3.0, 0.5, 0.0])
        eff = make_effectors(jaw, forward_targets(jaw, compliance, force, 7))
        cands = remount(ContactCandidateSet.from_fixture(jaw, epsilons=0.0), 7)
        sol = solve(compliance, eff, cands)
        assert np.linalg.norm(sol.lam - force) <= 1e-6

    def test_remount_idempotent(self, jaw, compliance, rng):
        eff = make_effectors(jaw)
        eff.targets = eff.rest_positions + 0.001 * rng.standard_normal((15, 3))
        cands = ContactCandidateSet.from_fixture(jaw, epsilons=1e-4, mounted_index=4)
        again = remount(cands, 4)
        s1 = solve(compliance, eff, cands)
        s2 = solve(compliance, eff, again)
        assert np.array_equal(s1.lam, s2.lam)

    def test_remount_out_of_range(self, jaw):
        cands = ContactCandidateSet.from_fixture(jaw)
        with pytest.raises(ValueError):
            remount(cands, 14)
        with pytest.raises(ValueError):
            remount(cands, -1)


class TestEstimateDeformation:
    def test_zero_force(self, compliance):
        u = estimate_deformation(compliance, np.zeros(3), 7)
        assert np.abs(u).max() == 0.0

    def test_effector_rows_match_w_ea(self, jaw, compliance, rng):
        lam = rng.normal(size=3)
        u = estimate_deformation(compliance, lam, 3)
        expected = (compliance.w_ea[3] @ lam).reshape(-1, 3)
        assert np.abs(u[jaw.keypoint_ids] - expected).max() <= 1e-10

    def test_matches_forward_solve(self, jaw, system, compliance):
        lam = np.array([-2.0, 0.3, 1.0])
        u = estimate_deformation(compliance, lam, 11)
        loads = np.zeros((jaw.mesh.n_vertices, 3))
        loads[jaw.candidate_ids[11]] = lam
        truth = system.solve_displacement(loads)
        assert np.abs(u - truth).max() <= 1e-6
