import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finray.contact_localizer import (
    ContactState,
    FrameError,
    PoseRateGate,
    PoseTransform,
    chain_pose,
    pre_estimate_translation,
    rotation_about,
    rot_z,
    select_candidate,
    snap_memo,
)
from finray.fem_core import MaterialModel
from finray.fixtures import ShapeSpec, make_object_mesh, make_sdf
from finray.inverse_solver import ContactCandidateSet, remount
from finray.mesh_model import RigidSurface, SurfaceMesh
from finray.pipeline import localize
from finray.sensing_sim import ContactModelConfig, ForwardContactModel, cached_system


def random_rotation(rng):
    axis = rng.normal(size=3)
    return rotation_about(axis, rng.uniform(0, np.pi))


class TestPoseTransform:
    def test_identity_chain(self):
        a = PoseTransform.identity("o", "c")
        b = PoseTransform.identity("c", "g")
        out = chain_pose(b, a)
        assert np.array_equal(out.rotation, np.eye(3))
        assert np.array_equal(out.translation, np.zeros(3))
        assert (out.frame_from, out.frame_to) == ("o", "g")

    def test_translation_chain(self):
        a = PoseTransform(np.eye(3), np.array([1.0, 2.0, 3.0]), "o", "c")
        b = PoseTransform(np.eye(3), np.array([-1.0, 1.0, 0.5]), "c", "g")
        out = chain_pose(b, a)
        assert np.allclose(out.translation, [0.0, 3.0, 3.5])

    def test_label_mismatch(self):
        a = PoseTransform.identity("o", "c")
        b = PoseTransform.identity("r", "g")
        with pytest.raises(FrameError):
            chain_pose(b, a)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(FrameError):
            PoseTransform(np.eye(3) * 1.01, np.zeros(3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_homogeneous_product(self, seed):
        rng = np.random.default_rng(seed)
        a = PoseTransform(random_rotation(rng), rng.normal(size=3), "o", "c")
        b = PoseTransform(random_rotation(rng), rng.normal(size=3), "c", "g")
        out = chain_pose(b, a)
        assert np.abs(out.matrix() - b.matrix() @ a.matrix()).max() <= 1e-12

    def test_chain_is_the_product_of_the_rotations(self, rng):
        # no re-orthonormalization: the chained pose is, bit for bit, the
        # product of the two checked rotations and its translation
        for _ in range(20):
            a = PoseTransform(random_rotation(rng), rng.normal(size=3), "o", "c")
            b = PoseTransform(random_rotation(rng), rng.normal(size=3), "c", "g")
            out = chain_pose(b, a)
            assert out.rotation.tobytes() == (b.rotation @ a.rotation).tobytes()
            assert out.translation.tobytes() == \
                (b.rotation @ a.translation + b.translation).tobytes()

    def test_inverse_round_trip(self, rng):
        p = PoseTransform(random_rotation(rng), rng.normal(size=3), "o", "g")
        q = chain_pose(p.inverse(), p)
        assert np.abs(q.rotation - np.eye(3)).max() <= 1e-12
        assert np.abs(q.translation).max() <= 1e-12

    def test_inverse_skips_the_check_that_construction_keeps(self, rng, monkeypatch):
        # the inverse of a checked pose is built without a second check, bit
        # for bit the pose the checked constructor builds; the constructor,
        # ``replace`` and ``identity`` still check, and a rotation off
        # orthonormal by 1e-9 still raises
        p = PoseTransform(random_rotation(rng), rng.normal(size=3), "o", "g")
        checks = []
        check = PoseTransform.__post_init__

        def counting_check(self):
            checks.append(1)
            check(self)

        monkeypatch.setattr(PoseTransform, "__post_init__", counting_check)
        inv = p.inverse()
        assert not checks
        ref = PoseTransform(p.rotation.T, -p.rotation.T @ p.translation, "g", "o")
        assert len(checks) == 1
        assert inv.rotation.tobytes() == ref.rotation.tobytes()
        assert inv.translation.tobytes() == ref.translation.tobytes()
        assert (inv.frame_from, inv.frame_to) == (ref.frame_from, ref.frame_to) == ("g", "o")
        bad = p.rotation.copy()
        bad[0, 0] += 1e-9
        with pytest.raises(FrameError):
            PoseTransform(bad, p.translation)
        with pytest.raises(FrameError):
            dataclasses.replace(p, rotation=bad)
        PoseTransform.identity()
        assert len(checks) == 4


class TestPreEstimateTranslation:
    def test_direct_arithmetic(self):
        state = ContactState(l0=0.010)
        slab = make_object_mesh(ShapeSpec.cuboid((0.020, 0.05, 0.05)))
        tx = pre_estimate_translation(state, np.eye(3), slab)
        assert tx == pytest.approx(0.020, abs=1e-12)

    def test_cylinder_extent(self):
        state = ContactState(l0=0.0)
        cyl = make_object_mesh(ShapeSpec.cylinder(0.015), n_seg=64)
        tx = pre_estimate_translation(state, np.eye(3), cyl)
        assert 2.0 * tx == pytest.approx(0.015, rel=1e-3)

    def test_rotated_cuboid_extent(self):
        state = ContactState(l0=0.0)
        box = make_object_mesh(ShapeSpec.cuboid((0.020, 0.040, 0.040)))
        tx = pre_estimate_translation(state, rot_z(np.pi / 2.0), box)
        assert 2.0 * tx == pytest.approx(0.040, abs=1e-12)

    def test_degenerate_object(self):
        state = ContactState(l0=0.0)
        flat = make_object_mesh(ShapeSpec.cuboid((0.02, 0.02, 0.02)))
        with pytest.raises(ValueError):
            # rotation irrelevant: collapse by scaling the x axis away
            squashed = type(flat)(flat.vertices * np.array([0.0, 1.0, 1.0]),
                                  flat.triangles)
            pre_estimate_translation(state, np.eye(3), squashed)


def localize_at(state, surf, jaw, twin, pose, cands, snaps):
    """``pipeline.localize`` with the snap memo ``snaps``; returns the
    remount decision and the pre-estimation flag."""
    return localize(state, pose, surf, twin, jaw.mesh,
                    np.unique(surf.triangles), cands, snaps)


class LocalizerScene:
    """Oracle scene driving ``localize`` the way the estimation loop
    does: the jaw surface the localizer sees is the deformation of the
    PREVIOUS iteration, so fresh penetration is visible while loading."""

    def __init__(self, jaw, candidate_index, press=0.003, diameter=0.012):
        self.jaw = jaw
        self.spec = ShapeSpec.cylinder(diameter, 0.05)
        self.mesh = make_object_mesh(self.spec)
        self.twin = RigidSurface(self.mesh)
        # one snap memo for the scene's frames, as the estimator keeps one
        # across its own; every candidate set of a scene has the fixture's
        # positions
        self.snaps = {}
        self.sdf = make_sdf(self.spec)
        system = cached_system(jaw.mesh, MaterialModel())
        self.model = ForwardContactModel(system, jaw,
                                         ContactModelConfig(model="point"))
        self.press = press
        self.contact_x = jaw.params.depth / 2.0 + self.spec.radius
        z = jaw.candidate_positions[candidate_index][2]
        self.pose = self.pose_at(z, press)
        forces, net, cp, cand = self.model.solve(self.pose, self.sdf)
        self.true_candidate = cand
        self.displacements = self.model.full_displacement(forces)

    def pose_at(self, z, press):
        return PoseTransform(np.eye(3),
                             np.array([self.contact_x - press, 0.0, z]), "o", "g")

    def truth_displacements(self, pose):
        forces, _, _, _ = self.model.solve(pose, self.sdf)
        return self.model.full_displacement(forces)

    def surface(self, displacements=None):
        if displacements is None:
            displacements = np.zeros_like(self.jaw.mesh.vertices)
        mesh = self.jaw.mesh
        return SurfaceMesh(mesh.vertices + displacements, mesh.surface().triangles)

    def localize(self, state, surf, pose, cands):
        return localize_at(state, surf, self.jaw, self.twin, pose, cands, self.snaps)

    def run_loading(self, z, state, cands, n_frames=8):
        """Ramp the press from zero; surface lags truth by one frame."""
        mounts = []
        disp = None
        for press in np.linspace(0.0, self.press, n_frames):
            pose = self.pose_at(z, press)
            remount_to, _ = self.localize(state, self.surface(disp), pose, cands)
            disp = self.truth_displacements(pose)
            mounts.append(remount_to)
        return mounts, state


class TestSelectCandidate:
    def test_snaps_match_per_call(self, jaw, fresh_caches):
        # a centre on surface vertex j snaps through j; the shared memo,
        # empty in a fresh registry, filled in a shuffled order and then
        # read back, gives every vertex the candidate of a fresh memo per
        # call; a remount keeps the positions and so the memo
        cands = ContactCandidateSet.from_fixture(jaw)
        vertices = jaw.mesh.vertices
        ids = np.unique(jaw.mesh.surface().triangles)
        want = [select_candidate(vertices[j], vertices, ids, jaw.mesh, cands, {}) for j in ids]
        snaps = snap_memo(jaw.mesh, cands.positions)
        assert snaps == {}
        assert snap_memo(jaw.mesh, remount(cands, 2).positions.copy()) is snaps
        assert snap_memo(jaw.mesh, cands.positions + 1e-12) is not snaps
        order = np.random.default_rng(4).permutation(len(ids))
        for k in order:
            assert select_candidate(vertices[ids[k]], vertices, ids, jaw.mesh, cands,
                                    snaps) == want[k]
        assert sorted(snaps) == ids.tolist()
        assert [select_candidate(vertices[j], vertices, ids, jaw.mesh, cands, snaps)
                for j in ids] == want
        assert len(set(want)) == cands.n_candidates


class TestLocalizeStep:
    def test_no_contact_branch(self, jaw):
        state = ContactState(l0=jaw.l0)
        cands = ContactCandidateSet.from_fixture(jaw)
        obj = make_object_mesh(ShapeSpec.cylinder(0.015, 0.05))
        twin = RigidSurface(obj)
        pose = PoseTransform(np.eye(3), np.array([0.2, 0.0, 0.04]), "o", "g")
        surf = jaw.mesh.surface()
        # twin placed by pose: far away, no intersection, status stays off
        state.status = True
        snaps = {}
        remount_to, _ = localize_at(state, surf, jaw, twin, pose, cands, snaps)
        assert not state.status
        assert remount_to is None
        # next pass pre-estimates: twin pushed just into the surface
        _, pre_estimated = localize_at(state, surf, jaw, twin, pose, cands, snaps)
        assert pre_estimated
        twin_translation = twin.vertices[0] - obj.vertices[0]
        assert twin_translation[0] == pytest.approx(jaw.l0 + 0.0075, rel=1e-3)
        assert state.status  # pre-estimated twin overlaps by the offset

    def test_pre_estimate_measures_the_template(self, jaw):
        # the twin as the last frame placed it is rotated already: the
        # pre-estimate takes the template's extent under the new rotation
        cuboid = make_object_mesh(ShapeSpec.cuboid((0.03, 0.08, 0.03)))
        twin = RigidSurface(cuboid)
        twin.place(rot_z(0.6), np.zeros(3))
        rotation = rot_z(-0.4)
        pose = PoseTransform(rotation, np.array([0.2, 0.0, 0.04]), "o", "g")
        _, pre_estimated = localize_at(ContactState(l0=jaw.l0), jaw.mesh.surface(), jaw, twin,
                                       pose, ContactCandidateSet.from_fixture(jaw), {})
        assert pre_estimated
        x = (cuboid.vertices @ rotation.T)[:, 0]
        assert twin.translation[0] == pytest.approx(jaw.l0 + 0.5 * (x.max() - x.min()),
                                                    rel=1e-12)

    def test_contact_at_candidate_three(self, jaw):
        scene = LocalizerScene(jaw, 3)
        assert scene.true_candidate == 3
        z = jaw.candidate_positions[3][2]
        results, _ = scene.run_loading(z, ContactState(l0=jaw.l0),
                                       ContactCandidateSet.from_fixture(jaw))
        mounts = [m for m in results if m is not None]
        assert mounts, "never detected contact"
        assert mounts[0] in (2, 3, 4)
        assert 3 in mounts[:3]
        assert mounts[-1] == 3

    def test_sliding_sweep_monotone(self, jaw):
        # object slides from candidate 3 to candidate 10; the emitted
        # candidate sequence must be monotone and end at 10
        scene = LocalizerScene(jaw, 3)
        state = ContactState(l0=jaw.l0)
        cands = ContactCandidateSet.from_fixture(jaw)
        z3 = jaw.candidate_positions[3][2]
        z10 = jaw.candidate_positions[10][2]
        seq = []
        disp = None
        for z in np.linspace(z3, z10, 40):
            pose = scene.pose_at(z, scene.press)
            remount_to, _ = scene.localize(state, scene.surface(disp), pose, cands)
            disp = scene.truth_displacements(pose)
            if remount_to is not None:
                seq.append(remount_to)
        assert seq, "sweep never made contact"
        assert all(b >= a for a, b in zip(seq, seq[1:]))
        assert seq[-1] == 10

    def test_candidate_is_argmin_and_on_surface(self, jaw):
        from finray.mesh_model import closest_point_on_triangles, project_to_inner_surface
        scene = LocalizerScene(jaw, 8)
        z = jaw.candidate_positions[8][2]
        state = ContactState(l0=jaw.l0)
        cands = ContactCandidateSet.from_fixture(jaw)
        surf = scene.surface()  # pre-contact estimate: undeformed
        remount_to, _ = scene.localize(state, surf, scene.pose, cands)
        assert state.status
        centroid = state.centroid
        # independent scan: nearest surface vertex, index map, projection
        sel_ids = np.unique(surf.triangles)
        d = np.linalg.norm(surf.vertices[sel_ids] - centroid, axis=1)
        j = sel_ids[int(np.argmin(d))]
        q_p = project_to_inner_surface(jaw.mesh, jaw.mesh.vertices[j])
        tris = jaw.mesh.inner_triangles()
        _, d2 = closest_point_on_triangles(q_p, jaw.mesh.vertices[tris])
        assert np.sqrt(d2.min()) <= 1e-12
        expect = int(np.argmin(np.linalg.norm(cands.positions - q_p, axis=1)))
        assert remount_to == expect

    def test_determinism(self, jaw):
        scene = LocalizerScene(jaw, 6)
        surf = scene.surface()
        cands = ContactCandidateSet.from_fixture(jaw)
        s1, s2 = ContactState(l0=jaw.l0), ContactState(l0=jaw.l0)
        r1, _ = localize_at(s1, surf, jaw, RigidSurface(scene.mesh), scene.pose, cands, {})
        r2, _ = localize_at(s2, surf, jaw, RigidSurface(scene.mesh), scene.pose, cands, {})
        assert r1 == r2
        assert np.array_equal(s1.centroid, s2.centroid)

    def test_static_fixed_point_within_ten_iterations(self, jaw):
        # constant pose; surface fed back from the previous iteration's
        # truth: the (candidate, deformation) pair reaches a fixed point
        scene = LocalizerScene(jaw, 5)
        z = jaw.candidate_positions[5][2]
        state = ContactState(l0=jaw.l0)
        cands = ContactCandidateSet.from_fixture(jaw)
        disp = None
        mounts = []
        for _ in range(10):
            remount_to, _ = scene.localize(state, scene.surface(disp), scene.pose, cands)
            if remount_to is not None:
                mounts.append(remount_to)
                disp = scene.truth_displacements(scene.pose)
        assert mounts
        assert all(m == 5 for m in mounts[-3:])


class TestPoseRateGate:
    def test_zero_order_hold(self):
        gate = PoseRateGate()
        pose = PoseTransform.identity("o", "c")
        sources = []
        for k in range(9):
            t = k / 30.0
            gate.feed(pose if k % 3 == 0 else None, t)
            _, src, degraded = gate.get(t, contact_stable=False)
            sources.append(src)
            assert not degraded
        assert sources == ["fresh", "held", "held"] * 3

    def test_stable_contact_bypasses_gate(self):
        gate = PoseRateGate()
        gate.feed(PoseTransform.identity("o", "c"), 0.0)
        pose, src, degraded = gate.get(5.0, contact_stable=True)
        assert pose is not None
        assert src == "held"
        assert not degraded

    def test_stale_pose_degrades(self):
        gate = PoseRateGate()
        gate.feed(PoseTransform.identity("o", "c"), 0.0)
        _, src, degraded = gate.get(1.0, contact_stable=False)
        assert src == "stale"
        assert degraded

    def test_contact_stability_counter(self):
        state = ContactState()
        state.status = True
        state.stable_frames = 4
        assert not state.is_stable()
        state.stable_frames = 5
        assert state.is_stable()
