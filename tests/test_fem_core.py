import logging
import threading
import time

import numpy as np
import pytest

from finray.fem_core import (
    MaterialModel,
    SolveError,
    StiffnessSystem,
    assemble,
    precompute_compliance,
)
from finray.fixtures import JawParams, ShapeSpec, canonical_jaw, generate_jaw
from finray.mesh_model import TetMesh
from finray.pipeline import EstimatorSettings, JawEstimator
from finray.sensing_sim import ContactModelConfig, Scenario, SimEngine


def reference_element_stiffness(verts, material):
    """Independent single-element stiffness: shape-function coefficients
    from the 4x4 nodal system, B from the explicit gradients."""
    m = np.column_stack([np.ones(4), verts])
    coeffs = np.linalg.inv(m)  # row i of coeffs.T: [c, gx, gy, gz] for node i
    grads = coeffs[1:, :].T  # (4 nodes, 3)
    e, nu = material.youngs_modulus, material.poisson_ratio
    lam = e * nu / ((1 + nu) * (1 - 2 * nu))
    mu = e / (2 * (1 + nu))
    d = np.zeros((6, 6))
    d[:3, :3] = lam
    d[np.arange(3), np.arange(3)] += 2 * mu
    d[3:, 3:] = mu * np.eye(3)
    b = np.zeros((6, 12))
    for i in range(4):
        gx, gy, gz = grads[i]
        b[:, 3 * i:3 * i + 3] = np.array([
            [gx, 0, 0],
            [0, gy, 0],
            [0, 0, gz],
            [gy, gx, 0],
            [0, gz, gy],
            [gz, 0, gx],
        ])
    vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
    return vol * b.T @ d @ b


def tet_fixture():
    verts = np.array([
        [0.0, 0.0, 0.0],
        [0.02, 0.0, 0.0],
        [0.0, 0.02, 0.0],
        [0.0, 0.0, 0.02],
    ])
    tets = np.array([[0, 1, 2, 3]])
    return TetMesh(verts, tets, np.array([0, 1, 2]), np.array([3]))


class TestAssemble:
    def test_single_tet_matches_reference(self):
        mesh = tet_fixture()
        mat = MaterialModel(5e6, 0.4)
        system = assemble(mesh, mat)
        k_ref = reference_element_stiffness(mesh.vertices, mat)
        # free node is the apex: compare the solved displacement against
        # the independently assembled 12x12 system
        load = np.array([0.0, 0.0, -1.0])
        u = system.solve_displacement(np.vstack([np.zeros((3, 3)), load]))
        k_ff = k_ref[9:, 9:]
        u_ref = np.linalg.solve(k_ff, load)
        assert np.abs(u[3] - u_ref).max() <= 1e-12 * np.abs(u_ref).max()

    def test_rigid_translation_null_space(self, jaw, system):
        t = np.tile([1.0, -2.0, 0.5], jaw.mesh.n_vertices)
        r = system.k_full @ t
        scale = np.abs(system.k_full).max() * np.abs(t).max()
        assert np.abs(r).max() <= 1e-8 * scale

    def test_double_stiffness_halves_displacement(self):
        mesh = tet_fixture()
        load = np.vstack([np.zeros((3, 3)), [0.0, 1.0, 2.0]])
        u1 = assemble(mesh, MaterialModel(5e6, 0.4)).solve_displacement(load)
        u2 = assemble(mesh, MaterialModel(10e6, 0.4)).solve_displacement(load)
        assert np.allclose(u2, 0.5 * u1, rtol=1e-12)

    def test_empty_fixed_set_rejected(self):
        mesh = tet_fixture()
        bare = TetMesh(mesh.vertices, mesh.tets, np.array([], dtype=int), np.array([3]))
        with pytest.raises(SolveError):
            assemble(bare, MaterialModel())

    @pytest.mark.parametrize("case", ["unheld second tet", "pinned at one vertex",
                                      "vertex in no tet"])
    def test_singular_stiffness_rejected(self, case):
        # rigid motions left free, found by the pivot ratio: a second tet
        # that no fixed vertex holds, or one tet held at a single vertex,
        # where it can still rotate; a vertex with no stiffness at all makes
        # the factorization itself fail
        mesh = tet_fixture()
        if case == "unheld second tet":
            vertices = np.vstack([mesh.vertices, mesh.vertices + [0.05, 0.0, 0.0]])
            mesh = TetMesh(vertices, np.array([[0, 1, 2, 3], [4, 5, 6, 7]]),
                           mesh.fixed_vertex_ids, mesh.inner_surface_ids)
        elif case == "pinned at one vertex":
            mesh = TetMesh(mesh.vertices, mesh.tets, np.array([0]), mesh.inner_surface_ids)
        else:
            mesh = TetMesh(np.vstack([mesh.vertices, [0.1, 0.1, 0.1]]), mesh.tets,
                           mesh.fixed_vertex_ids, mesh.inner_surface_ids)
        with pytest.raises(SolveError):
            assemble(mesh, MaterialModel())

    def test_fully_fixed_mesh_has_nothing_to_solve(self):
        mesh = tet_fixture()
        held = TetMesh(mesh.vertices, mesh.tets, np.arange(4), np.array([], dtype=int))
        system = assemble(held, MaterialModel())
        assert system.n_free == 0
        assert not system.solve_displacement(np.zeros((4, 3))).any()

    def test_factorization_logged(self, jaw, caplog):
        with caplog.at_level(logging.DEBUG, logger="finray.fem_core"):
            system = StiffnessSystem(jaw.mesh, MaterialModel())
        (record,) = [r for r in caplog.records if r.name == "finray.fem_core"]
        n_free, nnz, ms = record.args
        assert n_free == system.n_free == 1512
        assert nnz > system.n_free and ms > 0.0

    def test_material_validation(self):
        with pytest.raises(ValueError):
            MaterialModel(-1.0, 0.3)
        with pytest.raises(ValueError):
            MaterialModel(1e6, 0.5)


class TestSolveDisplacement:
    def test_zero_load(self, system, jaw):
        u = system.solve_displacement(np.zeros((jaw.mesh.n_vertices, 3)))
        assert np.abs(u).max() == 0.0

    def test_superposition(self, system, jaw, rng):
        n = jaw.mesh.n_vertices
        free = np.setdiff1d(np.arange(n), jaw.mesh.fixed_vertex_ids)
        f1 = np.zeros((n, 3))
        f2 = np.zeros((n, 3))
        f1[rng.choice(free, 5)] = rng.normal(size=(5, 3))
        f2[rng.choice(free, 5)] = rng.normal(size=(5, 3))
        u1 = system.solve_displacement(f1)
        u2 = system.solve_displacement(f2)
        u12 = system.solve_displacement(f1 + f2)
        assert np.abs(u12 - (u1 + u2)).max() <= 1e-10 * max(np.abs(u12).max(), 1e-30)

    def test_load_on_fixed_vertex_rejected(self, system, jaw):
        loads = np.zeros((jaw.mesh.n_vertices, 3))
        loads[jaw.mesh.fixed_vertex_ids[0]] = [1.0, 0.0, 0.0]
        with pytest.raises(SolveError):
            system.solve_displacement(loads)

    def test_point_load_matches_compliance_column(self, system, jaw, compliance):
        cand = 7
        vid = jaw.candidate_ids[cand]
        loads = np.zeros((jaw.mesh.n_vertices, 3))
        loads[vid] = [1.0, 0.0, 0.0]
        u = system.solve_displacement(loads)
        assert np.abs(u[vid] - compliance.w_aa[cand][:, 0]).max() <= 1e-10

    def test_strain_energy_nonnegative(self, system, jaw, rng):
        n = jaw.mesh.n_vertices
        free = np.setdiff1d(np.arange(n), jaw.mesh.fixed_vertex_ids)
        for _ in range(5):
            f = np.zeros((n, 3))
            f[rng.choice(free, 8)] = rng.normal(size=(8, 3))
            u = system.solve_displacement(f)
            flat = u.ravel()
            e = 0.5 * flat @ (system.k_full @ flat)
            assert e >= 0.0
            assert e > 0.0 or np.abs(u).max() == 0.0


class TestCompliance:
    def test_w_aa_symmetric(self, compliance):
        for i in range(compliance.n_candidates):
            w = compliance.w_aa[i]
            assert np.abs(w - w.T).max() <= 1e-10 * np.abs(w).max()

    def test_w_aa_positive_definite(self, compliance):
        for i in range(compliance.n_candidates):
            assert np.linalg.eigvalsh(compliance.w_aa[i]).min() > 0.0

    def test_betti_reciprocity_cross_solve(self, system, jaw, compliance):
        # displacement at effector j from a unit load at candidate i must
        # equal the candidate-i displacement from the same load at j
        n = jaw.mesh.n_vertices
        for ci, kj in ((2, 4), (7, 0), (12, 10)):
            cand_v = jaw.candidate_ids[ci]
            eff_v = jaw.keypoint_ids[kj]
            for axis_load in range(3):
                loads = np.zeros((n, 3))
                loads[eff_v, axis_load] = 1.0
                u = system.solve_displacement(loads)
                lhs = compliance.fields[ci][eff_v, axis_load, :]  # response at eff
                rhs = u[cand_v]
                scale = max(np.abs(lhs).max(), np.abs(rhs).max())
                assert np.abs(lhs - rhs).max() <= 1e-9 * scale

    def test_w_ea_is_unit_force_response(self, system, jaw, compliance):
        n = jaw.mesh.n_vertices
        loads = np.zeros((n, 3))
        loads[jaw.candidate_ids[5], 2] = 1.0
        u = system.solve_displacement(loads)
        w_col = compliance.w_ea[5][:, 2].reshape(-1, 3)
        assert np.abs(w_col - u[jaw.keypoint_ids]).max() <= 1e-12

    def test_candidate_on_fixed_vertex_rejected(self, system, jaw):
        with pytest.raises(SolveError):
            precompute_compliance(system, jaw.keypoint_ids,
                                  jaw.mesh.fixed_vertex_ids[:1])


def count_solved_columns(monkeypatch, delay=0.0):
    """Right-hand sides passed to ``StiffnessSystem.solve_free`` from now
    on, one entry per call; ``delay`` holds each call open that long."""
    solve_free = StiffnessSystem.solve_free
    columns = []

    def counting(self, rhs):
        columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
        time.sleep(delay)
        return solve_free(self, rhs)

    monkeypatch.setattr(StiffnessSystem, "solve_free", counting)
    return columns


class TestFieldBank:
    @pytest.mark.parametrize("model, n_fields", [("point", 14), ("distributed", 105)])
    def test_engine_and_estimators_solve_each_field_once(self, monkeypatch, fresh_caches,
                                                         model, n_fields):
        # a fresh system: the oracle's contact model and both jaws'
        # compliance operators read one bank, filled by one block solve
        columns = count_solved_columns(monkeypatch)
        engine = SimEngine(Scenario(shape=ShapeSpec.cylinder(0.025), dual_jaw=True,
                                    contact=ContactModelConfig(model=model)))
        estimators = [JawEstimator(engine, i, EstimatorSettings()) for i in range(2)]
        system = engine.rigs[0].system
        assert engine.rigs[1].system is system
        bank = system.unit_load_fields(engine.fixture.candidate_ids)
        for est in estimators:
            assert all(a is b for a, b in zip(est.compliance.fields, bank))
        assert columns == [3 * n_fields]

    def test_fields_match_unit_load_solves(self, jaw, system):
        ids = np.concatenate([jaw.candidate_ids[[0, 7, 13]], jaw.keypoint_ids[[2, 9]],
                              jaw.mesh.inner_surface_ids[[5, 60]]])
        loads = np.zeros((jaw.mesh.n_vertices, 3))
        for v, field in zip(ids, system.unit_load_fields(ids)):
            assert not field.flags.writeable
            for axis in range(3):
                loads[:] = 0.0
                loads[v, axis] = 1.0
                u = system.solve_displacement(loads)
                assert np.abs(field[:, :, axis] - u).max() <= 1e-12 * np.abs(u).max()

    def test_overlapping_threads_share_fields(self, jaw, monkeypatch):
        system = StiffnessSystem(jaw.mesh, MaterialModel())
        # each solve stays open long enough for the other thread to ask
        columns = count_solved_columns(monkeypatch, delay=0.2)
        ids = [jaw.mesh.inner_surface_ids[:60], jaw.mesh.inner_surface_ids[40:]]
        start = threading.Barrier(2)
        out = [None, None]

        def ask(k):
            start.wait()
            out[k] = dict(zip(ids[k].tolist(), system.unit_load_fields(ids[k])))

        threads = [threading.Thread(target=ask, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(columns) == 3 * len(jaw.mesh.inner_surface_ids)
        shared = set(out[0]) & set(out[1])
        assert len(shared) == 20
        for v in shared:
            assert out[0][v] is out[1][v]
        reference = StiffnessSystem(jaw.mesh, MaterialModel())
        for v, field in out[1].items():
            assert np.array_equal(field, reference.point_load_field(v))


def assert_block_solve_matches_columns(system, ids):
    """The block solve behind the field bank equals solving column by
    column, bit for bit, and the bank holds those columns."""
    cols = np.searchsorted(system.free_dofs, (3 * ids[:, None] + np.arange(3)).ravel())
    rhs = np.zeros((system.n_free, len(cols)))
    rhs[cols, np.arange(len(cols))] = 1.0
    per_column = np.column_stack([system.solve_free(rhs[:, j]) for j in range(len(cols))])
    assert np.array_equal(system.solve_free(rhs), per_column)
    for k, field in enumerate(system.unit_load_fields(ids)):
        assert np.array_equal(field.reshape(-1, 3)[system.free_dofs],
                              per_column[:, 3 * k:3 * k + 3])


class TestRefinedMesh:
    def test_refined_generation_sparse_path(self):
        params = JawParams().refined(2)
        fixture = generate_jaw(params)
        assert fixture.mesh.n_vertices > 2000
        system = assemble(fixture.mesh, MaterialModel())
        loads = np.zeros((fixture.mesh.n_vertices, 3))
        loads[fixture.candidate_ids[7]] = [-1.0, 0.0, 0.0]
        u = system.solve_displacement(loads)
        assert u[fixture.candidate_ids[7], 0] < 0.0
        assert_block_solve_matches_columns(system, fixture.candidate_ids[[2, 7, 11]])

    def test_canonical_jaw_takes_the_same_path(self):
        fixture = canonical_jaw()
        system = assemble(fixture.mesh, MaterialModel())
        assert_block_solve_matches_columns(system, fixture.candidate_ids[[2, 7, 11]])
