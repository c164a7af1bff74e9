"""Linear-elastic tetrahedral FEM: stiffness assembly over free DOFs,
cached factorization, the unit-load field bank, and the compliance
operators the inverse force solver consumes.

Small-strain linear elements keep the compliance maps constant, which is
what the inverse objective requires. One sparse LU factorizes every mesh,
rejecting a singular K_ff by its pivots; unlike a dense Cholesky, it gives
the same bits at any BLAS thread count.

Each ``StiffnessSystem`` owns one bank of unit-load displacement fields,
one per loaded vertex. A request solves the vertices not yet in the bank
in a single multi-right-hand-side solve, under the system's lock, and
every consumer (the forward contact oracle and the inverse solver's
``ComplianceOperators``) reads the same read-only arrays from it.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .mesh_model import TetMesh

logger = logging.getLogger(__name__)


class SolveError(RuntimeError):
    """Singular or infeasible linear system."""


@dataclass(frozen=True)
class MaterialModel:
    """Isotropic linear elasticity constants."""

    youngs_modulus: float = 26e6  # Pa, TPU-like default
    poisson_ratio: float = 0.48

    def __post_init__(self):
        if self.youngs_modulus <= 0:
            raise ValueError("Young's modulus must be positive")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError("Poisson ratio must be in [0, 0.5)")

    def elasticity_matrix(self) -> np.ndarray:
        """6x6 isotropic elasticity in Voigt order (xx, yy, zz, xy, yz, zx)
        with engineering shear strains."""
        e, nu = self.youngs_modulus, self.poisson_ratio
        lam = e * nu / ((1 + nu) * (1 - 2 * nu))
        mu = e / (2 * (1 + nu))
        d = np.zeros((6, 6))
        d[:3, :3] = lam
        d[np.arange(3), np.arange(3)] = lam + 2 * mu
        d[np.arange(3, 6), np.arange(3, 6)] = mu
        return d


def element_stiffnesses(vertices: np.ndarray, tets: np.ndarray,
                        material: MaterialModel) -> np.ndarray:
    """Per-element 12x12 stiffness matrices, vectorized over all tets."""
    v = vertices[tets]
    edges = np.swapaxes(v[:, 1:] - v[:, :1], 1, 2)  # (t, 3, 3), columns are edges
    vols = np.linalg.det(edges) / 6.0
    if np.any(vols <= 0):
        raise SolveError("inverted tet encountered during assembly")
    inv = np.linalg.inv(edges)
    grads = np.empty((len(tets), 4, 3))
    grads[:, 1:] = inv  # rows of the inverse are the shape gradients
    grads[:, 0] = -inv.sum(axis=1)
    b = np.zeros((len(tets), 6, 12))
    for node in range(4):
        gx, gy, gz = grads[:, node, 0], grads[:, node, 1], grads[:, node, 2]
        c = 3 * node
        b[:, 0, c + 0] = gx
        b[:, 1, c + 1] = gy
        b[:, 2, c + 2] = gz
        b[:, 3, c + 0] = gy
        b[:, 3, c + 1] = gx
        b[:, 4, c + 1] = gz
        b[:, 4, c + 2] = gy
        b[:, 5, c + 0] = gz
        b[:, 5, c + 2] = gx
    d = material.elasticity_matrix()
    ke = np.einsum("tia,ij,tjb->tab", b, d, b)
    return ke * vols[:, None, None]


class StiffnessSystem:
    """Assembled stiffness with fixed DOFs eliminated, a cached
    factorization and the bank of unit-load fields solved against it.

    The matrices and the factorization do not change after construction,
    so concurrent solves are safe. The bank only grows: ``unit_load_fields``
    fills it under ``_bank_lock``, so threads that ask for overlapping
    vertices solve each field once and read the same arrays."""

    def __init__(self, mesh: TetMesh, material: MaterialModel):
        self.mesh = mesh
        self.material = material
        ke = element_stiffnesses(mesh.vertices, mesh.tets, material)
        n_dof = 3 * mesh.n_vertices
        dof = (3 * mesh.tets[:, :, None] + np.arange(3)).reshape(len(mesh.tets), 12)
        rows = np.repeat(dof, 12, axis=1).ravel()
        cols = np.tile(dof, (1, 12)).ravel()
        k_full = scipy.sparse.coo_matrix((ke.ravel(), (rows, cols)),
                                         shape=(n_dof, n_dof)).tocsr()
        self.k_full = k_full

        free_mask = np.ones(mesh.n_vertices, dtype=bool)
        free_mask[mesh.fixed_vertex_ids] = False
        self.free_vertices = np.flatnonzero(free_mask)
        self.free_dofs = (3 * self.free_vertices[:, None] + np.arange(3)).ravel()
        self.n_free = len(self.free_dofs)
        k_ff = k_full[self.free_dofs][:, self.free_dofs]

        start = time.perf_counter()
        try:
            self._lu = scipy.sparse.linalg.splu(k_ff.tocsc())
        except RuntimeError as exc:
            raise SolveError(f"stiffness factorization failed: {exc}") from exc
        pivots = np.abs(self._lu.U.diagonal())
        if pivots.min(initial=np.inf) <= self.n_free * np.finfo(float).eps * pivots.max(initial=0):
            raise SolveError(f"stiffness singular: pivot ratio {pivots.min() / pivots.max():.3g}")
        logger.debug("stiffness factorization: %d free DOFs, nnz(L)+nnz(U) %d, %.1f ms", self.n_free,
                     self._lu.L.nnz + self._lu.U.nnz, 1e3 * (time.perf_counter() - start))
        self._bank: dict[int, np.ndarray] = {}
        self._bank_lock = threading.Lock()

    def solve_free(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K_ff u = rhs for one or more right-hand sides."""
        return self._lu.solve(rhs)

    def solve_displacement(self, loads: np.ndarray) -> np.ndarray:
        """(n_vertices, 3) displacement under per-vertex loads; loads on
        fixed vertices must be zero (they are reaction-supported, not free)."""
        loads = np.asarray(loads, dtype=np.float64)
        if loads.shape != (self.mesh.n_vertices, 3):
            raise SolveError("loads must be (n_vertices, 3)")
        if np.any(loads[self.mesh.fixed_vertex_ids] != 0.0):
            raise SolveError("nonzero load on fixed vertices")
        u = np.zeros_like(loads)
        u_free = self.solve_free(loads.ravel()[self.free_dofs])
        u.ravel()[self.free_dofs] = u_free
        return u

    def unit_load_fields(self, vertex_ids) -> list[np.ndarray]:
        """Read-only (n_vertices, 3, 3) displacement fields for unit loads
        along each axis at each vertex: ``field[:, :, d]`` is the response
        to axis d. Vertices missing from the bank are solved together in
        one ``solve_free`` call and stored; the rest are shared."""
        vertex_ids = [int(v) for v in vertex_ids]
        with self._bank_lock:
            missing = list(dict.fromkeys(v for v in vertex_ids if v not in self._bank))
            if missing:
                dofs = (3 * np.asarray(missing)[:, None] + np.arange(3)).ravel()
                cols = np.searchsorted(self.free_dofs, dofs)
                bad = self.free_dofs[np.minimum(cols, self.n_free - 1)] != dofs
                if bad.any():
                    raise SolveError(f"vertex {int(dofs[bad][0]) // 3} is fixed; "
                                     "no compliance column")
                rhs = np.zeros((self.n_free, len(dofs)))
                rhs[cols, np.arange(len(dofs))] = 1.0
                full = np.zeros((self.mesh.n_vertices * 3, len(dofs)))
                full[self.free_dofs] = self.solve_free(rhs)
                block = np.ascontiguousarray(
                    full.reshape(self.mesh.n_vertices, 3, len(missing), 3).transpose(2, 0, 1, 3))
                block.flags.writeable = False
                self._bank.update(zip(missing, block))
            return [self._bank[v] for v in vertex_ids]

    def point_load_field(self, vertex_id: int) -> np.ndarray:
        """The bank's unit-load field at one vertex."""
        return self.unit_load_fields([vertex_id])[0]


def assemble(mesh: TetMesh, material: MaterialModel) -> StiffnessSystem:
    return StiffnessSystem(mesh, material)


class ComplianceOperators:
    """Unit-load responses for every contact candidate, gathered from the
    system's field bank.

    ``w_ea[i]`` maps a force at candidate i to effector displacement
    components (3E x 3); ``w_aa[i]`` is the candidate's own 3x3 compliance.
    ``fields[i]`` is candidate i's full (n_vertices, 3, 3) field, the bank's
    read-only C-ordered array itself, so deformation reconstruction is a
    single matrix-vector product on its (3 n_vertices, 3) view.
    """

    def __init__(self, system: StiffnessSystem, effector_ids: np.ndarray,
                 candidate_ids: np.ndarray):
        effector_ids = np.asarray(effector_ids, dtype=np.int64)
        candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
        n_v = system.mesh.n_vertices
        for ids, name in ((effector_ids, "effector"), (candidate_ids, "candidate")):
            if ids.min(initial=0) < 0 or ids.max(initial=-1) >= n_v:
                raise SolveError(f"{name} id out of range")
        self.effector_ids = effector_ids
        self.candidate_ids = candidate_ids
        self.fields = tuple(system.unit_load_fields(candidate_ids))
        self.w_ea = np.stack([f[effector_ids] for f in self.fields]).reshape(
            len(candidate_ids), -1, 3)
        self.w_aa = np.stack([f[c] for f, c in zip(self.fields, candidate_ids)])

    @property
    def n_candidates(self) -> int:
        return len(self.candidate_ids)

    @property
    def n_effectors(self) -> int:
        return len(self.effector_ids)


def precompute_compliance(system: StiffnessSystem, effector_ids: np.ndarray,
                          candidate_ids: np.ndarray) -> ComplianceOperators:
    return ComplianceOperators(system, effector_ids, candidate_ids)
