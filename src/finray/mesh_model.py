"""Tetrahedral and surface mesh types with the spatial queries the
contact localizer needs: watertight surface extraction, ray-parity point
containment over a BVH, containment in a rigidly placed surface from a
cell grid, sampled boolean-intersection approximation, and closest-point
projection onto the inner contact surface.

Ray queries traverse the BVH for all rays at once: the slab test runs
level by level over every (node, ray) pair of the frontier, and one
Moller-Trumbore pass covers every (leaf, ray) pair that reaches a leaf,
with leaves padded to a common size.

Two tables, built on first use, answer each frame's intersection. A
``SampleLattice``, one per density held by the ``SurfaceMesh`` a
deforming surface is made from, gives every lattice slot a topological
sample id (a vertex, an edge position or a face interior), so the
intersection places and tests each distinct sample once, straight from
the current vertices, and expands the hits back over their slots; the
samples kept are those of testing every slot on its own. A
``ContainmentGrid``, one per twin content, answers containment in the
object twin.

The intersection samples the deforming jaw (``DeformableSurface``) alone
and asks the object twin (``RigidSurface``) which samples it holds; the
jaw's tree is built only for ray casts against it, such as the oracle's
occlusion test. The twin only moves rigidly, so its mesh, BVH and
``ContainmentGrid`` stay in the object frame: query points and ray
directions are mapped into that frame. A point in a cell the surface
does not touch takes the answer of its cell's connected component; a
point in a touched cell takes its cell centre's cached parity answer,
flipped once per listed triangle the segment from the centre crosses,
and is ray-cast only where that segment or the point comes within
``_GRAZE_EPS`` of a triangle or the centre lies near a listed triangle's
plane. The answers are those of ray parity on the posed mesh, except
within about 1e-9 m of a face that the pose leaves exactly on a box
face, where the posed mesh's own answer turns on rounding in its box
test.

All coordinates are meters. Meshes are treated as immutable after
construction (arrays are write-locked); ``DeformedState`` is the one
mutable companion and carries per-vertex displacements index-aligned with
its owning mesh.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.ndimage

logger = logging.getLogger(__name__)


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


class WatertightError(MeshError):
    """Operation requires a watertight mesh."""


def _lock(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis without np.cross overhead."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.float64)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def tet_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    v = vertices[tets]
    return np.linalg.det(v[:, 1:] - v[:, :1]) / 6.0


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    v = vertices[triangles]
    return 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1)


def enclosed_volume(vertices: np.ndarray, triangles: np.ndarray) -> float:
    """Signed volume of a closed, outward-oriented triangle mesh."""
    v = vertices[triangles]
    return float(np.einsum("ij,ij->i", v[:, 0], np.cross(v[:, 1], v[:, 2])).sum() / 6.0)


def is_watertight(triangles: np.ndarray) -> bool:
    """True iff every undirected edge is shared by exactly two triangles
    with consistent orientation (each directed edge appears exactly once)."""
    if len(triangles) == 0:
        return False
    edges = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    # consistent orientation: no directed edge repeats
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    se = edges[order]
    if np.any(np.all(se[1:] == se[:-1], axis=1)):
        return False
    # closed: each directed edge has its reverse present
    fwd = se[:, 0] * (edges.max() + 1) + se[:, 1]
    rev = edges[:, 1] * (edges.max() + 1) + edges[:, 0]
    return bool(np.all(np.isin(fwd, rev)))


@dataclass
class TetMesh:
    """Gripper volume mesh with designated boundary-condition index sets.

    ``fixed_vertex_ids`` is the clamped base region; ``inner_surface_ids``
    identifies the inner contact surface. The two sets must be disjoint.
    """

    vertices: np.ndarray
    tets: np.ndarray
    fixed_vertex_ids: np.ndarray
    inner_surface_ids: np.ndarray

    def __post_init__(self):
        self.vertices = _lock(np.asarray(self.vertices, dtype=np.float64))
        self.tets = _lock(np.asarray(self.tets, dtype=np.int64))
        self.fixed_vertex_ids = _lock(np.asarray(self.fixed_vertex_ids, dtype=np.int64))
        self.inner_surface_ids = _lock(np.asarray(self.inner_surface_ids, dtype=np.int64))
        n = len(self.vertices)
        if self.tets.size and self.tets.max() >= n:
            raise MeshError("tet index out of range")
        if self.tets.min(initial=0) < 0:
            raise MeshError("negative tet index")
        vols = tet_volumes(self.vertices, self.tets)
        if np.any(vols <= 0):
            raise MeshError(f"{int((vols <= 0).sum())} non-positive tet volumes")
        for ids, name in ((self.fixed_vertex_ids, "fixed"), (self.inner_surface_ids, "inner")):
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise MeshError(f"{name} vertex id out of range")
        if np.intersect1d(self.fixed_vertex_ids, self.inner_surface_ids).size:
            raise MeshError("fixed and inner surface sets overlap")
        self._surface: Optional[SurfaceMesh] = None
        self._inner_triangles: Optional[np.ndarray] = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def surface(self) -> "SurfaceMesh":
        """Undeformed boundary surface (cached)."""
        if self._surface is None:
            self._surface = extract_surface(self)
        return self._surface

    def inner_triangles(self) -> np.ndarray:
        """Boundary triangles whose vertices all lie on the inner contact
        surface, in undeformed coordinates."""
        if self._inner_triangles is None:
            tris = self.surface().triangles
            mask = np.all(np.isin(tris, self.inner_surface_ids), axis=1)
            self._inner_triangles = _lock(tris[mask])
        return self._inner_triangles


@dataclass
class DeformedState:
    """Per-vertex displacement field aligned with an owning TetMesh."""

    displacements: np.ndarray

    def __post_init__(self):
        self.displacements = np.asarray(self.displacements, dtype=np.float64)
        if self.displacements.ndim != 2 or self.displacements.shape[1] != 3:
            raise MeshError("displacements must be (n, 3)")

    @classmethod
    def zero(cls, mesh: TetMesh) -> "DeformedState":
        return cls(np.zeros_like(mesh.vertices))

    def positions(self, mesh: TetMesh) -> np.ndarray:
        if len(self.displacements) != mesh.n_vertices:
            raise MeshError("state length does not match mesh")
        return mesh.vertices + self.displacements


# faces of a positively-oriented tet (a,b,c,d) with outward normals
_TET_FACES = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


@dataclass(eq=False)
class SurfaceMesh:
    """Triangle mesh; ``watertight`` is verified at construction. A mesh
    is equal only to itself, so it can key a memo by identity."""

    vertices: np.ndarray
    triangles: np.ndarray
    watertight: bool = field(default=False)

    def __post_init__(self):
        self.vertices = _lock(np.asarray(self.vertices, dtype=np.float64))
        self.triangles = _lock(np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3))
        if self.triangles.size and self.triangles.max() >= len(self.vertices):
            raise MeshError("triangle index out of range")
        self.watertight = is_watertight(self.triangles)
        self._bvh: Optional[TriangleBVH] = None
        self._lattices: dict[int, SampleLattice] = {}

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def bvh(self) -> "TriangleBVH":
        if self._bvh is None:
            self._bvh = TriangleBVH(self.vertices, self.triangles)
        return self._bvh

    def lattice(self, density: int) -> "SampleLattice":
        """The triangles' ``SampleLattice`` at ``density``, built on first
        use and held."""
        if density not in self._lattices:
            self._lattices[density] = sample_lattice(self.triangles, density)
        return self._lattices[density]

    def scaled(self, scale: float, origin: np.ndarray) -> "SurfaceMesh":
        """Copy scaled by ``scale`` about ``origin``."""
        return SurfaceMesh((self.vertices - origin) * scale + origin, self.triangles)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def _box(vertices: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box of the rows ``ids`` of an (n, 3) array, reduced over a (3, m)
    gather: numpy reduces an (m, 3) array over its first axis several
    times slower."""
    columns = np.take(vertices.T, ids, axis=1)
    return columns.min(axis=1), columns.max(axis=1)


class DeformableSurface:
    """Fixed-topology surface whose vertices move between queries.

    Watertightness is checked once at construction; ``update`` stores the
    new vertices. ``bvh`` builds the tree at its first call and refits it
    in place on the first call after each later update, so a surface
    that nothing ray-casts never holds a tree. Duck-compatible with
    SurfaceMesh for ``point_inside``, ray casts and as the sampled
    surface of ``intersect_approx`` (single-writer, as with
    DeformedState).
    """

    def __init__(self, template: SurfaceMesh):
        if not template.watertight:
            raise WatertightError("deformable surface requires a watertight template")
        self.template = template
        self.triangles = template.triangles
        self.vertices = np.array(template.vertices)
        self.watertight = True
        self._bvh: Optional[TriangleBVH] = None
        self._stale = False
        self._vertex_ids = np.unique(self.triangles)

    def update(self, vertices: np.ndarray) -> None:
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self._stale = True

    def bvh(self) -> "TriangleBVH":
        if self._bvh is None:
            self._bvh = TriangleBVH(self.vertices, self.triangles)
        elif self._stale:
            self._bvh.refit(self.vertices)
        self._stale = False
        return self._bvh

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box of the vertices the triangles use: the root box of a
        refit tree, without one."""
        return _box(self.vertices, self._vertex_ids)

    def lattice(self, density: int) -> "SampleLattice":
        """The template's ``SampleLattice``: the topology never changes."""
        return self.template.lattice(density)


def boundary_faces(tets: np.ndarray) -> np.ndarray:
    """Triangles belonging to exactly one tet, outward-oriented when the
    tets are positively oriented."""
    faces = tets[:, _TET_FACES].reshape(-1, 3)
    key = np.sort(faces, axis=1)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    sk = key[order]
    same_next = np.zeros(len(sk), dtype=bool)
    same_next[:-1] = np.all(sk[1:] == sk[:-1], axis=1)
    same_prev = np.zeros(len(sk), dtype=bool)
    same_prev[1:] = same_next[:-1]
    return faces[order[~(same_next | same_prev)]]


def extract_surface(mesh: TetMesh, state: DeformedState | None = None) -> SurfaceMesh:
    """Boundary triangle mesh of the (optionally deformed) tet mesh.

    The vertex array keeps the full, index-aligned tet vertex set so
    surface vertex k coincides with deformed vertex k.
    """
    if state is not None:
        verts = state.positions(mesh)
    else:
        verts = mesh.vertices
    surf = SurfaceMesh(verts, boundary_faces(mesh.tets))
    if not surf.watertight:
        raise MeshError("extracted surface is not watertight")
    return surf


# ---------------------------------------------------------------------------
# BVH and ray queries

_RAY_SEED = 0x5EED


def _seeded_directions(n: int) -> np.ndarray:
    rng = np.random.default_rng(_RAY_SEED)
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


# distance in barycentric units and along the ray within which
# ``count_crossings`` calls a ray grazing, so that its point is re-cast
_GRAZE_EPS = 1e-9
# points that graze a triangle on every cast are effectively on the
# surface; after these casts the last parity answer stands
_FALLBACK_DIRECTIONS = _seeded_directions(4)

# (leaf, ray) pairs per Moller-Trumbore batch: bounds the pass's
# temporaries, each (pairs, leaf_size, 3) float array then under 100 kB
_PAIR_CHUNK = 256


class TriangleBVH:
    """Median-split AABB tree over triangles with a batched, level-by-level
    traversal. Topology is fixed at build time; ``refit`` updates the
    boxes for deformed vertex positions. The ray slab test widens every
    box by ``margin``, so a ray from within the margin of a triangle's box
    always tests that triangle."""

    leaf_size = 16  # most triangles per leaf

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray, margin: float = 0.0):
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.margin = margin
        n = len(self.triangles)
        if n == 0:
            raise MeshError("empty triangle set")
        # node arrays grown during build
        self._min: list[np.ndarray] = []
        self._max: list[np.ndarray] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._start: list[int] = []
        self._count: list[int] = []
        verts = np.asarray(vertices, dtype=np.float64)
        tv = verts[self.triangles]
        centroids = tv.mean(axis=1)
        self.tri_order = np.arange(n)
        self._build(tv, centroids, 0, n)
        self.node_min = np.array(self._min)
        self.node_max = np.array(self._max)
        self.node_left = np.array(self._left)
        self.node_right = np.array(self._right)
        self.node_start = np.array(self._start)
        self.node_count = np.array(self._count)
        del self._min, self._max, self._left, self._right, self._start, self._count
        # vectorized-refit helpers: leaves hold contiguous tri_order ranges;
        # internal nodes reduce children level by level
        leaf_mask = self.node_count > 0
        self._leaf_ids = np.flatnonzero(leaf_mask)
        self._leaf_starts = self.node_start[self._leaf_ids]
        self._sorted_triangles = self.triangles[self.tri_order]
        depth = np.zeros(len(self.node_left), dtype=np.int64)
        for i in range(len(self.node_left)):
            if not leaf_mask[i]:
                depth[self.node_left[i]] = depth[i] + 1
                depth[self.node_right[i]] = depth[i] + 1
        internal = np.flatnonzero(~leaf_mask)
        self._internal_levels = [
            internal[depth[internal] == d]
            for d in range(int(depth.max(initial=0)), -1, -1)
        ]
        self._internal_levels = [lvl for lvl in self._internal_levels if len(lvl)]
        # each leaf's triangles (positions in tri_order) padded to leaf_size
        # with copies of its first one for the batched intersection pass;
        # copies leave the grazing flags and first hits unchanged, and
        # ``_leaf_valid`` keeps them out of the crossing counts
        slot = np.arange(self.leaf_size)
        self._leaf_valid = slot < self.node_count[self._leaf_ids][:, None]
        self._leaf_slots = self._leaf_starts[:, None] + np.where(self._leaf_valid, slot, 0)
        self._leaf_row = np.full(len(self.node_left), -1)
        self._leaf_row[self._leaf_ids] = np.arange(len(self._leaf_ids))
        self.refit(verts)

    def _build(self, tv, centroids, lo, hi) -> int:
        idx = len(self._left)
        self._min.append(np.zeros(3))
        self._max.append(np.zeros(3))
        self._left.append(-1)
        self._right.append(-1)
        self._start.append(lo)
        self._count.append(hi - lo)
        if hi - lo <= self.leaf_size:
            return idx
        sub = self.tri_order[lo:hi]
        c = centroids[sub]
        axis = int(np.argmax(c.max(axis=0) - c.min(axis=0)))
        order = np.argsort(c[:, axis], kind="stable")
        self.tri_order[lo:hi] = sub[order]
        mid = lo + (hi - lo) // 2
        self._count[idx] = 0
        self._left[idx] = self._build(tv, centroids, lo, mid)
        self._right[idx] = self._build(tv, centroids, mid, hi)
        return idx

    def refit(self, vertices: np.ndarray) -> None:
        """Recompute node boxes bottom-up for new vertex positions."""
        self.vertices = np.asarray(vertices, dtype=np.float64)
        tv = np.take(self.vertices, self._sorted_triangles, axis=0)
        c0, c1, c2 = tv[:, 0], tv[:, 1], tv[:, 2]
        tmin = np.minimum(np.minimum(c0, c1), c2)
        tmax = np.maximum(np.maximum(c0, c1), c2)
        self.node_min[self._leaf_ids] = np.minimum.reduceat(tmin, self._leaf_starts)
        self.node_max[self._leaf_ids] = np.maximum.reduceat(tmax, self._leaf_starts)
        for lvl in self._internal_levels:
            l, r = self.node_left[lvl], self.node_right[lvl]
            self.node_min[lvl] = np.minimum(self.node_min[l], self.node_min[r])
            self.node_max[lvl] = np.maximum(self.node_max[l], self.node_max[r])
        self._tv0 = c0.copy()  # a view would keep every gathered corner alive
        self._e1 = c1 - c0
        self._e2 = c2 - c0
        self._scale = np.linalg.norm(self._e1, axis=1) * np.linalg.norm(self._e2, axis=1)

    def _leaf_pairs(self, origins: np.ndarray, dirs: np.ndarray, t_max: float):
        """(leaf row, ray index) pairs for rays possibly hitting each leaf
        within parameter range (0, t_max]: the slab test runs level by level
        over all (node, ray) pairs of the frontier at once."""
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
        node_min, node_max = self.node_min, self.node_max
        if self.margin:
            node_min, node_max = node_min - self.margin, node_max + self.margin
        nodes = np.zeros(len(origins), dtype=np.int64)
        rays = np.arange(len(origins))
        leaf_rows, leaf_rays = [], []
        while True:
            o = np.take(origins, rays, axis=0)
            iv = np.take(inv, rays, axis=0)
            t1 = (np.take(node_min, nodes, axis=0) - o) * iv
            t2 = (np.take(node_max, nodes, axis=0) - o) * iv
            # fmin/fmax drop the NaNs from 0 * inf on degenerate axes
            near = np.fmin(t1, t2)
            far = np.fmax(t1, t2)
            lo = np.fmax(np.fmax(near[:, 0], near[:, 1]), near[:, 2])
            hi = np.fmin(np.fmin(far[:, 0], far[:, 1]), far[:, 2])
            hit = (hi >= np.maximum(lo, 0.0)) & (lo <= t_max)
            nodes, rays = nodes[hit], rays[hit]
            row = self._leaf_row[nodes]
            leaf = row >= 0
            leaf_rows.append(row[leaf])
            leaf_rays.append(rays[leaf])
            nodes, rays = nodes[~leaf], rays[~leaf]
            if rays.size == 0:
                return np.concatenate(leaf_rows), np.concatenate(leaf_rays)
            nodes = np.concatenate([self.node_left[nodes], self.node_right[nodes]])
            rays = np.concatenate([rays, rays])

    def _leaf_hits(self, origins: np.ndarray, dirs: np.ndarray, t_max: float):
        """Moller-Trumbore over all (leaf, ray) pairs from ``_leaf_pairs``,
        in chunks of pairs. Yields (ray_index, t, u, v, det_ok, valid) with
        (pairs, leaf_size) arrays; ``valid`` masks the leaves' padding."""
        rows, rays = self._leaf_pairs(origins, dirs, t_max)
        for lo in range(0, len(rays), _PAIR_CHUNK):
            r, k = rows[lo:lo + _PAIR_CHUNK], rays[lo:lo + _PAIR_CHUNK]
            tris = np.take(self._leaf_slots, r, axis=0)
            v0, e1, e2 = (np.take(x, tris, axis=0) for x in (self._tv0, self._e1, self._e2))
            d = np.take(dirs, k, axis=0)
            h = _cross(d[:, None, :], e2)
            a = np.einsum("pij,pij->pi", e1, h)
            det_ok = np.abs(a) > 1e-14 * np.maximum(np.take(self._scale, tris), 1e-300)
            with np.errstate(divide="ignore", invalid="ignore"):
                f = np.where(det_ok, 1.0 / a, 0.0)
            srel = np.take(origins, k, axis=0)[:, None, :] - v0
            u = f * np.einsum("pij,pij->pi", srel, h)
            q = _cross(srel, e1)
            v = f * np.einsum("pj,pij->pi", d, q)
            t = f * np.einsum("pij,pij->pi", e2, q)
            yield k, t, u, v, det_ok, self._leaf_valid[r]

    def count_crossings(self, points: np.ndarray, direction: np.ndarray):
        """Ray-crossing counts from each point along one shared direction.

        Returns (counts, suspect) where suspect marks rays that need a
        re-cast: they grazed a triangle's edge or vertex, started on a
        triangle, or ran parallel to one (within ``_GRAZE_EPS``).
        """
        eps = _GRAZE_EPS
        n = len(points)
        counts = np.zeros(n, dtype=np.int64)
        suspect = np.zeros(n, dtype=bool)
        dirs = np.broadcast_to(direction, (n, 3))
        for rays, t, u, v, det_ok, valid in self._leaf_hits(points, dirs, np.inf):
            w = 1.0 - u - v
            interior = det_ok & (u > eps) & (v > eps) & (w > eps) & (t > eps)
            on_triangle = (u > -eps) & (v > -eps) & (w > -eps)
            on_edge = np.minimum(np.minimum(np.abs(u), np.abs(v)), np.abs(w)) <= eps
            grazing = (~det_ok) | (on_triangle & ((on_edge & (t > -eps)) | (np.abs(t) <= eps)))
            np.add.at(counts, rays, (interior & valid).sum(axis=1))
            np.logical_or.at(suspect, rays, grazing.any(axis=1))
        return counts, suspect

    def first_hit_fraction(self, origins: np.ndarray, targets: np.ndarray,
                           t_hi: float = 1.0 - 1e-9) -> np.ndarray:
        """Smallest hit parameter along each segment origin->target within
        (1e-9, t_hi), or +inf when unobstructed."""
        dirs = targets - origins
        best = np.full(len(origins), np.inf)
        for rays, t, u, v, det_ok, _ in self._leaf_hits(origins, dirs, t_hi):
            ok = det_ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-9) & (t < t_hi)
            t = np.where(ok, t, np.inf)
            np.minimum.at(best, rays, t.min(axis=1))
        return best


def point_inside(mesh: SurfaceMesh, points: np.ndarray,
                 return_on_surface: bool = False,
                 directions: np.ndarray = _FALLBACK_DIRECTIONS):
    """Ray-crossing parity containment test for one or many points.

    Deterministic for points not on the surface: grazing rays are re-cast
    along the next of ``directions``. Points that graze on every cast are
    effectively on the surface; they settle with the last parity answer,
    or are reported separately with ``return_on_surface``. Within about
    1e-9 m of the surface the answer depends on the directions, so a
    surface queried in another frame casts the seeded directions mapped
    into that frame.
    """
    if not mesh.watertight:
        raise WatertightError("point containment requires a watertight mesh")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    bvh = mesh.bvh()
    counts = np.zeros(len(pts), dtype=np.int64)
    on_surface = np.zeros(len(pts), dtype=bool)
    remaining = np.arange(len(pts))
    for direction in directions:
        c, suspect = bvh.count_crossings(pts[remaining], direction)
        settled = ~suspect
        counts[remaining[settled]] = c[settled]
        remaining = remaining[suspect]
        if remaining.size == 0:
            break
    else:
        counts[remaining] = c[suspect]
        on_surface[remaining] = True
    inside = (counts % 2) == 1
    if np.asarray(points).ndim == 1:
        if return_on_surface:
            return bool(inside[0]), bool(on_surface[0])
        return bool(inside[0])
    if return_on_surface:
        return inside, on_surface
    return inside


# ---------------------------------------------------------------------------
# Rigid surfaces: containment from a cell grid in the surface's own frame

# cells per grid over the padded box: about 1 mm cells on the grasped
# objects; a 0.5 mm grid costs more in labelling temporaries (tens of MB)
# than it saves in ray casts
_GRID_CELLS = 2 ** 17
# twice _GRAZE_EPS, far above rounding. Triangle boxes widen by
# this much before they mark cells, so a point in an unmarked cell is
# farther than eps from the surface along any ray and no cast from it
# grazes. The grid's tree widens its boxes as much, so a point mapped into
# the object frame, where the objects' faces lie on box faces and rounding
# can move a surface point just outside a box, still tests the triangles
# it lies on, as it does on the posed mesh.
_TWIN_MARGIN = 2 * _GRAZE_EPS
_TOUCHED = 2  # cell state next to 0 (outside) and 1 (inside)
# a touched cell's centre answer: not cast yet, or not usable because the
# centre lies on the surface or near a listed triangle's plane
_UNCAST, _NO_REFERENCE = -1, 2
# a cell whose centre lies within this many cell sizes of a listed
# triangle's plane takes no reference: a segment from it that crosses the
# plane then meets it at a well-conditioned angle, and where it meets it
# moves by far less than _GRAZE_EPS in barycentric units under rounding
_CENTRE_CLEARANCE = 1e-4
# (cell, triangle) candidates per step of the list build: bounds its
# temporaries to about 1 MB
_PAIR_STEP = 2 ** 13


class ContainmentGrid:
    """Cell grid over a watertight surface's box, padded by one cell, in
    the surface's own frame.

    A cell no triangle's widened box touches lies in one face-connected
    component of such cells; no path inside the component crosses the
    surface, so the component has one answer, settled by one parity test
    of a representative cell centre.

    Each touched cell lists, as int32, the triangles that can cross it:
    those whose widened box touches the cell and whose plane passes within
    half a cell diagonal (plus the margin) of its centre. A point in a
    touched cell takes the parity answer of the cell's centre, cast on
    first use and kept, flipped once per listed triangle that the segment
    from the centre to the point crosses (cell-local reference points,
    Ogayar, Segura & Feito 2005). Three kinds of point are tested instead
    by ``point_inside`` on the grid's own tree, with the caller's
    directions, so the grid stands in for the mesh there: a point within
    ``_GRAZE_EPS`` of a listed triangle's plane inside its widened box, a
    point whose segment grazes a listed triangle's edge, and every point
    of a cell whose centre is on the surface or near a listed plane.
    Points off the grid are outside.

    ``reference_casts`` counts the centres cast and ``fallback_casts`` the
    points tested by ``point_inside``.
    """

    watertight = True

    def __init__(self, mesh: SurfaceMesh):
        start = time.perf_counter()
        self._bvh = TriangleBVH(mesh.vertices, mesh.triangles, margin=_TWIN_MARGIN)
        tv = mesh.vertices[mesh.triangles]
        lo, hi = tv.min(axis=(0, 1)), tv.max(axis=(0, 1))
        ext = hi - lo
        # the second bound keeps a near-flat surface from asking for
        # millions of cells along its other axes
        self.cell = max(float(np.cbrt(np.prod(ext) / _GRID_CELLS)), float(ext.max()) / 256)
        self.origin = lo - self.cell
        self.shape = np.ceil(ext / self.cell).astype(np.int64) + 2
        self._lo, self._hi = tv.min(axis=1) - _TWIN_MARGIN, tv.max(axis=1) + _TWIN_MARGIN
        # how many widened boxes touch each cell, from a difference array
        # with +-1 at the corners of each box's cell range
        first, last = (np.clip(self._cell_index(c), 0, self.shape - 1)
                       for c in (self._lo, self._hi))
        diff = np.zeros(self.shape + 1, dtype=np.int32)
        for corner in itertools.product((0, 1), repeat=3):
            at = np.where(corner, last + 1, first)
            np.add.at(diff, tuple(at.T), -1 if sum(corner) % 2 else 1)
        touched = (diff.cumsum(0).cumsum(1).cumsum(2) > 0)[:-1, :-1, :-1]
        labels, n = scipy.ndimage.label(~touched)
        ids, reps = np.unique(labels, return_index=True)
        answers = np.full(n + 1, _TOUCHED, dtype=np.int8)
        reps = np.column_stack(np.unravel_index(reps[ids > 0], self.shape))
        answers[1:] = point_inside(self, self._centre(reps))
        self.state = answers[labels]
        del diff, labels  # before the lists are built, which bounds the build's peak memory
        self._v0 = tv[:, 0].copy()
        self._e1, self._e2 = tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]
        normal = _cross(self._e1, self._e2)
        length = np.linalg.norm(normal, axis=1, keepdims=True)
        # a degenerate triangle keeps a zero normal: every point of its
        # widened box is then on its "plane" and is ray-cast
        self._normal = np.divide(normal, length, out=np.zeros_like(normal), where=length > 0)
        # flat indices of the touched cells, ascending; a touched cell's
        # row in the lists is its position here
        self._touched = np.flatnonzero(touched).astype(np.int32)
        n_touched = len(self._touched)
        self._reference = np.full(n_touched, _UNCAST, dtype=np.int8)
        self._list_triangles(first, last)
        self.reference_casts = 0
        self.fallback_casts = 0
        logger.debug("containment grid: %d triangles, %s cells of %.3g m, %.1f %% touched "
                     "(%d cells, %d cell-triangle pairs), %d components, built in %.1f ms",
                     len(mesh.triangles), "x".join(map(str, self.shape)), self.cell,
                     100.0 * touched.mean(), n_touched, len(self._tris), n,
                     1e3 * (time.perf_counter() - start))

    def _list_triangles(self, first: np.ndarray, last: np.ndarray) -> None:
        """Each touched cell's triangle list, in CSR form, built over the
        (cell, triangle) pairs of the widened boxes' cell ranges in steps
        of ``_PAIR_STEP``; and the cells whose centres take no reference."""
        reach = 0.5 * np.sqrt(3.0) * self.cell + _TWIN_MARGIN
        extent = last - first + 1
        sizes = np.prod(extent, axis=1)
        ends = np.cumsum(sizes)
        rows, tris, unusable = [], [], []
        for lo in range(0, int(ends[-1]), _PAIR_STEP):
            k = np.arange(lo, min(lo + _PAIR_STEP, int(ends[-1])))
            t = np.searchsorted(ends, k, side="right")
            local = k - (ends[t] - sizes[t])
            ny, nz = extent[t, 1], extent[t, 2]
            cell = first[t] + np.column_stack([local // (ny * nz), local // nz % ny, local % nz])
            dist = np.abs(np.einsum("ij,ij->i", self._normal[t], self._centre(cell) - self._v0[t]))
            keep = dist <= reach
            row = self._rows(cell[keep])
            rows.append(row)
            tris.append(t[keep].astype(np.int32))
            unusable.append(row[dist[keep] <= _CENTRE_CLEARANCE * self.cell])
        rows = np.concatenate(rows)
        order = np.argsort(rows, kind="stable")
        self._tris = np.concatenate(tris)[order]
        counts = np.bincount(rows, minlength=len(self._reference))
        self._start = np.concatenate([[0], np.cumsum(counts)])
        self._reference[np.concatenate(unusable)] = _NO_REFERENCE

    def bvh(self) -> TriangleBVH:
        return self._bvh

    def _cell_index(self, points: np.ndarray) -> np.ndarray:
        # monotone in each coordinate, so a point in a widened box maps
        # into that box's cell range
        return np.floor((points - self.origin) / self.cell).astype(np.int64)

    def _centre(self, cells: np.ndarray) -> np.ndarray:
        return self.origin + (cells + 0.5) * self.cell

    def _rows(self, cells: np.ndarray) -> np.ndarray:
        """List rows of touched cells, from their (n, 3) indices."""
        return np.searchsorted(self._touched, np.ravel_multi_index(tuple(cells.T), self.shape))

    def contains(self, points: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Inside or on the surface, for points in the surface's frame:
        ``ins | on`` of ``point_inside`` cast along ``directions``."""
        idx = self._cell_index(points)
        on_grid = np.all((idx >= 0) & (idx < self.shape), axis=1)
        state = np.zeros(len(points), dtype=np.int8)
        state[on_grid] = self.state[tuple(idx[on_grid].T)]
        hit = state == 1
        touched = np.flatnonzero(state == _TOUCHED)
        if touched.size:
            hit[touched] = self._touched_contains(points[touched], idx[touched], directions)
        return hit

    def _references(self, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Centre answers of the cells ``rows`` (cell indices ``idx``),
        casting those not cast yet."""
        ref = self._reference[rows]
        uncast, at = np.unique(rows[ref == _UNCAST], return_index=True)
        if uncast.size:
            ins, on = point_inside(self, self._centre(idx[ref == _UNCAST][at]),
                                   return_on_surface=True)
            self._reference[uncast] = np.where(on, _NO_REFERENCE, ins)
            self.reference_casts += len(uncast)
            ref = self._reference[rows]
        return ref

    def _touched_contains(self, points: np.ndarray, idx: np.ndarray,
                          directions: np.ndarray) -> np.ndarray:
        eps = _GRAZE_EPS
        rows = self._rows(idx)
        ref = self._references(rows, idx)
        fallback = ref == _NO_REFERENCE
        # every (point, listed triangle) pair
        starts = self._start[rows]
        counts = self._start[rows + 1] - starts
        pt = np.repeat(np.arange(len(points)), counts)
        skip = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        tri = self._tris[np.arange(len(pt)) + skip]
        centre = self._centre(idx)[pt]
        p = points[pt]
        v0, normal = self._v0[tri], self._normal[tri]
        s_c = np.einsum("ij,ij->i", normal, centre - v0)
        s_p = np.einsum("ij,ij->i", normal, p - v0)
        near = (np.abs(s_p) <= eps) & np.all((p >= self._lo[tri]) & (p <= self._hi[tri]), axis=1)
        fallback[pt[near]] = True
        # Moller-Trumbore on the segments that cross a listed plane
        span = np.flatnonzero(((s_c > 0) != (s_p > 0)) & ~near)
        tri, d, srel = tri[span], (p - centre)[span], (centre - v0)[span]
        e1, e2 = self._e1[tri], self._e2[tri]
        h = _cross(d, e2)
        f = 1.0 / np.einsum("ij,ij->i", e1, h)
        u = f * np.einsum("ij,ij->i", srel, h)
        v = f * np.einsum("ij,ij->i", d, _cross(srel, e1))
        w = 1.0 - u - v
        crossing = (u > eps) & (v > eps) & (w > eps)
        grazing = ((u > -eps) & (v > -eps) & (w > -eps)
                   & (np.minimum(np.minimum(np.abs(u), np.abs(v)), np.abs(w)) <= eps))
        fallback[pt[span[grazing]]] = True
        flips = np.bincount(pt[span[crossing]], minlength=len(points)) % 2
        inside = (ref == 1) != (flips == 1)
        if fallback.any():
            ins, on = point_inside(self, points[fallback], return_on_surface=True,
                                   directions=directions)
            inside[fallback] = ins | on
            self.fallback_casts += int(fallback.sum())
        return inside


def content_key(*arrays: np.ndarray) -> str:
    """sha256 hex digest over each array's shape and bytes, in order: the
    content key of the process-wide caches of grids and stiffness systems."""
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


_GRIDS: dict = {}
_GRIDS_LOCK = threading.Lock()


def containment_grid(mesh: SurfaceMesh) -> ContainmentGrid:
    """One grid per surface content, shared by every rigid surface of
    that mesh; built on first use."""
    key = content_key(mesh.vertices, mesh.triangles)
    with _GRIDS_LOCK:
        if key not in _GRIDS:
            _GRIDS[key] = ContainmentGrid(mesh)
        return _GRIDS[key]


class RigidSurface:
    """Watertight surface that only moves rigidly, such as an object twin.

    ``place`` poses it; ``vertices`` are the posed ones. Containment maps
    the query points and the ray directions into the template's frame and
    answers from the template's ``ContainmentGrid``, whose tree is never
    refit. It is the containment target of ``intersect_approx``.
    """

    def __init__(self, template: SurfaceMesh):
        if not template.watertight:
            raise WatertightError("rigid surface requires a watertight template")
        self.template = template
        self.triangles = template.triangles
        self.vertices = template.vertices
        self.watertight = True
        self.rotation = np.eye(3)
        self.translation = np.zeros(3)
        self._vertex_ids = np.unique(self.triangles)
        self._grid: Optional[ContainmentGrid] = None

    def grid(self) -> ContainmentGrid:
        """The template's grid, shared by every surface of its content and
        built on first use."""
        if self._grid is None:
            self._grid = containment_grid(self.template)
        return self._grid

    def place(self, rotation: np.ndarray, translation: np.ndarray) -> None:
        """Pose the template: x -> rotation @ x + translation."""
        self.rotation, self.translation = rotation, translation
        self.vertices = self.template.vertices @ rotation.T + translation

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box of the posed vertices the triangles use."""
        return _box(self.vertices, self._vertex_ids)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Inside or on the posed surface: ``ins | on`` of
        ``point_inside`` on the posed mesh."""
        return self.grid().contains((points - self.translation) @ self.rotation,
                                    _FALLBACK_DIRECTIONS @ self.rotation)


@dataclass
class IntersectionResult:
    """Sampled overlap of a surface with a rigid twin: the surface's
    samples inside or on the twin, and their centroid."""

    sample_count: int
    centroid: Optional[np.ndarray]
    points: Optional[np.ndarray] = None

    @property
    def is_empty(self) -> bool:
        return self.sample_count == 0


@lru_cache(maxsize=None)
def _lattice_weights(n: int) -> np.ndarray:
    """Read-only barycentric weights of the lattice with ``n`` edge
    subdivisions, one row per sample."""
    ij = np.array([(i, j) for i in range(n + 1) for j in range(n + 1 - i)], dtype=np.float64)
    return _lock(np.column_stack([ij[:, 0], ij[:, 1], n - ij[:, 0] - ij[:, 1]]) / n)


def _lattice(tri_vertices: np.ndarray, density: int) -> np.ndarray:
    """Barycentric lattice samples on each triangle of a (t, 3, 3) array,
    triangle by triangle."""
    if density < 1:
        raise ValueError("density must be >= 1")
    return np.einsum("sb,tbx->tsx", _lattice_weights(density), tri_vertices).reshape(-1, 3)


def surface_sample_points(mesh: SurfaceMesh, density: int = 3) -> np.ndarray:
    """Barycentric lattice samples on every triangle.

    ``density`` is the edge subdivision count; density 1 yields triangle
    corners only.
    """
    return _lattice(mesh.vertices[mesh.triangles], density)


@dataclass(frozen=True)
class SampleLattice:
    """The lattice samples of one triangle array at one density, by
    topology. Every (triangle, slot) of ``surface_sample_points`` maps to a
    sample id: a mesh vertex, a position on an edge counted from its lower
    vertex id, or a point inside one face. The slots of one id have equal
    coordinates, bit for bit, for any vertex positions: their weights are
    the same multiples of 1/density, and an edge sample adds its two
    nonzero products in either order. Each id keeps its first slot as
    representative."""

    slot_ids: np.ndarray  # (triangles, slots) int32
    corners: np.ndarray  # (ids, 3) vertex ids of each representative's triangle
    weights: np.ndarray  # (ids, 3) barycentric weights of each representative

    @property
    def n_ids(self) -> int:
        return len(self.corners)

    def points(self, vertices: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Coordinates of samples ``ids``: the rows of
        ``surface_sample_points`` at every slot of each id."""
        return np.einsum("ub,ubx->ux", self.weights[ids],
                         np.take(vertices, self.corners[ids], axis=0))


def sample_lattice(triangles: np.ndarray, density: int) -> SampleLattice:
    """The ``SampleLattice`` of a triangle array at one density."""
    if density < 1:
        raise ValueError("density must be >= 1")
    start = time.perf_counter()
    triangles = np.asarray(triangles, dtype=np.int64)
    weights = _lattice_weights(density)
    steps = np.rint(weights * density).astype(np.int64)  # (slots, 3) numerators
    n_tri, n_slots = len(triangles), len(weights)
    n_vert = int(triangles.max()) + 1
    # one code per (triangle, slot), in three disjoint ranges: the vertex;
    # the edge's (lower, higher) vertex pair and the higher vertex's weight
    # numerator; the triangle and slot
    edges_at = n_vert
    faces_at = edges_at + n_vert * n_vert * density
    codes = np.empty((n_tri, n_slots), dtype=np.int64)
    for s, row in enumerate(steps):
        corners = np.flatnonzero(row)
        if len(corners) == 1:
            codes[:, s] = triangles[:, corners[0]]
        elif len(corners) == 2:
            u, v = triangles[:, corners[0]], triangles[:, corners[1]]
            step = np.where(u < v, row[corners[1]], row[corners[0]])
            codes[:, s] = edges_at + (np.minimum(u, v) * n_vert + np.maximum(u, v)) * density + step
        else:
            codes[:, s] = faces_at + np.arange(n_tri) * n_slots + s
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    lattice = SampleLattice(
        slot_ids=_lock(inverse.reshape(n_tri, n_slots).astype(np.int32)),
        corners=_lock(triangles[first // n_slots]),
        weights=_lock(weights[first % n_slots]))
    logger.debug("sample lattice: %d triangles, density %d, %d unique samples of %d slots, "
                 "built in %.1f ms", n_tri, density, lattice.n_ids, n_tri * n_slots,
                 1e3 * (time.perf_counter() - start))
    return lattice


def intersect_approx(jaw, twin: RigidSurface, density: int = 3,
                     keep_points: bool = False) -> IntersectionResult:
    """Penetration-sampled stand-in for the boolean intersection of a
    watertight surface (the deformed jaw) with a rigidly placed twin.

    Samples the jaw alone and keeps the samples the twin holds inside or
    on its surface (the coincident-contact case), so the patch lies on
    the jaw's own surface, where its centroid is snapped to a candidate.
    The samples come from the jaw's ``SampleLattice``: triangles whose
    boxes miss the mutual box (widened by a margin far above the
    lattice's rounding) are dropped first, each sample id of the rest is
    placed and tested once, and the hits are expanded back over their
    slots, in the order of ``surface_sample_points``.
    """
    for m, name in ((jaw, "jaw"), (twin, "twin")):
        if not m.watertight:
            raise WatertightError(f"{name} mesh must be watertight")
    lo_g, hi_g = jaw.bounds()
    lo_o, hi_o = twin.bounds()
    if np.any(lo_g > hi_o) or np.any(lo_o > hi_g):
        return IntersectionResult(0, None)
    # only samples in the mutual bounding box can lie inside the twin
    box_lo = np.maximum(lo_g, lo_o) - 1e-12
    box_hi = np.minimum(hi_g, hi_o) + 1e-12
    lattice = jaw.lattice(density)
    # a triangle's box misses the widened box when its three corners all
    # lie beyond one face of it: one bit per face and vertex, ANDed
    beyond = np.packbits(np.concatenate([jaw.vertices < box_lo - 1e-12,
                                         jaw.vertices > box_hi + 1e-12], axis=1), axis=1)
    near = np.bitwise_and.reduce(np.take(beyond[:, 0], jaw.triangles), axis=1) == 0
    slot_ids = lattice.slot_ids[near]
    flag = np.zeros(lattice.n_ids, dtype=bool)
    flag[slot_ids] = True
    ids = np.flatnonzero(flag)
    pts = lattice.points(jaw.vertices, ids)
    in_box = np.all((pts >= box_lo) & (pts <= box_hi), axis=1)
    ids, pts = ids[in_box], pts[in_box]
    hit = twin.contains(pts)
    ids, pts = ids[hit], pts[hit]
    if len(ids) == 0:
        return IntersectionResult(0, None)
    flag[:] = False
    flag[ids] = True
    pts = pts[np.searchsorted(ids, slot_ids[flag[slot_ids]])]
    return IntersectionResult(len(pts), pts.mean(axis=0), pts if keep_points else None)


def closest_point_on_triangles(p: np.ndarray, tri_vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closest point to ``p`` on each triangle of a (t, 3, 3) array.

    Returns (points, squared distances). Vectorized region-based test.
    """
    a, b, c = tri_vertices[:, 0], tri_vertices[:, 1], tri_vertices[:, 2]
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    result = np.empty_like(a)
    done = np.zeros(len(a), dtype=bool)

    def assign(mask, value):
        m = mask & ~done
        result[m] = value[m] if value.ndim == 2 else value
        done[m] = True

    assign((d1 <= 0) & (d2 <= 0), a)
    assign((d3 >= 0) & (d4 <= d3), b)
    assign((d6 >= 0) & (d5 <= d6), c)
    vc = d1 * d4 - d3 * d2
    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = np.where(np.abs(d1 - d3) > 0, d1 / (d1 - d3), 0.0)
    assign((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + v_ab[:, None] * ab)
    vb = d5 * d2 - d1 * d6
    with np.errstate(divide="ignore", invalid="ignore"):
        w_ac = np.where(np.abs(d2 - d6) > 0, d2 / (d2 - d6), 0.0)
    assign((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + w_ac[:, None] * ac)
    va = d3 * d6 - d5 * d4
    denom_bc = (d4 - d3) + (d5 - d6)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_bc = np.where(np.abs(denom_bc) > 0, (d4 - d3) / denom_bc, 0.0)
    assign((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0), b + w_bc[:, None] * (c - b))
    denom = va + vb + vc
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(denom != 0, vb / denom, 0.0)
        w = np.where(denom != 0, vc / denom, 0.0)
    assign(np.ones(len(a), dtype=bool), a + v[:, None] * ab + w[:, None] * ac)
    d2_out = np.einsum("ij,ij->i", result - p, result - p)
    return result, d2_out


def project_to_inner_surface(mesh: TetMesh, p: np.ndarray) -> np.ndarray:
    """Closest point to ``p`` on the triangulated inner contact surface,
    in undeformed coordinates."""
    tris = mesh.inner_triangles()
    if len(tris) == 0:
        raise MeshError("mesh has no inner surface triangles")
    pts, d2 = closest_point_on_triangles(np.asarray(p, dtype=np.float64), mesh.vertices[tris])
    return pts[int(np.argmin(d2))]


# ---------------------------------------------------------------------------
# Mesh I/O: OFF (with a tet extension block) and OBJ

def save_off(path: str | Path, vertices: np.ndarray, triangles: np.ndarray,
             tets: np.ndarray | None = None) -> None:
    lines = ["OFF", f"{len(vertices)} {len(triangles)} 0"]
    lines += [f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}"
              for v in np.asarray(vertices, dtype=np.float64)]
    lines += [f"3 {t[0]} {t[1]} {t[2]}" for t in np.asarray(triangles, dtype=np.int64)]
    if tets is not None and len(tets):
        lines.append(f"#TETS {len(tets)}")
        lines += [f"{t[0]} {t[1]} {t[2]} {t[3]}" for t in np.asarray(tets, dtype=np.int64)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_off(path: str | Path) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Returns (vertices, triangles, tets-or-None)."""
    raw = Path(path).read_text().splitlines()
    tets = None
    tet_count = 0
    body = []
    for line in raw:
        s = line.strip()
        if s.startswith("#TETS"):
            tet_count = int(s.split()[1])
            tets = []
            continue
        if s.startswith("#") or not s:
            continue
        if tets is not None:
            tets.append([int(x) for x in s.split()])
            continue
        body.append(s)
    if body[0] != "OFF":
        raise MeshError(f"not an OFF file: {path}")
    nv, nf, _ = (int(x) for x in body[1].split())
    verts = np.array([[float(x) for x in body[2 + i].split()[:3]] for i in range(nv)])
    tris = []
    for i in range(nf):
        parts = [int(x) for x in body[2 + nv + i].split()]
        if parts[0] != 3:
            raise MeshError("only triangle faces supported")
        tris.append(parts[1:4])
    tris_arr = np.array(tris, dtype=np.int64) if tris else np.empty((0, 3), dtype=np.int64)
    tets_arr = None
    if tets is not None:
        tets_arr = np.array(tets, dtype=np.int64).reshape(-1, 4)
        if len(tets_arr) != tet_count:
            raise MeshError("tet extension block count mismatch")
    return verts, tris_arr, tets_arr


def save_obj(path: str | Path, vertices: np.ndarray, triangles: np.ndarray) -> None:
    lines = [f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}"
             for v in np.asarray(vertices, dtype=np.float64)]
    lines += [f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in np.asarray(triangles, dtype=np.int64)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_obj(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    verts = []
    tris = []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
            for k in range(1, len(idx) - 1):
                tris.append([idx[0], idx[k], idx[k + 1]])
    return np.array(verts), np.array(tris, dtype=np.int64)
