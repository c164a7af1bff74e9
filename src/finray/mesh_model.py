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
``ContainmentGrid`` stay in the object frame: query points are mapped
into that frame. One gather from a table over the grid's cells gives
every query point's answer or its (y, z) column: a point in a cell the
surface does not touch takes the answer of its cell's connected
component; a point in a touched cell takes the parity of the column's
listed triangles that its +x ray crosses, and is ray-cast on the
template only where it lies within ``_GRAZE_EPS`` of a listed triangle's
plane, its ray passes within ``_GRAZE_EPS`` of a triangle's edge, or it
lies in the thin projected band of a triangle parallel to x. The answers
are those of ray parity on the template at the mapped points; they
differ from ray parity on the posed mesh only within about 1e-9 m of the
surface, where both turn on rounding.

All coordinates are meters. Meshes are treated as immutable after
construction (arrays are write-locked). A displacement field is a plain
(n_vertices, 3) array, index-aligned with its mesh's vertices; a
``DeformableSurface`` takes the deformed positions through ``update``.
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


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=1)`` of an (n, 3) array, bit for bit: the
    same left-to-right sum of squares, taken column by column, which is
    several times faster than the reduction over each short row."""
    sq = v * v
    return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])


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


# faces of a positively-oriented tet (a,b,c,d) with outward normals
_TET_FACES = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


@dataclass(eq=False)
class SurfaceMesh:
    """Triangle mesh; ``watertight`` is verified at construction. A mesh
    is equal only to itself; a memo keys it by the content of its arrays
    (``content_key``)."""

    vertices: np.ndarray
    triangles: np.ndarray
    watertight: bool = field(default=False)

    def __post_init__(self):
        self.vertices = _lock(np.asarray(self.vertices, dtype=np.float64))
        self.triangles = _lock(np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3))
        if self.triangles.size and self.triangles.max() >= len(self.vertices):
            raise MeshError("triangle index out of range")
        if self.triangles.min(initial=0) < 0:
            raise MeshError("negative triangle index")
        self.watertight = is_watertight(self.triangles)
        self._bvh: Optional[TriangleBVH] = None
        self._lattices: dict[int, SampleLattice] = {}

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
    gather by the ``take`` method: numpy reduces an (m, 3) array over its
    first axis several times slower, and the ``np.take`` wrapper adds a
    microsecond a call."""
    columns = vertices.T.take(ids, axis=1)
    return columns.min(axis=1), columns.max(axis=1)


class DeformableSurface:
    """Fixed-topology surface whose vertices move between queries.

    Watertightness is checked once at construction; ``update`` stores the
    new vertices. ``bvh`` builds the tree at its first call and refits it
    in place on the first call after each later update, so a surface
    that nothing ray-casts never holds a tree; ``refits`` counts those
    refits. Duck-compatible with SurfaceMesh for ``point_inside``, ray
    casts and as the sampled surface of ``intersect_approx``. It has a
    single writer: the owner that calls ``update``.
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
        self.refits = 0
        self.vertex_ids = np.unique(self.triangles)

    def update(self, vertices: np.ndarray) -> None:
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self._stale = True

    def bvh(self) -> "TriangleBVH":
        if self._bvh is None:
            self._bvh = TriangleBVH(self.vertices, self.triangles)
        elif self._stale:
            self._bvh.refit(self.vertices)
            self.refits += 1
        self._stale = False
        return self._bvh

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box of the vertices the triangles use: the root box of a
        refit tree, without one."""
        return _box(self.vertices, self.vertex_ids)

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


def extract_surface(mesh: TetMesh) -> SurfaceMesh:
    """Boundary triangle mesh of the tet mesh.

    The vertex array keeps the full, index-aligned tet vertex set so
    surface vertex k coincides with tet vertex k.
    """
    surf = SurfaceMesh(mesh.vertices, boundary_faces(mesh.tets))
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
# twice _GRAZE_EPS, far above rounding: every tree's slab test widens its
# boxes by this much, so a ray from within _GRAZE_EPS of a triangle tests
# it even where rounding moved the ray's point just outside the box, and a
# grid cell that no triangle's widened box touches is farther than
# _GRAZE_EPS from the surface along any ray
_BOX_MARGIN = 2 * _GRAZE_EPS
# points that graze a triangle on every cast are effectively on the
# surface; after these casts the last parity answer stands
_FALLBACK_DIRECTIONS = _seeded_directions(4)

# (leaf, ray) pairs per Moller-Trumbore batch: bounds the pass's
# temporaries, each (pairs, leaf_size, 3) float array then under 100 kB
_PAIR_CHUNK = 256

# ``first_hit_fraction`` counts a hit only below this fraction of the
# segment, so that the target's own face does not hide it
_SEGMENT_T_MAX = 1.0 - 1e-6


def _slab_hits(box_min, box_max, origins: np.ndarray, inv: np.ndarray,
               t_max: float) -> np.ndarray:
    """Which rays origin + t * dir meet their box at some t in [0, t_max],
    given ``inv`` = 1 / dir: the slab test (Kay and Kajiya), one box per
    ray or one for all. fmin/fmax drop the NaNs from 0 * inf on degenerate
    axes."""
    t1 = (box_min - origins) * inv
    t2 = (box_max - origins) * inv
    near = np.fmin(t1, t2)
    far = np.fmax(t1, t2)
    lo = np.fmax(np.fmax(near[:, 0], near[:, 1]), near[:, 2])
    hi = np.fmin(np.fmin(far[:, 0], far[:, 1]), far[:, 2])
    return (hi >= np.maximum(lo, 0.0)) & (lo <= t_max)


def segments_entering(lo: np.ndarray, hi: np.ndarray, origins: np.ndarray,
                      targets: np.ndarray) -> np.ndarray:
    """Which segments origin -> target enter the box [lo, hi] widened by
    ``_BOX_MARGIN`` before ``_SEGMENT_T_MAX``: for a tree's root box, the
    test ``TriangleBVH.first_hit_fraction`` runs first, with the same
    arithmetic, so a segment it rejects reads +inf there. For a box that
    contains the root box it rejects no segment the tree would keep."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _slab_hits(lo - _BOX_MARGIN, hi + _BOX_MARGIN, origins,
                          1.0 / (targets - origins), _SEGMENT_T_MAX)


class TriangleBVH:
    """Median-split AABB tree over triangles with a batched, level-by-level
    traversal. Topology is fixed at build time; ``refit`` updates the
    boxes for deformed vertex positions. The boxes are kept exact, and the
    ray slab test widens each by ``_BOX_MARGIN``, so a ray from within the
    margin of a triangle's box always tests that triangle."""

    leaf_size = 16  # most triangles per leaf

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        self.triangles = np.asarray(triangles, dtype=np.int64)
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
        tv = self.vertices.take(self._sorted_triangles, axis=0)
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
        self._scale = _row_norms(self._e1) * _row_norms(self._e2)

    def _leaf_pairs(self, origins: np.ndarray, dirs: np.ndarray, t_max: float):
        """(leaf row, ray index) pairs for rays possibly hitting each leaf
        within parameter range (0, t_max]: the slab test runs level by level
        over all (node, ray) pairs of the frontier at once."""
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
        node_min, node_max = self.node_min - _BOX_MARGIN, self.node_max + _BOX_MARGIN
        nodes = np.zeros(len(origins), dtype=np.int64)
        rays = np.arange(len(origins))
        leaf_rows, leaf_rays = [], []
        while True:
            hit = _slab_hits(node_min.take(nodes, axis=0), node_max.take(nodes, axis=0),
                             origins.take(rays, axis=0), inv.take(rays, axis=0), t_max)
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
            tris = self._leaf_slots.take(r, axis=0)
            v0, e1, e2 = (x.take(tris, axis=0) for x in (self._tv0, self._e1, self._e2))
            d = dirs.take(k, axis=0)
            h = _cross(d[:, None, :], e2)
            a = np.einsum("pij,pij->pi", e1, h)
            det_ok = np.abs(a) > 1e-14 * np.maximum(self._scale.take(tris), 1e-300)
            with np.errstate(divide="ignore", invalid="ignore"):
                f = np.where(det_ok, 1.0 / a, 0.0)
            srel = origins.take(k, axis=0)[:, None, :] - v0
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

    def first_hit_fraction(self, origins: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Smallest hit parameter along each segment origin->target within
        (1e-9, _SEGMENT_T_MAX), or +inf when unobstructed: a hit within 1e-6
        of the target, such as the target's own face, does not count."""
        t_hi = _SEGMENT_T_MAX
        dirs = targets - origins
        best = np.full(len(origins), np.inf)
        for rays, t, u, v, det_ok, _ in self._leaf_hits(origins, dirs, t_hi):
            ok = det_ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-9) & (t < t_hi)
            t = np.where(ok, t, np.inf)
            np.minimum.at(best, rays, t.min(axis=1))
        return best


def point_inside(mesh: SurfaceMesh, points: np.ndarray, return_on_surface: bool = False):
    """Ray-crossing parity containment test for one or many points.

    Deterministic for points not on the surface: a grazing ray is re-cast
    along the next of the seeded ``_FALLBACK_DIRECTIONS``. Points that
    graze on every cast are effectively on the surface; they settle with
    the last parity answer, or are reported separately with
    ``return_on_surface``. Within about 1e-9 m of the surface the answer
    turns on the directions and on rounding, so one surface in two frames
    can answer such a point differently.
    """
    if not mesh.watertight:
        raise WatertightError("point containment requires a watertight mesh")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    bvh = mesh.bvh()
    counts = np.zeros(len(pts), dtype=np.int64)
    on_surface = np.zeros(len(pts), dtype=bool)
    remaining = np.arange(len(pts))
    for direction in _FALLBACK_DIRECTIONS:
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
# table codes of the cells no triangle's widened box touches; a touched
# cell's code is the index of its (y, z) column, from 0 up
_OUTSIDE, _INSIDE = -2, -1


class ContainmentGrid:
    """Cell grid over a watertight surface's box, padded by one cell, in
    the surface's own frame.

    A cell no triangle's widened box touches lies in one face-connected
    component of such cells; no path inside the component crosses the
    surface, so the component has one answer, settled by one parity test
    of a representative cell centre.

    A point in a touched cell is answered by the parity of the triangles
    its +x ray crosses (the crossings test, Haines 1994). The ray stays in
    the point's (y, z) column of cells, so it can only cross the triangles
    listed for that column: those whose widened box meets it, as int32 in
    CSR form. One (10, triangles) table holds each triangle's crossing
    forms, linear in (y, z) about its first corner: the ray's x where it
    meets the plane, and two barycentric coordinates of the point's
    projection onto the (y, z) plane, the third being one minus their
    sum. Three kinds of point are tested instead by ``point_inside`` on
    ``mesh``: a point within ``_GRAZE_EPS`` of a listed triangle's plane, a
    point whose projection lies within ``_GRAZE_EPS`` of a projected edge
    or vertex of a listed triangle ahead of it, and a point in the thin
    projected band of a listed triangle parallel to x. Points off the grid
    are outside. Representatives are cast on ``mesh`` too, so ``contains``
    is ``ins | on`` of ``point_inside`` on ``mesh``.

    One int32 code per cell, over the grid padded by one more ring of
    outside cells, says outside, inside, or the touched cell's column
    (``_rows``); every query point, its cell clamped into that ring, reads
    its code in one gather, so no test for leaving the grid is needed.

    The grid's arrays are read-only, and a query writes nothing into it.
    """

    def __init__(self, mesh: SurfaceMesh):
        start = time.perf_counter()
        self.mesh = mesh
        tv = mesh.vertices[mesh.triangles]
        lo, hi = tv.min(axis=(0, 1)), tv.max(axis=(0, 1))
        ext = hi - lo
        # the second bound keeps a near-flat surface from asking for
        # millions of cells along its other axes
        self.cell = max(float(np.cbrt(np.prod(ext) / _GRID_CELLS)), float(ext.max()) / 256)
        self.origin = _lock(lo - self.cell)
        self.shape = _lock(np.ceil(ext / self.cell).astype(np.int64) + 2)
        # how many widened boxes touch each cell, from a difference array
        # with +-1 at the corners of each box's cell range
        first, last = (np.clip(self._cell_index(c), 0, self.shape - 1)
                       for c in (tv.min(axis=1) - _BOX_MARGIN, tv.max(axis=1) + _BOX_MARGIN))
        diff = np.zeros(self.shape + 1, dtype=np.int32)
        for corner in itertools.product((0, 1), repeat=3):
            at = np.where(corner, last + 1, first)
            np.add.at(diff, tuple(at.T), -1 if sum(corner) % 2 else 1)
        touched = (diff.cumsum(0).cumsum(1).cumsum(2) > 0)[:-1, :-1, :-1]
        del diff
        labels, n = scipy.ndimage.label(~touched)
        ids, reps = np.unique(labels, return_index=True)
        answers = np.full(n + 1, _OUTSIDE, dtype=np.int32)
        reps = np.column_stack(np.unravel_index(reps[ids > 0], self.shape))
        answers[1:] = np.where(point_inside(mesh, self._centre(reps)), _INSIDE, _OUTSIDE)
        table = np.full(self.shape + 2, _OUTSIDE, dtype=np.int32)
        inner = table[1:-1, 1:-1, 1:-1]
        inner[...] = answers[labels]
        del labels
        # a flat cell index modulo the cells per x layer is its column's
        n_columns = int(self.shape[1] * self.shape[2])
        inner[touched] = np.flatnonzero(touched) % n_columns
        self._table = _lock(table.reshape(-1))
        # flat position in the table of cell (i, j, k): the dot product of
        # (i, j, k) clamped to [-1, shape] with the strides, plus the offset
        strides = np.array([(self.shape[1] + 2) * (self.shape[2] + 2), self.shape[2] + 2, 1])
        self._strides = _lock(strides.astype(np.float64))
        self._offset = int(strides.sum())
        # each column's list: the triangles whose widened box's (y, z)
        # cell range holds it, in triangle order
        extent = last[:, 1:] - first[:, 1:] + 1
        sizes = extent[:, 0] * extent[:, 1]
        tri = np.repeat(np.arange(len(tv)), sizes)
        local = np.arange(len(tri)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        column = ((first[tri, 1] + local // extent[tri, 1]) * self.shape[2]
                  + first[tri, 2] + local % extent[tri, 1])
        self._tris = _lock(tri[np.argsort(column, kind="stable")].astype(np.int32))
        self._start = _lock(np.concatenate(
            [[0], np.cumsum(np.bincount(column, minlength=n_columns))]).astype(np.int32))
        # a point of a triangle's columns and its first corner lie in the
        # same (y, z) cell range, so within its extent in y and in z
        self._forms, parallel = _crossing_forms(tv, extent.max(axis=1) * self.cell)
        logger.debug("containment grid: %d triangles (%d parallel to x), %s cells of %.3g m, "
                     "%.1f %% touched, %d components, %d column-triangle pairs, built in %.1f ms",
                     len(tv), int(parallel.sum()), "x".join(map(str, self.shape)), self.cell,
                     100.0 * np.count_nonzero(touched) / touched.size, n, len(tri),
                     1e3 * (time.perf_counter() - start))

    def _cell_index(self, points: np.ndarray) -> np.ndarray:
        # monotone in each coordinate, so a point in a widened box maps
        # into that box's cell range
        return np.floor((points - self.origin) / self.cell).astype(np.int64)

    def _centre(self, cells: np.ndarray) -> np.ndarray:
        return self.origin + (cells + 0.5) * self.cell

    def _rows(self, cells: np.ndarray) -> np.ndarray:
        """Table codes of cells, from their (n, 3) indices on the grid:
        ``_OUTSIDE``, ``_INSIDE`` or a touched cell's column."""
        return self._table[np.ravel_multi_index(tuple(cells.T + 1), self.shape + 2)]

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Inside or on the surface, for (n, 3) points in the surface's
        frame: ``ins | on`` of ``point_inside`` on ``mesh``."""
        cols = np.ascontiguousarray(points.T)
        # the cells of _cell_index, as floats, read from the table with
        # every cell off the grid clamped into the outside ring
        cells = np.floor((cols - self.origin[:, None]) / self.cell)
        at = self._strides @ np.fmin(np.fmax(cells, -1.0), self.shape[:, None])
        code = self._table.take(at.astype(np.intp) + self._offset)
        hit = code == _INSIDE
        touched = (code >= 0).nonzero()[0]
        if touched.size:
            hit[touched] = self._crossings(cols.take(touched, axis=1), code.take(touched))
        return hit

    def _crossings(self, cols: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Answers for points in touched cells, from their (3, m)
        coordinates and their columns: the parity of their +x rays'
        crossings, or ``point_inside`` where a crossing is in doubt."""
        eps = _GRAZE_EPS
        # every (point, listed triangle) pair, each point's pairs in a run
        # that starts at ``first``; a touched cell's column lists at least
        # the triangle whose box touches the cell, so no run is empty
        starts = self._start.take(columns)
        counts = self._start.take(columns + 1) - starts
        first = counts.cumsum() - counts
        pt = np.arange(len(columns)).repeat(counts)
        tri = self._tris.take(np.arange(len(pt)) + (starts - first).repeat(counts))
        y0, z0, x0, x_y, x_z, near, b_y, b_z, c_y, c_z = self._forms.take(tri, axis=1)
        x, y, z = cols.take(pt, axis=1)
        dy, dz = y - y0, z - z0
        ahead = (x0 - x) + x_y * dy + x_z * dz  # the plane's x less the point's
        b = b_y * dy + b_z * dz
        c = c_y * dy + c_z * dz
        # the least barycentric coordinate: the projection is inside the
        # triangle by more than eps, or on its rim within eps
        least = np.minimum(np.minimum(1.0 - b - c, b), c)
        forward = ahead > 0
        crossed = np.logical_xor.reduceat(forward & (least > eps), first)
        doubt = np.logical_or.reduceat((np.abs(ahead) <= near) | (forward & (np.abs(least) <= eps)),
                                       first)
        if doubt.any():
            ins, on = point_inside(self.mesh, np.ascontiguousarray(cols[:, doubt].T),
                                   return_on_surface=True)
            crossed[doubt] = ins | on
        return crossed


def _crossing_forms(tv: np.ndarray, reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (10, t) crossing forms of a (t, 3, 3) triangle array, and which
    triangles count as parallel to x. ``reach`` bounds, per triangle, how
    far in y or z from its first corner the points tested against it lie.

    Rows: the first corner's (y, z); the plane's x there and its slopes
    in y and z; the distance along x within which a point is within
    ``_GRAZE_EPS`` of the plane; and the slopes of the barycentric
    coordinates b and c of the point's projection, both 0 at the first
    corner (the third is a = 1 - b - c).

    The bound for parallel. Relative to the first corner, b and c are dot
    products of (dy, dz) with their slopes, so each rounds by a few units
    of 2^-53 times rho = width * reach / |det|, where det is the projected
    triangle's doubled signed area and width the 1-norm of its two
    projected edges. The rounding of det only scales b and c, which moves
    no sign, and moves a by a few units times rho where it decides
    anything. A triangle counts as parallel to x when 2^-48 rho >=
    _GRAZE_EPS, that is 32 units times rho: every other triangle's
    coordinates then round by under a third of _GRAZE_EPS, so a
    projection they put inside the triangle, or outside it, by more than
    _GRAZE_EPS is so in exact arithmetic.

    A parallel triangle's crossing cannot be settled from its forms, so
    they put the plane at x = +inf, never near, and make b = -c a scaled
    distance from a line through its projection: a point within
    _GRAZE_EPS of the thin band that holds the projection is on the rim,
    and every other point misses the triangle. A triangle without area is
    parallel.
    """
    v0 = tv[:, 0]
    e1, e2 = tv[:, 1] - v0, tv[:, 2] - v0
    normal = _cross(e1, e2)
    det = normal[:, 0]  # e1 x e2 along x: the projected doubled area
    width = np.abs(e1[:, 1:]).sum(axis=1) + np.abs(e2[:, 1:]).sum(axis=1)
    parallel = 2.0 ** -48 * width * reach >= _GRAZE_EPS * np.abs(det)
    # the band: within its height plus _GRAZE_EPS of the line through the
    # first corner along the longer projected edge from it, where the
    # other corners lie within the height, |det| / length, of that line;
    # b = -c = scale * (the distance from the line) is +-_GRAZE_EPS there
    long1 = np.hypot(e1[:, 1], e1[:, 2]) >= np.hypot(e2[:, 1], e2[:, 2])
    edge = np.where(long1[:, None], e1[:, 1:], e2[:, 1:])
    length = np.hypot(edge[:, 0], edge[:, 1])
    height = np.divide(np.abs(det), length, out=np.zeros(len(tv)), where=length > 0)
    scale = np.divide(_GRAZE_EPS / (height + _GRAZE_EPS), length, out=np.zeros(len(tv)),
                      where=length > 0)
    m_y, m_z = -edge[:, 1] * scale, edge[:, 0] * scale
    zero = np.zeros(len(tv))
    band = [v0[:, 1], v0[:, 2], np.full(len(tv), np.inf), zero, zero, zero, m_y, m_z, -m_y, -m_z]
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = [v0[:, 1], v0[:, 2], v0[:, 0], -normal[:, 1] / det, -normal[:, 2] / det,
                    _GRAZE_EPS * np.linalg.norm(normal, axis=1) / np.abs(det),
                    e2[:, 2] / det, -e2[:, 1] / det, -e1[:, 2] / det, e1[:, 1] / det]
    return _lock(np.where(parallel, band, crossing)), parallel


def content_key(*arrays: np.ndarray) -> str:
    """sha256 hex digest over each array's shape and bytes, in order: the
    content part of a ``registered`` key."""
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


# the process-wide registry: twin grids and stiffness systems by content
_REGISTRY: dict = {}
_REGISTRY_LOCK = threading.Lock()


def registered(key: tuple, build):
    """The process-wide entry under ``key``, made by ``build()`` on first
    use and shared by every caller, engine and thread after it. A key
    names its kind first, then the content it is built from. ``build``
    runs under the registry's lock, so it must not look the registry up."""
    with _REGISTRY_LOCK:
        if key not in _REGISTRY:
            _REGISTRY[key] = build()
        return _REGISTRY[key]


class RigidSurface:
    """Watertight surface that only moves rigidly, such as an object twin.

    ``place`` poses it; ``vertices`` are the posed ones, mapped when read.
    Containment maps the query points into the template's frame and
    answers from the template's ``ContainmentGrid``, whose tree is never
    refit. It is the containment target of ``intersect_approx``, which
    reads only its box and its containment.
    """

    def __init__(self, template: SurfaceMesh):
        if not template.watertight:
            raise WatertightError("rigid surface requires a watertight template")
        self.template = template
        self.triangles = template.triangles
        self.watertight = True
        self.rotation = np.eye(3)
        self.translation = np.zeros(3)
        self._vertex_ids = np.unique(self.triangles)
        self._grid: Optional[ContainmentGrid] = None

    def grid(self) -> ContainmentGrid:
        """The template's grid, shared by every surface of its content and
        built on first use."""
        if self._grid is None:
            mesh = self.template
            self._grid = registered(("grid", content_key(mesh.vertices, mesh.triangles)),
                                    lambda: ContainmentGrid(mesh))
        return self._grid

    def place(self, rotation: np.ndarray, translation: np.ndarray) -> None:
        """Pose the template: x -> rotation @ x + translation."""
        self.rotation, self.translation = rotation, translation

    @property
    def vertices(self) -> np.ndarray:
        return self.template.vertices @ self.rotation.T + self.translation

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box of the posed vertices the triangles use, bit for bit: the
        box of the rotated ones, then translated. Rounding is monotone, so
        adding a number to the least and the greatest of some numbers
        gives the least and the greatest of their sums."""
        lo, hi = _box(self.template.vertices @ self.rotation.T, self._vertex_ids)
        return lo + self.translation, hi + self.translation

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Inside or on the posed surface, bit for bit ``ins | on`` of
        ``point_inside`` on the template at the points mapped into its
        frame. Ray parity on the posed mesh agrees except within about
        1e-9 m of the surface, where both answers turn on rounding."""
        return self.grid().contains((points - self.translation) @ self.rotation)


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
        return np.einsum("ub,ubx->ux", self.weights.take(ids, axis=0),
                         vertices.take(self.corners.take(ids, axis=0), axis=0))


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

    No pass uses numpy's slow forms on (n, 3) rows: the cull reads the
    jaw's coordinates as columns once and ANDs one word of face flags per
    vertex over each triangle's corners, the box test compares the
    samples column by column, every gather is the ndarray method
    ``take`` or ``compress`` and every index list ``nonzero()[0]`` (the
    ``np.take``, ``np.compress`` and ``np.flatnonzero`` wrappers add about
    a microsecond a call), and the centroid is a sequential column sum,
    bit for bit the ``mean(axis=0)`` of the kept points (``keep_points``,
    (n, 3) in slot order).
    """
    for m, name in ((jaw, "jaw"), (twin, "twin")):
        if not m.watertight:
            raise WatertightError(f"{name} mesh must be watertight")
    lo_g, hi_g = jaw.bounds()
    lo_o, hi_o = twin.bounds()
    if (lo_g > hi_o).any() or (lo_o > hi_g).any():
        return IntersectionResult(0, None)
    # only samples in the mutual bounding box can lie inside the twin
    box_lo = np.maximum(lo_g, lo_o) - 1e-12
    box_hi = np.minimum(hi_g, hi_o) + 1e-12
    lattice = jaw.lattice(density)
    # a triangle's box misses the widened box when its three corners all
    # lie beyond one face of it: one flag byte per face in each vertex's
    # 64-bit word, the words ANDed over the corners
    cols = np.ascontiguousarray(jaw.vertices.T)
    beyond = np.zeros((8, len(jaw.vertices)), dtype=bool)
    np.less(cols, (box_lo - 1e-12)[:, None], out=beyond[:3])
    np.greater(cols, (box_hi + 1e-12)[:, None], out=beyond[3:6])
    code = np.ascontiguousarray(beyond.T).view(np.uint64)[:, 0].take(jaw.triangles)
    slots = lattice.slot_ids.compress((code[:, 0] & code[:, 1] & code[:, 2]) == 0,
                                      axis=0).reshape(-1)
    # each sample id of those triangles once, ascending
    at = np.zeros(lattice.n_ids, dtype=np.intp)
    at[slots] = 1
    ids = at.nonzero()[0]
    pts = lattice.points(jaw.vertices, ids)
    p = pts.T
    keep = ((p[0] >= box_lo[0]) & (p[0] <= box_hi[0]) & (p[1] >= box_lo[1])
            & (p[1] <= box_hi[1]) & (p[2] >= box_lo[2]) & (p[2] <= box_hi[2])).nonzero()[0]
    ids, pts = ids.take(keep), pts.take(keep, axis=0)
    hit = twin.contains(pts).nonzero()[0]
    if len(hit) == 0:
        return IntersectionResult(0, None)
    # the hits over their slots, in slot order: each hit id's position
    # among the hits, and -1 at every other id
    at[:] = -1
    at[ids.take(hit)] = np.arange(len(hit))
    at = at.take(slots)
    pts = pts.take(hit.take(at.compress(at >= 0)), axis=0)
    return IntersectionResult(len(pts), _centroid(pts), pts if keep_points else None)


def _centroid(points: np.ndarray) -> np.ndarray:
    """Mean of (n, 3) C-ordered points, bit for bit ``mean(axis=0)``:
    numpy sums each coordinate of such an array sequentially, row after
    row, as ``np.add.accumulate`` does by definition."""
    return np.add.accumulate(points, axis=0)[-1] / len(points)


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
    """Returns (vertices, triangles); polygons are fanned from their first
    corner. A negative face index counts back from the last vertex read so
    far (-1 is that vertex), as OBJ defines it."""
    verts = []
    tris = []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            idx = [k - 1 if k > 0 else len(verts) + k
                   for k in (int(p.split("/")[0]) for p in parts[1:])]
            for k in range(1, len(idx) - 1):
                tris.append([idx[0], idx[k], idx[k + 1]])
    return np.array(verts), np.array(tris, dtype=np.int64)
