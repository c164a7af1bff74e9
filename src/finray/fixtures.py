"""Parametric fixtures: the fin-ray jaw volume mesh and the rigid test
objects (cylinders, cuboid, asymmetric wedge) with watertight surface
meshes and analytic signed-distance functions.

The jaw is an outer band and a flat inner contact band joined by crossbeam
ribs, built on a tapered structured grid and split into tetrahedra. The
default parameters pin the canonical 522-vertex test fixture.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull

from . import config as cfgmod
from .mesh_model import MeshError, SurfaceMesh, TetMesh, save_off

# local-corner paths of the six-tet split of a hexahedron; each tet walks
# one axis order from corner (0,0,0) to (1,1,1)
_HEX_TET_PATHS = np.array([
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
    [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)],
    [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)],
    [(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)],
    [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)],
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)],
])


@dataclass(frozen=True)
class JawParams:
    """Fin-ray jaw generator parameters (meters / cell counts)."""

    height: float = 0.080
    depth: float = 0.024
    width: float = 0.020
    tip_fraction: float = 0.30
    band_thickness: float = 0.0013
    n_height: int = 35
    n_depth: int = 5
    n_width: int = 2
    rib_rows: tuple[int, ...] = (5, 11, 17, 23, 29)
    solid_base_rows: int = 1
    solid_tip_rows: int = 2
    n_candidates: int = 14
    candidate_span: tuple[float, float] = (0.12, 0.95)
    n_outer_keypoints: int = 8
    n_inner_keypoints: int = 7
    surface_offset: float = 0.001  # pre-estimation push into the surface

    def refined(self, factor: int = 2) -> "JawParams":
        """Same physical shape at ``factor``-times grid resolution."""
        ribs = tuple(r * factor + d for r in self.rib_rows for d in range(factor))
        return replace(
            self,
            n_height=self.n_height * factor,
            n_depth=self.n_depth * factor,
            n_width=self.n_width * factor,
            rib_rows=ribs,
            solid_base_rows=self.solid_base_rows * factor,
            solid_tip_rows=self.solid_tip_rows * factor,
        )


@dataclass
class JawFixture:
    """Generated jaw mesh plus the index designations the pipeline needs."""

    mesh: TetMesh
    params: JawParams
    candidate_ids: np.ndarray
    keypoint_ids: np.ndarray
    keypoint_is_outer: np.ndarray
    reference_id: int
    l0: float

    @property
    def candidate_positions(self) -> np.ndarray:
        return self.mesh.vertices[self.candidate_ids]

    def bbox(self, margin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        lo = self.mesh.vertices.min(axis=0) - margin
        hi = self.mesh.vertices.max(axis=0) + margin
        return lo, hi


def _kept_cells(p: JawParams) -> np.ndarray:
    nz, nx = p.n_height, p.n_depth
    full_rows = set(range(p.solid_base_rows))
    full_rows |= set(range(nz - p.solid_tip_rows, nz))
    full_rows |= set(p.rib_rows)
    keep = np.zeros((nx, nz), dtype=bool)
    keep[0, :] = True
    keep[nx - 1, :] = True
    for j in full_rows:
        if not 0 <= j < nz:
            raise MeshError(f"rib row {j} outside cell range")
        keep[:, j] = True
    return keep


def generate_jaw(params: JawParams | None = None) -> JawFixture:
    """Build the jaw tet mesh and its designations.

    Frame: origin at the base center, +x toward the object (the flat inner
    contact face lies at x = depth/2), +z from base to tip, +y across the
    width. The outer band slants from -depth/2 at the base toward the tip.
    """
    p = params or JawParams()
    nz, nx, ny = p.n_height, p.n_depth, p.n_width
    x_in = p.depth / 2.0

    t_band = p.band_thickness
    if p.tip_fraction * p.depth <= 2.0 * t_band:
        raise MeshError("tip too narrow for the band thickness")

    def node_pos(i, j, k):
        # bands keep constant physical thickness; interior columns share
        # the remaining (tapered) profile width
        s = j / nz
        width_j = p.depth * (1.0 - (1.0 - p.tip_fraction) * s)
        x_out = x_in - width_j
        if i == 0:
            x = x_out
        elif i == nx:
            x = x_in
        else:
            inner_lo = x_out + t_band
            inner_hi = x_in - t_band
            x = inner_lo + (i - 1) / (nx - 2) * (inner_hi - inner_lo)
        return np.array([x, -p.width / 2.0 + (k / ny) * p.width, s * p.height])

    keep = _kept_cells(p)
    cells = [(i, j, k) for i in range(nx) for j in range(nz) if keep[i, j] for k in range(ny)]

    corner_nodes = {}
    for (i, j, k) in cells:
        for di in (0, 1):
            for dj in (0, 1):
                for dk in (0, 1):
                    corner_nodes[(i + di, j + dj, k + dk)] = True
    node_keys = sorted(corner_nodes)  # deterministic (i, j, k) order
    node_id = {key: n for n, key in enumerate(node_keys)}
    verts = np.array([node_pos(*key) for key in node_keys])

    tets = []
    for (i, j, k) in cells:
        corner = {(di, dj, dk): node_id[(i + di, j + dj, k + dk)]
                  for di in (0, 1) for dj in (0, 1) for dk in (0, 1)}
        for path in _HEX_TET_PATHS:
            tets.append([corner[tuple(c)] for c in path])
    tets = np.array(tets, dtype=np.int64)
    v = verts[tets]
    vols = np.linalg.det(v[:, 1:] - v[:, :1]) / 6.0
    flip = vols < 0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]

    keys = np.array(node_keys)
    fixed = np.flatnonzero(keys[:, 1] == 0)
    inner = np.flatnonzero((keys[:, 0] == nx) & (keys[:, 1] > 0))
    mesh = TetMesh(verts, tets, fixed, inner)

    # contact candidates: inner-face nodes on the central axis (y = 0),
    # evenly spaced over the candidate span
    k_mid = ny // 2
    if 2 * k_mid != ny:
        raise MeshError("n_width must be even so the central axis has nodes")
    lo, hi = p.candidate_span
    target_js = np.linspace(lo * nz, hi * nz, p.n_candidates)
    cand_js = []
    for t in target_js:
        j = int(round(t))
        while j in cand_js:
            j += 1
        cand_js.append(min(j, nz))
    if len(set(cand_js)) != p.n_candidates:
        raise MeshError("could not place distinct candidate rows")
    cand_ids = np.array([node_id[(nx, j, k_mid)] for j in cand_js])

    # structural keypoints live on the +y side face; outer on the outer
    # band corner, inner on the contact face edge
    def spread(js_lo, js_hi, n):
        return sorted({int(round(x)) for x in np.linspace(js_lo, js_hi, n)})

    outer_js = spread(max(2, p.solid_base_rows + 1), nz, p.n_outer_keypoints)
    inner_js = spread(max(3, p.solid_base_rows + 2), nz - 2, p.n_inner_keypoints)
    if len(outer_js) != p.n_outer_keypoints or len(inner_js) != p.n_inner_keypoints:
        raise MeshError("keypoint rows collide; increase n_height")
    kp_ids = [node_id[(0, j, ny)] for j in outer_js] + [node_id[(nx, j, ny)] for j in inner_js]
    kp_outer = np.array([True] * len(outer_js) + [False] * len(inner_js))

    return JawFixture(
        mesh=mesh,
        params=p,
        candidate_ids=cand_ids,
        keypoint_ids=np.array(kp_ids),
        keypoint_is_outer=kp_outer,
        reference_id=node_id[(0, 0, ny)],
        l0=x_in - p.surface_offset,
    )


@functools.cache
def canonical_jaw() -> JawFixture:
    return generate_jaw(JawParams())


def save_fixture(fixture: JawFixture, stem: str | Path) -> tuple[Path, Path]:
    """Write the jaw as OFF (tets in the extension block) plus a key-value
    designation sidecar. Returns (mesh path, sidecar path)."""
    stem = Path(stem)
    off_path = stem.with_suffix(".off")
    cfg_path = stem.with_suffix(".fixture.cfg")
    surf = fixture.mesh.surface()
    save_off(off_path, fixture.mesh.vertices, surf.triangles, fixture.mesh.tets)
    mapping = {
        "fixture.fixed_ids": tuple(int(i) for i in fixture.mesh.fixed_vertex_ids),
        "fixture.inner_ids": tuple(int(i) for i in fixture.mesh.inner_surface_ids),
        "fixture.candidate_ids": tuple(int(i) for i in fixture.candidate_ids),
        "fixture.keypoint_ids": tuple(int(i) for i in fixture.keypoint_ids),
        "fixture.keypoint_is_outer": tuple(bool(b) for b in fixture.keypoint_is_outer),
        "fixture.reference_id": int(fixture.reference_id),
        "fixture.l0": float(fixture.l0),
    }
    cfgmod.save_config(mapping, cfg_path)
    return off_path, cfg_path


# ---------------------------------------------------------------------------
# Rigid objects

@dataclass(frozen=True)
class ShapeSpec:
    """Rigid object description in its local frame (origin at centroid).

    cylinder: axis along y, ``radius`` and ``length``.
    cuboid:   axis-aligned box with full extents ``size``.
    wedge:    prism along y; the +x face slopes from ``half_width_bottom``
              at the base to ``half_width_top`` at the top, the -x face is
              vertical. Asymmetric contact face for remount scenarios.
    """

    kind: str = "cylinder"
    radius: float = 0.0075
    length: float = 0.080
    size: tuple[float, float, float] = (0.030, 0.080, 0.030)
    half_width_bottom: float = 0.016
    half_width_top: float = 0.008
    wedge_height: float = 0.050

    @classmethod
    def cylinder(cls, diameter: float, length: float = 0.080) -> "ShapeSpec":
        return cls(kind="cylinder", radius=diameter / 2.0, length=length)

    @classmethod
    def cuboid(cls, size) -> "ShapeSpec":
        return cls(kind="cuboid", size=tuple(size))

    @classmethod
    def wedge(cls, half_width_bottom: float = 0.016, half_width_top: float = 0.008,
              height: float = 0.050, length: float = 0.080) -> "ShapeSpec":
        return cls(kind="wedge", half_width_bottom=half_width_bottom,
                   half_width_top=half_width_top, wedge_height=height, length=length)


def _hull_mesh(points: np.ndarray) -> SurfaceMesh:
    hull = ConvexHull(points)
    tris = hull.simplices.copy()
    centroid = points[hull.vertices].mean(axis=0)
    v = points[tris]
    normals = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    inward = np.einsum("ij,ij->i", normals, v.mean(axis=1) - centroid) < 0
    tris[inward] = tris[inward][:, [0, 2, 1]]
    mesh = SurfaceMesh(points, tris)
    if not mesh.watertight:
        raise MeshError("hull mesh not watertight")
    return mesh


def cylinder_mesh(radius: float, length: float, n_seg: int = 24, n_len: int = 4) -> SurfaceMesh:
    """Closed cylinder with axis along y."""
    angles = np.linspace(0.0, 2.0 * np.pi, n_seg, endpoint=False)
    ys = np.linspace(-length / 2.0, length / 2.0, n_len + 1)
    ring = np.column_stack([np.cos(angles), np.zeros(n_seg), np.sin(angles)]) * radius
    verts = [ring + np.array([0.0, y, 0.0]) for y in ys]
    verts = np.concatenate(verts)
    tris = []
    for r in range(n_len):
        base0 = r * n_seg
        base1 = (r + 1) * n_seg
        for s in range(n_seg):
            s1 = (s + 1) % n_seg
            # outward orientation: +y is "up" the axis
            tris.append([base0 + s, base0 + s1, base1 + s])
            tris.append([base0 + s1, base1 + s1, base1 + s])
    lo_center = len(verts)
    hi_center = len(verts) + 1
    verts = np.vstack([verts, [0.0, -length / 2.0, 0.0], [0.0, length / 2.0, 0.0]])
    top0 = n_len * n_seg
    for s in range(n_seg):
        s1 = (s + 1) % n_seg
        tris.append([lo_center, s1, s])
        tris.append([hi_center, top0 + s, top0 + s1])
    mesh = SurfaceMesh(verts, np.array(tris, dtype=np.int64))
    if not mesh.watertight:
        raise MeshError("cylinder mesh not watertight")
    # ensure outward orientation (positive enclosed volume)
    from .mesh_model import enclosed_volume
    if enclosed_volume(mesh.vertices, mesh.triangles) < 0:
        mesh = SurfaceMesh(mesh.vertices, mesh.triangles[:, [0, 2, 1]])
    return mesh


def box_points(size) -> np.ndarray:
    hx, hy, hz = np.asarray(size, dtype=np.float64) / 2.0
    return np.array([[sx * hx, sy * hy, sz * hz]
                     for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])


def wedge_points(spec: ShapeSpec) -> np.ndarray:
    a, b = spec.half_width_bottom, spec.half_width_top
    h = spec.wedge_height
    hy = spec.length / 2.0
    x0 = -max(a, b)
    pts = []
    for y in (-hy, hy):
        pts += [[x0, y, -h / 2], [a, y, -h / 2], [b, y, h / 2], [x0, y, h / 2]]
    return np.array(pts, dtype=np.float64)


def make_object_mesh(spec: ShapeSpec, n_seg: int = 24, n_len: int = 4) -> SurfaceMesh:
    if spec.kind == "cylinder":
        return cylinder_mesh(spec.radius, spec.length, n_seg, n_len)
    if spec.kind == "cuboid":
        return _hull_mesh(box_points(spec.size))
    if spec.kind == "wedge":
        return _hull_mesh(wedge_points(spec))
    raise ValueError(f"unknown shape kind {spec.kind!r}")


def shape_box(spec: ShapeSpec) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) corners of the box of the solid that ``make_sdf(spec)``
    describes, in the object's local frame: the SDF reads d < 0 only at
    points inside this box. A cylinder's box comes from its radius and
    length, not from its faceted mesh; a cuboid's and a wedge's from the
    corners whose hull the SDF's planes bound."""
    if spec.kind == "cylinder":
        hi = np.array([spec.radius, spec.length / 2.0, spec.radius])
        return -hi, hi
    pts = box_points(spec.size) if spec.kind == "cuboid" else wedge_points(spec)
    return pts.min(axis=0), pts.max(axis=0)


def _convex_planes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hull = ConvexHull(points)
    normals = hull.equations[:, :3]
    offsets = hull.equations[:, 3]
    return normals, offsets


def make_sdf(spec: ShapeSpec) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Signed distance and outward normal in the object's local frame.

    Exact for interior points (the penalty contact region); outside points
    only need a positive sign.
    """
    if spec.kind == "cylinder":
        r, hl = spec.radius, spec.length / 2.0

        def sdf_cyl(pts: np.ndarray):
            pts = np.atleast_2d(pts)
            rad = np.hypot(pts[:, 0], pts[:, 2])
            d_rad = rad - r
            d_ax = np.abs(pts[:, 1]) - hl
            d = np.maximum(d_rad, d_ax)
            outside = (d_rad > 0) & (d_ax > 0)
            d = np.where(outside, np.hypot(d_rad, d_ax), d)
            normals = np.zeros_like(pts)
            radial = d_rad >= d_ax
            safe = np.maximum(rad, 1e-15)
            normals[radial, 0] = pts[radial, 0] / safe[radial]
            normals[radial, 2] = pts[radial, 2] / safe[radial]
            normals[~radial, 1] = np.sign(pts[~radial, 1])
            return d, normals

        return sdf_cyl

    pts = box_points(spec.size) if spec.kind == "cuboid" else wedge_points(spec)
    planes_n, planes_d = _convex_planes(pts)

    def sdf_convex(query: np.ndarray):
        query = np.atleast_2d(query)
        margins = query @ planes_n.T + planes_d  # positive outside each plane
        idx = np.argmax(margins, axis=1)
        d = margins[np.arange(len(query)), idx]
        pos = np.clip(margins, 0.0, None)
        outside = d > 0
        d = np.where(outside, np.linalg.norm(pos, axis=1), d)
        return d, planes_n[idx]

    return sdf_convex


def icosphere(subdivisions: int = 3, radius: float = 1.0) -> SurfaceMesh:
    """Subdivided icosahedron; 20 * 4**subdivisions triangles."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts[0])
    tris = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    for _ in range(subdivisions):
        verts_list = list(verts)
        cache: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = verts_list[a] + verts_list[b]
                m = m / np.linalg.norm(m)
                cache[key] = len(verts_list)
                verts_list.append(m)
            return cache[key]

        new_tris = []
        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts_list)
        tris = np.array(new_tris)
    return SurfaceMesh(verts * radius, tris)
