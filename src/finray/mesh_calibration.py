"""Scale calibration of a reconstructed object mesh against a partial
point-cloud observation.

Pipeline: coarse scale from the grasp-axis bounding extents, pixel-grid
partial-view projection of the mesh (each sample keeps its triangle's
normal), rigid point-to-plane ICP on those normals, then point-to-point
similarity ICP with the closed-form least-squares alignment, and a
watertight output mesh.

ICP's nearest-neighbour searches go through ``IncrementalNearest``, a
certified cache over a k-d tree: a point keeps its last neighbour while a
triangle-inequality bound proves that neighbour still the unique nearest,
and only the other points are searched again. Its answers are those of a
fresh ``cKDTree.query``, bit for bit, so the cache changes no iterate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .contact_localizer import rotation_about
from .mesh_model import (
    MeshError,
    SurfaceMesh,
    _TET_FACES,
    _lattice,
    _row_norms,
    boundary_faces,
    is_watertight,
    surface_sample_points,
    tet_volumes,
    triangle_areas,
)

logger = logging.getLogger(__name__)


class CorrespondenceError(RuntimeError):
    """ICP correspondences collapsed (too few inlier pairs)."""


@dataclass
class PointCloud:
    """Points in the camera frame; optional unit normals, one per point,
    give the surface direction at each."""

    points: np.ndarray
    normals: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if len(self.points) == 0:
            raise ValueError("point cloud is empty")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point cloud has non-finite coordinates")
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if len(self.normals) != len(self.points):
                raise ValueError("normals length mismatch")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics; +z forward, +x right, +y down, pixels."""

    fx: float = 615.0
    fy: float = 615.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside the image")

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.atleast_2d(points)
        z = pts[:, 2]
        u = self.fx * pts[:, 0] / z + self.cx
        v = self.fy * pts[:, 1] / z + self.cy
        return np.column_stack([u, v]), z


def coarse_scale(mesh: SurfaceMesh, cloud: PointCloud) -> tuple[SurfaceMesh, float]:
    """Uniform scale matching the cloud's x-extent, applied about the mesh
    vertex centroid. A mesh or cloud without x-extent raises ``MeshError``:
    it would collapse the mesh."""
    mesh_extent = float(mesh.vertices[:, 0].max() - mesh.vertices[:, 0].min())
    if mesh_extent <= 0.0:
        raise MeshError("mesh has zero x-extent")
    pts = cloud.points
    cloud_extent = float(pts[:, 0].max() - pts[:, 0].min())
    if cloud_extent <= 0.0:
        raise MeshError("point cloud has zero x-extent")
    scale = cloud_extent / mesh_extent
    centroid = mesh.vertices.mean(axis=0)
    return mesh.scaled(scale, centroid), scale


def partial_view(mesh: SurfaceMesh, camera: CameraModel) -> PointCloud:
    """Camera-visible side of the mesh on the pixel grid.

    Surface samples are generated per triangle at the projected pixel
    footprint, with at most 128 subdivisions per edge; each occupied
    pixel keeps only the sample closest to the camera origin, with its
    triangle's unit normal (zero for a degenerate triangle).
    """
    if np.any(mesh.vertices[:, 2] <= 0.0):
        raise MeshError("mesh must lie entirely in front of the camera")
    tv = mesh.vertices[mesh.triangles]
    face_n = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
    norm = np.linalg.norm(face_n, axis=1, keepdims=True)
    face_n = np.divide(face_n, norm, out=np.zeros_like(face_n), where=norm > 0)
    uv, _ = camera.project(tv.reshape(-1, 3))
    uv = uv.reshape(-1, 3, 2)
    edge_px = np.concatenate([
        np.linalg.norm(uv[:, 1] - uv[:, 0], axis=1),
        np.linalg.norm(uv[:, 2] - uv[:, 1], axis=1),
        np.linalg.norm(uv[:, 0] - uv[:, 2], axis=1),
    ]).reshape(3, -1).max(axis=0)
    n_sub = np.clip(np.ceil(edge_px).astype(int), 1, 128)

    samples, normals = [], []
    for n in np.unique(n_sub):
        sel = n_sub == n
        samples.append(_lattice(tv[sel], int(n)))
        # the lattice emits each triangle's (n + 1)(n + 2) / 2 samples together
        normals.append(np.repeat(face_n[sel], (n + 1) * (n + 2) // 2, axis=0))
    pts = np.concatenate(samples)
    nrm = np.concatenate(normals)

    uvp, z = camera.project(pts)
    px = np.floor(uvp).astype(np.int64)
    ok = (px[:, 0] >= 0) & (px[:, 0] < camera.width) & (px[:, 1] >= 0) & (px[:, 1] < camera.height)
    pts, nrm, px = pts[ok], nrm[ok], px[ok]
    if len(pts) == 0:
        raise MeshError("mesh projects outside the image")
    pixel_id = px[:, 1] * camera.width + px[:, 0]
    rng = np.linalg.norm(pts, axis=1)
    order = np.lexsort((rng, pixel_id))
    pixel_sorted = pixel_id[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = pixel_sorted[1:] != pixel_sorted[:-1]
    keep = order[first]
    return PointCloud(pts[keep], normals=nrm[keep])


def umeyama_alignment(src: np.ndarray, dst: np.ndarray,
                      with_scale: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed-form least-squares similarity (or rigid) alignment mapping
    src -> dst: returns (R, t, s) with dst ~ s R src + t."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    ds = src - mu_s
    dd = dst - mu_d
    cov = dd.T @ ds / len(src)
    u, d, vt = np.linalg.svd(cov)
    sign = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    sflip = np.ones(3)
    sflip[2] = sign
    r = (u * sflip) @ vt
    if with_scale:
        var = (ds * ds).sum() / len(src)
        s = float((d * sflip).sum() / var)
    else:
        s = 1.0
    t = mu_d - s * (r @ mu_s)
    return r, t, s


def point_to_plane_step(src: np.ndarray, dst: np.ndarray, normals: np.ndarray,
                        rotation: np.ndarray,
                        translation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One linearised point-to-plane Gauss-Newton step on src -> dst pairs
    with unit source normals: returns the updated rigid (R, t).

    Minimises the squared distance of each target point to the tangent
    plane of its moved source point, over a small rotation vector about
    the targets' centroid and a translation, with each plane held fixed
    for the step (Chen & Medioni 1992; Low 2004). A direction the pairs
    leave unconstrained gets the least-squares minimum-norm step.
    """
    moved = src @ rotation.T + translation
    n = normals @ rotation.T
    c = dst.mean(axis=0)
    residual = np.einsum("ij,ij->i", moved - dst, n)
    jac = np.hstack([np.cross(moved - c, n), n])
    step = np.linalg.lstsq(jac, -residual, rcond=None)[0]
    angle = float(np.linalg.norm(step[:3]))
    turn = rotation_about(step[:3], angle) if angle > 0.0 else np.eye(3)
    return turn @ rotation, turn @ (translation - c) + c + step[3:]


@dataclass
class ICPResult:
    rotation: np.ndarray
    translation: np.ndarray
    scale: float
    rms: float
    n_iterations: int
    rms_history: list[float] = field(default_factory=list)
    # "tol" (improvement fell to tol), "stalled" (10 iterations without
    # improvement) or "max_iters"
    stop_reason: str = "max_iters"
    # nearest neighbours asked for over every correspondence pass (source
    # plus target points per pass), and how many of them went to a tree
    point_iterations: int = 0
    tree_queries: int = 0

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * (points @ self.rotation.T) + self.translation


# relative slack of the nearest-neighbour certificate, far above the
# rounding of a distance: each coordinate difference is exact to a
# relative 1.1e-16, so every computed distance is too, to a few 1e-16
_CERT_SLACK = 1e-9


class IncrementalNearest:
    """``cKDTree(data).query(q)`` for query points that move a little
    between calls, with the tree's answers bit for bit.

    Each query point keeps an anchor: where it was last sent to the tree,
    with its nearest index there and its second neighbour distance d2.
    Every other data point lay at least d2 from the anchor. So once the
    point has moved m from its anchor, a distance e to the old neighbour
    with e < d2 - m proves that neighbour still the unique nearest (this
    holds at least while d1 + m < d2 - m, as e <= d1 + m). Only the
    points without that proof go to the tree and are re-anchored (a
    cached k-d tree search, Nüchter et al. 2007). The proof keeps a
    relative slack, ``_CERT_SLACK``. Rows whose two nearest distances tie
    take their index from a ``k=1`` query, which breaks the tie as the
    tree does, and every distance is ``norm(q - data[idx])``, the tree's
    own arithmetic.
    """

    def __init__(self, tree: cKDTree):
        self.tree = tree
        self.data = tree.data
        self._anchor = np.empty((0, 3))
        # query points sent to the tree so far
        self.tree_queries = 0

    def query(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._anchor.shape != q.shape:
            self._anchor = q.copy()
            self._idx = np.zeros(len(q), dtype=np.intp)
            # certified while distance + move stays below this
            self._reach = np.full(len(q), -np.inf)
        idx = self._idx
        d = _row_norms(q - self.data[idx])
        moved = _row_norms(q - self._anchor)
        stale = np.flatnonzero(d + moved >= self._reach)
        if len(stale):
            sub = q[stale]
            two_d, two_idx = self.tree.query(sub, k=2)
            tie = two_d[:, 0] == two_d[:, 1]
            if tie.any():
                two_idx[tie, 0] = self.tree.query(sub[tie])[1]
            # copy on write: an index array once returned never changes
            idx = idx.copy()
            idx[stale] = two_idx[:, 0]
            d[stale] = _row_norms(sub - self.data[two_idx[:, 0]])
            self._idx = idx
            self._anchor[stale] = sub
            self._reach[stale] = two_d[:, 1] * (1.0 - _CERT_SLACK)
            self.tree_queries += len(stale) + int(tie.sum())
        return d, idx


def reverse_query(src_tree: cKDTree | IncrementalNearest, dst: np.ndarray,
                  rotation: np.ndarray, translation: np.ndarray,
                  scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest source point to each target point under dst ~ s R src + t,
    from a tree over the untransformed source: a similarity transform
    keeps nearest neighbours, so the targets are mapped back for the
    search. The distances are measured in the target frame, against the
    matched source points moved forward: measured in the source frame and
    scaled by s they carry the rounding of the back-mapping, an absolute
    error at the scale of the translation that swamps a short distance."""
    _, idx = src_tree.query(((dst - translation) @ rotation) / scale)
    matched = scale * src_tree.data[idx] @ rotation.T + translation
    return _row_norms(dst - matched), idx


def icp_align(source: PointCloud, target: PointCloud, with_scale: bool = False,
              max_iters: int = 50, tol: float = 1e-6, reject_factor: float = 3.0) -> ICPResult:
    """Nearest-neighbor ICP from the identity.

    Correspondences are symmetric (source->target and target->source
    unions), which keeps the similarity fit from collapsing the scale onto
    a patch of the target. Each iteration fits the pairs with one
    point-to-plane step on the source normals when the alignment is rigid
    and the source carries normals, else with the closed-form
    least-squares alignment. Correspondence rejection at
    ``reject_factor`` times the median pair distance applies to the fit
    only. The monitored RMS (of all pair distances) is enforced
    non-increasing: a step that raises it is never returned, but the loop
    keeps iterating from its correspondences. It stops when an improvement
    falls to ``tol`` relative, after 10 iterations without improvement, or
    at ``max_iters``, and returns the lowest-RMS state.

    Both directions search through an ``IncrementalNearest``: a point
    whose move since its last tree search provably keeps its nearest
    neighbour reuses it, so late iterations, which move every point by
    micrometres, send few points to the trees. The answers, and so every
    iterate, are those of a fresh tree search.
    """
    src = source.points
    dst = target.points
    plane = source.normals is not None and not with_scale
    fwd = IncrementalNearest(cKDTree(dst))
    rev = IncrementalNearest(cKDTree(src))
    src_idx = np.arange(len(src))
    r, t, s = np.eye(3), np.zeros(3), 1.0

    def correspondences(rot, tra, sca):
        moved = sca * (src @ rot.T) + tra
        d_fwd, idx_fwd = fwd.query(moved)
        d_rev, idx_rev = reverse_query(rev, dst, rot, tra, sca)
        pair_idx = np.concatenate([src_idx, idx_rev])
        pair_dst = np.concatenate([dst[idx_fwd], dst])
        d = np.concatenate([d_fwd, d_rev])
        rms = float(np.sqrt(np.mean(d * d)))
        return rms, pair_idx, pair_dst, d

    rms, pair_idx, pair_dst, d = correspondences(r, t, s)
    history = [rms]
    best = (rms, r, t, s)
    since_best = 0
    iters = 0
    stop = "max_iters"
    for iters in range(1, max_iters + 1):
        if reject_factor > 0:
            med = np.median(d)
            inlier = d <= reject_factor * max(med, 1e-300)
            fit_idx, fit_dst = pair_idx[inlier], pair_dst[inlier]
        else:
            fit_idx, fit_dst = pair_idx, pair_dst
        if len(fit_idx) < 3:
            raise CorrespondenceError("fewer than 3 inlier correspondences")
        if plane:
            r, t = point_to_plane_step(src[fit_idx], fit_dst, source.normals[fit_idx], r, t)
        else:
            r, t, s = umeyama_alignment(src[fit_idx], fit_dst, with_scale)
        rms, pair_idx, pair_dst, d = correspondences(r, t, s)
        if rms < best[0]:
            improved = best[0] - rms
            best = (rms, r, t, s)
            history.append(rms)
            since_best = 0
            if improved <= tol * max(rms, 1e-300):
                stop = "tol"
                break
        else:
            since_best += 1
            if since_best >= 10:
                stop = "stalled"
                break
    rms, r, t, s = best
    return ICPResult(r, t, s, rms, iters, history, stop,
                     point_iterations=(len(src) + len(dst)) * (iters + 1),
                     tree_queries=fwd.tree_queries + rev.tree_queries)


# ---------------------------------------------------------------------------
# Watertight wrapping and Chamfer distance

def _mesh_median_edge(mesh: SurfaceMesh) -> float:
    tv = mesh.vertices[mesh.triangles]
    e = np.concatenate([
        np.linalg.norm(tv[:, 1] - tv[:, 0], axis=1),
        np.linalg.norm(tv[:, 2] - tv[:, 1], axis=1),
        np.linalg.norm(tv[:, 0] - tv[:, 2], axis=1),
    ])
    return float(np.median(e))


def _circumradii(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    v = points[tets]
    a = v[:, 1] - v[:, 0]
    b = v[:, 2] - v[:, 0]
    c = v[:, 3] - v[:, 0]
    vol6 = np.einsum("ij,ij->i", a, np.cross(b, c))
    num = (np.einsum("ij,ij->i", a, a)[:, None] * np.cross(b, c)
           + np.einsum("ij,ij->i", b, b)[:, None] * np.cross(c, a)
           + np.einsum("ij,ij->i", c, c)[:, None] * np.cross(a, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        center_off = num / (2.0 * vol6)[:, None]
    r = np.linalg.norm(center_off, axis=1)
    # slivers count as unbounded so no alpha keeps them
    edge_scale = np.linalg.norm(a, axis=1)
    r[np.abs(vol6) < 1e-9 * edge_scale ** 3] = np.inf
    return r


def _largest_component(tets: np.ndarray) -> np.ndarray:
    """Connected component (by shared faces) with the most tets."""
    faces = tets[:, _TET_FACES].reshape(-1, 3)
    key = np.sort(faces, axis=1)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    sk = key[order]
    owner = order // 4
    same = np.all(sk[1:] == sk[:-1], axis=1)
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph
    pairs = np.column_stack([owner[:-1][same], owner[1:][same]])
    n = len(tets)
    adj = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    n_comp, labels = csgraph.connected_components(adj, directed=False)
    if n_comp == 1:
        return tets
    counts = np.bincount(labels)
    return tets[labels == int(np.argmax(counts))]


def alpha_wrap(points: np.ndarray, alpha: float) -> SurfaceMesh:
    """Alpha-shape boundary of a point set as a watertight surface.

    Keeps Delaunay tets with circumradius below alpha (growing alpha by
    1.5x, up to 8 tries, until the boundary is edge-manifold; the convex
    hull is the final fallback).
    """
    points = np.asarray(points, dtype=np.float64)
    # deterministic sub-tolerance jitter keeps coplanar lattices (box
    # faces) from producing degenerate tets with ambiguous boundaries
    diag = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
    jitter = np.random.default_rng(0xA1FA).standard_normal(points.shape)
    points = points + 1e-7 * diag * jitter
    tri = Delaunay(points)
    tets = tri.simplices.copy()
    flip = tet_volumes(points, tets) < 0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    radii = _circumradii(points, tets)
    for _ in range(8):
        keep = tets[radii < alpha]
        if len(keep):
            boundary = boundary_faces(_largest_component(keep))
            if is_watertight(boundary):
                return SurfaceMesh(points, boundary)
        alpha *= 1.5
    # fallback: convex hull boundary (all tets kept)
    mesh = SurfaceMesh(points, boundary_faces(tets))
    if not mesh.watertight:
        raise MeshError("alpha wrap failed to produce a watertight surface")
    return mesh


def ensure_watertight(mesh: SurfaceMesh) -> SurfaceMesh:
    """Return the mesh unchanged when already watertight, else wrap its
    surface samples (each edge halved) with an alpha shape of 2.5 times
    the median edge length."""
    if mesh.watertight:
        return mesh
    pts = surface_sample_points(mesh, density=2)
    pts = np.unique(np.round(pts, 12), axis=0)
    return alpha_wrap(pts, 2.5 * _mesh_median_edge(mesh))


def sample_surface(mesh: SurfaceMesh, n: int, seed: int = 0) -> np.ndarray:
    """Area-weighted random surface samples."""
    rng = np.random.default_rng(seed)
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    idx = rng.choice(len(areas), size=n, p=areas / areas.sum())
    u = rng.random(n)
    v = rng.random(n)
    over = u + v > 1
    u[over] = 1 - u[over]
    v[over] = 1 - v[over]
    tv = mesh.vertices[mesh.triangles[idx]]
    return tv[:, 0] + u[:, None] * (tv[:, 1] - tv[:, 0]) + v[:, None] * (tv[:, 2] - tv[:, 0])


def chamfer_distance(a: SurfaceMesh, b: SurfaceMesh, n: int = 10000, seed: int = 0) -> float:
    """Symmetric point-to-point L2 Chamfer distance over surface samples."""
    pa = sample_surface(a, n, seed)
    pb = sample_surface(b, n, seed + 1)
    d_ab, _ = cKDTree(pb).query(pa)
    d_ba, _ = cKDTree(pa).query(pb)
    return float(0.5 * (d_ab.mean() + d_ba.mean()))


@dataclass
class CalibrationResult:
    mesh: SurfaceMesh
    total_scale: float
    coarse_factor: float
    icp_scale: float
    rms_rigid: float
    rms_similarity: float
    icp_iterations: int
    chamfer_raw: Optional[float] = None
    chamfer_calibrated: Optional[float] = None

    def report(self) -> dict:
        out = {
            "total_scale": self.total_scale,
            "coarse_factor": self.coarse_factor,
            "icp_scale": self.icp_scale,
            "rms_rigid": self.rms_rigid,
            "rms_similarity": self.rms_similarity,
            "icp_iterations": self.icp_iterations,
            "watertight": bool(self.mesh.watertight),
        }
        if self.chamfer_raw is not None:
            out["chamfer_raw"] = self.chamfer_raw
            out["chamfer_calibrated"] = self.chamfer_calibrated
        return out


def _log_stage(stage: str, res: ICPResult) -> None:
    logger.debug("calibrate %s: %d iterations (%s), rms %.4g m, scale %.6f, "
                 "%d of %d point-iterations sent to the trees",
                 stage, res.n_iterations, res.stop_reason, res.rms, res.scale,
                 res.tree_queries, res.point_iterations)


# iteration cap of each ICP stage of ``calibrate``
_ICP_MAX_ITERS = 150


def calibrate(mesh: SurfaceMesh, cloud: PointCloud, camera: CameraModel,
              truth_mesh: SurfaceMesh | None = None, tol: float = 1e-6) -> CalibrationResult:
    """Full calibration: coarse x-extent scale, partial view, rigid then
    similarity ICP, scale applied to the complete mesh, watertight output.

    The rigid stage takes point-to-plane steps on the partial view's face
    normals (Chen & Medioni 1992), which settle the pose in far fewer
    iterations than point-to-point steps. The partial view is re-projected
    at each aligned pose so successive passes compare matching visible
    sides. The similarity stage runs as three re-projected point-to-point
    rounds with correspondence rejection disabled: these clouds carry no
    gross outliers, and the visibility-boundary mismatch the rejection
    would trim is precisely what pins the scale.
    """
    coarse_mesh, s_coarse = coarse_scale(mesh, cloud)
    pv = partial_view(coarse_mesh, camera)
    rigid = icp_align(pv, cloud, with_scale=False, max_iters=_ICP_MAX_ITERS, tol=tol)
    _log_stage("rigid", rigid)
    iterations = rigid.n_iterations
    aligned = SurfaceMesh(rigid.apply(coarse_mesh.vertices), coarse_mesh.triangles)
    icp_total = 1.0
    sim = None
    for k in range(3):
        pv2 = partial_view(aligned, camera)
        sim = icp_align(pv2, cloud, with_scale=True, max_iters=_ICP_MAX_ITERS, tol=tol,
                        reject_factor=0.0)
        _log_stage(f"similarity {k + 1}", sim)
        iterations += sim.n_iterations
        aligned = SurfaceMesh(sim.apply(aligned.vertices), aligned.triangles)
        icp_total *= sim.scale
    calibrated = ensure_watertight(aligned)
    result = CalibrationResult(
        mesh=calibrated,
        total_scale=s_coarse * icp_total,
        coarse_factor=s_coarse,
        icp_scale=icp_total,
        rms_rigid=rigid.rms,
        rms_similarity=sim.rms,
        icp_iterations=iterations,
    )
    if truth_mesh is not None:
        result.chamfer_raw = chamfer_distance(mesh, truth_mesh)
        result.chamfer_calibrated = chamfer_distance(calibrated, truth_mesh)
    return result


# ---------------------------------------------------------------------------
# Point-cloud file I/O (ascii PLY and xyz CSV)

def load_point_cloud(path: str | Path) -> PointCloud:
    path = Path(path)
    if path.suffix.lower() == ".ply":
        return _load_ply(path)
    rows = []
    for line in path.read_text().splitlines():
        s = line.strip().replace(",", " ")
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        rows.append([float(x) for x in parts[:3]])
    return PointCloud(np.array(rows))


def _load_ply(path: Path) -> PointCloud:
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ValueError(f"not a PLY file: {path}")
    n = 0
    props = []
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if parts[:2] == ["element", "vertex"]:
            n = int(parts[2])
        elif parts[:1] == ["property"] and n and len(props) < 16:
            props.append(parts[2])
        elif parts[:1] == ["format"] and parts[1] != "ascii":
            raise ValueError("only ascii PLY supported")
        elif parts[:1] == ["end_header"]:
            i += 1
            break
        i += 1
    cols = [props.index(c) for c in ("x", "y", "z")]
    data = np.array([[float(x) for x in lines[i + k].split()] for k in range(n)])
    return PointCloud(data[:, cols])


def save_point_cloud(path: str | Path, points: np.ndarray) -> None:
    path = Path(path)
    points = np.asarray(points, dtype=np.float64)
    if path.suffix.lower() == ".ply":
        header = ["ply", "format ascii 1.0", f"element vertex {len(points)}",
                  "property float x", "property float y", "property float z",
                  "end_header"]
        body = [f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for p in points]
        path.write_text("\n".join(header + body) + "\n")
    else:
        path.write_text("\n".join(f"{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}"
                                   for p in points) + "\n")
