import hashlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from finray.contact_localizer import rot_z, rotation_about
from finray import mesh_calibration
from finray.fixtures import ShapeSpec, box_points, icosphere, make_object_mesh, _hull_mesh
from finray.mesh_calibration import (
    CameraModel,
    CorrespondenceError,
    ICPResult,
    IncrementalNearest,
    PointCloud,
    alpha_wrap,
    calibrate,
    chamfer_distance,
    coarse_scale,
    ensure_watertight,
    icp_align,
    load_point_cloud,
    partial_view,
    point_to_plane_step,
    reverse_query,
    umeyama_alignment,
)
from finray.mesh_model import MeshError, RigidSurface, SurfaceMesh, surface_sample_points
from finray.sensing_sim import synthetic_scan


def save_point_cloud(path, points):
    """Write points as an ascii PLY or, for any other suffix, as CSV rows,
    each coordinate in its shortest round-trip form."""
    rows = [f"{float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in np.asarray(points)]
    if path.suffix.lower() == ".ply":
        rows = ["ply", "format ascii 1.0", f"element vertex {len(rows)}",
                "property float x", "property float y", "property float z",
                "end_header"] + rows
    else:
        rows = [r.replace(" ", ",") for r in rows]
    path.write_text("\n".join(rows) + "\n")


def posed_in_camera(mesh, distance=0.35, rotation=None, offset=(0.0, 0.0, 0.0)):
    r = rotation if rotation is not None else np.eye(3)
    v = mesh.vertices @ r.T + np.array([0.0, 0.0, distance]) + np.asarray(offset)
    return SurfaceMesh(v, mesh.triangles)


def midpoint_subdivided(mesh, times):
    """Each triangle split into four at its edge midpoints, which
    neighbouring triangles share, so a closed surface stays closed."""
    v, tris = mesh.vertices, mesh.triangles
    for _ in range(times):
        edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        uniq, inv = np.unique(np.sort(edges, axis=1), axis=0, return_inverse=True)
        ab, bc, ca = len(v) + inv.reshape(3, -1)
        a, b, c = tris.T
        v = np.concatenate([v, 0.5 * (v[uniq[:, 0]] + v[uniq[:, 1]])])
        tris = np.stack([np.column_stack(t) for t in
                         ((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca))],
                        axis=1).reshape(-1, 3)
    return SurfaceMesh(v, tris)


class TestCameraModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CameraModel(fx=-1.0)
        with pytest.raises(ValueError):
            CameraModel(cx=900.0)

    def test_projection(self):
        cam = CameraModel()
        uv, z = cam.project(np.array([[0.0, 0.0, 0.5]]))
        assert np.allclose(uv[0], [cam.cx, cam.cy])
        assert z[0] == 0.5


class TestCoarseScale:
    def test_ratio(self):
        mesh = posed_in_camera(_hull_mesh(box_points((0.05, 0.04, 0.04))))
        cloud = PointCloud(np.array([[0.0, 0, 0.3], [0.10, 0, 0.3]]))
        _, s = coarse_scale(mesh, cloud)
        assert s == pytest.approx(2.0, rel=1e-12)

    def test_identity(self):
        mesh = posed_in_camera(_hull_mesh(box_points((0.05, 0.04, 0.04))))
        cloud = PointCloud(mesh.vertices)
        scaled, s = coarse_scale(mesh, cloud)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert np.abs(scaled.vertices - mesh.vertices).max() <= 1e-12

    def test_zero_extent_rejected(self):
        flat = SurfaceMesh(np.array([[0.0, 0, 1], [0, 1, 1], [0, 0, 2]]),
                           np.array([[0, 1, 2]]))
        with pytest.raises(MeshError):
            coarse_scale(flat, PointCloud(np.array([[0.0, 0, 1], [1.0, 0, 1]])))

    def test_flat_cloud_rejected(self):
        # a scan without x-extent would scale the mesh to nothing, and the
        # collapsed twin still reads watertight
        cam = CameraModel()
        mesh = posed_in_camera(make_object_mesh(ShapeSpec.cylinder(0.025)), 0.45)
        rng = np.random.default_rng(0)
        flat = PointCloud(np.column_stack([np.full(200, 0.01),
                                           rng.uniform(-0.02, 0.02, 200),
                                           rng.uniform(0.43, 0.47, 200)]))
        with pytest.raises(MeshError):
            coarse_scale(mesh, flat)
        with pytest.raises(MeshError):
            calibrate(mesh, flat, cam)

    def test_synthetic_scan_recovers_scale(self):
        cam = CameraModel()
        cube = _hull_mesh(box_points((0.04, 0.04, 0.04)))
        truth = posed_in_camera(cube, 0.35)
        scan = synthetic_scan(SurfaceMesh(truth.vertices * 0.7 + np.array([0, 0, 0.35]) * 0.3,
                                          truth.triangles), cam, depth_sigma=0.001, seed=3)
        # mesh at scale 1, scan of the object at 0.7x: coarse factor ~ 0.7
        _, s = coarse_scale(truth, scan)
        assert s == pytest.approx(0.7, rel=0.05)


class TestPartialView:
    def test_sphere_front_hemisphere(self):
        cam = CameraModel()
        sphere = posed_in_camera(icosphere(3, 0.03), 0.4)
        pv = partial_view(sphere, cam)
        assert np.all(pv.points[:, 2] <= 0.4 + 1e-6)

    def test_one_point_per_pixel(self):
        cam = CameraModel()
        cube = posed_in_camera(_hull_mesh(box_points((0.04, 0.04, 0.04))), 0.4)
        pv = partial_view(cube, cam)
        uv, _ = cam.project(pv.points)
        px = np.floor(uv).astype(int)
        ids = px[:, 1] * cam.width + px[:, 0]
        assert len(np.unique(ids)) == len(ids)
        assert len(ids) <= cam.width * cam.height

    def test_cube_face_on_z_buffer(self):
        # analytic oracle: a face-on cube shows its front plane; side
        # faces may only win pixels in the one-pixel silhouette ring
        cam = CameraModel()
        half = 0.02
        z0 = 0.4
        cube = posed_in_camera(_hull_mesh(box_points((2 * half, 2 * half, 2 * half))), z0)
        pv = partial_view(cube, cam)
        front = z0 - half
        on_front = pv.points[:, 2] <= front + 1e-9
        assert np.all(pv.points[on_front, 2] >= front - 1e-9)
        assert np.abs(pv.points[on_front, 0]).max() <= half + 1e-9
        assert np.abs(pv.points[on_front, 1]).max() <= half + 1e-9
        # front-face pixel coverage matches the projected face area
        expect = (2 * half * cam.fx / front) ** 2
        assert int(on_front.sum()) == pytest.approx(expect, rel=0.05)
        # everything else is silhouette: within two pixels of the face
        # boundary in image space
        side = pv.points[~on_front]
        if len(side):
            uv, _ = cam.project(side)
            u_edge = half / front * cam.fx
            border = np.maximum(np.abs(uv[:, 0] - cam.cx), np.abs(uv[:, 1] - cam.cy))
            assert np.all(border >= u_edge - 2.0)

    def test_mesh_behind_camera_rejected(self):
        cam = CameraModel()
        cube = posed_in_camera(_hull_mesh(box_points((0.04, 0.04, 0.04))), -0.2)
        with pytest.raises(MeshError):
            partial_view(cube, cam)

    def test_samples_lie_on_surface(self):
        cam = CameraModel()
        cube = _hull_mesh(box_points((0.04, 0.04, 0.04)))
        posed = posed_in_camera(cube, 0.4)
        pv = partial_view(posed, cam)
        rel = np.abs(pv.points - np.array([0, 0, 0.4]))
        assert np.all(np.isclose(rel.max(axis=1), 0.02, atol=1e-9))

    def test_normals_are_triangle_normals(self):
        # each sample's normal is the unit normal of a triangle the sample
        # lies on (samples on shared edges lie on several)
        cam = CameraModel()
        sphere = posed_in_camera(icosphere(1, 0.03), 0.3)
        pv = partial_view(sphere, cam)
        tv = sphere.vertices[sphere.triangles]
        e1, e2 = tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]
        fn = np.cross(e1, e2)
        fn /= np.linalg.norm(fn, axis=1, keepdims=True)
        d = pv.points[:, None, :] - tv[None, :, 0]
        d00, d01, d11 = (e1 * e1).sum(1), (e1 * e2).sum(1), (e2 * e2).sum(1)
        d20, d21 = (d * e1).sum(2), (d * e2).sum(2)
        den = d00 * d11 - d01 ** 2
        v = (d11 * d20 - d01 * d21) / den
        w = (d00 * d21 - d01 * d20) / den
        on = ((np.abs((d * fn).sum(2)) <= 1e-12)
              & (v >= -1e-9) & (w >= -1e-9) & (v + w <= 1 + 1e-9))
        same = np.all(np.abs(pv.normals[:, None, :] - fn[None]) <= 1e-15, axis=2)
        assert pv.normals.shape == pv.points.shape
        assert np.all(on.any(axis=1))
        assert np.all((on & same).any(axis=1))

    def test_normals_length_checked(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 3)), normals=np.zeros((3, 3)))

    def test_synthetic_scan_bytes_pinned(self):
        # the scan's points do not depend on the normals partial_view carries
        base = make_object_mesh(ShapeSpec.wedge())
        tilt = rotation_about(np.array([1.0, 0.0, 0.0]), np.deg2rad(30.0))
        posed = posed_in_camera(SurfaceMesh(base.vertices @ tilt.T, base.triangles), 0.45)
        scan = synthetic_scan(posed, CameraModel(), depth_sigma=0.001, seed=7)
        assert scan.normals is None
        assert hashlib.sha256(scan.points.tobytes()).hexdigest() == (
            "72b8c510f004d4c7004d91e1e40349c96d95fab2268ae7531894479c12636d1d")


class TestUmeyamaICP:
    def test_exact_rigid_recovery(self, rng):
        src = rng.normal(size=(300, 3))
        r = rotation_about(np.array([0.3, 1.0, -0.2]), 0.7)
        t = np.array([0.1, -0.2, 0.05])
        dst = src @ r.T + t
        res = icp_align(PointCloud(src), PointCloud(dst), with_scale=False)
        assert np.abs(res.rotation - r).max() <= 1e-6
        assert np.abs(res.translation - t).max() <= 1e-6
        assert res.scale == 1.0

    def test_similarity_recovery(self, rng):
        src = rng.normal(size=(400, 3)) * 0.05
        r = rotation_about(np.array([0.0, 0.0, 1.0]), np.deg2rad(10.0))
        dst = 0.85 * src @ r.T + np.array([0.01, 0.0, -0.02])
        res = icp_align(PointCloud(src), PointCloud(dst), with_scale=True)
        assert res.scale == pytest.approx(0.85, abs=1e-3)

    def test_rms_monotone_nonincreasing(self, rng):
        src = rng.normal(size=(500, 3)) * 0.04
        r = rotation_about(np.array([1.0, 0.4, 0.0]), 0.4)
        dst = src @ r.T + np.array([0.02, 0.01, 0.0]) + 0.001 * rng.normal(size=(500, 3))
        res = icp_align(PointCloud(src), PointCloud(dst), with_scale=True)
        hist = res.rms_history
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))

    def test_scale_disabled_equals_rigid(self, rng):
        src = rng.normal(size=(200, 3))
        dst = src @ rotation_about(np.array([0, 0, 1.0]), 0.3).T + 0.05
        r1, t1, s1 = umeyama_alignment(src, dst, with_scale=False)
        assert s1 == 1.0
        res = icp_align(PointCloud(src), PointCloud(dst), with_scale=False)
        assert res.scale == 1.0

    def test_stop_reasons(self, rng):
        src = rng.normal(size=(300, 3))
        dst = src @ rotation_about(np.array([0.3, 1.0, -0.2]), 0.7).T + 0.1
        assert icp_align(PointCloud(src), PointCloud(dst), max_iters=2).stop_reason == "max_iters"
        res = icp_align(PointCloud(src), PointCloud(dst))
        assert res.stop_reason in ("tol", "stalled")
        assert res.n_iterations < 50

    def test_point_to_plane_recovers_rigid_pose(self):
        # a partial view with face normals against the same samples moved
        # rigidly: the point-to-plane steps land on the exact pose. Three
        # faces in view pin all six directions (planes alone leave the
        # translation along a prism's axis free)
        cam = CameraModel()
        box = make_object_mesh(ShapeSpec.cuboid((0.03, 0.04, 0.05)))
        tilt = rotation_about(np.array([1.0, 1.0, 0.0]), np.deg2rad(35.0))
        pv = partial_view(posed_in_camera(box, 0.45, rotation=tilt), cam)
        r = rotation_about(np.array([0.2, 1.0, 0.4]), np.deg2rad(4.0))
        c = pv.points.mean(axis=0)
        t = c - r @ c + np.array([0.003, -0.002, 0.002])
        res = icp_align(pv, PointCloud(pv.points @ r.T + t), max_iters=100, tol=1e-12)
        assert res.scale == 1.0
        assert np.abs(res.rotation - r).max() <= 1e-9
        assert np.abs(res.translation - t).max() <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_reverse_query_matches_rebuilt_tree(self, seed):
        # the source-frame query against one tree over the source equals
        # the query against a tree rebuilt over the moved source
        rng = np.random.default_rng(seed)
        src = rng.uniform(-0.05, 0.05, size=(400, 3))
        r = rotation_about(rng.normal(size=3), rng.uniform(0.0, np.pi))
        s = rng.uniform(0.5, 2.0)
        t = rng.normal(scale=0.3, size=3)
        moved = s * src @ r.T + t
        dst = np.concatenate([moved[:300] + rng.normal(scale=0.002, size=(300, 3)),
                              rng.uniform(moved.min(0), moved.max(0), size=(100, 3))])
        d_ref, idx_ref = cKDTree(moved).query(dst)
        d, idx = reverse_query(cKDTree(src), dst, r, t, s)
        assert np.array_equal(idx, idx_ref)
        assert np.all(np.abs(d - d_ref) <= 1e-12 * d_ref)

    def test_correspondence_collapse(self):
        src = np.zeros((5, 3))
        dst = np.ones((5, 3))
        with pytest.raises(CorrespondenceError):
            icp_align(PointCloud(src), PointCloud(dst), reject_factor=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_umeyama_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(50, 3))
        r = rotation_about(rng.normal(size=3), rng.uniform(0.0, np.pi))
        s = rng.uniform(0.3, 2.5)
        t = rng.normal(size=3)
        dst = s * src @ r.T + t
        r2, t2, s2 = umeyama_alignment(src, dst, with_scale=True)
        assert np.abs(r2 - r).max() <= 1e-8
        assert s2 == pytest.approx(s, rel=1e-8)
        assert np.abs(t2 - t).max() <= 1e-8


def to_bisector(tree, q):
    """Each point moved along the line to its second nearest data point,
    onto the plane equidistant from its two nearest; a point whose two
    nearest coincide stays put."""
    i1, i2 = tree.query(q, k=2)[1].T
    u = tree.data[i2] - q
    w = q - tree.data[i1]
    uu = np.einsum("ij,ij->i", u, u)
    den = 2.0 * (np.einsum("ij,ij->i", w, u) + uu)
    ok = den != 0.0
    t = np.zeros(len(q))
    t[ok] = (uu[ok] - np.einsum("ij,ij->i", w, w)[ok]) / den[ok]
    return q + t[:, None] * u


class TestIncrementalNearest:
    """The certified cache against a fresh tree on every call: the same
    indices and distances, exactly."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.sampled_from(["small", "jump", "cluster", "bisector", "midpoint"]),
                    min_size=3, max_size=10))
    def test_random_walk_matches_fresh_tree(self, seed, moves):
        rng = np.random.default_rng(seed)
        # a dyadic grid is exact in binary, so a midpoint of two grid
        # points is exactly equidistant from both; 20 points appear twice,
        # and 20 more have a twin 2**-30 m away, far below the grid step
        grid = rng.integers(-64, 64, size=(150, 3)) / 1024.0 + np.array([0.0, 0.0, 0.5])
        twins = grid[20:40] + rng.integers(-1, 2, size=(20, 3)) * 2.0 ** -30
        data = np.concatenate([grid, grid[:20], twins])
        tree = cKDTree(data)
        near = IncrementalNearest(cKDTree(data))
        lo, hi = data.min(axis=0), data.max(axis=0)
        q = rng.uniform(lo, hi, size=(300, 3))
        for move in ["jump", *moves]:
            if move == "small":
                q = q + rng.normal(scale=rng.choice([1e-9, 1e-6, 1e-4]), size=q.shape)
            elif move == "jump":
                q = rng.uniform(lo, hi, size=q.shape)
            elif move == "cluster":
                at = data[rng.integers(len(data), size=len(q))]
                q = at + rng.normal(scale=1e-9, size=q.shape)
            elif move == "bisector":
                q = to_bisector(tree, q)
            else:
                a, b = rng.integers(len(data), size=(2, len(q)))
                half = rng.random(len(q)) < 0.5
                q = np.where(half[:, None], 0.5 * (data[a] + data[b]), q)
            d, idx = near.query(q)
            d_ref, idx_ref = tree.query(q)
            assert np.array_equal(idx, idx_ref)
            assert np.array_equal(d, d_ref)

    def test_small_steps_reuse_neighbours(self, rng):
        data = rng.uniform(-0.05, 0.05, size=(500, 3))
        tree = cKDTree(data)
        near = IncrementalNearest(cKDTree(data))
        q = rng.uniform(-0.05, 0.05, size=(400, 3))
        for _ in range(20):
            q = q + rng.normal(scale=1e-5, size=q.shape)
            d, idx = near.query(q)
            d_ref, idx_ref = tree.query(q)
            assert np.array_equal(idx, idx_ref)
            assert np.array_equal(d, d_ref)
        assert len(q) <= near.tree_queries < 20 * len(q) // 4

    def test_single_point_data(self):
        near = IncrementalNearest(cKDTree(np.array([[0.0, 0.0, 1.0]])))
        for q in (np.zeros((3, 3)), np.ones((3, 3))):
            d, idx = near.query(q)
            assert np.array_equal(idx, np.zeros(3, dtype=idx.dtype))
            assert np.array_equal(d, np.linalg.norm(q - [0.0, 0.0, 1.0], axis=1))
        assert near.tree_queries == 3


class TestWatertighting:
    def test_alpha_wrap_sphere_points(self):
        sphere = icosphere(2, 0.03)
        pts = surface_sample_points(sphere, 2)
        pts = np.unique(np.round(pts, 12), axis=0)
        wrapped = alpha_wrap(pts, alpha=0.02)
        assert wrapped.watertight

    def test_ensure_watertight_passthrough(self):
        cube = _hull_mesh(box_points((0.04, 0.04, 0.04)))
        assert ensure_watertight(cube) is cube

    def test_ensure_watertight_repairs_open_mesh(self):
        cube = _hull_mesh(box_points((0.04, 0.04, 0.04)))
        open_mesh = SurfaceMesh(cube.vertices, cube.triangles[:-2])
        assert not open_mesh.watertight
        fixed = ensure_watertight(open_mesh)
        assert fixed.watertight


class TestCalibrate:
    def _scene(self, spec, true_scale, seed, rot_deg=8.0, offset=(0.012, -0.008, 0.01)):
        cam = CameraModel()
        base = make_object_mesh(spec, n_seg=32)
        # tilt so cylinder end caps are visible: a face-on cylinder arc
        # leaves scale and camera distance nearly indistinguishable
        tilt = rotation_about(np.array([1.0, 0.0, 0.0]), np.deg2rad(30.0))
        base = SurfaceMesh(base.vertices @ tilt.T, base.triangles)
        r_err = rotation_about(np.array([0.2, 1.0, 0.4]), np.deg2rad(rot_deg))
        truth = posed_in_camera(SurfaceMesh(base.vertices * true_scale, base.triangles), 0.35)
        scan = synthetic_scan(truth, cam, depth_sigma=0.001, seed=seed)
        recon = posed_in_camera(base, 0.35, rotation=r_err, offset=offset)
        return recon, scan, truth, cam

    @pytest.mark.parametrize("true_scale", [0.7, 1.0, 1.3])
    def test_cylinder_scale_within_one_percent(self, true_scale):
        recon, scan, truth, cam = self._scene(ShapeSpec.cylinder(0.025, 0.06),
                                              true_scale, seed=11)
        result = calibrate(recon, scan, cam)
        assert result.total_scale == pytest.approx(true_scale, rel=0.01)

    def test_cube_chamfer_improvement(self):
        recon, scan, truth, cam = self._scene(
            ShapeSpec.cuboid((0.03, 0.03, 0.03)), 1.3, seed=5)
        result = calibrate(recon, scan, cam, truth_mesh=truth)
        assert result.chamfer_raw / result.chamfer_calibrated >= 4.0

    def test_output_watertight(self):
        recon, scan, _, cam = self._scene(ShapeSpec.cylinder(0.025, 0.06), 0.9, seed=2)
        result = calibrate(recon, scan, cam)
        assert result.mesh.watertight

    def test_scale_equivariance(self):
        # in-place resize of the reconstruction (the scale-ambiguity the
        # pipeline exists to fix) must flow straight through the answer
        recon, scan, _, cam = self._scene(ShapeSpec.cylinder(0.025, 0.06),
                                          1.0, seed=9)
        r1 = calibrate(recon, scan, cam, tol=1e-12)
        c = recon.vertices.mean(axis=0)
        pre = SurfaceMesh((recon.vertices - c) * 2.0 + c, recon.triangles)
        r2 = calibrate(pre, scan, cam, tol=1e-12)
        assert r2.total_scale == pytest.approx(r1.total_scale / 2.0, rel=1e-6)
        assert np.abs(r2.mesh.vertices - r1.mesh.vertices).max() <= 1e-6

    def test_logs_and_counts_each_stage(self, caplog, monkeypatch):
        recon, scan, _, cam = self._scene(ShapeSpec.cuboid((0.03, 0.03, 0.03)), 1.1, seed=6)
        runs = []
        align = mesh_calibration.icp_align

        def counted(*args, **kwargs):
            runs.append(align(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(mesh_calibration, "icp_align", counted)
        with caplog.at_level(logging.DEBUG, logger="finray.mesh_calibration"):
            result = calibrate(recon, scan, cam)
        assert len(runs) == 4
        assert result.report()["icp_iterations"] == sum(r.n_iterations for r in runs)
        stages = [m for m in caplog.messages if m.startswith("calibrate ")]
        assert [m.split(":")[0] for m in stages] == [
            "calibrate rigid", "calibrate similarity 1", "calibrate similarity 2",
            "calibrate similarity 3"]
        for m, r in zip(stages, runs):
            assert f"{r.n_iterations} iterations ({r.stop_reason})" in m
            assert f"{r.tree_queries} of {r.point_iterations} point-iterations" in m
        # the similarity stages start from a settled pose, so the cache
        # answers most of their searches
        for r in runs[1:]:
            assert 0 < r.tree_queries < r.point_iterations


class TestTwinScale:
    """The benchmark's twin set-ups: a 25 mm cylinder reconstructed 1.2x
    too large (48 segments, closed) and the wedge hull, midpoint-subdivided
    three times, 0.85x and open; each scanned at 0.45 m with a 30 deg tilt
    and reconstructed with a fixed 8 deg pose error."""

    TILT = rotation_about(np.array([1.0, 0.0, 0.0]), np.deg2rad(30.0))
    POSE_ERROR = rotation_about(np.array([0.2, 1.0, 0.4]), np.deg2rad(8.0))
    OFFSET = np.array([0.012, -0.008, 0.01])

    @classmethod
    def scene(cls, twin, seed):
        """(reconstruction, scan, camera, mis-scale) of one twin set-up."""
        cam = CameraModel()
        if twin == "cylinder":
            spec, mis_scale = ShapeSpec.cylinder(0.025), 1.2
            template = make_object_mesh(spec, n_seg=48, n_len=8)
        else:
            spec, mis_scale = ShapeSpec.wedge(), 0.85
            template = midpoint_subdivided(make_object_mesh(spec), 3)
            template = SurfaceMesh(template.vertices, template.triangles[:-2])
        truth = make_object_mesh(spec)
        scan = synthetic_scan(posed_in_camera(truth, 0.45, rotation=cls.TILT), cam,
                              depth_sigma=0.001, seed=seed)
        recon = posed_in_camera(SurfaceMesh(template.vertices * mis_scale, template.triangles),
                                0.45, rotation=cls.POSE_ERROR @ cls.TILT, offset=cls.OFFSET)
        return recon, scan, cam, mis_scale

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("twin", ["cylinder", "wedge"])
    def test_scale_within_one_percent(self, twin, seed):
        recon, scan, cam, mis_scale = self.scene(twin, seed)
        result = calibrate(recon, scan, cam)
        assert result.total_scale * mis_scale == pytest.approx(1.0, rel=0.01)

    @pytest.mark.parametrize("twin", ["cylinder", "wedge"])
    def test_matches_uncached_icp(self, twin, monkeypatch):
        # the certified cache changes no iterate: every stage and the twin
        # are the bits of the loop that searches a fresh tree each pass
        recon, scan, cam, _ = self.scene(twin, 0)
        runs, results = {}, {}
        for key, align in (("cached", icp_align), ("uncached", uncached_icp_align)):
            runs[key] = []

            def recorded(*args, align=align, log=runs[key], **kwargs):
                log.append(align(*args, **kwargs))
                return log[-1]

            monkeypatch.setattr(mesh_calibration, "icp_align", recorded)
            results[key] = calibrate(recon, scan, cam)
        got, want = results["cached"], results["uncached"]
        assert got.report() == want.report()
        assert np.array_equal(got.mesh.vertices, want.mesh.vertices)
        assert np.array_equal(got.mesh.triangles, want.mesh.triangles)
        assert len(runs["cached"]) == len(runs["uncached"]) == 4
        for a, b in zip(runs["cached"], runs["uncached"]):
            assert a.rms_history == b.rms_history
            assert (a.n_iterations, a.stop_reason, a.scale) == (b.n_iterations, b.stop_reason,
                                                                b.scale)
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)

    @pytest.mark.parametrize("twin", ["cylinder", "wedge"])
    def test_placed_twin_box_is_its_posed_vertices_box(self, twin):
        # ``RigidSurface.bounds`` translates the rotated template's box
        # instead of mapping every vertex: on each calibrated twin, back in
        # its object frame, the box is the posed vertices' box bit for bit,
        # under random poses and under axis-aligned ones, whose faces tie
        recon, scan, cam, _ = self.scene(twin, 0)
        mesh = calibrate(recon, scan, cam).mesh
        surf = RigidSurface(SurfaceMesh(
            (mesh.vertices - [0.0, 0.0, 0.45]) @ self.TILT, mesh.triangles))
        v = surf.template.vertices
        rng = np.random.default_rng(11)
        poses = [(rotation_about(rng.normal(size=3), rng.uniform(0.0, np.pi)),
                  rng.normal(scale=0.02, size=3)) for _ in range(200)]
        poses += [(rot_z(k * np.pi / 2.0), np.array([0.0125, -0.5, 1e-17])) for k in range(4)]
        poses += [(np.eye(3), np.zeros(3)), (np.eye(3), -v[0])]
        for rotation, translation in poses:
            surf.place(rotation, translation)
            posed = v @ rotation.T + translation
            lo, hi = surf.bounds()
            assert lo.tobytes() == posed.min(axis=0).tobytes()
            assert hi.tobytes() == posed.max(axis=0).tobytes()
            assert surf.vertices.tobytes() == posed.tobytes()

    @pytest.mark.parametrize("twin", ["cylinder", "wedge"])
    def test_distances_are_the_trees_own(self, twin):
        # the cache measures norm(q - data[idx]) itself; on the twins' data
        # that is the tree's own distance, bit for bit
        recon, scan, cam, _ = self.scene(twin, 0)
        q = partial_view(recon, cam).points
        d_ref, idx_ref = cKDTree(scan.points).query(q)
        assert np.array_equal(np.linalg.norm(q - scan.points[idx_ref], axis=1), d_ref)
        d, idx = IncrementalNearest(cKDTree(scan.points)).query(q)
        assert np.array_equal(idx, idx_ref)
        assert np.array_equal(d, d_ref)

    @pytest.mark.parametrize("twin", ["cylinder", "wedge"])
    def test_partial_view_matches_submesh_sampling(self, twin):
        # sampling each subdivision count's triangles straight from their
        # corners gives the samples, and the view, of a mesh built per count
        recon, _, cam, _ = self.scene(twin, 0)
        got, want = partial_view(recon, cam), submesh_partial_view(recon, cam)
        assert len(got.points) > 1000
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.normals, want.normals)


def submesh_partial_view(mesh, camera):
    """``partial_view`` as it was: a ``SurfaceMesh`` built over each
    subdivision count's triangles and sampled by ``surface_sample_points``."""
    tv = mesh.vertices[mesh.triangles]
    face_n = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
    norm = np.linalg.norm(face_n, axis=1, keepdims=True)
    face_n = np.divide(face_n, norm, out=np.zeros_like(face_n), where=norm > 0)
    uv = camera.project(tv.reshape(-1, 3))[0].reshape(-1, 3, 2)
    edge_px = np.concatenate([np.linalg.norm(uv[:, 1] - uv[:, 0], axis=1),
                              np.linalg.norm(uv[:, 2] - uv[:, 1], axis=1),
                              np.linalg.norm(uv[:, 0] - uv[:, 2], axis=1)])
    edge_px = edge_px.reshape(3, -1).max(axis=0)
    n_sub = np.clip(np.ceil(edge_px).astype(int), 1, 128)
    samples, normals = [], []
    for n in np.unique(n_sub):
        sel = n_sub == n
        samples.append(surface_sample_points(SurfaceMesh(mesh.vertices, mesh.triangles[sel]),
                                             density=int(n)))
        normals.append(np.repeat(face_n[sel], (n + 1) * (n + 2) // 2, axis=0))
    pts, nrm = np.concatenate(samples), np.concatenate(normals)
    px = np.floor(camera.project(pts)[0]).astype(np.int64)
    ok = (px[:, 0] >= 0) & (px[:, 0] < camera.width) & (px[:, 1] >= 0) & (px[:, 1] < camera.height)
    pts, nrm, px = pts[ok], nrm[ok], px[ok]
    pixel_id = px[:, 1] * camera.width + px[:, 0]
    order = np.lexsort((np.linalg.norm(pts, axis=1), pixel_id))
    first = np.ones(len(order), dtype=bool)
    first[1:] = pixel_id[order][1:] != pixel_id[order][:-1]
    keep = order[first]
    return PointCloud(pts[keep], normals=nrm[keep])


def uncached_icp_align(source, target, with_scale=False, max_iters=50, tol=1e-6,
                       reject_factor=3.0):
    """Reference: the ICP loop as it was before the certified cache, with
    two fresh tree searches per pass."""
    src = source.points
    dst = target.points
    plane = source.normals is not None and not with_scale
    dst_tree = cKDTree(dst)
    src_tree = cKDTree(src)
    r, t, s = np.eye(3), np.zeros(3), 1.0

    def correspondences(rot, tra, sca):
        moved = sca * (src @ rot.T) + tra
        d_fwd, idx_fwd = dst_tree.query(moved)
        _, idx_rev = src_tree.query(((dst - tra) @ rot) / sca)
        matched = sca * src_tree.data[idx_rev] @ rot.T + tra
        d_rev = np.linalg.norm(dst - matched, axis=1)
        pair_idx = np.concatenate([np.arange(len(src)), idx_rev])
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
        else:
            inlier = np.ones(len(d), dtype=bool)
        if inlier.sum() < 3:
            raise CorrespondenceError("fewer than 3 inlier correspondences")
        fit_idx = pair_idx[inlier]
        if plane:
            r, t = point_to_plane_step(src[fit_idx], pair_dst[inlier],
                                       source.normals[fit_idx], r, t)
        else:
            r, t, s = umeyama_alignment(src[fit_idx], pair_dst[inlier], with_scale)
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
    return ICPResult(r, t, s, rms, iters, history, stop)


class TestChamfer:
    def test_zero_for_identical(self):
        cube = _hull_mesh(box_points((0.04, 0.04, 0.04)))
        d = chamfer_distance(cube, cube, n=5000, seed=1)
        assert d <= 1e-3  # sampling noise only

    def test_detects_offset(self):
        cube = _hull_mesh(box_points((0.04, 0.04, 0.04)))
        moved = SurfaceMesh(cube.vertices + np.array([0.02, 0.0, 0.0]), cube.triangles)
        d = chamfer_distance(cube, moved, n=2000, seed=1)
        assert d > 0.005


class TestCloudIO:
    def test_ply_roundtrip(self, tmp_path, rng):
        pts = rng.normal(size=(50, 3))
        path = tmp_path / "cloud.ply"
        save_point_cloud(path, pts)
        loaded = load_point_cloud(path)
        assert np.allclose(loaded.points, pts)

    def test_csv_roundtrip(self, tmp_path, rng):
        pts = rng.normal(size=(50, 3))
        path = tmp_path / "cloud.csv"
        save_point_cloud(path, pts)
        loaded = load_point_cloud(path)
        assert np.allclose(loaded.points, pts)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.empty((0, 3)))
