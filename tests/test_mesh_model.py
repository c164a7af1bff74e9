import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finray.fixtures import ShapeSpec, box_points, icosphere, make_object_mesh, _hull_mesh
from finray import mesh_model
from finray.mesh_calibration import ensure_watertight
from finray.mesh_model import (
    ContainmentGrid,
    DeformableSurface,
    DeformedState,
    MeshError,
    RigidSurface,
    SurfaceMesh,
    TetMesh,
    TriangleBVH,
    WatertightError,
    closest_point_on_triangles,
    enclosed_volume,
    extract_surface,
    intersect_approx,
    is_watertight,
    load_obj,
    load_off,
    point_inside,
    project_to_inner_surface,
    sample_lattice,
    save_obj,
    save_off,
    surface_sample_points,
    tet_volumes,
)


def unit_cube(center=(0.0, 0.0, 0.0), size=1.0):
    return _hull_mesh(box_points((size, size, size)) + np.asarray(center))


def single_tet():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    tets = np.array([[0, 1, 2, 3]])
    return TetMesh(verts, tets, np.array([0]), np.array([3]))


class TestTetMesh:
    def test_rejects_inverted_tet(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]])
        with pytest.raises(MeshError):
            TetMesh(verts, np.array([[0, 1, 2, 3]]), np.array([0]), np.array([3]))

    def test_rejects_overlapping_sets(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        with pytest.raises(MeshError):
            TetMesh(verts, np.array([[0, 1, 2, 3]]), np.array([0]), np.array([0, 3]))

    def test_rejects_bad_index(self):
        verts = np.eye(3)
        with pytest.raises(MeshError):
            TetMesh(verts, np.array([[0, 1, 2, 5]]), np.array([0]), np.array([1]))


class TestExtractSurface:
    def test_single_tet_surface(self):
        mesh = single_tet()
        surf = extract_surface(mesh)
        assert len(surf.triangles) == 4
        assert surf.watertight
        vol = enclosed_volume(surf.vertices, surf.triangles)
        assert vol == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_jaw_volume_identity(self, jaw):
        surf = jaw.mesh.surface()
        vol_s = enclosed_volume(surf.vertices, surf.triangles)
        vol_t = tet_volumes(jaw.mesh.vertices, jaw.mesh.tets).sum()
        assert abs(vol_s - vol_t) <= 1e-9 * vol_t

    def test_deformed_index_alignment(self, jaw):
        disp = np.zeros_like(jaw.mesh.vertices)
        disp[:, 0] = 1e-3 * np.arange(len(disp))
        state = DeformedState(disp)
        surf = extract_surface(jaw.mesh, state)
        k = int(jaw.candidate_ids[7])
        assert np.array_equal(surf.vertices[k], jaw.mesh.vertices[k] + disp[k])

    def test_mismatched_state_length(self, jaw):
        with pytest.raises(MeshError):
            extract_surface(jaw.mesh, DeformedState(np.zeros((10, 3))))


class TestPointInside:
    def test_cube_center(self):
        cube = unit_cube()
        assert point_inside(cube, np.array([0.0, 0.0, 0.0])) is True

    def test_cube_outside(self):
        cube = unit_cube()
        assert point_inside(cube, np.array([2.0, 0.0, 0.0])) is False

    def test_sphere_oracle(self, rng):
        # analytic oracle: containment in the icosphere agrees with the
        # radius sign away from the surface shell
        sphere = icosphere(3)
        assert len(sphere.triangles) == 1280
        pts = rng.normal(size=(1000, 3))
        r = np.linalg.norm(pts, axis=1)
        inside = point_inside(sphere, pts)
        clear = (r < 0.995) | (r > 1.005)
        assert np.all(inside[clear] == (r[clear] < 1.0))

    def test_orientation_flip_invariance(self, rng):
        sphere = icosphere(2)
        flipped = SurfaceMesh(sphere.vertices, sphere.triangles[:, [0, 2, 1]])
        pts = rng.normal(size=(200, 3)) * 0.8
        assert np.array_equal(point_inside(sphere, pts), point_inside(flipped, pts))

    def test_requires_watertight(self):
        open_mesh = SurfaceMesh(np.eye(3), np.array([[0, 1, 2]]))
        assert not open_mesh.watertight
        with pytest.raises(WatertightError):
            point_inside(open_mesh, np.zeros(3))


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def full_lattice_intersection(jaw, twin, density):
    """Reference for intersect_approx: every lattice sample of the jaw,
    culled to the mutual box, each tested on its own against the posed
    twin mesh."""
    lo_g, hi_g = jaw.bounds()
    lo_o, hi_o = twin.bounds()
    if np.any(lo_g > hi_o) or np.any(lo_o > hi_g):
        return np.empty((0, 3))
    box_lo = np.maximum(lo_g, lo_o) - 1e-12
    box_hi = np.minimum(hi_g, hi_o) + 1e-12
    s = surface_sample_points(jaw, density)
    s = s[np.all((s >= box_lo) & (s <= box_hi), axis=1)]
    if len(s) == 0:
        return s
    ins, on = point_inside(twin, s, return_on_surface=True)
    return s[ins | on]


class TestIntersectApprox:
    def test_disjoint(self):
        a = unit_cube()
        b = RigidSurface(unit_cube(center=(3.0, 0.0, 0.0)))
        assert intersect_approx(a, b).is_empty

    def test_coincident_centroid(self):
        a = unit_cube()
        b = RigidSurface(unit_cube())
        res = intersect_approx(a, b)
        assert not res.is_empty
        assert np.abs(res.centroid).max() < 1e-9

    def test_thin_overlap_centroid_in_box(self):
        # cube [-0.5,0.5]^3 against a slab pushed in so the analytic
        # overlap is x in [0.40, 0.50]
        cube = unit_cube()
        slab = RigidSurface(_hull_mesh(box_points((1.0, 2.0, 2.0)) + np.array([0.9, 0.0, 0.0])))
        res = intersect_approx(cube, slab, density=4)
        assert not res.is_empty
        assert 0.40 - 1e-9 <= res.centroid[0] <= 0.50 + 1e-9
        assert abs(res.centroid[1]) <= 0.5
        assert abs(res.centroid[2]) <= 0.5

    def test_sample_count_scaling(self):
        a = unit_cube()
        n1 = len(surface_sample_points(a, 1))
        n3 = len(surface_sample_points(a, 3))
        assert n1 == 12 * 3
        assert n3 == 12 * 10

    def test_matches_full_lattice(self, jaw, compliance):
        rng = np.random.default_rng(21)
        jaw_template = jaw.mesh.surface()
        objects = [make_object_mesh(ShapeSpec.cylinder(0.025)),
                   make_object_mesh(ShapeSpec.wedge()),
                   make_object_mesh(ShapeSpec.cuboid((0.03, 0.08, 0.03)))]
        jaw_surface = DeformableSurface(jaw_template)
        twins = [RigidSurface(o) for o in objects]
        face_x = jaw.mesh.vertices[:, 0].max()
        # overlapping poses per kind: [empty, non-empty]
        outcomes = {"disjoint": [0, 0], "touching": [0, 0], "deep": [0, 0]}
        for k in range(200):
            obj, twin = objects[k % 3], twins[k % 3]
            kind = list(outcomes)[(k // 3) % 3]
            gap = {"disjoint": rng.uniform(1e-3, 1e-2),
                   "touching": rng.uniform(-2e-4, 2e-4),
                   "deep": -rng.uniform(2e-3, 1e-2)}[kind]
            rotation = random_rotation(rng)
            rotated = obj.vertices @ rotation.T
            centre = rotated.mean(axis=0)
            twin.place(rotation, np.array([face_x + gap - rotated[:, 0].min() + centre[0],
                                           rng.uniform(-0.01, 0.01),
                                           rng.uniform(0.01, 0.07)]) - centre)
            c = int(rng.integers(compliance.n_candidates))
            deformed = jaw.mesh.vertices + compliance.fields[c] @ rng.normal(scale=5.0, size=3)
            density = 2 + k % 2
            jaw_surface.update(deformed)
            deformed_mesh = SurfaceMesh(deformed, jaw_template.triangles)
            want = full_lattice_intersection(deformed_mesh,
                                             SurfaceMesh(twin.vertices, obj.triangles), density)
            for gripper in (deformed_mesh, jaw_surface):
                got = intersect_approx(gripper, twin, density=density, keep_points=True)
                assert got.sample_count == len(want)
                if len(want):
                    assert np.array_equal(got.centroid, want.mean(axis=0))
                    assert np.array_equal(got.points, want)
                else:
                    assert got.centroid is None
            outcomes[kind][len(want) > 0] += 1
        assert outcomes["disjoint"][1] == 0
        assert min(outcomes["touching"]) > 0
        assert outcomes["deep"][1] > 3 * outcomes["deep"][0]


class TestSampleLattice:
    """The topological sample ids against the lattice they stand for:
    every slot's representative has that slot's coordinates bit for bit,
    and there are as many ids as distinct sample coordinates."""

    def meshes(self, jaw, compliance):
        rng = np.random.default_rng(8)
        template = jaw.mesh.surface()
        deformed = jaw.mesh.vertices + compliance.fields[3] @ rng.normal(scale=20.0, size=3)
        wedge = subdivided(subdivided(subdivided(make_object_mesh(ShapeSpec.wedge()))))
        # a reconstruction left open, closed by the alpha wrap
        twin = ensure_watertight(SurfaceMesh(wedge.vertices, wedge.triangles[:-2]))
        return [SurfaceMesh(deformed, template.triangles), wedge, twin]

    def test_representatives_match_every_slot(self, jaw, compliance):
        for mesh in self.meshes(jaw, compliance):
            assert mesh.watertight
            for density in (1, 2, 3, 4):
                samples = surface_sample_points(mesh, density)
                lattice = sample_lattice(mesh.triangles, density)
                rep = lattice.points(mesh.vertices, np.arange(lattice.n_ids))
                assert lattice.slot_ids.size == len(samples)
                assert np.array_equal(rep[lattice.slot_ids.ravel()].view(np.int64),
                                      samples.view(np.int64))
                assert lattice.n_ids == len(np.unique(samples, axis=0))

    def test_held_per_mesh(self, jaw):
        # the surfaces made from a mesh share its table
        template = jaw.mesh.surface()
        held = template.lattice(2)
        assert template.lattice(2) is held
        assert DeformableSurface(template).lattice(2) is held
        assert template.lattice(3) is not held
        built = sample_lattice(template.triangles, 2)
        for name in ("slot_ids", "corners", "weights"):
            assert np.array_equal(getattr(built, name), getattr(held, name))
        with pytest.raises(ValueError):
            sample_lattice(template.triangles, 0)


class TestProjectToInnerSurface:
    def test_idempotent(self, jaw):
        p = jaw.candidate_positions[5]
        q = project_to_inner_surface(jaw.mesh, p)
        assert np.linalg.norm(q - p) <= 1e-12

    def test_normal_offset(self, jaw):
        p = jaw.candidate_positions[5] + np.array([0.005, 0.0, 0.0])
        q = project_to_inner_surface(jaw.mesh, p)
        assert np.linalg.norm(q - jaw.candidate_positions[5]) <= 1e-12
        assert np.linalg.norm(p - q) == pytest.approx(0.005, rel=1e-9)

    def test_interior_point_brute_force(self, jaw, rng):
        # dense barycentric sampling as the independent closest-point oracle
        tris = jaw.mesh.inner_triangles()
        tv = jaw.mesh.vertices[tris]
        n = 40
        ij = np.array([(i, j) for i in range(n + 1) for j in range(n + 1 - i)])
        bary = np.column_stack([ij[:, 0], ij[:, 1], n - ij[:, 0] - ij[:, 1]]) / n
        dense = np.einsum("sb,tbx->tsx", bary, tv).reshape(-1, 3)
        max_edge = max(np.linalg.norm(tv[:, a] - tv[:, b], axis=1).max()
                       for a, b in ((0, 1), (1, 2), (2, 0)))
        for _ in range(10):
            p = jaw.mesh.vertices.mean(axis=0) + rng.normal(scale=0.01, size=3)
            q = project_to_inner_surface(jaw.mesh, p)
            d_impl = np.linalg.norm(p - q)
            d_oracle = np.linalg.norm(dense - p, axis=1).min()
            assert d_impl <= d_oracle + 1e-12
            assert d_oracle - d_impl <= 2.0 * max_edge / n

    def test_result_on_surface(self, jaw, rng):
        tris = jaw.mesh.inner_triangles()
        for _ in range(5):
            p = rng.normal(scale=0.02, size=3) + np.array([0.0, 0.0, 0.04])
            q = project_to_inner_surface(jaw.mesh, p)
            _, d2 = closest_point_on_triangles(q, jaw.mesh.vertices[tris])
            assert np.sqrt(d2.min()) <= 1e-12

    def test_empty_inner_surface(self):
        mesh = single_tet()
        bare = TetMesh(mesh.vertices, mesh.tets, np.array([0]), np.array([], dtype=int))
        with pytest.raises(MeshError):
            project_to_inner_surface(bare, np.zeros(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_closest_point_never_farther_than_vertices(seed):
    rng = np.random.default_rng(seed)
    tri = rng.normal(size=(1, 3, 3))
    p = rng.normal(size=3)
    q, d2 = closest_point_on_triangles(p, tri)
    d_verts = np.linalg.norm(tri[0] - p, axis=1).min()
    assert np.sqrt(d2[0]) <= d_verts + 1e-12


class TestDeformableSurface:
    def test_tracks_updates(self, jaw, rng):
        surf = DeformableSurface(jaw.mesh.surface())
        # half a band thickness behind the inner contact face
        probe = jaw.candidate_positions[7] - np.array(
            [0.5 * jaw.params.band_thickness, 0.0, 0.0])
        assert point_inside(surf, probe)
        shift = jaw.mesh.vertices + np.array([0.05, 0.0, 0.0])
        surf.update(shift)
        assert not point_inside(surf, probe)
        assert point_inside(surf, probe + np.array([0.05, 0.0, 0.0]))

    def test_bounds_equal_root_box(self, jaw, compliance, rng):
        surf = DeformableSurface(jaw.mesh.surface())
        for c in range(compliance.n_candidates):
            surf.update(jaw.mesh.vertices + compliance.fields[c] @ rng.normal(scale=30.0, size=3))
            lo, hi = surf.bounds()
            bvh = surf.bvh()
            assert np.array_equal(lo, bvh.node_min[0])
            assert np.array_equal(hi, bvh.node_max[0])

    def test_refit_on_first_query_only(self, jaw, monkeypatch):
        surf = DeformableSurface(jaw.mesh.surface())
        calls = []
        refit = TriangleBVH.refit
        monkeypatch.setattr(TriangleBVH, "refit",
                            lambda self, v: calls.append(self) or refit(self, v))
        surf.update(jaw.mesh.vertices + 1e-3)
        surf.update(jaw.mesh.vertices + 2e-3)
        assert calls == []
        probe = jaw.mesh.vertices.mean(axis=0) + 2e-3
        point_inside(surf, probe)
        point_inside(surf, probe)
        assert len(calls) == 1
        assert np.array_equal(surf.bvh().node_min[0], jaw.mesh.vertices.min(axis=0) + 2e-3)


class TestRigidSurface:
    """The twin's grid answers against ray parity on the posed mesh: every
    object shape and a 3x-subdivided wedge under random poses, queried at
    points spread over the padded box (most answered by a grid
    component), on the surface, and just off it along face normals."""

    def test_matches_parity_on_posed_mesh(self):
        rng = np.random.default_rng(5)
        wedge = make_object_mesh(ShapeSpec.wedge())
        meshes = [make_object_mesh(ShapeSpec.cylinder(0.025)),
                  make_object_mesh(ShapeSpec.cuboid((0.03, 0.08, 0.03))),
                  wedge, subdivided(subdivided(subdivided(wedge)))]
        for mesh in meshes:
            twin = RigidSurface(mesh)
            for _ in range(5):
                twin.place(random_rotation(rng), rng.normal(scale=0.01, size=3))
                posed = SurfaceMesh(twin.vertices, mesh.triangles)
                lo, hi = posed.bounds()
                pad = 0.2 * (hi - lo)
                tv = posed.vertices[posed.triangles]
                tri = rng.integers(len(tv), size=1000)
                bary = rng.dirichlet(np.ones(3), size=1000)
                normals = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])[tri]
                normals /= np.linalg.norm(normals, axis=1, keepdims=True)
                offsets = rng.choice([-1.0, 1.0], size=1000) * 10.0 ** rng.uniform(-10, -6, 1000)
                points = np.concatenate([
                    rng.uniform(lo - pad, hi + pad, (2000, 3)),
                    surface_sample_points(posed, 2),
                    np.einsum("pb,pbx->px", bary, tv[tri]) + offsets[:, None] * normals,
                ])
                ins, on = point_inside(posed, points, return_on_surface=True)
                assert np.array_equal(twin.contains(points), ins | on)

    def test_requires_watertight(self):
        with pytest.raises(WatertightError):
            RigidSurface(SurfaceMesh(np.eye(3), np.array([[0, 1, 2]])))


class TestCellLocalParity:
    """Points in the grid's touched cells against ray parity on the posed
    mesh: the jaw's lattice samples with twins placed in contact with it,
    points 1e-10 to 1e-6 m off the twins' faces along their normals, and
    points whose segment from the cell centre passes through an edge.
    Some of these take the ray-cast fallback, which must give the same
    answer; the rest take the cell centre's answer and the segment's
    crossings."""

    def posed_queries(self, jaw, compliance, rng):
        template = jaw.mesh.surface()
        face_x = jaw.mesh.vertices[:, 0].max()
        wedge = make_object_mesh(ShapeSpec.wedge())
        meshes = [make_object_mesh(ShapeSpec.cylinder(0.025)),
                  subdivided(subdivided(subdivided(wedge))),
                  ensure_watertight(SurfaceMesh(subdivided(wedge).vertices,
                                                subdivided(wedge).triangles[:-2]))]
        for k, mesh in enumerate(meshes):
            twin = RigidSurface(mesh)
            for _ in range(4):
                rotation = random_rotation(rng)
                rotated = mesh.vertices @ rotation.T
                centre = rotated.mean(axis=0)
                gap = -rng.uniform(0.0, 4e-3)
                twin.place(rotation, np.array([face_x + gap - rotated[:, 0].min() + centre[0],
                                               rng.uniform(-0.01, 0.01),
                                               rng.uniform(0.02, 0.06)]) - centre)
                c = int(rng.integers(compliance.n_candidates))
                deformed = jaw.mesh.vertices + compliance.fields[c] @ rng.normal(scale=5.0, size=3)
                posed = SurfaceMesh(twin.vertices, mesh.triangles)
                tv = posed.vertices[posed.triangles]
                tri = rng.integers(len(tv), size=3000)
                bary = rng.dirichlet(np.ones(3), size=3000)
                normals = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])[tri]
                normals /= np.linalg.norm(normals, axis=1, keepdims=True)
                offsets = rng.choice([-1.0, 1.0], size=3000) * 10.0 ** rng.uniform(-10, -6, 3000)
                # just past a point of an edge, seen from its cell's centre:
                # the segment from the centre grazes that edge
                grid = twin.grid()
                ends = mesh.vertices[mesh.triangles[tri[:1000]]][:, :2]
                on_edge = ends[:, 0] + rng.uniform(0.1, 0.9, (1000, 1)) * (ends[:, 1] - ends[:, 0])
                away = on_edge - grid._centre(grid._cell_index(on_edge))
                past = on_edge + 1e-3 * grid.cell * away / np.linalg.norm(away, axis=1, keepdims=True)
                points = np.concatenate([
                    surface_sample_points(SurfaceMesh(deformed, template.triangles), 2 + k % 2),
                    np.einsum("pb,pbx->px", bary, tv[tri]) + offsets[:, None] * normals,
                    past @ rotation.T + twin.translation,
                ])
                yield mesh, twin, posed, points

    def test_matches_parity_in_touched_cells(self, jaw, compliance, fresh_caches):
        rng = np.random.default_rng(17)
        grids, touched = set(), 0
        for mesh, twin, posed, points in self.posed_queries(jaw, compliance, rng):
            grid = twin.grid()
            local = (points - twin.translation) @ twin.rotation
            idx = grid._cell_index(local)
            on_grid = np.all((idx >= 0) & (idx < grid.shape), axis=1)
            touched += int((grid.state[tuple(idx[on_grid].T)] == 2).sum())
            ins, on = point_inside(posed, points, return_on_surface=True)
            assert np.array_equal(twin.contains(points), ins | on)
            grids.add(grid)
        assert touched > 30000
        # the fallback was taken (a quarter of the offsets are under
        # _GRAZE_EPS), and most points were answered from cell references
        assert sum(g.fallback_casts for g in grids) > 1000
        assert sum(g.fallback_casts for g in grids) < touched / 2
        assert sum(g.reference_casts for g in grids) > 1000

    def test_centres_near_a_plane_take_no_reference(self, fresh_caches):
        # a cube, and beside it in y a box whose two x faces lie 3e-5 and
        # 1e-5 cell sizes off the centres of two columns of cells: every
        # cell of those columns that the faces cross keeps no reference,
        # and all its points are ray-cast

        def cube_and_box(x_lo, x_hi):
            # the box's y and z extents are fixed and its x faces lie within
            # the cube's, so the grid is the same whatever x_lo and x_hi are
            corners = np.where(box_points((2, 2, 2)) > 0, [x_hi, 0.05, 0.01], [x_lo, 0.03, -0.01])
            cube, box = _hull_mesh(box_points((0.04, 0.04, 0.04))), _hull_mesh(corners)
            return SurfaceMesh(np.concatenate([cube.vertices, box.vertices]),
                               np.concatenate([cube.triangles, box.triangles + 8]))

        probe = ContainmentGrid(cube_and_box(-0.005, 0.005))
        origin, cell = probe.origin, probe.cell
        k_lo, k_hi = (int((x - origin[0]) / cell) for x in (-0.005, 0.005))
        mesh = cube_and_box(origin[0] + (k_lo + 0.5) * cell - 3e-5 * cell,
                            origin[0] + (k_hi + 0.5) * cell + 1e-5 * cell)
        twin = RigidSurface(mesh)
        grid = twin.grid()
        assert np.array_equal(grid.origin, origin) and grid.cell == cell
        ys = origin[1] + (np.arange(grid.shape[1]) + 0.5) * cell
        zs = origin[2] + (np.arange(grid.shape[2]) + 0.5) * cell
        cells = np.array(list(itertools.product(
            (k_lo, k_hi), np.flatnonzero((ys > 0.03) & (ys < 0.05)),
            np.flatnonzero((zs > -0.01) & (zs < 0.01)))))
        assert len(cells) > 500
        assert np.all(grid.state[tuple(cells.T)] == 2)
        rows = grid._rows(cells)
        assert np.all(grid._reference[rows] == mesh_model._NO_REFERENCE)

        rng = np.random.default_rng(29)
        local = grid._centre(np.repeat(cells, 6, axis=0))
        local += rng.uniform(-0.49, 0.49, local.shape) * cell
        # half of them 1e-10 to 1e-6 m off the face's plane
        near = rng.random(len(local)) < 0.5
        plane_x = np.where(cells[:, 0] == k_lo, mesh.vertices[8:, 0].min(),
                           mesh.vertices[8:, 0].max()).repeat(6)
        local[near, 0] = plane_x[near] + (rng.choice([-1.0, 1.0], near.sum())
                                          * 10.0 ** rng.uniform(-10, -6, near.sum()))
        for _ in range(3):
            rotation = random_rotation(rng)
            twin.place(rotation, rng.normal(scale=0.01, size=3))
            posed = SurfaceMesh(twin.vertices, mesh.triangles)
            points = local @ rotation.T + twin.translation
            before = grid.fallback_casts
            ins, on = point_inside(posed, points, return_on_surface=True)
            assert np.array_equal(twin.contains(points), ins | on)
            assert grid.fallback_casts - before == len(points)
            assert 0 < (ins | on).sum() < len(points)
        assert grid.reference_casts == 0
        assert np.all(grid._reference[rows] == mesh_model._NO_REFERENCE)

    def test_independent_of_reference_order(self, jaw, compliance):
        rng = np.random.default_rng(23)
        for mesh, twin, posed, points in itertools.islice(
                self.posed_queries(jaw, compliance, rng), 0, 12, 4):
            local = (points - twin.translation) @ twin.rotation
            directions = rng.normal(size=(4, 3))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            at_once = ContainmentGrid(mesh)
            want = at_once.contains(local, directions)
            # the same points in reversed chunks, on a grid that first cast
            # the references of unrelated cells
            grid = ContainmentGrid(mesh)
            lo, hi = mesh.bounds()
            grid.contains(rng.uniform(lo, hi, (2000, 3)), directions)
            order = rng.permutation(len(local))
            got = np.empty(len(local), dtype=bool)
            for chunk in np.array_split(order, 7)[::-1]:
                got[chunk] = grid.contains(local[chunk], directions)
            assert np.array_equal(got, want)
            cast = (at_once._reference != -1) & (grid._reference != -1)
            assert np.array_equal(at_once._reference[cast], grid._reference[cast])
            assert grid.reference_casts > at_once.reference_casts


def subdivided(mesh):
    """Each triangle split into four at its edge midpoints; the surface
    stays closed and each face gains coplanar neighbours."""
    t = mesh.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    uniq, inverse = np.unique(edges, axis=0, return_inverse=True)
    ab, bc, ca = len(mesh.vertices) + inverse.reshape(3, -1)
    verts = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[uniq[:, 0]]
                                             + mesh.vertices[uniq[:, 1]])])
    a, b, c = t.T
    tris = np.vstack([np.column_stack(f) for f in
                      ((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca))])
    return SurfaceMesh(verts, tris)


def brute_force_mt(vertices, triangles, origins, dirs):
    """Moller-Trumbore of every ray against every triangle, no tree.
    Returns (t, u, v, det_ok) of shape (n_rays, n_triangles)."""
    tv = vertices[triangles]
    v0, e1, e2 = tv[:, 0], tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]
    h = np.cross(dirs[:, None, :], e2[None, :, :])
    a = np.einsum("ij,kij->ki", e1, h)
    scale = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
    det_ok = np.abs(a) > 1e-14 * np.maximum(scale, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(det_ok, 1.0 / a, 0.0)
    srel = origins[:, None, :] - v0[None, :, :]
    u = f * np.einsum("kij,kij->ki", srel, h)
    q = np.cross(srel, e1[None, :, :])
    v = f * np.einsum("kj,kij->ki", dirs, q)
    t = f * np.einsum("ij,kij->ki", e2, q)
    return t, u, v, det_ok


def brute_force_crossings(vertices, triangles, points, direction, eps=1e-9):
    """Returns (counts, suspect over all triangles, suspect over the
    triangles whose own box the ray enters)."""
    dirs = np.broadcast_to(direction, points.shape).copy()
    t, u, v, det_ok = brute_force_mt(vertices, triangles, points, dirs)
    w = 1.0 - u - v
    interior = det_ok & (u > eps) & (v > eps) & (w > eps) & (t > eps)
    on_triangle = (u > -eps) & (v > -eps) & (w > -eps)
    on_edge = np.minimum(np.minimum(np.abs(u), np.abs(v)), np.abs(w)) <= eps
    grazing = (~det_ok) | (on_triangle & ((on_edge & (t > -eps)) | (np.abs(t) <= eps)))
    tv = vertices[triangles]
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (tv.min(axis=1)[None] - points[:, None]) / direction
        t2 = (tv.max(axis=1)[None] - points[:, None]) / direction
    lo = np.fmax.reduce(np.fmin(t1, t2), axis=2)
    hi = np.fmin.reduce(np.fmax(t1, t2), axis=2)
    enters = hi >= np.maximum(lo, 0.0)
    return interior.sum(axis=1), grazing.any(axis=1), (grazing & enters).any(axis=1)


def brute_force_first_hit(vertices, triangles, origins, targets, t_lo, t_hi):
    t, u, v, det_ok = brute_force_mt(vertices, triangles, origins, targets - origins)
    ok = det_ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > t_lo) & (t < t_hi)
    return np.where(ok, t, np.inf).min(axis=1)


class TestBatchedTraversal:
    """The BVH's batched traversal against Moller-Trumbore over all
    triangles, no tree: equal crossing counts and first hits, inf
    included. A ray is also suspect when it runs parallel to a triangle
    it never comes near, but only if that triangle shares a leaf with one
    the ray passes; the tree decides those flags. So the BVH's suspect
    flags lie between the reference's over the triangles whose boxes the
    ray enters and over all triangles, and equal both wherever those
    agree."""

    def states(self, jaw, compliance, rng):
        rest = jaw.mesh.vertices
        triangles = jaw.mesh.surface().triangles
        for _ in range(100):
            c = int(rng.integers(compliance.n_candidates))
            force = rng.normal(scale=20.0, size=3)
            yield rest + compliance.fields[c] @ force, triangles
        wedge = subdivided(subdivided(make_object_mesh(ShapeSpec.wedge())))
        for base in (make_object_mesh(ShapeSpec.cylinder(0.025)), wedge):
            for _ in range(10):
                yield (base.vertices @ random_rotation(rng).T
                       + rng.normal(scale=0.01, size=3)), base.triangles

    def test_matches_brute_force(self, jaw, compliance):
        rng = np.random.default_rng(11)
        hits = suspects = 0
        for vertices, triangles in self.states(jaw, compliance, rng):
            bvh = TriangleBVH(vertices, triangles)
            lo, hi = vertices.min(axis=0), vertices.max(axis=0)
            tv = vertices[triangles]
            probes = np.concatenate([
                rng.uniform(lo, hi, (150, 3)),
                tv[rng.integers(len(tv), size=25), 0],
                0.5 * (tv[:, 0] + tv[:, 1])[rng.integers(len(tv), size=25)],
            ])
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            counts, suspect = bvh.count_crossings(probes, direction)
            want, suspect_all, suspect_near = brute_force_crossings(
                vertices, triangles, probes, direction)
            assert np.array_equal(counts, want)
            assert not np.any(suspect_near & ~suspect)
            assert not np.any(suspect & ~suspect_all)
            assert np.mean(suspect_near == suspect_all) > 0.99
            suspects += int(suspect.sum())

            dirs = rng.normal(size=(150, 3))
            origins = 0.5 * (lo + hi) + 0.1 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
            targets = rng.uniform(lo, hi, (150, 3))
            got = bvh.first_hit_fraction(origins, targets, t_hi=1.0 - 1e-6)
            want = brute_force_first_hit(vertices, triangles, origins, targets,
                                         1e-9, 1.0 - 1e-6)
            assert np.array_equal(got, want)
            hits += int(np.isfinite(got).sum())
        assert hits >= 5000
        assert suspects >= 50 * 100  # the vertex and midpoint probes graze

    def test_partly_filled_leaves(self, jaw):
        # the padding mask is exercised: the jaw's leaves hold 8, 9 or 16
        bvh = jaw.mesh.surface().bvh()
        counts = bvh.node_count[bvh.node_count > 0]
        assert (counts < bvh.leaf_size).any() and (counts == bvh.leaf_size).any()

    def test_origin_on_far_plane_not_suspect(self):
        # an origin within eps of a triangle's plane grazes only when its
        # barycentrics are in range, i.e. it lies on the triangle itself;
        # both rays below enter the triangle's box, so the leaf is visited
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        bvh = TriangleBVH(tri, np.array([[0, 1, 2]]))
        direction = np.array([0.0, 0.0, 1.0])
        points = np.array([[0.9, 0.9, -1e-12], [0.2, 0.3, -1e-12]])
        counts, suspect = bvh.count_crossings(points, direction)
        assert counts.tolist() == [0, 0]
        assert suspect.tolist() == [False, True]
        want, suspect_all, _ = brute_force_crossings(tri, np.array([[0, 1, 2]]),
                                                     points, direction)
        assert np.array_equal(counts, want)
        assert np.array_equal(suspect, suspect_all)


class TestMeshIO:
    def test_off_roundtrip_with_tets(self, tmp_path, jaw):
        path = tmp_path / "jaw.off"
        surf = jaw.mesh.surface()
        save_off(path, jaw.mesh.vertices, surf.triangles, jaw.mesh.tets)
        v, t, tets = load_off(path)
        assert np.array_equal(v, jaw.mesh.vertices)
        assert np.array_equal(t, surf.triangles)
        assert np.array_equal(tets, jaw.mesh.tets)

    def test_obj_roundtrip(self, tmp_path):
        cube = unit_cube()
        path = tmp_path / "cube.obj"
        save_obj(path, cube.vertices, cube.triangles)
        v, t = load_obj(path)
        assert np.array_equal(v, cube.vertices)
        assert np.array_equal(t, cube.triangles)

    def test_watertight_check(self):
        cube = unit_cube()
        assert is_watertight(cube.triangles)
        assert not is_watertight(cube.triangles[:-1])


class TestObjectMeshes:
    @pytest.mark.parametrize("spec,vol", [
        (ShapeSpec.cylinder(0.015, 0.08), np.pi * 0.0075 ** 2 * 0.08),
        (ShapeSpec.cuboid((0.03, 0.08, 0.03)), 0.03 * 0.08 * 0.03),
    ])
    def test_watertight_and_volume(self, spec, vol):
        mesh = make_object_mesh(spec)
        assert mesh.watertight
        v = enclosed_volume(mesh.vertices, mesh.triangles)
        assert v == pytest.approx(vol, rel=0.05)

    def test_wedge_watertight(self):
        mesh = make_object_mesh(ShapeSpec.wedge())
        assert mesh.watertight
        assert enclosed_volume(mesh.vertices, mesh.triangles) > 0
