import contextlib
import itertools
import types

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finray.fixtures import ShapeSpec, box_points, icosphere, make_object_mesh, _hull_mesh
from finray import mesh_model
from finray.mesh_calibration import ensure_watertight
from finray.mesh_model import (
    ContainmentGrid,
    DeformableSurface,
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
        jaw_template = jaw.mesh.surface()
        jaw_surface = DeformableSurface(jaw_template)
        # overlapping poses per kind: [empty, non-empty]
        outcomes = {kind: [0, 0] for kind in POSE_KINDS}
        for kind, twin, deformed, density in contact_poses(
                jaw, compliance, lattice_objects(), 200, np.random.default_rng(21)):
            jaw_surface.update(deformed)
            deformed_mesh = SurfaceMesh(deformed, jaw_template.triangles)
            want = full_lattice_intersection(deformed_mesh,
                                             SurfaceMesh(twin.vertices, twin.triangles), density)
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


POSE_KINDS = ("disjoint", "touching", "deep")


def lattice_objects():
    return [make_object_mesh(ShapeSpec.cylinder(0.025)),
            make_object_mesh(ShapeSpec.wedge()),
            make_object_mesh(ShapeSpec.cuboid((0.03, 0.08, 0.03)))]


def contact_poses(jaw, compliance, objects, n, rng):
    """``n`` placements of twins of ``objects`` at the jaw's inner face,
    the objects in turn and each kind of ``POSE_KINDS`` for a round of
    them, against the jaw deformed by a random load at a random
    candidate: yields (kind, placed twin, deformed vertices, lattice
    density)."""
    twins = [RigidSurface(o) for o in objects]
    face_x = jaw.mesh.vertices[:, 0].max()
    for k in range(n):
        obj, twin = objects[k % len(objects)], twins[k % len(objects)]
        kind = POSE_KINDS[(k // len(objects)) % 3]
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
        yield kind, twin, deformed, 2 + k % 2


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

    def test_refit_scale_is_the_norm_product(self, jaw, compliance, rng):
        # ``refit``'s column-wise row norms give ``np.linalg.norm``'s bits,
        # on the jaw's refit triangles and on random (1056, 3) arrays
        surf = DeformableSurface(jaw.mesh.surface())
        for c in range(compliance.n_candidates):
            surf.update(jaw.mesh.vertices + compliance.fields[c] @ rng.normal(scale=30.0, size=3))
            bvh = surf.bvh()
            want = np.linalg.norm(bvh._e1, axis=1) * np.linalg.norm(bvh._e2, axis=1)
            assert bvh._scale.tobytes() == want.tobytes()
        for _ in range(200):
            v = rng.normal(size=(1056, 3)) * 10.0 ** rng.uniform(-4, 1, size=(1056, 1))
            assert mesh_model._row_norms(v).tobytes() == np.linalg.norm(v, axis=1).tobytes()

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


# the distance from the surface within which the twin's answer may differ
# from ray parity on the posed mesh: both turn on rounding there (the
# largest such distance measured is 4.1e-10 m)
POSED_BAND = 1e-9


@contextlib.contextmanager
def counted_fallback():
    """Counts, in ``.points``, the points passed to
    ``mesh_model.point_inside`` within the block, wrapped as perfbench's
    tracer wraps it; a built grid's query calls it only for the points its
    crossings leave in doubt. This module's own ``point_inside`` calls
    reach the unwrapped function and are not counted."""
    tally = types.SimpleNamespace(points=0)
    inner = mesh_model.point_inside

    def counting(mesh, points, **kw):
        tally.points += len(points)
        return inner(mesh, points, **kw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mesh_model, "point_inside", counting)
        yield tally


def assert_twin_contract(twin, points):
    """``twin.contains`` is, bit for bit, ``ins | on`` of ``point_inside``
    on the template at the points mapped into its frame; where it differs
    from ray parity on the posed mesh the point lies within ``POSED_BAND``
    of the surface. Returns the answers."""
    got = twin.contains(points)
    ins, on = point_inside(twin.template, (points - twin.translation) @ twin.rotation,
                           return_on_surface=True)
    assert np.array_equal(got, ins | on)
    posed = SurfaceMesh(twin.vertices, twin.triangles)
    ins, on = point_inside(posed, points, return_on_surface=True)
    tv = posed.vertices[posed.triangles]
    for k in np.flatnonzero(got != (ins | on)):
        assert closest_point_on_triangles(points[k], tv)[1].min() <= POSED_BAND ** 2
    return got


def off_face_points(rng, tv, n):
    """``n`` points 1e-10 to 1e-6 m off random faces of a (t, 3, 3) array
    along their normals, either side, and the faces they are off."""
    tri = rng.integers(len(tv), size=n)
    bary = rng.dirichlet(np.ones(3), size=n)
    normals = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])[tri]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-10, -6, n)
    return np.einsum("pb,pbx->px", bary, tv[tri]) + offsets[:, None] * normals, tri


def edge_graze_points(twin, tri, fractions):
    """Posed points just past the point at ``fractions`` along the first
    edge of each triangle ``tri``, seen from the centre of that point's
    grid cell: the segment from the centre grazes the edge."""
    grid, mesh = twin.grid(), twin.template
    ends = mesh.vertices[mesh.triangles[tri]][:, :2]
    on_edge = ends[:, 0] + fractions * (ends[:, 1] - ends[:, 0])
    away = on_edge - grid._centre(grid._cell_index(on_edge))
    past = on_edge + 1e-3 * grid.cell * away / np.linalg.norm(away, axis=1, keepdims=True)
    return past @ twin.rotation.T + twin.translation


class TestRigidSurface:
    """The twin's grid against ray parity on its template (exactly) and on
    the posed mesh (outside ``POSED_BAND``): every object shape and a
    3x-subdivided wedge under random poses, queried at points spread over
    the padded box (most answered by a grid component), on the surface,
    just off it along face normals, and past edges."""

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
                off_face, tri = off_face_points(rng, posed.vertices[posed.triangles], 1000)
                points = np.concatenate([
                    rng.uniform(lo - pad, hi + pad, (2000, 3)),
                    surface_sample_points(posed, 2),
                    off_face,
                    edge_graze_points(twin, tri[:300], np.linspace(0.1, 0.9, 300)[:, None]),
                ])
                assert_twin_contract(twin, points)

    def test_requires_watertight(self):
        with pytest.raises(WatertightError):
            RigidSurface(SurfaceMesh(np.eye(3), np.array([[0, 1, 2]])))


class TestCellLocalParity:
    """Points in the grid's touched cells against ray parity on the
    template (exactly) and on the posed mesh (outside ``POSED_BAND``): the
    jaw's lattice samples with twins placed in contact with it, points
    1e-10 to 1e-6 m off the twins' faces along their normals, and points
    just past the twins' edges. Some of these take the ray-cast fallback,
    which must give the same answer; the rest take the parity of their +x
    rays' crossings."""

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
                off_face, tri = off_face_points(rng, twin.vertices[mesh.triangles], 3000)
                points = np.concatenate([
                    surface_sample_points(SurfaceMesh(deformed, template.triangles), 2 + k % 2),
                    off_face,
                    edge_graze_points(twin, tri[:1000], rng.uniform(0.1, 0.9, (1000, 1))),
                ])
                yield mesh, twin, points

    def test_matches_parity_in_touched_cells(self, jaw, compliance, fresh_caches):
        rng = np.random.default_rng(17)
        cast, touched = 0, 0
        for mesh, twin, points in self.posed_queries(jaw, compliance, rng):
            grid = twin.grid()
            local = (points - twin.translation) @ twin.rotation
            idx = grid._cell_index(local)
            on_grid = np.all((idx >= 0) & (idx < grid.shape), axis=1)
            touched += int((grid._rows(idx[on_grid]) >= 0).sum())
            with counted_fallback() as fallback:
                assert_twin_contract(twin, points)
            cast += fallback.points
        assert touched > 30000
        # the fallback was taken (a quarter of the offsets are under
        # _GRAZE_EPS), and most points were answered by their crossings
        assert 1000 < cast < touched / 2

    def test_points_near_faces_on_cell_centres(self):
        # a cube, and beside it in y a box whose two x faces lie 3e-5 and
        # 1e-5 cell sizes off the centres of two columns of cells: the
        # faces the +x rays cross. Points spread over those cells, half of
        # them 1e-10 to 1e-6 m off a face's plane; those within _GRAZE_EPS
        # of it are ray-cast and the rest are answered by their crossings

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
        assert np.all(grid._rows(cells) >= 0)

        rng = np.random.default_rng(29)
        local = grid._centre(np.repeat(cells, 6, axis=0))
        local += rng.uniform(-0.49, 0.49, local.shape) * cell
        near = rng.random(len(local)) < 0.5
        plane_x = np.where(cells[:, 0] == k_lo, mesh.vertices[8:, 0].min(),
                           mesh.vertices[8:, 0].max()).repeat(6)
        offset = rng.choice([-1.0, 1.0], near.sum()) * 10.0 ** rng.uniform(-10, -6, near.sum())
        local[near, 0] = plane_x[near] + offset
        eps = mesh_model._GRAZE_EPS
        with counted_fallback() as fallback:
            got = grid.contains(local)
        ins, on = point_inside(mesh, local, return_on_surface=True)
        assert np.array_equal(got, ins | on)
        assert 0 < got.sum() < len(local)
        # the points near a face's plane, and no others, are ray-cast:
        # within rounding of _GRAZE_EPS, each either way
        cast = fallback.points
        assert (np.abs(offset) <= 0.99 * eps).sum() <= cast <= (np.abs(offset) <= 1.01 * eps).sum()
        for _ in range(3):
            rotation = random_rotation(rng)
            twin.place(rotation, rng.normal(scale=0.01, size=3))
            assert_twin_contract(twin, local @ rotation.T + twin.translation)

    def test_read_only_and_independent_of_query_history(self, jaw, compliance):
        # a built grid's arrays are locked, and a query writes nothing into
        # it: every attribute keeps its value, and the same points in
        # shuffled chunks, on a fresh grid and on one that first answered
        # unrelated points, give the same answers

        def state(grid):
            return {k: v.tobytes() if isinstance(v, np.ndarray) else v
                    for k, v in vars(grid).items()}

        rng = np.random.default_rng(23)
        for mesh, twin, points in itertools.islice(
                self.posed_queries(jaw, compliance, rng), 0, 12, 4):
            local = (points - twin.translation) @ twin.rotation
            at_once = ContainmentGrid(mesh)
            arrays = {k: v for k, v in vars(at_once).items() if isinstance(v, np.ndarray)}
            assert {"_table", "_tris", "_start", "_forms", "origin", "shape"} <= set(arrays)
            for name, array in arrays.items():
                assert not array.flags.writeable, name
            built = state(at_once)
            with counted_fallback() as fallback:
                want = at_once.contains(local)
            ins, on = point_inside(mesh, local, return_on_surface=True)
            assert np.array_equal(want, ins | on)
            assert fallback.points > 0
            assert state(at_once) == built
            lo, hi = mesh.bounds()
            for grid in (ContainmentGrid(mesh), at_once):
                grid.contains(rng.uniform(lo, hi, (2000, 3)))
                order = rng.permutation(len(local))
                got = np.empty(len(local), dtype=bool)
                for chunk in np.array_split(order, 7)[::-1]:
                    got[chunk] = grid.contains(local[chunk])
                assert np.array_equal(got, want)
                assert state(grid) == built


class TestCrossingHardInputs:
    """The inputs where a +x ray's crossings are hardest to count, against
    ``ins | on`` of ``point_inside`` exactly: rays that pass just beside a
    projected edge or vertex, points in the thin projected band of a face
    nearly parallel to x, and faces that lie on the grid's planes."""

    @staticmethod
    def assert_matches(mesh, points):
        """Asserts the contract on a new grid; returns how many of the
        points its query tested with ``point_inside``."""
        grid = ContainmentGrid(mesh)
        ins, on = point_inside(mesh, points, return_on_surface=True)
        with counted_fallback() as fallback:
            assert np.array_equal(grid.contains(points), ins | on)
        return fallback.points

    @pytest.mark.parametrize("k", range(4), ids=["cyl25", "cuboid", "wedge x3", "open wedge"])
    def test_rays_beside_projected_edges_and_vertices(self, k):
        # points whose +x ray passes 1e-12 to 1e-8 m from the projection
        # of a triangle's edge or corner, in (y, z), with the triangle
        # 1e-6 to 1e-2 m ahead of the point or behind it
        mesh = [make_object_mesh(ShapeSpec.cylinder(0.025)),
                make_object_mesh(ShapeSpec.cuboid((0.03, 0.08, 0.03))), *wedge_twins()][k]
        rng = np.random.default_rng(41 + k)
        tv = mesh.vertices[mesh.triangles]
        n = 4000
        tri, corner = rng.integers(len(tv), size=n), rng.integers(3, size=n)
        start, end = tv[tri, corner], tv[tri, (corner + 1) % 3]
        # a quarter of the points beside a corner, the rest beside an edge
        fraction = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.0, 1.0, n))
        on_edge = start + fraction[:, None] * (end - start)
        # across the projected edge, or any way from a corner
        side = np.column_stack([-(end - start)[:, 2], (end - start)[:, 1]])
        at_corner = fraction == 0.0
        side[at_corner] = rng.normal(size=(at_corner.sum(), 2))
        length = np.linalg.norm(side, axis=1, keepdims=True)
        side = np.divide(side, length, out=np.zeros_like(side), where=length > 0)
        gap = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, -8, n)
        points = on_edge.copy()
        points[:, 1:] += gap[:, None] * side
        points[:, 0] += rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, -2, n)
        assert self.assert_matches(mesh, points) > 0

    @pytest.mark.parametrize("k", range(2), ids=["cuboid", "wedge x3"])
    def test_bands_of_faces_nearly_parallel_to_x(self, k):
        # the mesh turned about z by 1e-13 to 1e-5 rad, so that faces
        # parallel to x lean by that much; points inside the projected band
        # of such a face, and on its projected edges, at any x
        mesh = [make_object_mesh(ShapeSpec.cuboid((0.03, 0.08, 0.03))),
                subdivided(subdivided(subdivided(make_object_mesh(ShapeSpec.wedge()))))][k]
        rng = np.random.default_rng(43 + k)
        for angle in rng.choice([-1.0, 1.0], 8) * 10.0 ** np.linspace(-13, -5, 8):
            c, s = np.cos(angle), np.sin(angle)
            turned = SurfaceMesh(mesh.vertices @ np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]).T,
                                 mesh.triangles)
            tv = turned.vertices[turned.triangles]
            normal = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
            leaning = np.flatnonzero(np.abs(normal[:, 0]) <= 1e-4 * np.linalg.norm(normal, axis=1))
            assert len(leaning) > 0
            n = 3000
            tri = rng.choice(leaning, n)
            weights = rng.dirichlet(np.ones(3), size=n)
            # a third of the points on an edge of the face
            on_edge = rng.random(n) < 1 / 3
            weights[on_edge, rng.integers(3, size=on_edge.sum())] = 0.0
            weights /= weights.sum(axis=1, keepdims=True)
            points = np.einsum("pb,pbx->px", weights, tv[tri])
            lo, hi = turned.bounds()
            points[:, 0] = rng.uniform(lo[0] - 0.01, hi[0] + 0.01, n)
            self.assert_matches(turned, points)

    def test_faces_on_grid_planes(self):
        # an unturned cuboid: its faces lie on the grid's planes, since the
        # grid's origin is one cell below its box. Points spread over the
        # padded box, on its faces and 1e-10 to 1e-6 m off them, and on the
        # grid's planes through its cells
        mesh = make_object_mesh(ShapeSpec.cuboid((0.03, 0.08, 0.03)))
        grid = ContainmentGrid(mesh)
        lo, hi = mesh.bounds()
        assert np.allclose(lo, grid.origin + grid.cell, rtol=0, atol=1e-15)
        rng = np.random.default_rng(47)
        tv = mesh.vertices[mesh.triangles]
        off_face, _ = off_face_points(rng, tv, 3000)
        on_planes = rng.uniform(lo - 0.005, hi + 0.005, (3000, 3))
        axis = rng.integers(3, size=3000)
        cells = np.round((on_planes - grid.origin) / grid.cell)
        rows = np.arange(3000)
        on_planes[rows, axis] = (grid.origin + cells * grid.cell)[rows, axis]
        points = np.concatenate([rng.uniform(lo - 0.005, hi + 0.005, (3000, 3)),
                                 surface_sample_points(mesh, 6), off_face, on_planes])
        self.assert_matches(mesh, points)


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


# ---------------------------------------------------------------------------
# The crossings grid and the column-wise patch against test-local copies of
# the per-row, cell-reference implementation they replaced

# the per-row grid's centre answers: not cast yet, or not usable because the
# centre lies on the surface or within _CENTRE_CLEARANCE cell sizes of a
# listed plane; and the (cell, triangle) candidates per step of its list build
_UNCAST, _NO_REFERENCE = -1, 2
_CENTRE_CLEARANCE = 1e-4
_PAIR_STEP = 2 ** 13


class ParentGrid:
    """The twin's grid in an earlier layout, kept as the reference of
    ``ContainmentGrid``'s answers: an int8 state per cell (0 outside, 1
    inside, 2 touched), each touched cell's list of the triangles that can
    cross it, and a point in a touched cell answered by its cell centre's
    parity answer, cast on first use, flipped once per listed triangle
    the segment from the centre crosses (Ogayar, Segura & Feito 2005).
    Same components and touched cells as the grid, different fallbacks."""

    def __init__(self, mesh):
        self.mesh = mesh
        tv = mesh.vertices[mesh.triangles]
        lo, hi = tv.min(axis=(0, 1)), tv.max(axis=(0, 1))
        ext = hi - lo
        self.cell = max(float(np.cbrt(np.prod(ext) / mesh_model._GRID_CELLS)),
                        float(ext.max()) / 256)
        self.origin = lo - self.cell
        self.shape = np.ceil(ext / self.cell).astype(np.int64) + 2
        margin = mesh_model._BOX_MARGIN
        self._lo, self._hi = tv.min(axis=1) - margin, tv.max(axis=1) + margin
        first, last = (np.clip(self._cell_index(c), 0, self.shape - 1)
                       for c in (self._lo, self._hi))
        diff = np.zeros(self.shape + 1, dtype=np.int32)
        for corner in itertools.product((0, 1), repeat=3):
            at = np.where(corner, last + 1, first)
            np.add.at(diff, tuple(at.T), -1 if sum(corner) % 2 else 1)
        touched = (diff.cumsum(0).cumsum(1).cumsum(2) > 0)[:-1, :-1, :-1]
        labels, n = scipy.ndimage.label(~touched)
        ids, reps = np.unique(labels, return_index=True)
        answers = np.full(n + 1, 2, dtype=np.int8)
        reps = np.column_stack(np.unravel_index(reps[ids > 0], self.shape))
        answers[1:] = point_inside(mesh, self._centre(reps))
        self.state = answers[labels]
        self._v0 = tv[:, 0].copy()
        self._e1, self._e2 = tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]
        normal = mesh_model._cross(self._e1, self._e2)
        length = np.linalg.norm(normal, axis=1, keepdims=True)
        self._normal = np.divide(normal, length, out=np.zeros_like(normal), where=length > 0)
        self._touched = np.flatnonzero(touched).astype(np.int32)
        self._reference = np.full(len(self._touched), _UNCAST, dtype=np.int8)
        self._list_triangles(first, last)
        self.reference_casts = 0
        self.fallback_casts = 0

    def _list_triangles(self, first, last):
        reach = 0.5 * np.sqrt(3.0) * self.cell + mesh_model._BOX_MARGIN
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

    def _cell_index(self, points):
        return np.floor((points - self.origin) / self.cell).astype(np.int64)

    def _centre(self, cells):
        return self.origin + (cells + 0.5) * self.cell

    def _rows(self, cells):
        return np.searchsorted(self._touched, np.ravel_multi_index(tuple(cells.T), self.shape))

    def contains(self, points):
        idx = self._cell_index(points)
        on_grid = np.all((idx >= 0) & (idx < self.shape), axis=1)
        state = np.zeros(len(points), dtype=np.int8)
        state[on_grid] = self.state[tuple(idx[on_grid].T)]
        hit = state == 1
        touched = np.flatnonzero(state == 2)
        if touched.size:
            hit[touched] = self._touched_contains(points[touched], idx[touched])
        return hit

    def _references(self, rows, idx):
        ref = self._reference[rows]
        uncast, at = np.unique(rows[ref == _UNCAST], return_index=True)
        if uncast.size:
            ins, on = point_inside(self.mesh, self._centre(idx[ref == _UNCAST][at]),
                                   return_on_surface=True)
            self._reference[uncast] = np.where(on, _NO_REFERENCE, ins)
            self.reference_casts += len(uncast)
            ref = self._reference[rows]
        return ref

    def _touched_contains(self, points, idx):
        eps = mesh_model._GRAZE_EPS
        cross = mesh_model._cross
        rows = self._rows(idx)
        ref = self._references(rows, idx)
        fallback = ref == _NO_REFERENCE
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
        span = np.flatnonzero(((s_c > 0) != (s_p > 0)) & ~near)
        tri, d, srel = tri[span], (p - centre)[span], (centre - v0)[span]
        e1, e2 = self._e1[tri], self._e2[tri]
        h = cross(d, e2)
        f = 1.0 / np.einsum("ij,ij->i", e1, h)
        u = f * np.einsum("ij,ij->i", srel, h)
        v = f * np.einsum("ij,ij->i", d, cross(srel, e1))
        w = 1.0 - u - v
        crossing = (u > eps) & (v > eps) & (w > eps)
        grazing = ((u > -eps) & (v > -eps) & (w > -eps)
                   & (np.minimum(np.minimum(np.abs(u), np.abs(v)), np.abs(w)) <= eps))
        fallback[pt[span[grazing]]] = True
        flips = np.bincount(pt[span[crossing]], minlength=len(points)) % 2
        inside = (ref == 1) != (flips == 1)
        if fallback.any():
            ins, on = point_inside(self.mesh, points[fallback], return_on_surface=True)
            inside[fallback] = ins | on
            self.fallback_casts += int(fallback.sum())
        return inside


def parent_intersect_approx(jaw, twin, grid, density):
    """The earlier ``intersect_approx``, its twin containment answered by
    ``grid`` (a ``ParentGrid`` of the twin's template): (n, 3) gathers by
    fancy index, ``np.packbits`` codes and ``mean(axis=0)``. Returns
    (sample count, centroid, points)."""
    lo_g, hi_g = jaw.bounds()
    lo_o, hi_o = twin.bounds()
    if np.any(lo_g > hi_o) or np.any(lo_o > hi_g):
        return 0, None, None
    box_lo = np.maximum(lo_g, lo_o) - 1e-12
    box_hi = np.minimum(hi_g, hi_o) + 1e-12
    lattice = jaw.lattice(density)
    beyond = np.packbits(np.concatenate([jaw.vertices < box_lo - 1e-12,
                                         jaw.vertices > box_hi + 1e-12], axis=1), axis=1)
    near = np.bitwise_and.reduce(np.take(beyond[:, 0], jaw.triangles), axis=1) == 0
    slot_ids = lattice.slot_ids[near]
    flag = np.zeros(lattice.n_ids, dtype=bool)
    flag[slot_ids] = True
    ids = np.flatnonzero(flag)
    pts = np.einsum("ub,ubx->ux", lattice.weights[ids],
                    np.take(jaw.vertices, lattice.corners[ids], axis=0))
    in_box = np.all((pts >= box_lo) & (pts <= box_hi), axis=1)
    ids, pts = ids[in_box], pts[in_box]
    hit = grid.contains((pts - twin.translation) @ twin.rotation)
    ids, pts = ids[hit], pts[hit]
    if len(ids) == 0:
        return 0, None, None
    flag[:] = False
    flag[ids] = True
    pts = pts[np.searchsorted(ids, slot_ids[flag[slot_ids]])]
    return len(pts), pts.mean(axis=0), pts


def wedge_twins():
    """The wedge subdivided three times, closed and left open (two
    triangles dropped) then wrapped by ``ensure_watertight``: the twins
    the benchmark calibrates are of these two kinds."""
    dense = subdivided(subdivided(subdivided(make_object_mesh(ShapeSpec.wedge()))))
    return [dense, ensure_watertight(SurfaceMesh(dense.vertices, dense.triangles[:-2]))]


class TestParentPath:
    """Exact agreement with the per-row path: the same samples, centroids
    and kept points from ``intersect_approx``, and the same cell codes and
    containment answers from ``ContainmentGrid``."""

    def test_intersections_match_parent(self, jaw, compliance):
        template = jaw.mesh.surface()
        jaw_surface = DeformableSurface(template)
        grids, hits = {}, 0
        for objects, n, seed in ((lattice_objects(), 200, 21), (wedge_twins(), 60, 22)):
            for kind, twin, deformed, density in contact_poses(
                    jaw, compliance, objects, n, np.random.default_rng(seed)):
                if twin.template not in grids:
                    grids[twin.template] = ParentGrid(twin.template)
                grid = grids[twin.template]
                jaw_surface.update(deformed)
                for gripper in (SurfaceMesh(deformed, template.triangles), jaw_surface):
                    count, centroid, points = parent_intersect_approx(gripper, twin, grid, density)
                    got = intersect_approx(gripper, twin, density=density, keep_points=True)
                    assert got.sample_count == count
                    if count:
                        assert np.array_equal(got.centroid, centroid)
                        assert np.array_equal(got.points, points)
                        assert got.points.shape == (count, 3)
                    else:
                        assert got.centroid is None and got.points is None
                hits += count > 0
        assert hits > 50

    @pytest.mark.parametrize("k", range(3), ids=["cyl25", "wedge x3", "open wedge"])
    def test_containment_matches_parent(self, k):
        rng = np.random.default_rng(31 + k)
        mesh = [make_object_mesh(ShapeSpec.cylinder(0.025)), *wedge_twins()][k]
        grid, parent = ContainmentGrid(mesh), ParentGrid(mesh)
        # the same cells: each cell's answer or touched column
        inner = grid._table.reshape(grid.shape + 2)
        codes = inner[1:-1, 1:-1, 1:-1]
        assert np.array_equal(np.where(codes >= 0, 2, codes == mesh_model._INSIDE), parent.state)
        assert np.all(inner[[0, -1]] == mesh_model._OUTSIDE)
        assert np.all(inner[:, [0, -1]] == mesh_model._OUTSIDE)
        assert np.all(inner[:, :, [0, -1]] == mesh_model._OUTSIDE)
        assert np.array_equal(np.flatnonzero(codes >= 0), parent._touched)
        n_columns = grid.shape[1] * grid.shape[2]
        assert np.array_equal(codes[codes >= 0], parent._touched % n_columns)
        twin, cast = RigidSurface(mesh), 0
        for _ in range(3):
            twin.place(random_rotation(rng), rng.normal(scale=0.01, size=3))
            lo, hi = twin.bounds()
            pad = 0.2 * (hi - lo)
            off_face, tri = off_face_points(rng, twin.vertices[mesh.triangles], 2000)
            points = np.concatenate([
                rng.uniform(lo - pad, hi + pad, (2000, 3)),
                off_face,
                edge_graze_points(twin, tri[:600], rng.uniform(0.1, 0.9, (600, 1))),
            ])
            local = (points - twin.translation) @ twin.rotation
            for chunk in np.array_split(local[rng.permutation(len(local))], 4):
                with counted_fallback() as fallback:
                    got = grid.contains(chunk)
                cast += fallback.points
                assert np.array_equal(got, parent.contains(chunk))
        # both took the fallback on these points
        assert cast > 100 and parent.fallback_casts > 100


def wrapper_box(vertices, ids):
    columns = np.take(vertices.T, ids, axis=1)
    return columns.min(axis=1), columns.max(axis=1)


def wrapper_contains(grid, points):
    """``ContainmentGrid.contains`` and its crossings pass written with
    the ``np.take``, ``np.cumsum``, ``np.repeat`` and ``np.flatnonzero``
    wrappers."""
    eps = mesh_model._GRAZE_EPS
    cols = np.ascontiguousarray(points.T)
    cells = np.floor((cols - grid.origin[:, None]) / grid.cell)
    at = grid._strides @ np.fmin(np.fmax(cells, -1.0), grid.shape[:, None])
    code = np.take(grid._table, at.astype(np.intp) + grid._offset)
    hit = code == mesh_model._INSIDE
    touched = np.flatnonzero(code >= 0)
    if touched.size == 0:
        return hit
    cols, columns = np.take(cols, touched, axis=1), np.take(code, touched)
    starts = np.take(grid._start, columns)
    counts = np.take(grid._start, columns + 1) - starts
    first = np.cumsum(counts) - counts
    pt = np.repeat(np.arange(len(columns)), counts)
    tri = np.take(grid._tris, np.arange(len(pt)) + np.repeat(starts - first, counts))
    y0, z0, x0, x_y, x_z, near, b_y, b_z, c_y, c_z = np.take(grid._forms, tri, axis=1)
    x, y, z = np.take(cols, pt, axis=1)
    dy, dz = y - y0, z - z0
    ahead = (x0 - x) + x_y * dy + x_z * dz
    b = b_y * dy + b_z * dz
    c = c_y * dy + c_z * dz
    least = np.minimum(np.minimum(1.0 - b - c, b), c)
    forward = ahead > 0
    crossed = np.logical_xor.reduceat(forward & (least > eps), first)
    doubt = np.logical_or.reduceat((np.abs(ahead) <= near) | (forward & (np.abs(least) <= eps)),
                                   first)
    if doubt.any():
        ins, on = point_inside(grid.mesh, np.ascontiguousarray(cols[:, doubt].T),
                               return_on_surface=True)
        crossed[doubt] = ins | on
    hit[touched] = crossed
    return hit


def wrapper_intersect_approx(jaw, twin, density):
    """``intersect_approx`` on a ``DeformableSurface`` jaw, written with the
    ``np.take``, ``np.compress`` and ``np.flatnonzero`` wrappers in place
    of the ndarray methods. Returns (sample count, centroid, points)."""
    lo_g, hi_g = wrapper_box(jaw.vertices, jaw.vertex_ids)
    lo_o, hi_o = wrapper_box(twin.template.vertices @ twin.rotation.T, np.unique(twin.triangles))
    lo_o, hi_o = lo_o + twin.translation, hi_o + twin.translation
    if (lo_g > hi_o).any() or (lo_o > hi_g).any():
        return 0, None, None
    box_lo = np.maximum(lo_g, lo_o) - 1e-12
    box_hi = np.minimum(hi_g, hi_o) + 1e-12
    lattice = jaw.lattice(density)
    cols = np.ascontiguousarray(jaw.vertices.T)
    beyond = np.zeros((8, len(jaw.vertices)), dtype=bool)
    np.less(cols, (box_lo - 1e-12)[:, None], out=beyond[:3])
    np.greater(cols, (box_hi + 1e-12)[:, None], out=beyond[3:6])
    code = np.take(np.ascontiguousarray(beyond.T).view(np.uint64)[:, 0], jaw.triangles)
    slots = np.compress((code[:, 0] & code[:, 1] & code[:, 2]) == 0, lattice.slot_ids,
                        axis=0).reshape(-1)
    at = np.zeros(lattice.n_ids, dtype=np.intp)
    at[slots] = 1
    ids = np.flatnonzero(at)
    pts = np.einsum("ub,ubx->ux", np.take(lattice.weights, ids, axis=0),
                    np.take(jaw.vertices, np.take(lattice.corners, ids, axis=0), axis=0))
    p = pts.T
    keep = np.flatnonzero((p[0] >= box_lo[0]) & (p[0] <= box_hi[0]) & (p[1] >= box_lo[1])
                          & (p[1] <= box_hi[1]) & (p[2] >= box_lo[2]) & (p[2] <= box_hi[2]))
    ids, pts = np.take(ids, keep), np.take(pts, keep, axis=0)
    hit = np.flatnonzero(wrapper_contains(twin.grid(),
                                          (pts - twin.translation) @ twin.rotation))
    if len(hit) == 0:
        return 0, None, None
    at[:] = -1
    at[np.take(ids, hit)] = np.arange(len(hit))
    at = np.take(at, slots)
    pts = np.take(pts, np.take(hit, np.compress(at >= 0, at)), axis=0)
    return len(pts), pts.mean(axis=0), pts


def test_intersections_match_wrapper_version(jaw, compliance):
    """The ndarray-method gathers of ``intersect_approx`` and the twin's
    grid give, bit for bit, the points and centroid of the same passes
    written with numpy's function wrappers, on posed twins of the grasped
    objects and of the benchmark's dense wedges."""
    jaw_surface = DeformableSurface(jaw.mesh.surface())
    hits = 0
    for objects, n, seed in ((lattice_objects(), 90, 41), (wedge_twins(), 30, 42)):
        for kind, twin, deformed, density in contact_poses(
                jaw, compliance, objects, n, np.random.default_rng(seed)):
            jaw_surface.update(deformed)
            count, centroid, points = wrapper_intersect_approx(jaw_surface, twin, density)
            got = intersect_approx(jaw_surface, twin, density=density, keep_points=True)
            assert got.sample_count == count
            if count:
                assert np.array_equal(got.centroid, centroid)
                assert np.array_equal(got.points, points)
            else:
                assert got.centroid is None and got.points is None
            hits += count > 0
    assert hits > 30


# the nbytes of every array of the grids in the per-row layout (an int8
# state per cell, int32 flat indices and int64 list starts per touched
# cell, int32 list entries and six (t, 3) triangle arrays), on the twins
# of ``test_grid_arrays_replace_the_rows``
PARENT_GRID_BYTES = {"cyl25": 898_984, "wedge": 1_114_368, "wedge x3": 922_876}


@pytest.mark.parametrize("name", list(PARENT_GRID_BYTES))
def test_grid_arrays_replace_the_rows(name):
    """The cell table, the column lists and the crossing forms replace the
    arrays of the per-row layout: the grid holds at most 4 more bytes per
    cell than it did, so a table kept beside the arrays it stands for
    fails."""
    wedge = make_object_mesh(ShapeSpec.wedge())
    mesh = {"cyl25": lambda: make_object_mesh(ShapeSpec.cylinder(0.025)),
            "wedge": lambda: wedge,
            "wedge x3": lambda: subdivided(subdivided(subdivided(wedge)))}[name]()
    grid = ContainmentGrid(mesh)
    total = sum(v.nbytes for v in vars(grid).values() if isinstance(v, np.ndarray))
    assert total <= PARENT_GRID_BYTES[name] + 4 * int(np.prod(grid.shape))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 2000), st.just(3)), elements=finite),
       st.data())
def test_rewritten_reductions_match_numpy(x, data):
    """Each reduction the patch writes out equals, bit for bit, the numpy
    call it replaces; a numpy whose summation order moves fails here
    rather than in a run's output."""
    k = data.draw(hnp.arrays(np.intp, st.integers(0, 3000), elements=st.integers(0, len(x) - 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(mesh_model._centroid(x), x.mean(axis=0), equal_nan=True)
    assert np.array_equal(np.take(x, k, axis=0), x[k])
    assert np.array_equal(np.take(x.T, k, axis=1), x[k].T)


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
            got = bvh.first_hit_fraction(origins, targets)
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


    def test_axis_aligned_faces_graze_from_either_side(self):
        # probes 1e-11 to 1e-10 m outside the faces of an unrotated cuboid,
        # whose faces lie on its tree's box faces: a ray from such a probe
        # that runs away from the face still tests the face's triangles, so
        # it is flagged grazing wherever the reference over all triangles
        # flags it, and the probe is on the surface
        rng = np.random.default_rng(31)
        cuboid = make_object_mesh(ShapeSpec.cuboid((0.03, 0.08, 0.03)))
        tv = cuboid.vertices[cuboid.triangles]
        tri = rng.integers(len(tv), size=2000)
        normals = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])[tri]
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        probes = (np.einsum("pb,pbx->px", rng.dirichlet(np.ones(3), size=2000), tv[tri])
                  + 10.0 ** rng.uniform(-11, -10, (2000, 1)) * normals)
        for direction in mesh_model._FALLBACK_DIRECTIONS:
            counts, suspect = cuboid.bvh().count_crossings(probes, direction)
            want, suspect_all, _ = brute_force_crossings(cuboid.vertices, cuboid.triangles,
                                                         probes, direction)
            assert np.array_equal(counts, want)
            assert suspect_all.sum() > 1000
            assert not np.any(suspect_all & ~suspect)
        _, on = point_inside(cuboid, probes, return_on_surface=True)
        assert on.sum() > 1000


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

    def test_obj_relative_indices(self, tmp_path):
        # a tetrahedron written with relative face indices, one face before
        # the last vertex, loads equal to its absolute-index twin
        tet = single_tet()
        faces = tet.surface().triangles
        v = [f"v {x!r} {y!r} {z!r}" for x, y, z in tet.vertices.tolist()]
        relative = tmp_path / "relative.obj"
        relative.write_text("\n".join(
            v[:3] + ["f -3 -1 -2", v[3]]
            + [f"f {a - 4} {b - 4} {c - 4}" for a, b, c in faces[1:]]) + "\n")
        assert np.array_equal(faces[0], [0, 2, 1])
        absolute = tmp_path / "absolute.obj"
        save_obj(absolute, tet.vertices, faces)
        for got, want in zip(load_obj(relative), load_obj(absolute)):
            assert np.array_equal(got, want)
        assert SurfaceMesh(*load_obj(relative)).watertight

    def test_negative_triangle_index_rejected(self):
        with pytest.raises(MeshError, match="negative"):
            SurfaceMesh(np.eye(3), [[0, 1, -1]])

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
