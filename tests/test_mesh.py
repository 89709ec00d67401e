"""Icosahedral mesh construction, refinement, and point location."""

import numpy as np
import pytest
from conftest import edge_geometry

from cmsphere.errors import RefinementTooDeep
from cmsphere.geom import great_circle_distance, radial_project
from cmsphere.mesh import (
    MAX_LEVEL,
    SUB_VERTS,
    build_icosahedral,
    h_max,
    locate_batch,
    save_mesh,
    triangle_areas,
)

# max edge arc length per refinement level, five decimals
H_TABLE = {0: 1.10715, 1: 0.62832, 2: 0.32637, 3: 0.16483, 4: 0.08263}


@pytest.fixture(scope="module")
def meshes():
    return {k: build_icosahedral(k) for k in range(5)}


@pytest.fixture(scope="module")
def geometry(meshes):
    """Edge table, centers and split points of each mesh, from the build's code."""
    return {k: edge_geometry(mesh) for k, mesh in meshes.items()}


def random_units(n, seed):
    rng = np.random.default_rng(seed)
    return radial_project(rng.standard_normal((n, 3)))


def test_counts_follow_refinement(meshes):
    for k, mesh in meshes.items():
        assert mesh.n_vertices == 10 * 4**k + 2
        assert mesh.n_triangles == 20 * 4**k


def test_h_matches_table(meshes):
    for k, want in H_TABLE.items():
        assert abs(h_max(meshes[k]) - want) < 1e-5


def test_h_halves_per_level(meshes):
    # projection to the sphere distorts the first split; the ratio settles
    # toward 1/2 as the triangles flatten out
    ratios = [h_max(meshes[k + 1]) / h_max(meshes[k]) for k in range(4)]
    assert all(0.49 < r < 0.6 for r in ratios)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.51


def test_euler_formula(meshes, geometry):
    for k, mesh in meshes.items():
        v = mesh.n_vertices
        e = geometry[k].edges.shape[0]
        f = mesh.n_triangles
        assert v - e + f == 2


def test_areas_cover_sphere(meshes):
    for mesh in meshes.values():
        total = float(np.sum(triangle_areas(mesh)))
        assert abs(total - 4.0 * np.pi) < 1e-12


def test_vertices_and_splits_unit_norm(meshes, geometry):
    for k, mesh in meshes.items():
        assert np.max(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0)) < 1e-14
        norms = np.linalg.norm(geometry[k].splits, axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-14


def test_orientation_positive(meshes):
    for mesh in meshes.values():
        tris = mesh.vertices[mesh.triangles]
        dets = np.linalg.det(tris)
        assert np.all(dets > 0.0)


def test_adjacency_is_mutual(meshes):
    mesh = meshes[2]
    for t in range(mesh.n_triangles):
        for e in range(3):
            n = mesh.adjacency[t, e]
            assert t in mesh.adjacency[n]


def test_split_points_shared_bitwise(meshes, geometry):
    # the two triangles flanking an edge must carry the same split point
    for mesh, geo in ((meshes[1], geometry[1]), (meshes[3], geometry[3])):
        seen = {}
        for t in range(mesh.n_triangles):
            for e in range(3):
                key = geo.tri_edges[t, e]
                pt = geo.splits[t, e]
                if key in seen:
                    assert np.array_equal(seen[key], pt)
                else:
                    seen[key] = pt


def test_refinement_bounds():
    # checked first: with a higher ceiling, build_icosahedral(9) would build
    # a multi-gigabyte mesh instead of raising
    assert MAX_LEVEL == 8
    with pytest.raises(RefinementTooDeep):
        build_icosahedral(9)
    with pytest.raises(RefinementTooDeep):
        build_icosahedral(11)
    with pytest.raises(RefinementTooDeep):
        build_icosahedral(-1)


def test_locate_totality_and_residual(meshes, geometry):
    for k in (0, 1, 3):
        mesh, geo = meshes[k], geometry[k]
        pts = random_units(20000, 10 + k)
        tri, sub, bary = locate_batch(mesh, pts)
        assert np.all(tri >= 0) and np.all(tri < mesh.n_triangles)
        assert np.all(sub >= 0) and np.all(sub < 6)
        assert np.min(bary) > -1e-9
        # spherical barycentric residual: sum_i b_i v_i == p
        ent = np.concatenate(
            [mesh.vertices[mesh.triangles][tri], geo.splits[tri], geo.centers[tri][:, None, :]],
            axis=1,
        )
        corners = ent[np.arange(len(tri))[:, None], SUB_VERTS[sub]]
        rebuilt = np.einsum("nic,ni->nc", corners, bary)
        err = np.linalg.norm(rebuilt - pts, axis=1)
        assert np.max(err) < 1e-9


def test_locate_deterministic(meshes):
    mesh = meshes[2]
    pts = random_units(5000, 21)
    a = locate_batch(mesh, pts)
    b = locate_batch(mesh, pts)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_locate_single_point(meshes):
    tri, sub, bary = locate_batch(meshes[1], np.array([[0.0, 0.0, 1.0]]))
    assert tri.shape == (1,) and 0 <= tri[0] < meshes[1].n_triangles
    assert 0 <= sub[0] < 6 and bary.shape == (1, 3)


def lowest_incident(mesh):
    low = np.full(mesh.n_vertices, mesh.n_triangles)
    np.minimum.at(low, mesh.triangles.ravel(), np.repeat(np.arange(mesh.n_triangles), 3))
    return low


def test_locate_at_vertices(meshes):
    # vertices sit on triangle corners; the walk must still terminate, and
    # the tie resolves to the lowest-index incident triangle
    for k in (0, 2, 4):
        mesh = meshes[k]
        tri, sub, bary = locate_batch(mesh, mesh.vertices)
        assert tri.shape == (mesh.n_vertices,)
        assert np.min(bary) > -1e-9
        assert np.array_equal(tri, lowest_incident(mesh))


def assert_same_location(got, want):
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def start_in(tri):
    """A warm start naming triangles tri and sub-triangle 0."""
    n = len(tri)
    return tri, np.zeros(n, dtype=np.int64), np.zeros((n, 3))


@pytest.mark.parametrize("k", [0, 1, 3])
def test_warm_start_matches_cold(meshes, k):
    mesh = meshes[k]
    pts = random_units(20000, 30 + k)
    cold = locate_batch(mesh, pts)
    # from their own location every point stays put
    assert_same_location(locate_batch(mesh, pts, start=cold), cold)
    # from the location of copies moved within a sub-triangle up to across
    # several cells
    rng = np.random.default_rng(40 + k)
    for scale in (1e-9, 1e-4, 1e-2, 1e-1):
        moved = radial_project(pts + scale * rng.standard_normal(pts.shape))
        start = locate_batch(mesh, moved)
        assert_same_location(locate_batch(mesh, pts, start=start), cold)
    # from the antipodal triangle, half the sphere away
    assert_same_location(locate_batch(mesh, pts, start=locate_batch(mesh, -pts)), cold)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_warm_start_on_boundaries(meshes, geometry, k):
    mesh, geo = meshes[k], geometry[k]
    # edge midpoints, started from both flanking triangles
    mids = radial_project(mesh.vertices[geo.edges].sum(axis=1))
    cold = locate_batch(mesh, mids)
    flanks = geo.slots // 3
    for side in range(2):
        assert_same_location(locate_batch(mesh, mids, start=start_in(flanks[:, side])), cold)
    assert np.array_equal(cold[0], flanks.min(axis=1))
    # vertices, started from every incident triangle
    corners = mesh.vertices[mesh.triangles.ravel()]
    owners = np.repeat(np.arange(mesh.n_triangles), 3)
    warm = locate_batch(mesh, corners, start=start_in(owners))
    assert_same_location(warm, locate_batch(mesh, corners))
    assert np.array_equal(warm[0], lowest_incident(mesh)[mesh.triangles.ravel()])


def lowest_containing_oracle(mesh, p):
    """First triangle, by index, whose macro barycentrics are all >= -1e-12."""
    tri = np.empty(len(p), dtype=np.int64)
    for c in range(0, len(p), 2000):
        b = np.einsum("tij,kj->kti", mesh.macro_inv, p[c : c + 2000])
        tri[c : c + 2000] = (b.min(axis=2) >= -1e-12).argmax(axis=1)
    return tri


@pytest.mark.parametrize("k", [0, 1, 3])
def test_locate_near_boundaries_is_lowest_containing(meshes, geometry, k):
    # points a hair off every vertex and every edge midpoint, where a walk
    # that stops at the first containing triangle depends on its start
    mesh = meshes[k]
    rng = np.random.default_rng(50 + k)
    mids = radial_project(mesh.vertices[geometry[k].edges].sum(axis=1))
    base = np.concatenate([mesh.vertices, mids])
    pts = np.concatenate(
        [
            radial_project(base + scale * rng.standard_normal(base.shape))
            for scale in (1e-14, 1e-13, 1e-12, 3e-12, 1e-11)
        ]
    )
    cold = locate_batch(mesh, pts)
    assert np.array_equal(cold[0], lowest_containing_oracle(mesh, pts))
    assert_same_location(locate_batch(mesh, pts, start=locate_batch(mesh, -pts)), cold)


def test_edge_arc_lengths_positive(meshes, geometry):
    # h_max reads triangle sides; each edge is a side of two triangles, so
    # the longest side is the longest edge, bit for bit
    for k, mesh in meshes.items():
        edges = geometry[k].edges
        lens = great_circle_distance(mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]])
        assert np.all(lens > 0.0)
        assert abs(np.max(lens) - h_max(mesh)) == 0.0


def test_save_mesh(tmp_path, meshes):
    save_mesh(meshes[0], str(tmp_path / "vertices.txt"), str(tmp_path / "triangles.txt"))
    verts = np.loadtxt(tmp_path / "vertices.txt")
    tris = np.loadtxt(tmp_path / "triangles.txt", dtype=int)
    assert verts.shape == (12, 3)
    assert tris.shape == (20, 3)
    assert np.max(np.abs(verts - meshes[0].vertices)) == 0.0


def test_gathered_constants_are_c_contiguous():
    # Point location and the spline gather these through flat reshapes,
    # which would copy a strided array on every call
    mesh = build_icosahedral(2)
    for name in ("macro_inv", "sub_inv", "spoke_normals", "rs", "center_bary",
                 "ring_cos", "ring_half_sin", "ring_g1", "ring_g2"):
        assert getattr(mesh, name).flags.c_contiguous, name
