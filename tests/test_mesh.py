"""Icosahedral mesh construction, refinement, and point location."""

from functools import lru_cache

import numpy as np
import pytest
from conftest import edge_geometry, locate_in_triangle

from cmsphere.errors import RefinementTooDeep
from cmsphere.geom import (_cross3, _dot3, _min3, _norm3, great_circle_distance, radial_project,
                           sph_to_cart)
from cmsphere.mesh import (
    MAX_LEVEL,
    SUB_VERTS,
    _edge_geometry,
    _edge_weights,
    _grid_seed,
    _icosahedron,
    _refine_once,
    _triangulate,
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


@lru_cache(maxsize=None)
def refined(k):
    """Vertices and triangles of the level-k mesh, by the build's own code."""
    return _icosahedron() if k == 0 else _refine_once(*refined(k - 1))


@lru_cache(maxsize=None)
def build_minima(k):
    """Smallest value at level k of each quantity that must stay clear of
    zero for the build's solves, split points and edge weights to hold."""
    verts, tris = refined(k)
    edges, _, slots, centers, splits = _edge_geometry(verts, tris)
    a, b = verts[edges[:, 0]], verts[edges[:, 1]]
    # the intersection line of _edge_split_points and its orienting sign
    line = _cross3(_cross3(centers[slots[:, 0] // 3], centers[slots[:, 1] // 3]), _cross3(a, b))
    corners = verts[tris]
    after = corners[:, [1, 2, 0]]
    entities = np.concatenate([corners, splits, centers[:, None]], axis=1)
    return {
        "macro det": np.linalg.det(corners).min(),
        "sub-triangle |det|": np.abs(np.linalg.det(entities[:, SUB_VERTS])).min(),
        "1 - (a.b)^2": (1.0 - _dot3(corners, after) ** 2).min(),
        "|line|": _norm3(line).min(),
        "|sign|": np.abs(_dot3(line, a + b)).min(),
        "split weights r, s": min(w.min() for w in _edge_weights(splits, corners, after)),
    }


GEOMETRY_BOUNDS = {"macro det": 1e-12, "sub-triangle |det|": 1e-12, "1 - (a.b)^2": 1e-12,
                   "|line|": 1e-14, "|sign|": 1e-14, "split weights r, s": 0.0}


@pytest.mark.parametrize("k", range(7))
def test_build_geometry_stays_clear_of_degenerate(k):
    # The build does not check its one fixed mesh per level at run time:
    # every triangle is outward (the icosahedron's table too, at k = 0) and
    # far from coplanar, as are the sub-triangles; no edge joins (anti)
    # parallel endpoints; each split point comes from two distinct great
    # circles and lies inside its edge's arc.
    got = build_minima(k)
    for name, bound in GEOMETRY_BOUNDS.items():
        assert got[name] > bound, name
    # Each minimum shrinks by about 4x per level, so k = 7 and 8, too large
    # to build here, stay orders of magnitude clear too: the smallest
    # sub-triangle |det| is 4.1e-5 at k = 6, so above 2e-6 at k = 8.
    if k >= 3:
        for name in GEOMETRY_BOUNDS:
            assert build_minima(k - 1)[name] / got[name] < 4.2, name


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
    """First triangle, by index, whose macro barycentrics are all >= -1e-12.

    Searched down the refinement tree rather than over every triangle:
    triangle t's children are 4 t .. 4 t + 3 and lie inside it, so a point
    that a triangle contains within 1e-12 lies in each of its ancestors
    within 1e-9. Each level keeps the (point, triangle) pairs that pass and
    hands on their children."""
    low = np.full(len(p), mesh.n_triangles)
    for c in range(0, len(p), 1 << 14):
        q = p[c : c + (1 << 14)]
        pt, tri = np.repeat(np.arange(len(q)), 20), np.tile(np.arange(20), len(q))
        for j in range(mesh.level + 1):
            if j == mesh.level:
                inv, tol = mesh.macro_inv, -1e-12
            else:
                verts, tris = refined(j)
                inv, tol = np.linalg.inv(verts[tris].transpose(0, 2, 1)), -1e-9
            keep = _min3(np.einsum("kij,kj->ki", inv[tri], q[pt])) >= tol
            pt, tri = pt[keep], tri[keep]
            if j < mesh.level:
                pt, tri = np.repeat(pt, 4), (4 * tri[:, None] + np.arange(4)).ravel()
        np.minimum.at(low[c : c + (1 << 14)], pt, tri)
    return low


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


@pytest.mark.parametrize("k", range(6))
def test_centre_grid_locates_as_the_barycenter_grid(meshes, geometry, k):
    # each cell of the seed grid holds a triangle that contains the cell's
    # centre; seeded there, every point lands where a walk from triangle 0
    # lands, bit for bit
    mesh = meshes[k] if k in meshes else build_icosahedral(k)
    geo = geometry[k] if k in geometry else edge_geometry(mesh)
    cells = mesh.grid_start.shape[0]
    assert mesh.grid_start.shape == (cells, cells)
    assert mesh.grid_start.dtype == np.int32
    centre = (np.arange(cells) + 0.5) * np.pi / cells
    c = sph_to_cart(*np.meshgrid(2.0 * centre, centre)).reshape(-1, 3)
    held = np.einsum("kij,kj->ki", mesh.macro_inv[mesh.grid_start.ravel()], c)
    assert _min3(held).min() >= -1e-12
    rng = np.random.default_rng(60 + k)
    a, b = (mesh.vertices[geo.edges[:, i]] for i in range(2))
    on_edge = radial_project(a + rng.uniform(0.0, 1.0, (len(a), 1)) * (b - a))
    normal = radial_project(np.cross(a, b))
    near_edge = np.concatenate([radial_project(on_edge + d * normal)
                                for d in (-1e-11, -1e-12, 0.0, 1e-12, 1e-11)])
    for pts in (random_units(30000, 70 + k), mesh.vertices, geo.centers,
                geo.splits.reshape(-1, 3), near_edge):
        far = start_in(np.zeros(len(pts), dtype=np.int64))
        assert_same_location(locate_batch(mesh, pts), locate_batch(mesh, pts, start=far))


def spoke_points(mesh, geo, n_tris, seed):
    """Points on the centre-corner and centre-split spokes of n_tris random
    triangles (of all of them if fewer), at a random place along each
    spoke, and copies moved across it by 1e-14 to 1e-9."""
    rng = np.random.default_rng(seed)
    tri = rng.permutation(mesh.n_triangles)[:n_tris]
    centre = geo.centers[tri][:, None]
    ends = np.concatenate([mesh.vertices[mesh.triangles[tri]], geo.splits[tri]], axis=1)
    on = radial_project(centre + rng.uniform(0.0, 1.0, ends.shape[:2] + (1,)) * (ends - centre))
    normal = radial_project(np.cross(np.broadcast_to(centre, ends.shape), ends))
    return np.concatenate([radial_project(on + d * normal).reshape(-1, 3)
                           for d in (0.0, 1e-14, -1e-14, 1e-12, -1e-12, 1e-11, -1e-11,
                                     1e-9, -1e-9)])


@pytest.mark.parametrize("k", range(7))
def test_cold_sub_triangle_is_the_spoke_rule(meshes, geometry, k):
    # the sub-triangle comes from the order of the macro barycentrics, with
    # the spoke test only near a spoke; on the spokes, at the vertices,
    # barycenters and split points, and at random points, the result is the
    # lowest containing triangle and the spoke test's sub-triangle in it,
    # bit for bit
    mesh = meshes[k] if k in meshes else build_icosahedral(k)
    geo = geometry[k] if k in geometry else edge_geometry(mesh)
    splits = geo.splits.reshape(-1, 3)[geo.slots[:, 0]]
    pts = np.concatenate([spoke_points(mesh, geo, 4096, 80 + k), mesh.vertices, geo.centers,
                          splits, random_units(1 << 16, 90 + k)])
    tri = lowest_containing_oracle(mesh, pts)
    assert_same_location(locate_batch(mesh, pts), (tri, *locate_in_triangle(mesh, tri, pts)))


@pytest.mark.parametrize("k", [0, 3, 5])
def test_grid_seed_reads_the_cell_of_each_point(meshes, k):
    # the flat read of the seed grid gives the 2-D indexed read, with the
    # longitude wrapped by %
    mesh = meshes[k] if k in meshes else build_icosahedral(k)
    cells = mesh.grid_start.shape[0]
    pts = np.concatenate([random_units(1 << 14, 100 + k), mesh.vertices,
                          [[1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [-1.0, 0.0, 0.0],
                           [-1.0, -0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    lam = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * np.pi)
    it = np.clip((theta / np.pi * cells).astype(np.int64), 0, cells - 1)
    il = np.clip((lam / (2.0 * np.pi) * cells).astype(np.int64), 0, cells - 1)
    seed = _grid_seed(mesh, pts)
    assert seed.dtype == np.int64
    assert np.array_equal(seed, mesh.grid_start[it, il])


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


@pytest.mark.parametrize("k", range(7))
def test_sub_det_is_the_inverse_determinant(k):
    # The spline's Jacobian factor reads det(sub_inv) as one scalar; it is
    # the triple product of the inverse's rows. Sub-triangle 3 is listed
    # clockwise in SUB_VERTS, so its determinant is the negative one.
    mesh = _triangulate(k)
    want = np.linalg.det(mesh.sub_inv)
    assert mesh.sub_det.shape == (mesh.n_triangles, 6)
    assert np.isfinite(mesh.sub_det).all()
    assert np.max(np.abs(mesh.sub_det / want - 1.0)) < 1e-12
    assert (mesh.sub_det[:, [0, 1, 2, 4, 5]] > 0.0).all()
    assert (mesh.sub_det[:, 3] < 0.0).all()


def test_gathered_constants_are_c_contiguous():
    # Point location and the spline gather these through flat reshapes,
    # which would copy a strided array on every call
    mesh = build_icosahedral(2)
    for name in ("macro_inv", "sub_inv", "sub_det", "spoke_normals", "rs", "center_bary",
                 "ring_cos", "ring_half_sin", "ring_g1", "ring_g2"):
        assert getattr(mesh, name).flags.c_contiguous, name
