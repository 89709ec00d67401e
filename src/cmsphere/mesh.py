"""Icosahedral geodesic triangulations with six-way macro-element splits.

Each macro triangle carries prefactored inverse vertex matrices for
barycentric solves on the macro triangle and on each of its six
sub-triangles, and the constants that turn corner Hermite data into
quadratic spline coefficients. The barycenters and edge split points these
are derived from are build-time geometry: the mesh keeps only the constants.
Split points come from a global edge table, so neighboring triangles see
bit-identical geometry.

The spline constants keep the triangle axis T last: (corner, target, T) for
ring_*, (r or s, edge, T) for rs and (corner, T) for center_bary.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, LocationFailure, RefinementTooDeep
from .geom import cart_to_sph, great_circle_distance, radial_project, vertex_frames

MAX_LEVEL = 8

# Six sub-triangles of a macro element, as indices into the entity list
# [corner0, corner1, corner2, split01, split12, split20, center].
SUB_VERTS = np.array(
    [
        [0, 3, 6],
        [1, 6, 3],
        [6, 1, 4],
        [4, 6, 2],
        [5, 6, 2],
        [6, 5, 0],
    ]
)

# Entity indices of the spoke endpoints in counterclockwise order around
# the barycenter; the wedge between spokes j and j+1 is sub-triangle j.
SPOKES = np.array([0, 3, 1, 4, 2, 5])

# Rows of the coefficient vector (length 19) that form each sub-triangle's
# quadratic in the order (c200, c020, c002, c110, c011, c101).
SUB_COEF = np.array(
    [
        [0, 12, 18, 3, 15, 4],
        [1, 18, 12, 7, 15, 8],
        [18, 1, 13, 7, 6, 16],
        [13, 18, 2, 16, 10, 11],
        [14, 18, 2, 17, 10, 9],
        [18, 14, 0, 17, 5, 4],
    ]
)

# Entity indices of each corner's three first-ring targets: the split point
# on the corner's own edge, the barycenter, the split point on the edge
# before it. Coefficient row 3 + 3 * corner + target lies halfway toward it.
RING_TARGETS = np.array([[3, 6, 5], [4, 6, 3], [5, 6, 4]])

_BARY_TOL = 1e-12
# A warm-started point stays in its previous sub-triangle when all its
# barycentrics there exceed this: its macro barycentrics are then at least
# about a third of it, far above _BARY_TOL, so a cold walk ends there too.
# It is also the tie band: a point whose macro barycentrics all exceed it
# lies in no other triangle within _BARY_TOL, even though spherical
# barycentrics scale differently from one triangle to the next.
_KEEP_MARGIN = 1e-10
_GRID_SENTINEL = np.iinfo(np.int64).max


@dataclass
class SphereMesh:
    level: int
    vertices: np.ndarray
    triangles: np.ndarray
    adjacency: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    macro_inv: np.ndarray
    sub_inv: np.ndarray
    spoke_normals: np.ndarray
    rs: np.ndarray
    center_bary: np.ndarray
    ring_cos: np.ndarray
    ring_half_sin: np.ndarray
    ring_g1: np.ndarray
    ring_g2: np.ndarray
    grid_start: np.ndarray
    vertex_tris: np.ndarray

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]


def _icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts = radial_project(verts)
    tris = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    # Enforce outward (counterclockwise seen from outside) orientation.
    dets = np.linalg.det(verts[tris])
    flip = dets < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return verts, tris


def _edge_table(n_verts, tris):
    """Unique edges, per-triangle edge ids, and sorted endpoint pairs.

    Edge slot j of a triangle joins its vertices j and (j+1) % 3.
    """
    slots = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    lo = slots.min(axis=1)
    hi = slots.max(axis=1)
    keys = lo * np.int64(n_verts) + hi
    uniq, inverse = np.unique(keys, return_inverse=True)
    edges = np.stack([uniq // n_verts, uniq % n_verts], axis=1)
    tri_edges = inverse.reshape(-1, 3)
    return edges, tri_edges


def _refine_once(verts, tris):
    n_verts = verts.shape[0]
    edges, tri_edges = _edge_table(n_verts, tris)
    mids = radial_project(verts[edges[:, 0]] + verts[edges[:, 1]])
    mid_idx = n_verts + np.arange(edges.shape[0], dtype=np.int64)
    m = mid_idx[tri_edges]
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    m01, m12, m20 = m[:, 0], m[:, 1], m[:, 2]
    children = np.stack(
        [
            np.stack([v0, m01, m20], axis=1),
            np.stack([v1, m12, m01], axis=1),
            np.stack([v2, m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ],
        axis=1,
    ).reshape(-1, 3)
    return np.vstack([verts, mids]), children


def _adjacency(slots):
    """Neighbor triangle across each edge slot: the owner of the other slot."""
    adj = np.empty(slots.size, dtype=np.int64)
    adj[slots] = slots[:, ::-1] // 3
    return adj.reshape(-1, 3)


def _edge_split_points(verts, edges, edge_tris_pair, centers):
    """Split point on each edge, shared by both adjacent macro triangles.

    The quadratic macro-elements are C1 across a shared edge only when the
    split point lies on the great circle through the barycenters of the two
    adjacent triangles, so each split is the intersection of that circle
    with the edge's own great circle, taken on the arc between the
    endpoints. On the base icosahedron this coincides with the normalized
    chord midpoint; on refined meshes it differs at order h^2.
    """
    a = verts[edges[:, 0]]
    b = verts[edges[:, 1]]
    c1 = centers[edge_tris_pair[:, 0]]
    c2 = centers[edge_tris_pair[:, 1]]
    line = np.cross(np.cross(c1, c2), np.cross(a, b))
    sign = np.sum(line * (a + b), axis=-1)
    if np.any(np.abs(sign) < 1e-14) or np.any(
        np.linalg.norm(line, axis=-1) < 1e-14
    ):
        raise DegenerateTriangle("edge and barycenter great circles coincide")
    return radial_project(np.sign(sign)[:, None] * line)


def _edge_weights(splits, a, b):
    """Weights (r, s) with split = r a + s b for unit a, b on one great circle."""
    d = np.sum(a * b, axis=-1)
    den = 1.0 - d * d
    if np.any(den < 1e-12):
        raise DegenerateTriangle("edge endpoints are (anti)parallel")
    pa = np.sum(splits * a, axis=-1)
    pb = np.sum(splits * b, axis=-1)
    r = (pa - d * pb) / den
    s = (pb - d * pa) / den
    return r, s


def _edge_geometry(verts, tris):
    """Edges, each triangle's edge ids, the two flat slots (3 * triangle +
    slot) of each edge, lower first, the barycenters, and each triangle's
    split points (n_triangles, 3, 3); the build keeps only what they give."""
    edges, tri_edges = _edge_table(verts.shape[0], tris)
    slots = np.argsort(tri_edges.ravel(), kind="stable").reshape(-1, 2)
    centers = radial_project(verts[tris].sum(axis=1))
    splits = _edge_split_points(verts, edges, slots // 3, centers)[tri_edges]
    return edges, tri_edges, slots, centers, splits


def _ring_constants(entities, g1, g2):
    """Cosine and half sine of each corner-to-target angle and the g1, g2
    components of the unit tangent toward the target, (3, 3, n_triangles)."""
    base = entities[:, :3, None, :]
    e = np.take(entities, RING_TARGETS, axis=1)
    cosw = np.sum(base * e, axis=-1)
    e -= cosw[..., None] * base
    sinw = np.linalg.norm(e, axis=-1)
    e /= sinw[..., None]
    eg1 = np.sum(e * g1[:, :, None, :], axis=-1)
    eg2 = np.sum(e * g2[:, :, None, :], axis=-1)
    return [np.ascontiguousarray(x.transpose(1, 2, 0)) for x in (cosw, 0.5 * sinw, eg1, eg2)]


def _build_grid(centers, cells_theta, cells_lam):
    lam, theta = cart_to_sph(centers)
    it = np.clip((theta / np.pi * cells_theta).astype(np.int64), 0, cells_theta - 1)
    il = np.clip(
        (lam / (2.0 * np.pi) * cells_lam).astype(np.int64), 0, cells_lam - 1
    )
    grid = np.full((cells_theta, cells_lam), _GRID_SENTINEL, dtype=np.int64)
    np.minimum.at(grid, (it, il), np.arange(centers.shape[0], dtype=np.int64))
    # Flood empty cells from filled neighbors (wrapping in longitude).
    while np.any(grid == _GRID_SENTINEL):
        best = grid.copy()
        for shifted in (
            np.roll(grid, 1, axis=1),
            np.roll(grid, -1, axis=1),
            np.vstack([grid[:1], grid[:-1]]),
            np.vstack([grid[1:], grid[-1:]]),
        ):
            best = np.minimum(best, shifted)
        grid = np.where(grid == _GRID_SENTINEL, best, grid)
    return grid


def build_icosahedral(level):
    """Build the level-times refined icosahedral triangulation.

    Parameters
    ----------
    level : int
        Number of 4-to-1 refinements, between 0 and MAX_LEVEL.

    Returns
    -------
    SphereMesh
    """
    if not 0 <= level <= MAX_LEVEL:
        raise RefinementTooDeep(
            "refinement level %r outside [0, %d]" % (level, MAX_LEVEL)
        )
    verts, tris = _icosahedron()
    for _ in range(level):
        verts, tris = _refine_once(verts, tris)

    _, _, slots, centers, splits = _edge_geometry(verts, tris)
    adjacency = _adjacency(slots)

    corners = verts[tris]
    r, s = _edge_weights(
        splits,
        corners,
        corners[:, [1, 2, 0], :],
    )
    if np.any(r <= 0.0) or np.any(s <= 0.0):
        raise DegenerateTriangle("edge split point fell outside its edge arc")
    rs = np.array([r.T, s.T])

    macro = corners.transpose(0, 2, 1)
    dets = np.linalg.det(macro)
    if np.any(np.abs(dets) < 1e-12):
        raise DegenerateTriangle("macro triangle vertices are nearly coplanar")
    if np.any(dets < 0):
        raise DegenerateTriangle("macro triangle with inward orientation")
    macro_inv = np.linalg.inv(macro)

    entities = np.concatenate([corners, splits, centers[:, None, :]], axis=1)
    g1, g2 = vertex_frames(verts)
    # Before the sub-triangle inverses, so their memory peaks do not add up.
    ring_cos, ring_half_sin, ring_g1, ring_g2 = _ring_constants(
        entities, g1[tris], g2[tris]
    )

    # C order, so that the inverses are too and flatten to (6 T, 3, 3) freely.
    sub_mats = np.ascontiguousarray(entities[:, SUB_VERTS, :].transpose(0, 1, 3, 2))
    sub_dets = np.linalg.det(sub_mats)
    if np.any(np.abs(sub_dets) < 1e-12):
        raise DegenerateTriangle("sub-triangle vertices are nearly coplanar")
    sub_inv = np.linalg.inv(sub_mats)

    spoke_normals = np.cross(centers[:, None, :], entities[:, SPOKES, :])
    center_bary = np.ascontiguousarray(np.einsum("tij,tj->ti", macro_inv, centers).T)

    cells = int(min(256, max(8, 2 ** (level + 2))))
    grid = _build_grid(centers, cells, cells)
    # Incident triangles of each vertex in ascending order, the lowest one
    # repeated where a vertex has only five.
    order = np.argsort(tris.ravel(), kind="stable")
    ids = np.arange(verts.shape[0])
    lo, hi = (np.searchsorted(tris.ravel()[order], ids, side) for side in ("left", "right"))
    fan = lo[:, None] + np.arange(6)
    vertex_tris = order[np.where(fan < hi[:, None], fan, lo[:, None])] // 3

    return SphereMesh(
        level=level,
        vertices=verts,
        triangles=tris,
        adjacency=adjacency,
        g1=g1,
        g2=g2,
        macro_inv=macro_inv,
        sub_inv=sub_inv,
        spoke_normals=spoke_normals,
        rs=rs,
        center_bary=center_bary,
        ring_cos=ring_cos,
        ring_half_sin=ring_half_sin,
        ring_g1=ring_g1,
        ring_g2=ring_g2,
        grid_start=grid,
        vertex_tris=vertex_tris,
    )


def _grid_seed(mesh, p):
    lam, theta = cart_to_sph(p)
    ct, cl = mesh.grid_start.shape
    it = np.clip((theta / np.pi * ct).astype(np.int64), 0, ct - 1)
    il = np.clip((lam / (2.0 * np.pi) * cl).astype(np.int64), 0, cl - 1)
    return mesh.grid_start[it, il]


def _macro_bary(mesh, tri, p):
    return np.einsum("kij,kj->ki", np.take(mesh.macro_inv, tri, axis=0), p)


def _sub_bary(mesh, tri, sub, p):
    inv = np.take(mesh.sub_inv.reshape(-1, 3, 3), tri * 6 + sub, axis=0)
    return np.einsum("kij,kj->ki", inv, p)


def _walk(mesh, p, cur):
    """Walk each point from triangle cur (updated in place) to one that
    contains it, crossing the edge with the most negative barycentric
    coordinate. A crossed edge's barycentric changes sign in the next
    triangle, so the walk never steps straight back. Returns the points'
    macro barycentrics in the final triangles."""
    bary = _macro_bary(mesh, cur, p)
    out = bary.min(axis=1) < -_BARY_TOL
    moving = np.flatnonzero(out)
    bm = bary[out]
    max_steps = 4 * mesh.n_triangles
    steps = 0
    while moving.size:
        steps += 1
        if steps > max_steps:
            raise LocationFailure("point location walk exceeded %d steps" % max_steps)
        nxt = mesh.adjacency[cur[moving], (bm.argmin(axis=1) + 1) % 3]
        cur[moving] = nxt
        b = _macro_bary(mesh, nxt, p[moving])
        bary[moving] = b
        out = b.min(axis=1) < -_BARY_TOL
        moving = moving[out]
        bm = b[out]
    return bary


def _lowest_containing(mesh, p, cur, b):
    """Move points near their triangle's boundary to the lowest-index
    triangle that contains them, updating cur in place.

    b holds the points' macro barycentrics in cur. Every triangle that
    contains a point within _BARY_TOL touches the edge or vertex it is near,
    so it is incident to the corner of cur with the largest barycentric;
    cur is among those candidates and always counts as containing.
    """
    rows = np.flatnonzero(b.min(axis=1) <= _KEEP_MARGIN)
    cand = mesh.vertex_tris[mesh.triangles[cur[rows], b[rows].argmax(axis=1)]]
    inside = cand == cur[rows, None]
    q = p[rows]
    # One candidate column at a time keeps the gathered inverses at (r, 3, 3).
    for c in range(6):
        inside[:, c] |= _macro_bary(mesh, cand[:, c], q).min(axis=1) >= -_BARY_TOL
    cur[rows] = cand[np.arange(rows.size), inside.argmax(axis=1)]


def _locate_from(mesh, p, seed):
    """Locate points p by walking from the triangles seed, which is
    updated in place and returned as their triangles."""
    _lowest_containing(mesh, p, seed, _walk(mesh, p, seed))
    d = np.einsum("ksj,kj->ks", np.take(mesh.spoke_normals, seed, axis=0), p)
    score = np.minimum(d, -np.roll(d, -1, axis=1))
    sub = score.argmax(axis=1)
    return seed, sub, _sub_bary(mesh, seed, sub, p)


def locate_batch(mesh, p, start=None):
    """Locate unit points in the triangulation.

    Walks from a start triangle toward each query, crossing the edge with
    the most negative barycentric coordinate; containment allows
    coordinates down to -1e-12. The result is the lowest-index triangle
    that contains the point within 1e-12, chosen among the incident
    triangles of its nearest corner, so it does not depend on the start.

    Without start, walks begin at a lat-long grid of triangles. With
    start, the previous location of the same points, a point whose
    barycentrics in its previous sub-triangle all exceed 1e-10 keeps it and
    the others walk from their previous triangle; the result is exactly
    that of a call without start.

    Parameters
    ----------
    mesh : SphereMesh
    p : array, shape (n, 3)
    start : (tri, sub, bary) tuple, optional
        A previous result of locate_batch for n points.

    Returns
    -------
    tri : int array, shape (n,)
    sub : int array, shape (n,)
    bary : array, shape (n, 3)
        Spherical barycentric coordinates in the located sub-triangle.

    Raises
    ------
    LocationFailure
        If a walk exceeds 4 * n_triangles steps.
    """
    p = np.asarray(p, dtype=float)
    if start is None:
        return _locate_from(mesh, p, _grid_seed(mesh, p))
    tri, sub = start[0].copy(), start[1].copy()
    bary = _sub_bary(mesh, tri, sub, p)
    moved = np.flatnonzero(bary.min(axis=1) <= _KEEP_MARGIN)
    if moved.size:
        tri[moved], sub[moved], bary[moved] = _locate_from(mesh, p[moved], tri[moved])
    return tri, sub, bary


def _side_arcs(mesh):
    """Arc lengths of each triangle's sides v1v2, v2v0 and v0v1."""
    v = mesh.vertices[mesh.triangles]
    return [great_circle_distance(v[:, i], v[:, (i + 1) % 3]) for i in (1, 2, 0)]


def h_max(mesh):
    """Longest edge arc, the mesh size parameter."""
    return float(max(side.max() for side in _side_arcs(mesh)))


def triangle_areas(mesh):
    """Spherical areas via l'Huilier's theorem, shape (n_triangles,)."""
    a, b, c = _side_arcs(mesh)
    s = 0.5 * (a + b + c)
    t = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - a))
        * np.tan(0.5 * (s - b))
        * np.tan(0.5 * (s - c))
    )
    return 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))


def save_mesh(mesh, vertices_path, triangles_path):
    """Write plain-text vertex ("x y z") and triangle ("i j k") tables."""
    np.savetxt(vertices_path, mesh.vertices, fmt="%.17g")
    np.savetxt(triangles_path, mesh.triangles, fmt="%d")
