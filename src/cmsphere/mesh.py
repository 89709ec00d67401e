"""Icosahedral geodesic triangulations with six-way macro-element splits.

Each macro triangle carries prefactored inverse vertex matrices for
barycentric solves on the macro triangle and on each of its six
sub-triangles, the determinants of the sub-triangle inverses (sub_det, for
the spline's closed-form Jacobian), and the constants that turn corner
Hermite data into quadratic spline coefficients. The barycenters and edge
split points these are derived from are build-time geometry: the mesh
keeps only the constants. Split points come from a global edge table, so
neighboring triangles see bit-identical geometry.

The spline constants keep the triangle axis T last: (corner, target, T) for
ring_*, (r or s, edge, T) for rs and (corner, T) for center_bary.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LocationFailure, RefinementTooDeep
from .geom import (_copy_columns, _cross3, _dot3, _min3, _norm3, cart_to_sph,
                   great_circle_distance, radial_project, vertex_frames)

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

# Sub-triangle of a point whose macro barycentrics b are ordered by
# (b0 > b1) + 2 (b1 > b2) + 4 (b2 > b0): sub-triangle 0 holds b0 > b1 > b2,
# 1 holds b1 > b0 > b2, and so on around the barycenter. The barycenter has
# b proportional to (1, 1, 1), so the corner spokes are the lines b_i = b_j
# and the split spokes lie O(h^2) off them.
_ORDER_SUB = np.array([0, 5, 1, 0, 3, 4, 2, 0])

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
# A point keeps a sub-triangle, a warm start's or the one a cold point's
# barycentric order picks, when all its barycentrics there exceed this: the
# spoke test picks it too, and the macro barycentrics are then at least
# about a third of it, far above _BARY_TOL, so a cold walk ends there too.
# It is also the tie band: a point whose macro barycentrics all exceed it
# lies in no other triangle within _BARY_TOL, even though spherical
# barycentrics scale differently from one triangle to the next.
_KEEP_MARGIN = 1e-10
_CENTRE_BLOCK = 1 << 14
# Triangles per block of the sub-triangle determinants: 432 KiB of inverses.
_DET_BLOCK = 1024


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
    sub_det: np.ndarray
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
    tris = np.array(  # counterclockwise seen from outside
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
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
    line = _cross3(_cross3(c1, c2), _cross3(a, b))
    sign = _dot3(line, a + b)
    return radial_project(np.sign(sign)[:, None] * line)


def _edge_weights(splits, a, b):
    """Weights (r, s) with split = r a + s b for unit a, b on one great circle."""
    d = _dot3(a, b)
    den = 1.0 - d * d
    pa = _dot3(splits, a)
    pb = _dot3(splits, b)
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
    cosw = _dot3(base, e)
    e -= cosw[..., None] * base
    sinw = _norm3(e)
    e /= sinw[..., None]
    eg1 = _dot3(e, g1[:, :, None, :])
    eg2 = _dot3(e, g2[:, :, None, :])
    return [np.ascontiguousarray(x.transpose(1, 2, 0)) for x in (cosw, 0.5 * sinw, eg1, eg2)]


def _centre_grid(mesh):
    """An int32 grid of 16 to 512 cells per axis, holding per cell a
    triangle that contains the cell's centre point. It is built from one
    cell holding triangle 0 by doubling the cells per axis; each new centre
    walks, in blocks of _CENTRE_BLOCK cells, from the coarse cell it lies
    in. Points seeded there walk less, and their locations do not depend
    on the seed."""
    grid = np.zeros(1, dtype=np.int64)
    cells = 1
    while cells < min(512, max(16, 2 ** (mesh.level + 3))):
        grid = np.repeat(np.repeat(grid.reshape(cells, cells), 2, axis=0), 2, axis=1).ravel()
        cells *= 2
        centre = (np.arange(cells) + 0.5) * (np.pi / cells)
        st, ct, sl, cl = np.sin(centre), np.cos(centre), np.sin(2.0 * centre), np.cos(2.0 * centre)
        for lo in range(0, grid.size, _CENTRE_BLOCK):
            hi = min(lo + _CENTRE_BLOCK, grid.size)
            it, il = np.divmod(np.arange(lo, hi), cells)
            p = np.stack([st[it] * cl[il], st[it] * sl[il], ct[it]], axis=1)
            _walk(mesh, p, grid[lo:hi])
    return grid.astype(np.int32).reshape(cells, cells)


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
    mesh = _triangulate(level)
    # Walked once the build's temporaries are gone, so they add no peak.
    mesh.grid_start = _centre_grid(mesh)
    return mesh


def _triangulate(level):
    """The mesh of build_icosahedral, without its seed grid."""
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
    rs = np.array([r.T, s.T])

    macro_inv = np.linalg.inv(corners.transpose(0, 2, 1))

    entities = np.concatenate([corners, splits, centers[:, None, :]], axis=1)
    g1, g2 = vertex_frames(verts)
    # Before the sub-triangle inverses, so their memory peaks do not add up.
    ring_cos, ring_half_sin, ring_g1, ring_g2 = _ring_constants(
        entities, g1[tris], g2[tris]
    )

    # C order, so that the inverses are too and flatten to (6 T, 3, 3) freely.
    sub_mats = np.ascontiguousarray(entities[:, SUB_VERTS, :].transpose(0, 1, 3, 2))
    sub_inv = np.linalg.inv(sub_mats)
    # Triple products of the rows, a block of triangles at a time: on the
    # whole array every strided column read would stream all 72 bytes of
    # each matrix from memory.
    sub_det = np.empty(sub_inv.shape[:2])
    for lo in range(0, len(tris), _DET_BLOCK):
        r = sub_inv[lo:lo + _DET_BLOCK]
        sub_det[lo:lo + _DET_BLOCK] = _dot3(r[..., 0, :], _cross3(r[..., 1, :], r[..., 2, :]))

    spoke_normals = _cross3(centers[:, None, :], entities[:, SPOKES, :])
    center_bary = np.ascontiguousarray(np.einsum("tij,tj->ti", macro_inv, centers).T)

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
        sub_det=sub_det,
        spoke_normals=spoke_normals,
        rs=rs,
        center_bary=center_bary,
        ring_cos=ring_cos,
        ring_half_sin=ring_half_sin,
        ring_g1=ring_g1,
        ring_g2=ring_g2,
        grid_start=None,
        vertex_tris=vertex_tris,
    )


def _grid_seed(mesh, p):
    """The seed grid's triangle for the cell each point lies in."""
    cells = mesh.grid_start.shape[0]
    lam, theta = cart_to_sph(p)
    it = np.clip((theta / np.pi * cells).astype(np.int64), 0, cells - 1)
    il = np.clip((lam / (2.0 * np.pi) * cells).astype(np.int64), 0, cells - 1)
    return np.take(mesh.grid_start.ravel(), it * cells + il).astype(np.int64)


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
    out = _min3(bary) < -_BARY_TOL
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
        out = _min3(b) < -_BARY_TOL
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
    rows = np.flatnonzero(_min3(b) <= _KEEP_MARGIN)
    if not rows.size:
        return
    cand = mesh.vertex_tris[mesh.triangles[cur[rows], b[rows].argmax(axis=1)]]
    inside = cand == cur[rows, None]
    q = p[rows]
    # One candidate column at a time keeps the gathered inverses at (r, 3, 3).
    for c in range(6):
        inside[:, c] |= _min3(_macro_bary(mesh, cand[:, c], q)) >= -_BARY_TOL
    cur[rows] = cand[np.arange(rows.size), inside.argmax(axis=1)]


def _locate_from(mesh, p, seed):
    """Locate points p by walking from the triangles seed, which is
    updated in place and returned as their triangles.

    The sub-triangle comes from the order of the walk's macro barycentrics.
    Points that lie within _KEEP_MARGIN of its edges, near a spoke or with
    barycentrics gone stale in _lowest_containing, take the spoke test
    instead, so every choice is the spoke test's."""
    b = _walk(mesh, p, seed)
    _lowest_containing(mesh, p, seed, b)
    sub = _ORDER_SUB[(b[:, 0] > b[:, 1]) + 2 * (b[:, 1] > b[:, 2]) + 4 * (b[:, 2] > b[:, 0])]
    bary = _sub_bary(mesh, seed, sub, p)
    near = np.flatnonzero(_min3(bary) <= _KEEP_MARGIN)
    if near.size:
        tri, q = seed[near], p[near]
        d = np.einsum("ksj,kj->ks", np.take(mesh.spoke_normals, tri, axis=0), q)
        score = np.minimum(d, -np.roll(d, -1, axis=1))
        sub[near] = score.argmax(axis=1)
        bary[near] = _sub_bary(mesh, tri, sub[near], q)
    return seed, sub, bary


def locate_batch(mesh, p, start=None):
    """Locate unit points in the triangulation.

    Walks from a start triangle toward each query, crossing the edge with
    the most negative barycentric coordinate; containment allows
    coordinates down to -1e-12. The result is the lowest-index triangle
    that contains the point within 1e-12, chosen among the incident
    triangles of its nearest corner, so it does not depend on the start.

    Without start, walks begin at the triangle that contains the centre of
    the point's lat-long grid cell. With start, a point whose barycentrics
    in its start sub-triangle all exceed 1e-10 keeps it and the others
    walk from their start triangle; the result is exactly that of a call
    without start, so any start is correct and a nearby one is fast: the
    points' previous location, or a neighbouring point's fresh one.

    Parameters
    ----------
    mesh : SphereMesh
    p : array, shape (n, 3)
    start : tuple, optional
        Per-point start triangles and sub-triangles, (tri, sub) int arrays
        of shape (n,); a previous result (tri, sub, bary) works too, and
        its bary is never read.

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
    if not p.flags.c_contiguous:  # for the einsums, which sum by memory order
        p = _copy_columns(p, np.empty(p.shape))
    if start is None:
        return _locate_from(mesh, p, _grid_seed(mesh, p))
    tri, sub = start[0].copy(), start[1].copy()
    bary = _sub_bary(mesh, tri, sub, p)
    moved = np.flatnonzero(_min3(bary) <= _KEEP_MARGIN)
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
