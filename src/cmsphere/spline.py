"""Globally C1 quadratic spline interpolation from vertex Hermite data.

Each macro triangle carries 19 quadratic coefficients assembled from vertex
values and tangent-frame gradient components. The six sub-triangles share
these coefficients through the layout in mesh.SUB_COEF, which enforces C1
joins across all interior spokes; C1 across macro edges follows from the
placement of the edge split points. Splines store them component-major,
so every operation runs on contiguous rows of triangles or of points.

Polynomials are evaluated in spherical barycentric coordinates, which need
not sum to one. Values use de Casteljau recursion; directional derivatives
use the barycentric gradient, with the direction vector itself expressed in
barycentric coordinates. The Jacobian determinant of a 3-component value
needs no direction: it is a triple product of the first de Casteljau stage.
"""

import numpy as np

from .geom import _cross3, _dot3, _edot3
from .mesh import SUB_COEF

# Rows 12-17 as (edge, i, j): row = r[edge] * c[i] + s[edge] * c[j] with the
# edge's split weights (r, s). Rows 12-14 sit at the split points of edges
# 01, 12, 20; rows 15-17 halfway from them toward the barycenter.
EDGE_ROWS = np.array(
    [
        [0, 3, 8],
        [1, 6, 11],
        [2, 9, 5],
        [0, 4, 7],
        [1, 7, 10],
        [2, 10, 4],
    ]
)


# Triangles per block of the ring rows: a block's (3, 3, B) scratch rows stay
# at 576 KiB, while meshes up to refinement 4 take a single block.
_RING_BLOCK = 8192


def build_coefficients(mesh, values, d1, d2):
    """Coefficient array (n_triangles, 19, m) for vertex Hermite data, a
    transposed view of a component-major (m, 19, n_triangles) buffer.

    values, d1, d2 have shape (n_vertices, m); d1 and d2 are the
    derivatives along the mesh vertex frames g1 and g2.
    """
    n_tris, m = mesh.n_triangles, values.shape[1]
    # Rows of value, d1 and d2 per component, gathered once per corner.
    data = np.empty((3, m, values.shape[0]))
    for x, rows in zip((values, d1, d2), data):
        rows[...] = x.T
    c = np.empty((m, 19, n_tris))
    size = min(n_tris, _RING_BLOCK)
    fgh, tmp = np.empty((3, m, size)), np.empty((m, 3, size))
    for lo in range(0, n_tris, size):
        k = slice(lo, min(lo + size, n_tris))
        n = k.stop - lo
        _ring_rows(mesh, data, k, c[..., k], fgh[..., :n], tmp[..., :n])
    if n_tris > size:
        tmp = np.empty((m, 3, n_tris))
    # Rows 12-17, three at a time: r * c[i] + s * c[j].
    rs = np.take(mesh.rs, EDGE_ROWS[:, 0], axis=1)
    for e in (slice(0, 3), slice(3, 6)):
        rows = c[:, 12 + e.start:12 + e.stop]
        np.take(c, EDGE_ROWS[e, 1], axis=1, out=tmp, mode="wrap")
        np.multiply(rs[0, e], tmp, out=rows)
        np.take(c, EDGE_ROWS[e, 2], axis=1, out=tmp, mode="wrap")
        tmp *= rs[1, e]
        rows += tmp
    w, center, t = mesh.center_bary, c[:, 18], tmp[:, 0]
    np.multiply(w[0], c[:, 4], out=center)
    np.multiply(w[1], c[:, 7], out=t)
    center += t
    np.multiply(w[2], c[:, 10], out=t)
    center += t
    return c.transpose(2, 1, 0)


def _ring_rows(mesh, data, k, c, fgh, tmp):
    """Rows 0-11 of the coefficients c (m, 19, B) of the mesh's triangles
    k, a slice, from the (3, m, n_vertices) rows data, with scratch fgh
    (3, m, B) and tmp (m, 3, B)."""
    tris = mesh.triangles[k]
    g1, g2, cos, half_sin = (
        x[..., k] for x in (mesh.ring_g1, mesh.ring_g2, mesh.ring_cos, mesh.ring_half_sin))
    for a in range(3):
        # The indices are in range; mode "wrap" lets take write to out unbuffered.
        np.take(data, tris[:, a], axis=2, out=fgh, mode="wrap")
        f, g, h = fgh
        c[:, a] = f
        # Rows 3 + 3 * corner + target, targets in mesh.RING_TARGETS order,
        # all three at once: cos * f + half_sin * (g1 * d1 + g2 * d2), the
        # derivative of f toward the target, built in place.
        ring = c[:, 3 + 3 * a:6 + 3 * a]
        np.multiply(g[:, None], g1[a], out=ring)
        np.multiply(h[:, None], g2[a], out=tmp)
        ring += tmp
        ring *= half_sin[a]
        np.multiply(cos[a], f[:, None], out=tmp)
        ring += tmp


class MacroSpline:
    """A C1 quadratic spline over a macro-split spherical triangulation;
    coeffs (n_triangles, 19, m) views its (m, 19, n_triangles) buffer _slabs."""

    def __init__(self, mesh, coeffs):
        self.mesh = mesh
        self._slabs = np.ascontiguousarray(coeffs.transpose(2, 1, 0))
        self.coeffs = self._slabs.transpose(2, 1, 0)

    def _first_stage(self, tri, sub, bary):
        """Gather each point's six sub-triangle coefficients, one (m, n) row
        each, and run the first de Casteljau stage: the barycentric rows
        (3, n) and three (m, n) partial values."""
        m, _, n_tris = self._slabs.shape
        slabs, rows = self._slabs.reshape(m, -1), SUB_COEF * n_tris
        c = [np.take(slabs, np.take(rows[:, i], sub) + tri, axis=1) for i in range(6)]
        b, tmp = np.ascontiguousarray(bary.T), np.empty_like(c[0])
        # Each partial value overwrites its first operand, which no later one reads.
        e1 = _combine(b, c[0], c[3], c[5], c[0], tmp)
        e2 = _combine(b, c[3], c[1], c[4], c[3], tmp)
        return b, e1, e2, _combine(b, c[5], c[4], c[2], c[5], tmp)

    def eval_located(self, tri, sub, bary):
        """Values at already-located points, shape (n, m), C order."""
        b, e1, e2, e3 = self._first_stage(tri, sub, bary)
        return np.ascontiguousarray(_combine(b, e1, e2, e3, e1, np.empty_like(e1)).T)

    def area_factor_located(self, tri, sub, bary):
        """Values (n, 3), bit-identical to eval_located's, and the factors
        4 det(B) det(E) (n,) at located points, with B the sub-triangle's
        sub_inv and E the first-stage partial values as columns.

        The value is a homogeneous quadratic in b = B p, so by Euler's
        identity it is (E B) p and its Jacobian is 2 E B. Divided by the
        value's norm cubed, the factor is the Jacobian determinant of the
        value's radial projection onto the sphere, taken in tangent frames
        with g1 x g2 = p at unit points p."""
        b, e1, e2, e3 = self._first_stage(tri, sub, bary)
        # det E differenced against e1, which the three nearly parallel
        # columns would otherwise lose to cancellation.
        det = _dot3(e1.T, _cross3((e2 - e1).T, (e3 - e1).T))
        det *= 4.0 * np.take(self.mesh.sub_det.ravel(), tri * 6 + sub)
        return np.ascontiguousarray(_combine(b, e1, e2, e3, e1, np.empty_like(e1)).T), det

    def derivative_located(self, tri, sub, bary, g):
        """Values (n, m), bit-identical to eval_located's, in C order, and
        derivatives along directions g (n, q, 3), shape (n, q, m), the view
        of (q, m, n) rows, at located points; the values and every
        direction share one gather. g is read as (q, 3, n) rows, which an
        (n, q, 3) view of such rows hands over without a copy."""
        b, e1, e2, e3 = self._first_stage(tri, sub, bary)
        inv = np.take(self.mesh.sub_inv.reshape(-1, 9), tri * 6 + sub, axis=0).reshape(-1, 3, 3)
        # Each direction in sub-triangle barycentrics, summed as einsum would.
        bg = [[_edot3(inv[:, i], gq.T) for i in range(3)] for gq in g.transpose(1, 2, 0)]
        del inv  # before the derivatives' buffers, which set the peak otherwise
        ders, tmp = np.empty((len(bg),) + e1.shape), np.empty_like(e1)
        for bq, out in zip(bg, ders):
            _combine(bq, e1, e2, e3, out, tmp)
        ders *= 2.0
        del bg  # likewise before the values' output copy
        return np.ascontiguousarray(_combine(b, e1, e2, e3, e1, tmp).T), ders.transpose(2, 0, 1)


def _combine(b, x, y, z, out, tmp):
    """(b[0] x + b[1] y) + b[2] z into out, which may be x, with (n,) rows
    b[i] against (m, n) rows x, y, z and scratch tmp of out's shape."""
    np.multiply(b[0], x, out=out)
    np.multiply(b[1], y, out=tmp)
    out += tmp
    np.multiply(b[2], z, out=tmp)
    out += tmp
    return out

