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
barycentric coordinates.
"""

import numpy as np

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


def build_coefficients(mesh, values, d1, d2):
    """Coefficient array (n_triangles, 19, m) for vertex Hermite data, a
    transposed view of a component-major (m, 19, n_triangles) buffer.

    values, d1, d2 have shape (n_vertices, m); d1 and d2 are the
    derivatives along the mesh vertex frames g1 and g2.
    """
    tris = mesh.triangles
    g1, g2, cos, half_sin, (r, s), w = (
        mesh.ring_g1, mesh.ring_g2, mesh.ring_cos, mesh.ring_half_sin, mesh.rs, mesh.center_bary)
    values, d1, d2 = (np.ascontiguousarray(x.T) for x in (values, d1, d2))
    c = np.empty((values.shape[0], 19, tris.shape[0]))
    for a in range(3):
        f_a, d1_a, d2_a = (np.take(x, tris[:, a], axis=1) for x in (values, d1, d2))
        c[:, a] = f_a
        # Row 3 + 3 * corner + target, targets in mesh.RING_TARGETS order:
        # cos * f + half_sin * (derivative of f toward the target).
        for b in range(3):
            de = d1_a * g1[a, b] + d2_a * g2[a, b]
            c[:, 3 + 3 * a + b] = cos[a, b] * f_a + half_sin[a, b] * de
    for row, (edge, i, j) in enumerate(EDGE_ROWS, start=12):
        c[:, row] = r[edge] * c[:, i] + s[edge] * c[:, j]
    c[:, 18] = w[0] * c[:, 4] + w[1] * c[:, 7] + w[2] * c[:, 10]
    return c.transpose(2, 1, 0)


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

    def derivative_located(self, tri, sub, bary, g):
        """Values (n, m), bit-identical to eval_located's, and derivatives
        along directions g (n, q, 3), shape (n, q, m), both in C order, at
        located points; the values and every direction share one gather."""
        b, e1, e2, e3 = self._first_stage(tri, sub, bary)
        sub_inv = self.mesh.sub_inv.reshape(-1, 3, 3)
        bg = np.einsum("nij,nqj->nqi", np.take(sub_inv, tri * 6 + sub, axis=0), g)
        ders, tmp = np.empty(bg.shape[:2] + e1.shape[:1]), np.empty_like(e1)
        for j in range(bg.shape[1]):  # through direction j's (m, n) view of ders
            _combine(bg[:, j].T, e1, e2, e3, ders[:, j].T, tmp)
        ders *= 2.0
        del bg  # before the values' output copy, which sets the peak otherwise
        return np.ascontiguousarray(_combine(b, e1, e2, e3, e1, tmp).T), ders


def _combine(b, x, y, z, out, tmp):
    """(b[0] x + b[1] y) + b[2] z into out, which may be x, with (n,) rows
    b[i] against (m, n) rows x, y, z and scratch tmp of out's shape."""
    np.multiply(b[0], x, out=out)
    np.multiply(b[1], y, out=tmp)
    out += tmp
    np.multiply(b[2], z, out=tmp)
    out += tmp
    return out

