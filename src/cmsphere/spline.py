"""Globally C1 quadratic spline interpolation from vertex Hermite data.

Each macro triangle carries 19 quadratic coefficients assembled from vertex
values and tangent-frame gradient components. The six sub-triangles share
these coefficients through the layout in mesh.SUB_COEF, which enforces C1
joins across all interior spokes; C1 across macro edges follows from the
placement of the edge split points. Splines store them row-major, one
contiguous (n_triangles, m) slab per coefficient row.

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
    transposed view of a row-major (19, n_triangles, m) buffer.

    values, d1, d2 have shape (n_vertices, m); d1 and d2 are the
    derivatives along the mesh vertex frames g1 and g2.
    """
    tris = mesh.triangles
    g1, g2, cos, half_sin, r, s, w = (x[..., None] for x in (
        mesh.ring_g1, mesh.ring_g2, mesh.ring_cos, mesh.ring_half_sin, *mesh.rs, mesh.center_bary))
    c = np.empty((19, tris.shape[0], values.shape[1]))
    for a in range(3):
        f_a, d1_a, d2_a = (np.take(x, tris[:, a], axis=0) for x in (values, d1, d2))
        c[a] = f_a
        # Row 3 + 3 * corner + target, targets in mesh.RING_TARGETS order:
        # cos * f + half_sin * (derivative of f toward the target).
        for b in range(3):
            de = d1_a * g1[a, b] + d2_a * g2[a, b]
            c[3 + 3 * a + b] = cos[a, b] * f_a + half_sin[a, b] * de
    for row, (edge, i, j) in enumerate(EDGE_ROWS, start=12):
        c[row] = r[edge] * c[i] + s[edge] * c[j]
    c[18] = w[0] * c[4] + w[1] * c[7] + w[2] * c[10]
    return c.transpose(1, 0, 2)


class MacroSpline:
    """A C1 quadratic spline over a macro-split spherical triangulation;
    coeffs (n_triangles, 19, m) is a view of the row-major buffer _rows."""

    def __init__(self, mesh, coeffs):
        self.mesh = mesh
        self._rows = np.ascontiguousarray(coeffs.transpose(1, 0, 2))
        self.coeffs = self._rows.transpose(1, 0, 2)

    def _first_stage(self, tri, sub, bary):
        """Gather each point's six sub-triangle coefficients and run the
        first de Casteljau stage, giving three (n, m) partial values."""
        _, n_tris, m = self._rows.shape
        flat = self._rows.reshape(-1, m)
        cf = np.take(flat, np.take(SUB_COEF.T * n_tris, sub, axis=1) + tri, axis=0)
        b1 = bary[:, 0, None]
        b2 = bary[:, 1, None]
        b3 = bary[:, 2, None]
        e1 = b1 * cf[0] + b2 * cf[3] + b3 * cf[5]
        e2 = b1 * cf[3] + b2 * cf[1] + b3 * cf[4]
        e3 = b1 * cf[5] + b2 * cf[4] + b3 * cf[2]
        return e1, e2, e3

    def eval_located(self, tri, sub, bary):
        """Values at already-located points, shape (n, m)."""
        return _last_stage(bary, *self._first_stage(tri, sub, bary))

    def derivative_located(self, tri, sub, bary, g):
        """Values (n, m), bit-identical to eval_located's, and derivatives
        along directions g (n, q, 3), shape (n, q, m), at located points;
        the values and every direction share one gather and stage."""
        e1, e2, e3 = self._first_stage(tri, sub, bary)
        sub_inv = self.mesh.sub_inv.reshape(-1, 3, 3)
        bg = np.einsum("nij,nqj->nqi", np.take(sub_inv, tri * 6 + sub, axis=0), g)
        return _last_stage(bary, e1, e2, e3), 2.0 * (
            bg[..., 0, None] * e1[:, None]
            + bg[..., 1, None] * e2[:, None]
            + bg[..., 2, None] * e3[:, None]
        )


def _last_stage(bary, e1, e2, e3):
    """The last de Casteljau stage: values (n, m) from the partial values."""
    return bary[:, 0, None] * e1 + bary[:, 1, None] * e2 + bary[:, 2, None] * e3
