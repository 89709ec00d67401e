"""Globally C1 quadratic spline interpolation from vertex Hermite data.

Each macro triangle carries 19 quadratic coefficients assembled from vertex
values and tangent-frame gradient components. The six sub-triangles share
these coefficients through the layout in mesh.SUB_COEF, which enforces C1
joins across all interior spokes; C1 across macro edges follows from the
placement of the edge split points.

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
    """Coefficient array (n_triangles, 19, m) for vertex Hermite data.

    values, d1, d2 have shape (n_vertices, m); d1 and d2 are the
    derivatives along the mesh vertex frames g1 and g2.
    """
    tris = mesh.triangles
    f = values[tris]
    # Row 3 + 3 * corner + target, targets in mesh.RING_TARGETS order:
    # cos * f + half_sin * (derivative of f toward the target).
    de = (
        d1[tris][:, :, None, :] * mesh.ring_g1[..., None]
        + d2[tris][:, :, None, :] * mesh.ring_g2[..., None]
    )
    ring = mesh.ring_cos[..., None] * f[:, :, None, :] + mesh.ring_half_sin[..., None] * de

    n_tris = tris.shape[0]
    m = values.shape[1]
    c = np.empty((n_tris, 19, m))
    c[:, 0:3] = f
    c[:, 3:12] = ring.reshape(n_tris, 9, m)

    r = mesh.rs[..., 0]
    s = mesh.rs[..., 1]
    for row, (edge, i, j) in enumerate(EDGE_ROWS, start=12):
        c[:, row] = r[:, edge, None] * c[:, i] + s[:, edge, None] * c[:, j]
    a = mesh.center_bary
    c[:, 18] = (
        a[:, 0, None] * c[:, 4] + a[:, 1, None] * c[:, 7] + a[:, 2, None] * c[:, 10]
    )
    return c


class MacroSpline:
    """A C1 quadratic spline over a macro-split spherical triangulation;
    coeffs has shape (n_triangles, 19, m)."""

    def __init__(self, mesh, coeffs):
        self.mesh = mesh
        self.coeffs = coeffs

    def _first_stage(self, tri, sub, bary):
        """Gather each point's six sub-triangle coefficients and run the
        first de Casteljau stage, giving three (n, m) partial values."""
        cf = self.coeffs[tri[:, None], SUB_COEF[sub]]
        b1 = bary[:, 0, None]
        b2 = bary[:, 1, None]
        b3 = bary[:, 2, None]
        e1 = b1 * cf[:, 0] + b2 * cf[:, 3] + b3 * cf[:, 5]
        e2 = b1 * cf[:, 3] + b2 * cf[:, 1] + b3 * cf[:, 4]
        e3 = b1 * cf[:, 5] + b2 * cf[:, 4] + b3 * cf[:, 2]
        return e1, e2, e3

    def eval_located(self, tri, sub, bary):
        """Values at already-located points, shape (n, m)."""
        e1, e2, e3 = self._first_stage(tri, sub, bary)
        return bary[:, 0, None] * e1 + bary[:, 1, None] * e2 + bary[:, 2, None] * e3

    def derivative_located(self, tri, sub, bary, g):
        """Derivatives along directions g (n, q, 3) at located points,
        shape (n, q, m); every direction shares one gather and stage."""
        e1, e2, e3 = self._first_stage(tri, sub, bary)
        bg = np.einsum("nij,nqj->nqi", self.mesh.sub_inv[tri, sub], g)
        return 2.0 * (
            bg[..., 0, None] * e1[:, None]
            + bg[..., 1, None] * e2[:, None]
            + bg[..., 2, None] * e3[:, None]
        )
