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

from dataclasses import dataclass

import numpy as np

from .mesh import SUB_COEF, locate_batch


@dataclass
class HermiteData:
    """Vertex samples of a function: values and frame gradient components.

    values, d1, d2 have shape (n_vertices,) for scalar data or
    (n_vertices, m) for m-component data. d1 and d2 are the derivatives
    along the mesh vertex frames g1 and g2.
    """

    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


class _SplineGeometry:
    """Per-mesh constants turning Hermite data into coefficients.

    For corner a of each triangle and each of its three targets (the split
    point on the next edge, the barycenter, the split point on the previous
    edge) we store cos/sin of the corner-to-target angle and the frame
    components of the unit tangent at the corner toward the target. The
    first-ring coefficient at the midpoint of corner v toward target w is
    then cos * f(v) + sin * D_e f(v) / 2.
    """

    def __init__(self, mesh):
        tris = mesh.triangles
        corners = mesh.vertices[tris]
        targets = np.stack(
            [
                mesh.splits,
                np.broadcast_to(mesh.centers[:, None, :], mesh.splits.shape),
                mesh.splits[:, [2, 0, 1], :],
            ],
            axis=2,
        )
        base = corners[:, :, None, :]
        cosw = np.sum(base * targets, axis=-1)
        raw = targets - cosw[..., None] * base
        sinw = np.linalg.norm(raw, axis=-1)
        e = raw / sinw[..., None]
        g1 = mesh.g1[tris][:, :, None, :]
        g2 = mesh.g2[tris][:, :, None, :]
        self.cosw = cosw
        self.sinw = sinw
        self.eg1 = np.sum(e * g1, axis=-1)
        self.eg2 = np.sum(e * g2, axis=-1)


def _geometry(mesh):
    if mesh.spline_geom is None:
        mesh.spline_geom = _SplineGeometry(mesh)
    return mesh.spline_geom


def build_coefficients(mesh, values, d1, d2):
    """Coefficient array (n_triangles, 19, m) for the given Hermite data."""
    geo = _geometry(mesh)
    tris = mesh.triangles
    f = values[tris]
    dd1 = d1[tris]
    dd2 = d2[tris]
    de = dd1[:, :, None, :] * geo.eg1[..., None] + dd2[:, :, None, :] * geo.eg2[..., None]
    ring = geo.cosw[..., None] * f[:, :, None, :] + 0.5 * geo.sinw[..., None] * de

    n_tris = tris.shape[0]
    m = values.shape[1]
    c = np.empty((n_tris, 19, m))
    c[:, 0:3] = f
    c[:, 3:12] = ring.reshape(n_tris, 9, m)

    r = mesh.rs[..., 0]
    s = mesh.rs[..., 1]
    c[:, 12] = r[:, 0, None] * c[:, 3] + s[:, 0, None] * c[:, 8]
    c[:, 13] = r[:, 1, None] * c[:, 6] + s[:, 1, None] * c[:, 11]
    c[:, 14] = r[:, 2, None] * c[:, 9] + s[:, 2, None] * c[:, 5]
    c[:, 15] = r[:, 0, None] * c[:, 4] + s[:, 0, None] * c[:, 7]
    c[:, 16] = r[:, 1, None] * c[:, 7] + s[:, 1, None] * c[:, 10]
    c[:, 17] = r[:, 2, None] * c[:, 10] + s[:, 2, None] * c[:, 4]
    a = mesh.center_bary
    c[:, 18] = (
        a[:, 0, None] * c[:, 4] + a[:, 1, None] * c[:, 7] + a[:, 2, None] * c[:, 10]
    )
    return c


class MacroSpline:
    """A C1 quadratic spline over a macro-split spherical triangulation."""

    def __init__(self, mesh, coeffs, scalar):
        self.mesh = mesh
        self.coeffs = coeffs
        self.scalar = scalar

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

    def eval(self, p):
        """Evaluate at unit points, shape (..., 3) -> (...,) or (..., m)."""
        p = np.asarray(p, dtype=float)
        tri, sub, bary = locate_batch(self.mesh, np.atleast_2d(p))
        out = self.eval_located(tri, sub, bary)
        if self.scalar:
            out = out[:, 0]
        return out[0] if p.ndim == 1 else out


def interpolate(mesh, data):
    """Build the spline interpolating Hermite data on the mesh vertices.

    Parameters
    ----------
    mesh : SphereMesh
    data : HermiteData
        Scalar (n_vertices,) or vector (n_vertices, m) arrays.

    Returns
    -------
    MacroSpline
    """
    values = np.asarray(data.values, dtype=float)
    d1 = np.asarray(data.d1, dtype=float)
    d2 = np.asarray(data.d2, dtype=float)
    scalar = values.ndim == 1
    if scalar:
        values = values[:, None]
        d1 = d1[:, None]
        d2 = d2[:, None]
    coeffs = build_coefficients(mesh, values, d1, d2)
    return MacroSpline(mesh, coeffs, scalar)
