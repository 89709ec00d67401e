"""Finite-difference stencils for Hermite data at mesh vertices.

Each vertex gets four sample points displaced by +-eps along its tangent
frame and projected back to the sphere. Averaging and differencing the
four samples recovers the value and the two frame derivatives to second
order in eps.
"""

import numpy as np

from .geom import radial_project

# Stencil half-width: its O(eps^2) truncation (~1e-10) and the rounding its
# 1/eps differences amplify (~1e-11) stay below the spline error at any level.
EPSILON = 1e-5

# Corner offsets in frame coordinates, units of eps. Order matters: the
# reconstruction below indexes samples by this layout.
OFFSETS = ((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))


def build_stencils(mesh, epsilon):
    """Four projected tangent-frame corner points per mesh vertex, shape
    (n_vertices, 4, 3) in OFFSETS order; runs use EPSILON."""
    off = epsilon * np.array(OFFSETS)
    return radial_project(
        mesh.vertices[:, None]
        + off[:, :1] * mesh.g1[:, None]
        + off[:, 1:] * mesh.g2[:, None]
    )


def reconstruct_hermite(samples, epsilon):
    """Recover values and frame derivatives from stencil samples.

    samples : array, shape (n, 4) or (n, 4, m)
        Function values at the four corner points, in OFFSETS order.

    Returns (values, d1, d2) with the leading-axis shape of samples minus
    the stencil axis.
    """
    s = np.asarray(samples, dtype=float)
    s0, s1, s2, s3 = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    values = (s0 + s1 + s2 + s3) / 4.0
    d1 = (s1 - s0 + s3 - s2) / (4.0 * epsilon)
    d2 = (s2 - s0 + s3 - s1) / (4.0 * epsilon)
    return values, d1, d2
