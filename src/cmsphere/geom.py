"""Geometry primitives on the embedded unit sphere.

All routines work on Cartesian coordinates with arrays shaped (..., 3), so
the same code serves single points and large batches, in any memory order.
"""

import numpy as np

from .errors import ZeroVector

# Threshold on |z| beyond which the reference axis for tangent frames
# switches from e3 to e1.
POLE_TOL = 1.0 - 1e-12

_E1 = np.array([1.0, 0.0, 0.0])
_E3 = np.array([0.0, 0.0, 1.0])


# Column forms of row operations over a last axis of length 3. numpy pays
# a per-row overhead for three elements; these combine the columns in the
# order it does, so they are bit-identical to min(axis=-1),
# np.linalg.norm(axis=-1), np.sum(p * q, axis=-1), np.cross and, for
# _edot3, to einsum's length-3 contraction of C-ordered operands, NaN
# included, and broadcast the same way. Their outputs follow the input's
# layout: on the (n, 3) view of (3, n) component rows every column is a
# contiguous row, and _cross3 allocates F-ordered for an F-ordered q and
# C-ordered otherwise, so C in gives C out and rows in give rows out.


def _min3(x):
    return np.minimum(np.minimum(x[..., 0], x[..., 1]), x[..., 2])


def _norm3(x):
    s = x[..., 0] * x[..., 0]
    s += x[..., 1] * x[..., 1]
    s += x[..., 2] * x[..., 2]
    return np.sqrt(s)


def _dot3(p, q):
    return p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] + p[..., 2] * q[..., 2]


def _edot3(p, q):
    # einsum's two-lane order; the left-to-right _dot3 matches it on 70% of rows
    return (p[..., 0] * q[..., 0] + p[..., 2] * q[..., 2]) + p[..., 1] * q[..., 1]


def _cross3(p, q):
    out = np.empty_like(q, dtype=float, order="A", shape=np.broadcast(p, q).shape)
    p0, p1, p2 = p[..., 0], p[..., 1], p[..., 2]
    q0, q1, q2 = q[..., 0], q[..., 1], q[..., 2]
    # Each column's first product goes straight to out, then loses the second.
    o0, o1, o2 = out[..., 0], out[..., 1], out[..., 2]
    np.subtract(np.multiply(p1, q2, out=o0), p2 * q1, out=o0)
    np.subtract(np.multiply(p2, q0, out=o1), p0 * q2, out=o1)
    np.subtract(np.multiply(p0, q1, out=o2), p1 * q0, out=o2)
    return out


def _any_below(x, bound):
    """np.any(x < bound) as one reduction: fmin passes over NaN, which
    compares False, and an empty x reads inf."""
    return np.fmin.reduce(x, axis=None, initial=np.inf) < bound


def _copy_columns(x, out):
    """Copy x (..., 3) into out, one column at a time, and return out:
    numpy's own copy between C order and (3, n) rows runs a 3-wide loop."""
    for j in range(3):
        out[..., j] = x[..., j]
    return out


def radial_project(v):
    """Send a nonzero vector to the unit sphere along its ray.

    Parameters
    ----------
    v : array, shape (..., 3)

    Returns
    -------
    array, shape (..., 3)
        v / |v|.

    Raises
    ------
    ZeroVector
        If any row has norm below 1e-300.
    """
    n = _norm3(v)[..., None]
    if _any_below(n, 1e-300):
        raise ZeroVector("cannot radially project a (near-)zero vector")
    return v / n


def project_differential(xi, w):
    """Differential of radial_project at xi applied to w.

    Computes d/ds[(xi + s w)/|xi + s w|] at s = 0. xi need not be unit
    length; the result is tangent to the sphere at xi/|xi|.
    """
    n = _norm3(xi)[..., None]
    if _any_below(n, 1e-300):
        raise ZeroVector("projection differential undefined at the origin")
    u = xi / n
    # Allocated like w, so pushed tangents keep the rows they came in.
    out = np.empty_like(w, dtype=float, shape=np.broadcast(xi, w).shape)
    np.multiply(_dot3(u, w)[..., None], u, out=out)
    np.subtract(w, out, out=out)
    out /= n
    return out


def area_form(x, t):
    """Area form x . (t0 x t1) of tangent pairs t (n, 2, 3) at points x (n, 3),
    summed in einsum's order, so its bits do not depend on memory order."""
    return _edot3(x, _cross3(t[:, 0], t[:, 1]))


def great_circle_distance(p, q):
    """Arc length between unit vectors, stable for small and large angles."""
    return np.arctan2(_norm3(_cross3(p, q)), _dot3(p, q))


def sph_to_cart(lam, theta):
    """Cartesian point for longitude lam and colatitude theta."""
    lam = np.asarray(lam, dtype=float)
    theta = np.asarray(theta, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(lam), st * np.sin(lam), np.cos(theta)], axis=-1)


def cart_to_sph(p):
    """Longitude in [0, 2pi) and colatitude in [0, pi] of unit points.

    At the poles the longitude is 0 by convention (arctan2(0, 0) = 0).
    The wrap is the one addition that arctan2(y, x) % 2pi makes for
    |arctan2| <= pi, bit for bit; adding 0.0 turns -0.0 into 0.0 as % does.
    """
    p = np.asarray(p, dtype=float)
    theta = np.arccos(np.clip(p[..., 2], -1.0, 1.0))
    lam = np.arctan2(p[..., 1], p[..., 0])
    lam = np.where(lam < 0.0, lam + 2.0 * np.pi, lam) + 0.0
    return lam, theta


def rotation_matrix(axis, angle):
    """3x3 rotation about an axis (Rodrigues form); axis need not be unit."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-300:
        raise ZeroVector("rotation axis must be nonzero")
    x, y, z = axis / n
    c, s = np.cos(angle), np.sin(angle)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) * c + np.outer([x, y, z], [x, y, z]) * (1.0 - c) + k * s


def vertex_frames(base):
    """Deterministic orthonormal tangent frames at unit points.

    g1 is the normalized tangent projection of e3 (of e1 where |z| exceeds
    POLE_TOL) and g2 = base x g1, so that g1 x g2 = base everywhere.

    Parameters
    ----------
    base : array, shape (..., 3)

    Returns
    -------
    g1, g2 : arrays, shape (..., 3), in base's memory order
    """
    base = np.asarray(base, dtype=float)
    near_pole = np.abs(base[..., 2]) > POLE_TOL
    ref = np.where(near_pole[..., None], _E1, _E3)
    raw = ref - _dot3(ref, base)[..., None] * base
    g1 = np.divide(raw, _norm3(raw)[..., None], out=np.empty_like(base))
    g2 = _cross3(base, g1)
    return g1, g2

