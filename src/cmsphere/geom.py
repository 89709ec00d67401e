"""Geometry primitives on the embedded unit sphere.

All routines work on Cartesian coordinates with arrays shaped (..., 3), so
the same code serves single points and large batches.
"""

import numpy as np

from .errors import ZeroVector

# Threshold on |z| beyond which the reference axis for tangent frames
# switches from e3 to e1.
POLE_TOL = 1.0 - 1e-12

_E1 = np.array([1.0, 0.0, 0.0])
_E3 = np.array([0.0, 0.0, 1.0])


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
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n < 1e-300):
        raise ZeroVector("cannot radially project a (near-)zero vector")
    return v / n


def project_differential(xi, w):
    """Differential of radial_project at xi applied to w.

    Computes d/ds[(xi + s w)/|xi + s w|] at s = 0. xi need not be unit
    length; the result is tangent to the sphere at xi/|xi|.
    """
    n = np.linalg.norm(xi, axis=-1, keepdims=True)
    if np.any(n < 1e-300):
        raise ZeroVector("projection differential undefined at the origin")
    u = xi / n
    return (w - np.sum(u * w, axis=-1, keepdims=True) * u) / n


def area_form(x, t):
    """Area form x . (t0 x t1) of tangent pairs t (n, 2, 3) at points x (n, 3)."""
    return np.einsum("ij,ij->i", x, np.cross(t[:, 0], t[:, 1]))


def great_circle_distance(p, q):
    """Arc length between unit vectors, stable for small and large angles."""
    c = np.cross(p, q)
    s = np.linalg.norm(c, axis=-1)
    d = np.sum(p * q, axis=-1)
    return np.arctan2(s, d)


def sph_to_cart(lam, theta):
    """Cartesian point for longitude lam and colatitude theta."""
    lam = np.asarray(lam, dtype=float)
    theta = np.asarray(theta, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(lam), st * np.sin(lam), np.cos(theta)], axis=-1)


def cart_to_sph(p):
    """Longitude in [0, 2pi) and colatitude in [0, pi] of unit points.

    At the poles the longitude is 0 by convention (arctan2(0, 0) = 0).
    """
    p = np.asarray(p, dtype=float)
    theta = np.arccos(np.clip(p[..., 2], -1.0, 1.0))
    lam = np.arctan2(p[..., 1], p[..., 0]) % (2.0 * np.pi)
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


def rotate_about_axis(p, axis, angle):
    """Rotate points about an axis through the origin."""
    return np.asarray(p, dtype=float) @ rotation_matrix(axis, angle).T


def vertex_frames(base):
    """Deterministic orthonormal tangent frames at unit points.

    g1 is the normalized tangent projection of e3 (of e1 where |z| exceeds
    POLE_TOL) and g2 = base x g1, so that g1 x g2 = base everywhere.

    Parameters
    ----------
    base : array, shape (..., 3)

    Returns
    -------
    g1, g2 : arrays, shape (..., 3)
    """
    base = np.asarray(base, dtype=float)
    near_pole = np.abs(base[..., 2]) > POLE_TOL
    ref = np.where(near_pole[..., None], _E1, _E3)
    raw = ref - np.sum(ref * base, axis=-1, keepdims=True) * base
    g1 = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    g2 = np.cross(base, g1)
    return g1, g2

