"""Sphere geometry primitives: projections, charts, frames, rotations."""

import numpy as np
import pytest
from conftest import memory_layouts

from cmsphere.errors import ZeroVector
from cmsphere.geom import (
    _any_below,
    _cross3,
    _dot3,
    _edot3,
    _min3,
    _norm3,
    area_form,
    cart_to_sph,
    great_circle_distance,
    project_differential,
    radial_project,
    rotation_matrix,
    sph_to_cart,
    vertex_frames,
)


def random_units(n, seed):
    rng = np.random.default_rng(seed)
    return radial_project(rng.standard_normal((n, 3)))


def test_radial_project_unit_norm():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((500, 3)) * 10.0
    p = radial_project(v)
    assert np.max(np.abs(np.linalg.norm(p, axis=1) - 1.0)) < 1e-15


def test_radial_project_zero_raises():
    with pytest.raises(ZeroVector):
        radial_project(np.zeros(3))


def test_radial_project_raises_past_nan_rows():
    # a NaN row beside a zero one must not hide the zero
    with pytest.raises(ZeroVector):
        radial_project(np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))


@pytest.mark.parametrize(
    "x",
    [
        np.array([]),
        np.array([np.nan]),
        np.array([np.nan, 0.0]),
        np.array([np.inf, -np.inf]),
        np.array([1e-301, np.nan, 2.0]),
        np.array([[3.0, np.nan], [1e-300, 5.0]]),
    ],
)
@pytest.mark.parametrize("bound", [1e-300, 0.5])
def test_any_below_matches_any_of_less(x, bound):
    assert bool(_any_below(x, bound)) == bool(np.any(x < bound))


def test_project_differential_tangency_and_fd():
    rng = np.random.default_rng(1)
    xi = rng.standard_normal((200, 3)) * 2.0
    w = rng.standard_normal((200, 3))
    d = project_differential(xi, w)
    u = radial_project(xi)
    assert np.max(np.abs(np.sum(d * u, axis=1))) < 1e-14
    # finite-difference check of d/ds (xi + s w)/|xi + s w| at s=0
    h = 1e-7
    fd = (radial_project(xi + h * w) - radial_project(xi - h * w)) / (2.0 * h)
    assert np.max(np.linalg.norm(fd - d, axis=1)) < 1e-6


def test_great_circle_distance_stability():
    p = np.array([1.0, 0.0, 0.0])
    near = radial_project(np.array([1.0, 1e-9, 0.0]))
    assert abs(great_circle_distance(p, near) - 1e-9) < 1e-15
    assert abs(great_circle_distance(p, -p) - np.pi) < 1e-12
    q = random_units(100, 2)
    d = great_circle_distance(np.broadcast_to(p, q.shape), q)
    assert np.all(d >= 0.0) and np.all(d <= np.pi)


def test_sph_cart_round_trip():
    pts = random_units(1000, 3)
    lam, theta = cart_to_sph(pts)
    assert np.all(lam >= 0.0) and np.all(lam < 2.0 * np.pi)
    back = sph_to_cart(lam, theta)
    assert np.max(np.linalg.norm(back - pts, axis=1)) < 1e-14


def test_cart_to_sph_poles():
    lam, theta = cart_to_sph(np.array([0.0, 0.0, 1.0]))
    assert lam == 0.0 and theta == 0.0
    lam, theta = cart_to_sph(np.array([0.0, 0.0, -1.0]))
    assert lam == 0.0 and abs(theta - np.pi) < 1e-15


def test_cart_to_sph_longitude_is_the_remainder_bit_for_bit():
    # the wrap of arctan2 into [0, 2pi) is the addition % makes, signed
    # zeros, poles, NaN and inf included
    special = np.array([[1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [-1.0, 0.0, 0.0], [-1.0, -0.0, 0.0],
                        [0.0, 0.0, 1.0], [-0.0, -0.0, 1.0], [0.0, 0.0, -1.0], [0.0, -0.0, -1.0],
                        [np.nan, 0.0, 0.0], [0.0, np.nan, 0.0], [np.inf, 1.0, 0.0],
                        [-np.inf, 1.0, 0.0], [1.0, -np.inf, 0.0], [-np.inf, -np.inf, 0.0],
                        [-1.0, -5e-324, 0.0]])
    for p in (random_units(1 << 16, 13), special):
        lam, _ = cart_to_sph(p)
        want = np.arctan2(p[:, 1], p[:, 0]) % (2.0 * np.pi)
        assert np.array_equal(lam.view(np.int64), want.view(np.int64))


def test_rotation_matrix_properties():
    rng = np.random.default_rng(4)
    for _ in range(20):
        axis = rng.standard_normal(3)
        ang = rng.uniform(-np.pi, np.pi)
        m = rotation_matrix(axis, ang)
        assert np.max(np.abs(m @ m.T - np.eye(3))) < 1e-14
        assert abs(np.linalg.det(m) - 1.0) < 1e-14
        u = axis / np.linalg.norm(axis)
        assert np.max(np.abs(m @ u - u)) < 1e-14
    with pytest.raises(ZeroVector):
        rotation_matrix(np.zeros(3), 0.3)


def test_vertex_frames_orthonormal():
    pts = random_units(2000, 6)
    g1, g2 = vertex_frames(pts)
    for g in (g1, g2):
        assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)) < 1e-14
        assert np.max(np.abs(np.sum(g * pts, axis=1))) < 1e-14
    assert np.max(np.abs(np.sum(g1 * g2, axis=1))) < 1e-14
    # right-handed: g1 x g2 recovers the base point
    assert np.max(np.linalg.norm(np.cross(g1, g2) - pts, axis=1)) < 1e-13


def test_vertex_frames_pole_branch():
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    g1, g2 = vertex_frames(poles)
    assert np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))
    assert np.max(np.linalg.norm(np.cross(g1, g2) - poles, axis=1)) < 1e-14



def special_rows():
    """Rows mixing NaN, infinities, signed zeros, subnormals and extremes."""
    vals = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e-160,
                     1e308, -1.0, 3.0])
    return vals[np.indices((vals.size,) * 3).reshape(3, -1).T]


@pytest.mark.parametrize("n", [40968, 1 << 18])
def test_row_helpers_match_numpy_on_random_rows(n):
    rng = np.random.default_rng(n)
    # magnitudes spread over many binades, so rounding order shows
    p = rng.standard_normal((n, 3)) * np.exp(rng.uniform(-20.0, 20.0, (n, 3)))
    q = rng.standard_normal((n, 3))
    assert np.array_equal(_min3(p), p.min(axis=1))
    assert np.array_equal(_norm3(p), np.linalg.norm(p, axis=-1))
    assert np.array_equal(_dot3(p, q), np.sum(p * q, axis=-1))
    assert np.array_equal(_cross3(p, q), np.cross(p, q))
    # broadcasting as the call sites use it: one axis vector, tangent bundles
    assert np.array_equal(_cross3(q[0], p), np.cross(q[0], p))
    u, w = p[:, None, :], np.stack([q, p], axis=1)
    assert np.array_equal(_dot3(u, w), np.sum(u * w, axis=-1))
    # _edot3 is einsum's contraction in every form the package replaced
    a = rng.standard_normal((n, 3, 3)) * np.exp(rng.uniform(-20.0, 20.0, (n, 3, 3)))
    assert np.array_equal(_edot3(p, q), np.einsum("ij,ij->i", p, q))
    assert np.array_equal(_edot3(a, p[:, None]), np.einsum("kij,kj->ki", a, p))
    assert np.array_equal(_edot3(a[:, None], w[:, :, None]), np.einsum("nij,nqj->nqi", a, w))


def test_row_helpers_match_numpy_on_special_rows():
    p = special_rows()
    q = p[::-1].copy()
    with np.errstate(all="ignore"):
        pairs = [
            (_min3(p), p.min(axis=1)),
            (_norm3(p), np.linalg.norm(p, axis=-1)),
            (_dot3(p, q), np.sum(p * q, axis=-1)),
            (_cross3(p, q), np.cross(p, q)),
            (_edot3(p, q), np.einsum("ij,ij->i", p, q)),
        ]
        norms = _norm3(p)
    for got, want in pairs:
        assert np.array_equal(got, want, equal_nan=True)
    # NaN propagates: every row holding one gives NaN
    has_nan = np.isnan(p).any(axis=1)
    assert np.array_equal(np.isnan(_min3(p)), has_nan)
    assert np.array_equal(np.isnan(norms), has_nan)


def test_area_form_does_not_depend_on_memory_order():
    rng = np.random.default_rng(12)
    x = random_units(5000, 13)
    t = rng.standard_normal((5000, 2, 3)) * np.exp(rng.uniform(-20.0, 20.0, (5000, 2, 3)))
    want = np.einsum("ij,ij->i", x, np.cross(t[:, 0], t[:, 1]))
    for xl in memory_layouts(x):
        for tl in memory_layouts(t):
            assert np.array_equal(area_form(xl, tl), want)


def test_pushed_tangents_keep_their_layout():
    # project_differential allocates like its tangents, so rows stay rows
    rng = np.random.default_rng(14)
    xi = rng.standard_normal((3000, 1, 3))
    w = rng.standard_normal((3000, 2, 3))
    want = project_differential(xi, w)
    for wl in memory_layouts(w):
        got = project_differential(xi, wl)
        assert np.array_equal(got, want)
        assert np.array_equal(np.argsort(got.strides), np.argsort(wl.strides))
