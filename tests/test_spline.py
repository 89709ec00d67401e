import numpy as np
import pytest
from conftest import (
    bernstein_value,
    derivative,
    edge_jumps,
    evaluate,
    interpolate,
    reference_coefficients,
    sample_sphere,
)

from cmsphere.mesh import SUB_COEF, build_icosahedral, locate_batch
from cmsphere.spline import MacroSpline, build_coefficients


@pytest.fixture(scope="module")
def mesh():
    return build_icosahedral(2)


@pytest.fixture(scope="module")
def generic(mesh):
    """Spline through arbitrary Hermite data, no underlying smooth function."""
    rng = np.random.default_rng(3)
    return interpolate(mesh, *rng.standard_normal((3, mesh.n_vertices)))


def quadratic_setup(mesh, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    a = 0.5 * (a + a.T)
    v = mesh.vertices
    f = np.einsum("ni,ij,nj->n", v, a, v)
    av = v @ a.T
    d1 = 2.0 * np.sum(mesh.g1 * av, axis=1)
    d2 = 2.0 * np.sum(mesh.g2 * av, axis=1)
    return a, interpolate(mesh, f, d1, d2)


def test_reproduces_spherical_quadratic(mesh):
    # v^T A v restricted to the sphere lies in the spline space, so the
    # interpolant must return it to rounding error
    a, sp = quadratic_setup(mesh)
    pts = sample_sphere(5000, seed=11)
    exact = np.einsum("ni,ij,nj->n", pts, a, pts)
    assert np.abs(evaluate(sp, pts)[:, 0] - exact).max() < 1e-13


def test_reproduces_quadratic_derivative(mesh):
    a, sp = quadratic_setup(mesh)
    rng = np.random.default_rng(5)
    pts = sample_sphere(5000, seed=11)
    g = rng.standard_normal((5000, 3))
    g -= np.sum(g * pts, axis=1, keepdims=True) * pts
    exact = 2.0 * np.einsum("ni,ij,nj->n", g, a, pts)
    assert np.abs(derivative(sp, pts, g)[:, 0] - exact).max() < 1e-12


def test_interpolates_vertex_data(mesh):
    rng = np.random.default_rng(9)
    values, d1, d2 = rng.standard_normal((3, mesh.n_vertices))
    sp = interpolate(mesh, values, d1, d2)
    assert np.abs(evaluate(sp, mesh.vertices)[:, 0] - values).max() < 1e-12
    assert np.abs(derivative(sp, mesh.vertices, mesh.g1)[:, 0] - d1).max() < 1e-10
    assert np.abs(derivative(sp, mesh.vertices, mesh.g2)[:, 0] - d2).max() < 1e-10


def test_c0_and_c1_across_macro_edges(generic):
    c0, c1 = edge_jumps(generic, n_pts=25)
    assert c0 < 1e-12
    assert c1 < 1e-9


def test_euler_identity(mesh, generic):
    # quadratics are homogeneous of degree 2, so the derivative along the
    # position vector itself is twice the value
    pts = sample_sphere(2000, seed=4)
    tri, sub, bary = locate_batch(mesh, pts)
    val = generic.eval_located(tri, sub, bary)
    rad = generic.derivative_located(tri, sub, bary, pts[:, None])[:, 0]
    assert np.abs(rad - 2.0 * val).max() < 1e-14


def test_de_casteljau_matches_bernstein(mesh):
    rng = np.random.default_rng(17)
    coeffs = rng.standard_normal((mesh.n_triangles, 19, 2))
    sp = MacroSpline(mesh, coeffs)
    pts = sample_sphere(4000, seed=8)
    tri, sub, bary = locate_batch(mesh, pts)
    direct = bernstein_value(coeffs[tri[:, None], SUB_COEF[sub]], bary)
    assert np.abs(sp.eval_located(tri, sub, bary) - direct).max() < 1e-14


def test_derivative_matches_finite_difference(mesh, generic):
    # central difference along a great circle, at points far enough inside
    # a sub-triangle that the step never crosses a C1 join
    pts = sample_sphere(5000, seed=11)
    _, _, bary = locate_batch(mesh, pts)
    pts = pts[bary.min(axis=1) > 0.05]
    rng = np.random.default_rng(6)
    g = rng.standard_normal(pts.shape)
    g -= np.sum(g * pts, axis=1, keepdims=True) * pts
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    h = 1e-5
    fd = (evaluate(generic, np.cos(h) * pts + np.sin(h) * g)
          - evaluate(generic, np.cos(h) * pts - np.sin(h) * g)) / (2.0 * h)
    assert np.abs(derivative(generic, pts, g) - fd).max() < 1e-8


def test_scalar_and_vector_shapes(mesh):
    rng = np.random.default_rng(2)
    scalar = interpolate(mesh, *rng.standard_normal((3, mesh.n_vertices)))
    vector = interpolate(mesh, *rng.standard_normal((3, mesh.n_vertices, 3)))
    assert scalar.coeffs.shape == (mesh.n_triangles, 19, 1)
    assert vector.coeffs.shape == (mesh.n_triangles, 19, 3)
    batch = sample_sphere(7, seed=0)
    located = locate_batch(mesh, batch)
    assert scalar.eval_located(*located).shape == (7, 1)
    assert vector.eval_located(*located).shape == (7, 3)
    g = np.array([0.0, 0.0, 1.0])
    gb = g - np.sum(batch * g, axis=1, keepdims=True) * batch
    assert derivative(scalar, batch, gb).shape == (7, 1)
    assert vector.derivative_located(*located, np.stack([gb, gb], axis=1)).shape == (7, 2, 3)


@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("m", [1, 3])
def test_row_build_matches_reference(level, m):
    mesh = build_icosahedral(level)
    rng = np.random.default_rng(level + 10 * m)
    values, d1, d2 = rng.standard_normal((3, mesh.n_vertices, m))
    coeffs = build_coefficients(mesh, values, d1, d2)
    assert coeffs.shape == (mesh.n_triangles, 19, m)
    assert np.array_equal(coeffs, reference_coefficients(mesh, values, d1, d2))


def test_constructor_paths_agree_and_share_one_buffer(mesh):
    # A spline given build_coefficients' view keeps its buffer; one given a
    # triangle-major array, as load_chain passes, converts it once and must
    # evaluate bit for bit the same
    rng = np.random.default_rng(21)
    values, d1, d2 = rng.standard_normal((3, mesh.n_vertices, 3))
    built = MacroSpline(mesh, build_coefficients(mesh, values, d1, d2))
    copied = MacroSpline(mesh, np.ascontiguousarray(built.coeffs))
    pts = sample_sphere(3000, seed=5)
    located = locate_batch(mesh, pts)
    g = rng.standard_normal((3000, 2, 3))
    assert np.array_equal(built.eval_located(*located), copied.eval_located(*located))
    assert np.array_equal(
        built.derivative_located(*located, g), copied.derivative_located(*located, g)
    )
    for sp in (built, copied):
        assert np.array_equal(sp.coeffs, built.coeffs)
        assert sp._rows.flags.c_contiguous
        assert np.shares_memory(sp.coeffs, sp._rows)
