import numpy as np
import pytest

from cmsphere.evolve import CMConfig
from cmsphere.mesh import build_icosahedral
from cmsphere.stencil import OFFSETS, build_stencils, reconstruct_hermite


@pytest.fixture(scope="module")
def mesh():
    return build_icosahedral(2)


def test_points_on_sphere(mesh):
    st = build_stencils(mesh, 1e-5)
    assert st.shape == (mesh.n_vertices, 4, 3)
    assert np.abs(np.linalg.norm(st, axis=-1) - 1.0).max() < 1e-13


def test_points_at_diagonal_arc_distance(mesh):
    eps = 1e-5
    st = build_stencils(mesh, eps)
    cosa = np.einsum("vkj,vj->vk", st, mesh.vertices)
    arc = np.arccos(np.clip(cosa, -1.0, 1.0))
    assert np.abs(arc / (np.sqrt(2.0) * eps) - 1.0).max() < 1e-5


def test_reconstruct_is_exact_on_bilinear_samples():
    # samples of a + b s1 + c s2 + d s1 s2 at the corner offsets return
    # a, b, c exactly; the cross term cancels in every average
    rng = np.random.default_rng(0)
    a, b, c, d = rng.standard_normal(4)
    eps = 1e-4
    s = np.array([[a + eps * (b * s1 + c * s2) + d * eps * eps * s1 * s2
                   for s1, s2 in OFFSETS]])
    values, d1, d2 = reconstruct_hermite(s, eps)
    assert abs(values[0] - a) < 1e-14
    assert abs(d1[0] - b) < 1e-10
    assert abs(d2[0] - c) < 1e-10


def test_reconstruct_second_order_in_epsilon(mesh):
    def f(p):
        return np.exp(p[..., 0]) * p[..., 2]

    def along(g):
        gx = np.exp(mesh.vertices[:, 0]) * mesh.vertices[:, 2]
        gz = np.exp(mesh.vertices[:, 0])
        return g[:, 0] * gx + g[:, 2] * gz

    errs = []
    for eps in (1e-3, 5e-4):
        values, d1, d2 = reconstruct_hermite(f(build_stencils(mesh, eps)), eps)
        errs.append(
            (
                np.abs(values - f(mesh.vertices)).max(),
                np.abs(d1 - along(mesh.g1)).max(),
                np.abs(d2 - along(mesh.g2)).max(),
            )
        )
    for coarse, fine in zip(*errs):
        assert 3.5 < coarse / fine < 4.5


def test_epsilon_bounds():
    # the stencil half-width is checked where it enters, in the run config
    for eps in (0.0, -1e-5, 2e-3):
        with pytest.raises(ValueError):
            CMConfig(level=1, n_steps=1, t_final=1.0, epsilon=eps)


def test_vector_samples_keep_component_axis():
    samples = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
    values, d1, d2 = reconstruct_hermite(samples, 1e-4)
    assert values.shape == (2, 3)
    assert d1.shape == (2, 3)
    assert d2.shape == (2, 3)
