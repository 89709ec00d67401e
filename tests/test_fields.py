import numpy as np
import pytest
from conftest import sample_sphere, vortex_solution

from cmsphere.evolve import rk4_backstep
from cmsphere.fields import (
    FLOWS,
    RotatingFrame,
    compressible,
    deformational,
    get_flow,
    moving_vortex,
    solid_body,
    static_vortex,
    vortex_rate,
)
from cmsphere.geom import rotation_matrix
from cmsphere.tracers import cosine_bells


@pytest.fixture(scope="module")
def points():
    return sample_sphere(2000, seed=14)


def integrate_back(flow, pts, t_from, n):
    dt = t_from / n
    q = pts.copy()
    t = t_from
    for _ in range(n):
        q = rk4_backstep(flow.velocity, q, t, dt)
        t -= dt
    return q


ALL_FLOWS = [
    solid_body(0.4, 1.0),
    deformational(1.05, 1.0),
    static_vortex(1.0),
    moving_vortex(1.0),
    compressible(1.0),
]


def test_velocity_tangency(points):
    for flow in ALL_FLOWS:
        for t in (0.0, 0.3, 0.77):
            u = flow.velocity(points, t)
            assert np.abs(np.sum(u * points, axis=1)).max() < 1e-12, flow.name


def test_rotating_frame_is_orthogonal():
    frame = RotatingFrame(
        pre=rotation_matrix(np.array([0.0, 1.0, 0.0]), 0.8),
        rate=2.0 * np.pi,
        post=rotation_matrix(np.array([1.0, 0.0, 0.0]), -0.5 * np.pi),
    )
    for t in (0.0, 0.21, 0.9):
        m = frame.matrix(t)
        assert np.abs(m.T @ m - np.eye(3)).max() < 1e-13
        assert abs(np.linalg.det(m) - 1.0) < 1e-13


def test_exact_maps_match_integration(points):
    for T in (1.0, 2.0):
        for flow in (solid_body(1.05, T), static_vortex(T), moving_vortex(T)):
            t = 0.73 * T
            back = integrate_back(flow, points, t, 400)
            err = np.linalg.norm(back - flow.exact_map(points, t), axis=1)
            assert err.max() < 1e-7, (flow.name, T)


def test_reversing_flows_return_to_start(points):
    cases = [
        deformational(1.05, 1.0),
        deformational(0.78, 5.0),
        compressible(1.0),
        compressible(5.0),
    ]
    for flow in cases:
        assert flow.reversing
        back = integrate_back(flow, points, flow.T, 400)
        assert np.linalg.norm(back - points, axis=1).max() < 1e-6, flow.name


def test_deformational_reference_value():
    # at the primed origin of the deformation the velocity reduces to the
    # rigid part alone
    flow = deformational(0.0, 1.0)
    u = flow.velocity(np.array([[0.0, 1.0, 0.0]]), 0.0)
    assert np.abs(u - np.array([[-2.0 * np.pi, 0.0, 0.0]])).max() < 1e-13


def test_compressible_antisymmetric_in_time(points):
    flow = compressible(1.0)
    for t in (0.1, 0.33):
        a = flow.velocity(points, t)
        b = flow.velocity(points, flow.T - t)
        assert np.abs(a + b).max() < 1e-13


def test_vortex_rate_values():
    assert vortex_rate(1.0, 1.0) == pytest.approx(5.221293608816222, abs=1e-12)
    assert vortex_rate(3.0, 1.0) == pytest.approx(0.05341955008912006, abs=1e-14)
    assert vortex_rate(0.0, 1.0) == 0.0
    limit = 2.0 * np.pi * 1.5 * np.sqrt(3.0)
    assert vortex_rate(1e-8, 1.0) == pytest.approx(limit, abs=1e-6)
    # rate halves when the period doubles
    assert vortex_rate(1.0, 2.0) == pytest.approx(0.5 * vortex_rate(1.0, 1.0), rel=1e-14)


def test_vortex_rate_monotone_decreasing():
    rho = np.linspace(1e-6, 10.0, 5000)
    w = vortex_rate(rho, 1.0)
    assert np.all(np.diff(w) < 0.0)


def test_vortex_peak_particle_speed():
    # the azimuthal speed w(3 s) s peaks at exactly one third of the rigid
    # rotation rate
    s = np.linspace(0.0, 1.0, 200001)
    speed = vortex_rate(3.0 * s, 1.0) * s
    assert speed.max() == pytest.approx(2.0 * np.pi / 3.0, abs=1e-8)


def test_vortex_centers_are_stationary(points):
    for flow in (static_vortex(1.0),):
        # centers sit where the primed frame has its poles
        rot = rotation_matrix(np.array([1.0, 0.0, 0.0]), -0.5 * np.pi)
        for sign in (1.0, -1.0):
            center = sign * np.array([0.0, 0.0, 1.0]) @ rot.T
            u = flow.velocity(center[None, :], 0.4)
            assert np.abs(u).max() < 1e-13


def test_compressible_fixed_points():
    flow = compressible(1.0)
    fixed = np.array([
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0],
    ])
    assert np.abs(flow.velocity(fixed, 0.2)).max() < 1e-13


def test_vortex_solution_transport_consistency(points):
    # the closed-form solution (the oracle in conftest) is the flow's initial
    # field pulled back along the closed-form map
    for T in (1.0, 2.0):
        for flow in (static_vortex(T), moving_vortex(T)):
            t = 0.37 * T
            direct = vortex_solution(flow, points, t)
            via_map = flow.initial(flow.exact_map(points, t))
            assert np.abs(direct - via_map).max() < 1e-13, (flow.name, T)


def test_vortex_solution_constant_along_orbits(points):
    for flow in (static_vortex(1.0), moving_vortex(1.0)):
        q = points[:500].copy()
        phi0 = flow.initial(q)
        t = 0.0
        dt = flow.T / 200
        for _ in range(200):
            q = rk4_backstep(flow.velocity, q, t, -dt)
            t += dt
        drift = np.abs(vortex_solution(flow, q, t) - phi0).max()
        assert drift < 1e-5, flow.name


def test_flow_metadata(points):
    for flow in ALL_FLOWS:
        assert flow.name in FLOWS
    # the reversing flows are the ones without a closed-form map
    for flow in ALL_FLOWS:
        assert flow.reversing == (flow.exact_map is None), flow.name
    # the vortex flows start from their own field, the others from the bells
    bells = cosine_bells()(points)
    for flow in ALL_FLOWS:
        own = flow.name in ("static_vortex", "moving_vortex")
        assert np.array_equal(flow.initial(points), bells) != own, flow.name


def test_get_flow():
    flow = get_flow("solid_body", alpha=0.3, T=2.0)
    assert flow.name == "solid_body"
    assert flow.T == 2.0
    with pytest.raises(ValueError, match="deformational"):
        get_flow("windy")
