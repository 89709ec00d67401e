import dataclasses
import time

import numpy as np
import pytest
from conftest import pullback_density, sample_sphere

from cmsphere import evolve
from cmsphere.errors import NonFiniteState
from cmsphere.evolve import CMConfig, pullback_tracer, rk4_backstep, run
from cmsphere.fields import deformational, moving_vortex, solid_body
from cmsphere.geom import rotation_matrix
from cmsphere.mesh import build_icosahedral


@pytest.fixture(scope="module")
def points():
    return sample_sphere(500, seed=2)


def test_rk4_matches_rotation(points):
    omega = 2.0 * np.pi * np.array([0.3, -0.4, np.sqrt(1.0 - 0.25)])
    u = lambda p, t: np.cross(omega, p)
    dt = 0.01
    got = rk4_backstep(u, points, dt, dt)
    rot = rotation_matrix(omega / np.linalg.norm(omega), -np.linalg.norm(omega) * dt)
    assert np.linalg.norm(got - points @ rot.T, axis=1).max() < 1e-8


def test_rk4_halving_order(points):
    # Richardson gap between one step and two half steps shrinks as dt^5
    flow = deformational(1.05, 1.0)
    t0 = 0.7

    def gap(dt):
        one = rk4_backstep(flow.velocity, points, t0, dt)
        mid = rk4_backstep(flow.velocity, points, t0, dt / 2.0)
        two = rk4_backstep(flow.velocity, mid, t0 - dt / 2.0, dt / 2.0)
        return np.linalg.norm(one - two, axis=1).max()

    order = np.log2(gap(0.1) / gap(0.05))
    assert order > 4.7


def test_zero_velocity_stays_near_identity(points):
    zero = lambda p, t: np.zeros_like(p)
    chain = run(zero, CMConfig(level=2, n_steps=10, t_final=1.0))
    drift = np.linalg.norm(chain.eval(points) - points, axis=1).max()
    assert drift < 2e-3
    assert np.abs(chain.eval_with_jacobian(points)[1] - 1.0).max() < 0.1


def test_huge_steps_do_not_blow_up(points):
    # backward semi-Lagrangian stepping has no CFL-type mesh restriction
    flow = deformational(0.0, 1.0)
    chain = run(flow, CMConfig(level=4, n_steps=2, t_final=1.0))
    out = chain.eval(points)
    assert np.all(np.isfinite(out))
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-13
    assert np.linalg.norm(out - points, axis=1).max() < 2.0


def test_remap_chain_structure():
    flow = solid_body(0.0, 1.0)
    mesh = build_icosahedral(1)
    chain = run(flow, CMConfig(level=1, n_steps=10, t_final=1.0, remap_stride=3), mesh)
    assert chain.n_submaps == 4
    assert np.allclose(chain.breaks, [0.0, 0.3, 0.6, 0.9, 1.0])
    chain = run(flow, CMConfig(level=1, n_steps=10, t_final=1.0, remap_stride=5), mesh)
    assert chain.n_submaps == 2
    assert np.allclose(chain.breaks, [0.0, 0.5, 1.0])
    # a stride equal to n_steps never fires early; the chain stays one window
    chain = run(flow, CMConfig(level=1, n_steps=10, t_final=1.0, remap_stride=10), mesh)
    assert chain.n_submaps == 1
    assert np.allclose(chain.breaks, [0.0, 1.0])


def test_mesh_level_must_match_config():
    calls = []

    def velocity(p, t):
        calls.append(t)
        return np.zeros_like(p)

    with pytest.raises(ValueError, match="refinement 3, mesh is 1"):
        run(velocity, CMConfig(level=3, n_steps=2, t_final=1.0), mesh=build_icosahedral(1))
    assert not calls


def test_config_validation():
    bad = [
        dict(n_steps=0, t_final=1.0),
        dict(n_steps=4, t_final=0.0),
        dict(n_steps=4, t_final=-1.0),
        dict(n_steps=4, t_final=1.0, remap_stride=-1),
        dict(n_steps=4, t_final=1.0, remap_stride=5),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            CMConfig(level=1, **kwargs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        CMConfig(level=1, n_steps=4, t_final=1.0).n_steps = 0


def test_reruns_are_bit_identical(points):
    flow = deformational(np.pi / 4, 1.0)
    cfg = CMConfig(level=2, n_steps=6, t_final=1.0, remap_stride=3)
    mesh = build_icosahedral(2)
    a = run(flow, cfg, mesh)
    b = run(flow, cfg, mesh)
    assert a.n_submaps == b.n_submaps
    for ma, mb in zip(a.maps, b.maps):
        assert np.array_equal(ma.spline.coeffs, mb.spline.coeffs)
    assert np.array_equal(a.eval(points), b.eval(points))


@pytest.mark.parametrize(
    "flow, cfg",
    [
        (moving_vortex(1.0), CMConfig(level=2, n_steps=12, t_final=1.0, remap_stride=4)),
        (deformational(1.05, 1.0), CMConfig(level=3, n_steps=10, t_final=1.0)),
    ],
    ids=["moving_vortex_k2_remap", "deformational_k3"],
)
def test_warm_location_is_bit_identical(flow, cfg, monkeypatch):
    # each step locates from the previous step's footpoints, across window
    # restarts too; forcing every location cold changes no coefficient
    mesh = build_icosahedral(cfg.level)
    locate = evolve.locate_batch
    starts = []

    def spy(mesh, p, start=None):
        starts.append(start is not None)
        return locate(mesh, p, start=start)

    monkeypatch.setattr(evolve, "locate_batch", spy)
    warm = run(flow, cfg, mesh)
    monkeypatch.setattr(evolve, "locate_batch", lambda mesh, p, start=None: locate(mesh, p))
    cold = run(flow, cfg, mesh)
    # one location per step that has a map to evaluate, all but the first warm
    windows = -(-cfg.n_steps // cfg.remap_stride) if cfg.remap_stride else 1
    assert len(starts) == cfg.n_steps - windows and starts.count(False) == 1
    assert warm.n_submaps == cold.n_submaps == windows
    for a, b in zip(warm.maps, cold.maps):
        assert np.array_equal(a.spline.coeffs, b.spline.coeffs)


def test_nonfinite_velocity_raises():
    def broken(p, t):
        return np.full_like(p, np.nan)

    with pytest.raises(NonFiniteState):
        run(broken, CMConfig(level=1, n_steps=3, t_final=1.0))


def test_stray_map_values_raise_nonfinite():
    # a step far too long for the mesh leaves finite vertex values whose
    # norms stray from the sphere; the evolution stops at that step
    with pytest.raises(NonFiniteState, match="left the sphere at step 1"):
        run(deformational(0.0, 1000.0), CMConfig(level=1, n_steps=2, t_final=1000.0))


def test_verbose_progress(capsys):
    flow = solid_body(0.0, 1.0)
    run(flow, CMConfig(level=1, n_steps=2, t_final=1.0, verbose=True))
    out = capsys.readouterr().out
    assert "step 1/2" in out
    assert "step 2/2" in out


def test_pullbacks(points):
    flow = solid_body(np.pi / 4, 1.0)
    chain = run(flow, CMConfig(level=3, n_steps=8, t_final=0.25))
    tracer = lambda p: p[:, 0] * p[:, 2]
    assert np.array_equal(
        pullback_tracer(chain, tracer, points), tracer(chain.eval(points))
    )
    uniform = lambda p: np.ones(p.shape[0])
    assert np.array_equal(
        pullback_density(chain, uniform, points), chain.eval_with_jacobian(points)[1]
    )
    # solid body is rigid: the transported tracer matches the rotated-back
    # field and the Jacobian stays near one
    exact = tracer(flow.exact_map(points, 0.25))
    err = np.abs(pullback_tracer(chain, tracer, points) - exact).max()
    assert err < 1e-3
    assert np.abs(pullback_density(chain, uniform, points) - 1.0).max() < 0.02


def timed_run(flow, level, n_steps, mesh):
    best = np.inf
    for _ in range(2):
        t0 = time.perf_counter()
        run(flow, CMConfig(level=level, n_steps=n_steps, t_final=1.0), mesh)
        best = min(best, time.perf_counter() - t0)
    return best


def test_cost_scales_linearly():
    # wall time should track N_triangles and N_t; allow a generous band
    # around the linear prediction
    flow = solid_body(0.0, 1.0)
    meshes = {k: build_icosahedral(k) for k in (3, 4, 5)}
    t3 = timed_run(flow, 3, 20, meshes[3])
    t4 = timed_run(flow, 4, 20, meshes[4])
    t5 = timed_run(flow, 5, 20, meshes[5])
    assert 0.7 < t4 / t3 / 4.0 < 1.5
    assert 0.7 < t5 / t4 / 4.0 < 1.5
    t4_double = timed_run(flow, 4, 40, meshes[4])
    assert 0.7 < t4_double / t4 / 2.0 < 1.5
