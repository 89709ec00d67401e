import dataclasses
import time

import numpy as np
import pytest
from conftest import pullback_density, reference_velocity, sample_sphere

from cmsphere import evolve
from cmsphere.diagnostics import pullback_tracer
from cmsphere.errors import NonFiniteState
from cmsphere.evolve import CMConfig, rk4_backstep, run
from cmsphere.fields import FLOWS, deformational, moving_vortex, solid_body
from cmsphere.geom import radial_project, rotation_matrix, vertex_frames
from cmsphere.mapping import SphereMap
from cmsphere.mesh import MAX_LEVEL, build_icosahedral, locate_batch
from cmsphere.stencil import EPSILON, OFFSETS, build_stencils


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
        dict(n_steps=4, t_final=np.nan),
        dict(n_steps=4, t_final=np.inf),
        dict(n_steps=4, t_final=1.0, remap_stride=-1),
        dict(n_steps=4, t_final=1.0, remap_stride=5),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            CMConfig(level=1, **kwargs)
    for level in (-1, MAX_LEVEL + 1):
        with pytest.raises(ValueError, match="level"):
            CMConfig(level=level, n_steps=4, t_final=1.0)
    for level in (0, MAX_LEVEL):
        CMConfig(level=level, n_steps=4, t_final=1.0)
    # integers only: a float or bool would reach the run as an index or a
    # silent 0 or 1
    for name, value in [("level", 1.5), ("level", 1.0), ("level", True), ("level", np.bool_(True)),
                        ("n_steps", 2.5), ("n_steps", 4.0), ("n_steps", False),
                        ("remap_stride", 1.5), ("remap_stride", np.float64(2.0)),
                        ("remap_stride", True)]:
        with pytest.raises(ValueError, match=name):
            CMConfig(**dict(dict(level=1, n_steps=4, t_final=1.0), **{name: value}))
    for integer in (np.int64, np.int32, np.uint8):
        cfg = CMConfig(level=integer(1), n_steps=integer(4), t_final=1.0,
                       remap_stride=integer(2))
        assert (cfg.level, cfg.n_steps, cfg.remap_stride) == (1, 4, 2)
    # t_final is a real number, not a bool: True would run as T = 1
    for value in (True, np.bool_(True), "2", 1 + 0j, np.complex128(1.0), None, [1.0]):
        with pytest.raises(ValueError, match="t_final"):
            CMConfig(level=1, n_steps=4, t_final=value)
    for value in (2, 0.5, np.int64(2), np.uint8(2), np.float64(0.5), np.float32(0.5)):
        assert CMConfig(level=1, n_steps=4, t_final=value).t_final == value
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
    # two locations per step that has a map to evaluate, first corners and
    # then the other three; all are warm but the first corners' first
    windows = -(-cfg.n_steps // cfg.remap_stride) if cfg.remap_stride else 1
    assert len(starts) == 2 * (cfg.n_steps - windows) and starts.count(False) == 1
    assert warm.n_submaps == cold.n_submaps == windows
    for a, b in zip(warm.maps, cold.maps):
        assert np.array_equal(a.spline.coeffs, b.spline.coeffs)


@pytest.mark.parametrize(
    "name, params, cfg",
    [
        ("deformational", dict(alpha=1.05, T=1.0), CMConfig(level=3, n_steps=10, t_final=1.0)),
        ("moving_vortex", dict(T=1.0),
         CMConfig(level=2, n_steps=12, t_final=1.0, remap_stride=4)),
    ],
    ids=["deformational_k3", "moving_vortex_k2_remap"],
)
def test_component_rows_chain_matches_row_oracle(name, params, cfg):
    # the run's probes are (n, 3) views of (3, n) rows; its chain equals,
    # bit for bit, the one the (n, 3) row form of the velocity gives
    mesh = build_icosahedral(cfg.level)
    flow = FLOWS[name](**params)
    rows = run(flow, cfg, mesh)
    oracle = run(reference_velocity(name, **params), cfg, mesh)
    assert rows.n_submaps == oracle.n_submaps
    for a, b in zip(rows.maps, oracle.maps):
        assert np.array_equal(a.spline.coeffs, b.spline.coeffs)


def test_rk4_on_row_view_probes_matches_c_order():
    mesh = build_icosahedral(3)
    stencils = build_stencils(mesh, EPSILON)
    c_probes = stencils.transpose(1, 0, 2).reshape(-1, 3)
    row_probes = np.ascontiguousarray(stencils.transpose(2, 1, 0)).reshape(3, -1).T
    assert np.array_equal(c_probes, row_probes) and row_probes.flags.f_contiguous
    for name, make in FLOWS.items():
        flow = make()
        want = rk4_backstep(flow.velocity, c_probes, 0.6 * flow.T, 0.05 * flow.T)
        got = rk4_backstep(flow.velocity, row_probes, 0.6 * flow.T, 0.05 * flow.T)
        assert got.shape == want.shape and np.array_equal(got, want), name


def corner_stencils(anchors, eps):
    """Stencils whose first corner is exactly each anchor, the other three
    displaced by eps along the anchor's frame, shape (n, 4, 3)."""
    g1, g2 = vertex_frames(anchors)
    off = eps * np.array(OFFSETS)
    off -= off[0]
    return radial_project(anchors[:, None] + off[:, :1] * g1[:, None] + off[:, 1:] * g2[:, None])


def test_siblings_located_from_first_corner_match_cold(monkeypatch):
    # every location evolve.run hands the map equals a cold one; and a
    # vertex's other three footpoints located from its first one's fresh
    # location are located exactly as a cold call locates them. Stencils
    # around vertices, and first corners on vertices and edges, put many
    # siblings outside the first corner's sub-triangle and on ties
    mesh = build_icosahedral(3)
    flow = deformational(1.05, 1.0)
    seen = []
    sphere_eval = SphereMap.eval

    def spy(self, p, dirs=None, loc=None):
        seen.append((p, loc))
        return sphere_eval(self, p, dirs, loc)

    monkeypatch.setattr(SphereMap, "eval", spy)
    run(flow, CMConfig(level=3, n_steps=3, t_final=0.3), mesh)
    assert len(seen) == 2
    for p, loc in seen:
        for a, b in zip(loc, locate_batch(mesh, p)):
            assert np.array_equal(a, b)

    vertex_stencils = build_stencils(mesh, EPSILON)
    stepped = rk4_backstep(flow.velocity, vertex_stencils.reshape(-1, 3), 0.1, 0.1)
    edges = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    midpoints = radial_project(mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    stencils = np.concatenate([
        vertex_stencils,
        stepped.reshape(-1, 4, 3),
        corner_stencils(mesh.vertices, EPSILON),
        corner_stencils(midpoints, EPSILON),
    ])
    head = locate_batch(mesh, stencils[:, 0])
    siblings = stencils[:, 1:].transpose(1, 0, 2).reshape(-1, 3)
    start = (np.tile(head[0], 3), np.tile(head[1], 3))
    got = locate_batch(mesh, siblings, start=start)
    want = locate_batch(mesh, siblings)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # keeping the first corner's sub-triangle unchecked would be wrong here
    kept = (got[0] == start[0]) & (got[1] == start[1])
    assert 0.1 < np.mean(~kept) < 0.9


def test_nonfinite_velocity_raises():
    def broken(p, t):
        return np.full_like(p, np.nan)

    with pytest.raises(NonFiniteState):
        run(broken, CMConfig(level=1, n_steps=3, t_final=1.0))


def test_nan_vertex_values_fail_the_norm_band(monkeypatch):
    # a NaN in the reconstructed values alone, with finite derivatives,
    # still stops the run: the norm band propagates it
    reconstruct = evolve.reconstruct_hermite

    def poisoned(samples, epsilon):
        values, d1, d2 = reconstruct(samples, epsilon)
        values[7, 1] = np.nan
        return values, d1, d2

    monkeypatch.setattr(evolve, "reconstruct_hermite", poisoned)
    with pytest.raises(NonFiniteState, match="at step 1"):
        run(solid_body(0.0, 1.0), CMConfig(level=1, n_steps=2, t_final=1.0))


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
