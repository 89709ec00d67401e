import numpy as np
import pytest
from conftest import sample_sphere, vortex_solution

from cmsphere.diagnostics import (
    CSV_HEADER,
    ErrorReport,
    _thread_count,
    convergence_slope,
    density_error,
    evaluate_run,
    initial_tracer,
    l1_error,
    linf_error,
    map_error,
    mass_integral,
    reference_map,
    reference_solution,
)
from cmsphere.evolve import CMConfig, run
from cmsphere.fields import FLOWS, get_flow
from cmsphere.mapping import MapChain
from cmsphere.mesh import build_icosahedral, triangle_areas
from cmsphere.tracers import get_tracer


@pytest.fixture(scope="module")
def mesh():
    return build_icosahedral(2)


@pytest.fixture(scope="module")
def empty(mesh):
    return MapChain(mesh=mesh)


@pytest.fixture(scope="module")
def rotation_run():
    flow = get_flow("solid_body", alpha=1.05)
    chain = run(flow.velocity, CMConfig(level=2, n_steps=8, t_final=flow.T))
    return flow, chain


def constant_one(p):
    return np.ones(np.asarray(p).shape[:-1])


def constant_zero(p):
    return np.zeros(np.asarray(p).shape[:-1])


def test_sample_sphere_is_chunk_stable():
    pts = sample_sphere(70000, 3)
    assert pts.shape == (70000, 3)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-14
    assert np.abs(pts.mean(axis=0)).max() < 0.01
    # a prefix of a longer draw is exactly a shorter draw
    assert np.array_equal(sample_sphere(65536, 3), pts[:65536])
    assert not np.array_equal(sample_sphere(100, 3), sample_sphere(100, 4))


def test_norms_vanish_on_identity(empty):
    phi0 = get_tracer("cosine_bells")
    assert linf_error(empty, phi0, phi0, 5000, 0) == 0.0
    assert l1_error(empty, phi0, phi0, empty.mesh) == 0.0
    assert tuple(map_error(empty, lambda p: np.asarray(p), 5000, 0)) == (0.0, 0.0, 0.0)
    assert density_error(empty, 5000, 0) == 0.0
    with pytest.raises(ValueError):
        linf_error(empty, phi0, phi0, 0, 0)


def test_linf_insensitive_to_seed(rotation_run):
    flow, chain = rotation_run
    phi0 = initial_tracer(flow)
    exact = reference_solution(flow, phi0, flow.T)
    e0 = linf_error(chain, phi0, exact, 100000, 0)
    e1 = linf_error(chain, phi0, exact, 100000, 12345)
    assert e0 > 0.0
    assert abs(e0 - e1) / e0 < 0.05


def test_l1_weights_cover_the_sphere(empty, mesh):
    # with a unit field and zero reference the norm reduces to the total
    # quadrature weight, which is the mesh area
    got = l1_error(empty, constant_one, constant_zero, mesh)
    assert got == pytest.approx(float(np.sum(triangle_areas(mesh))), rel=1e-13)
    assert got == pytest.approx(4.0 * np.pi, rel=1e-12)


def test_mass_quadrature_converges(empty):
    errs = [abs(1.0 - mass_integral(empty, n)) for n in (8, 16, 32, 64)]
    assert errs[0] < 5e-9
    assert errs[1] < 1e-10
    assert errs[2] < 5e-12
    assert errs[3] < 1e-13
    assert errs == sorted(errs, reverse=True)
    with pytest.raises(ValueError):
        mass_integral(empty, 7)


def test_convergence_slope():
    hs = np.array([0.4, 0.2, 0.1, 0.05])
    assert convergence_slope(hs, hs**2) == pytest.approx(2.0, abs=1e-12)
    # the value at the precision floor must not drag the fit
    assert convergence_slope([0.4, 0.2, 0.1], [4e-2, 1e-2, 1e-13]) == pytest.approx(
        2.0, abs=1e-10
    )
    with pytest.raises(ValueError):
        convergence_slope([0.4, 0.2], [1e-13, 1e-14])


def test_worker_pool_is_bit_identical(rotation_run, monkeypatch):
    flow, chain = rotation_run
    phi0 = initial_tracer(flow)
    exact = reference_solution(flow, phi0, flow.T)
    xref = reference_map(flow, flow.T)
    serial = linf_error(chain, phi0, exact, 150000, 0)
    serial_map = map_error(chain, xref, 150000, 0)
    monkeypatch.setenv("CMM_THREADS", "4")
    assert linf_error(chain, phi0, exact, 150000, 0) == serial
    assert np.array_equal(map_error(chain, xref, 150000, 0), serial_map)
    monkeypatch.setenv("CMM_THREADS", "not a number")
    with pytest.raises(ValueError):
        linf_error(chain, phi0, exact, 150000, 0)


def test_thread_count_parsing(monkeypatch):
    # parsing only: no pool is started for any of these values
    monkeypatch.delenv("CMM_THREADS", raising=False)
    assert _thread_count() == 1
    monkeypatch.setenv("CMM_THREADS", "3")
    assert _thread_count() == 3
    for bad in ("abc", "0", "-2", "1.5", ""):
        monkeypatch.setenv("CMM_THREADS", bad)
        with pytest.raises(ValueError, match="CMM_THREADS"):
            _thread_count()


def make_report(**overrides):
    fields = dict(
        test="solid_body",
        k=3,
        n_steps=16,
        remaps=0,
        linf=1e-3,
        l1=2e-4,
        map_err=(1e-4, 2e-4, 3e-4),
        density_err=5e-3,
        mass_err=1e-9,
        wall_time_s=1.25,
        seed=0,
    )
    fields.update(overrides)
    return ErrorReport(**fields)


def test_error_report_validation_and_row():
    row = make_report().csv_row()
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    cells = dict(zip(CSV_HEADER.split(","), row.split(",")))
    assert cells["test"] == "solid_body"
    assert float(cells["linf"]) == pytest.approx(1e-3)
    assert float(cells["map_z"]) == pytest.approx(3e-4)
    with pytest.raises(ValueError):
        make_report(linf=-1e-3)
    with pytest.raises(ValueError):
        make_report(map_err=(1e-4, np.nan, 3e-4))


def test_initial_tracer_choices():
    solid = get_flow("solid_body")
    pts = sample_sphere(500, 9)
    named = initial_tracer(solid, "zalesak_disks")
    assert set(np.unique(named(pts))) <= {0.1, 1.0}
    assert np.array_equal(initial_tracer(solid)(pts), get_tracer("cosine_bells")(pts))
    for name in ("static_vortex", "moving_vortex"):
        vortex = get_flow(name)
        assert initial_tracer(vortex) is vortex.initial
        assert np.array_equal(initial_tracer(vortex)(pts), vortex_solution(vortex, pts, 0.0))


def test_reference_solution_branches():
    pts = sample_sphere(300, 2)
    solid = get_flow("solid_body", alpha=0.3)
    phi0 = initial_tracer(solid)
    ref = reference_solution(solid, phi0, 0.4)
    assert np.array_equal(ref(pts), phi0(solid.exact_map(pts, 0.4)))
    deform = get_flow("deformational", alpha=0.3)
    assert np.array_equal(reference_solution(deform, phi0, deform.T)(pts), phi0(pts))
    assert reference_solution(deform, phi0, 0.5 * deform.T) is None
    vortex = get_flow("moving_vortex")
    own = initial_tracer(vortex)
    ref = reference_solution(vortex, own, 0.7)
    assert np.abs(ref(pts) - vortex_solution(vortex, pts, 0.7)).max() < 1e-13


def test_reference_map_branches():
    pts = sample_sphere(300, 2)
    solid = get_flow("solid_body", alpha=0.3)
    assert np.array_equal(reference_map(solid, 0.4)(pts), solid.exact_map(pts, 0.4))
    deform = get_flow("deformational")
    back = reference_map(deform, deform.T)
    assert np.array_equal(back(pts), pts)
    assert reference_map(deform, 0.3) is None


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_every_flow_has_a_reference_at_its_period(name):
    flow = get_flow(name)
    assert reference_solution(flow, initial_tracer(flow), flow.T) is not None
    rep = evaluate_run(flow, MapChain(mesh=build_icosahedral(1)), 0, t=flow.T,
                       n_samples=1000, mass_cells=8)
    assert rep.test == name and rep.k == 1


def test_evaluate_run_report(rotation_run, empty):
    flow, chain = rotation_run
    rep = evaluate_run(flow, chain, 8, n_samples=50000)
    assert (rep.test, rep.k, rep.n_steps, rep.remaps, rep.seed) == (
        "solid_body", 2, 8, 0, 0,
    )
    assert 0.0 < rep.linf < 0.1
    assert 0.0 < rep.l1 < rep.linf
    assert len(rep.map_err) == 3 and max(rep.map_err) < 0.05
    assert rep.mass_err < 1e-4
    with pytest.raises(ValueError, match="no exact reference"):
        evaluate_run(get_flow("deformational"), empty, 0, t=0.3)
