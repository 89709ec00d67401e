import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import sample_sphere, vortex_solution

import cmsphere
from cmsphere import diagnostics
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
    pullback_tracer,
    reference_map,
    reference_solution,
)
from cmsphere.evolve import CMConfig, run
from cmsphere.fields import FLOWS, get_flow
from cmsphere.geom import area_form
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


MASS_SCRIPT = """
from cmsphere.diagnostics import mass_integral
from cmsphere.evolve import CMConfig, run
from cmsphere.fields import get_flow

flow = get_flow("compressible", T=5.0)
chain = run(flow.velocity, CMConfig(level=3, n_steps=18, t_final=flow.T))
print(mass_integral(chain, 64).hex())
"""


def test_mass_bits_do_not_depend_on_blas_threads():
    """The mass of a compressible chain has the same bits with one and two
    OpenBLAS threads.

    A BLAS dot product splits long sums across its threads, so its order
    follows the thread count; this case differs in the last bits under
    one. Each run sets OPENBLAS_NUM_THREADS before numpy loads. Under a
    numpy built on another BLAS the variable does nothing and the test
    passes trivially.
    """
    src = str(Path(cmsphere.__file__).resolve().parents[1])
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", MASS_SCRIPT], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        bits.append(done.stdout.strip())
    assert bits[0] == bits[1]


def test_convergence_slope():
    hs = np.array([0.4, 0.2, 0.1, 0.05])
    assert convergence_slope(hs, hs**2) == pytest.approx(2.0, abs=1e-12)
    # the value at the precision floor must not drag the fit
    assert convergence_slope([0.4, 0.2, 0.1], [4e-2, 1e-2, 1e-13]) == pytest.approx(
        2.0, abs=1e-10
    )
    with pytest.raises(ValueError):
        convergence_slope([0.4, 0.2], [1e-13, 1e-14])


def chunked_results(chain, flow, mesh4):
    phi0 = initial_tracer(flow)
    exact = reference_solution(flow, phi0, flow.T)
    return (
        linf_error(chain, phi0, exact, 150000, 0),
        tuple(map_error(chain, reference_map(flow, flow.T), 150000, 0)),
        l1_error(chain, phi0, exact, mesh4),
        mass_integral(chain, 96),
        pullback_tracer(chain, phi0, sample_sphere(150000, 5)).tobytes(),
    )


def test_worker_pool_is_bit_identical(rotation_run, monkeypatch):
    # 150 000 samples and 82 944 mass nodes span more than one chunk; the
    # 2562 vertices of the l1 rule do so with the chunk lowered to 1000
    flow, chain = rotation_run
    mesh4 = build_icosahedral(4)
    monkeypatch.setenv("CMM_THREADS", "1")
    serial = chunked_results(chain, flow, mesh4)
    monkeypatch.setenv("CMM_THREADS", "2")
    assert chunked_results(chain, flow, mesh4) == serial
    monkeypatch.setattr(diagnostics, "_CHUNK", 1000)
    monkeypatch.setenv("CMM_THREADS", "1")
    serial = chunked_results(chain, flow, mesh4)
    monkeypatch.setenv("CMM_THREADS", "2")
    assert chunked_results(chain, flow, mesh4) == serial
    monkeypatch.setenv("CMM_THREADS", "not a number")
    with pytest.raises(ValueError):
        chunked_results(chain, flow, mesh4)


def test_chunked_evaluations_match_unchunked_formulas(rotation_run, monkeypatch):
    flow, chain = rotation_run
    phi0 = initial_tracer(flow)
    exact = reference_solution(flow, phi0, flow.T)
    mesh4 = build_icosahedral(4)
    pts = sample_sphere(2500, 5)
    monkeypatch.setattr(diagnostics, "_CHUNK", 1000)
    whole = phi0(chain.eval(pts))
    assert np.array_equal(pullback_tracer(chain, phi0, pts), whole)
    grid = pts.reshape(50, 50, 3)
    assert np.array_equal(pullback_tracer(chain, phi0, grid), whole.reshape(50, 50))
    # a grid whose chunks build their own points
    built = pullback_tracer(chain, phi0, lambda lo, hi: pts[lo:hi], shape=(50, 50))
    assert np.array_equal(built, whole.reshape(50, 50))
    assert pullback_tracer(chain, phi0, np.empty((0, 3))).shape == (0,)

    verts = mesh4.vertices
    w = np.zeros(mesh4.n_vertices)
    np.add.at(w, mesh4.triangles.ravel(), np.repeat(triangle_areas(mesh4) / 3.0, 3))
    err = np.abs(phi0(chain.eval(verts)) - exact(verts))
    want = float(np.sum(err * w)) / float(np.sum(np.abs(exact(verts)) * w))
    assert l1_error(chain, phi0, exact, mesh4) == want

    # mass: one numpy sum per chunk of quadrature nodes, added in order
    total, n_nodes = 0.0, 9 * 16**2
    for lo in range(0, n_nodes, 1000):
        W, p, tang = diagnostics._mass_nodes(16, lo, min(lo + 1000, n_nodes))
        total += float(np.sum(W * area_form(*chain.jet(p, tang))))
    assert mass_integral(chain, 16) == total / (4.0 * np.pi)


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


@pytest.fixture(scope="module")
def remapped_run():
    flow = get_flow("solid_body", alpha=1.05)
    chain = run(flow.velocity, CMConfig(level=2, n_steps=8, t_final=flow.T, remap_stride=4))
    return flow, chain


def sample_norms(flow, chain, n, seed):
    """linf, map and density errors, each walking its own samples."""
    phi0 = initial_tracer(flow)
    exact = reference_solution(flow, phi0, flow.T)
    return (linf_error(chain, phi0, exact, n, seed),
            tuple(map_error(chain, reference_map(flow, flow.T), n, seed)),
            density_error(chain, n, seed))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_evaluate_run_walks_each_sample_chunk_once(remapped_run, monkeypatch, threads):
    flow, chain = remapped_run
    assert chain.n_submaps == 2
    monkeypatch.setenv("CMM_THREADS", threads)
    chunk = diagnostics._CHUNK
    n = 2 * chunk + 17  # the last chunk is partial
    walked = {"eval": [], "eval_with_jacobian": []}
    drawn = []
    draw = diagnostics._chunk_points
    with monkeypatch.context() as m:
        for name, sizes in walked.items():
            def spy(self, p, _orig=getattr(MapChain, name), _sizes=sizes):
                _sizes.append(len(p))
                return _orig(self, p)
            m.setattr(MapChain, name, spy)
        m.setattr(diagnostics, "_chunk_points",
                  lambda seed, i, size: drawn.append(i) or draw(seed, i, size))
        rep = evaluate_run(flow, chain, 8, n_samples=n, seed=3, mass_cells=8)
    # the one MapChain.eval is l1_error's pullback of the mesh vertices
    assert walked["eval"] == [chain.mesh.n_vertices]
    assert sorted(walked["eval_with_jacobian"]) == [17, chunk, chunk]
    # each sample chunk is drawn once, for all three norms
    assert sorted(drawn) == [0, 1, 2]
    # and each norm alone, which draws and walks its own samples, agrees
    assert (rep.linf, rep.map_err, rep.density_err) == sample_norms(flow, chain, n, 3)


def test_shared_walk_under_a_busy_pool(remapped_run, monkeypatch):
    # 41 chunks on three workers, switching threads often: the stored
    # chunk maxima must still come back in chunk order
    flow, chain = remapped_run
    monkeypatch.setattr(diagnostics, "_CHUNK", 1000)
    monkeypatch.setenv("CMM_THREADS", "1")
    serial = evaluate_run(flow, chain, 8, n_samples=40017, seed=4, mass_cells=8)
    monkeypatch.setenv("CMM_THREADS", "3")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = evaluate_run(flow, chain, 8, n_samples=40017, seed=4, mass_cells=8)
    finally:
        sys.setswitchinterval(interval)
    assert pooled == serial


def test_stored_chunk_maxima_reduce_as_walked(rotation_run, monkeypatch):
    # density_error's chunks take the other norms' maxima from their own
    # footpoints; reduced in chunk order they are the walked norms, bit for bit
    flow, chain = rotation_run
    phi0 = initial_tracer(flow)
    exact = reference_solution(flow, phi0, flow.T)
    xref = reference_map(flow, flow.T)
    monkeypatch.setattr(diagnostics, "_CHUNK", 1000)
    parts = []
    feet = lambda pts, foot: (pts.shape, np.array_equal(foot, chain.eval(pts)))  # noqa: E731
    assert density_error(chain, 2500, 0, also=(feet, parts)) == density_error(chain, 2500, 0)
    assert parts == [((1000, 3), True), ((1000, 3), True), ((500, 3), True)]
    parts = []
    density_error(chain, 2500, 0, also=(
        lambda pts, foot: (diagnostics._map_parts(xref, pts, foot),
                           diagnostics._linf_parts(phi0, exact, pts, foot)), parts))
    stored = tuple(map_error(chain, xref, 2500, 0, parts=[m for m, _ in parts]))
    assert stored == tuple(map_error(chain, xref, 2500, 0))
    stored = linf_error(chain, phi0, exact, 2500, 0, parts=[e for _, e in parts])
    assert stored == linf_error(chain, phi0, exact, 2500, 0)
