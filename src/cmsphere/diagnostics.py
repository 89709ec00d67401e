"""Error norms, mass quadrature, and convergence-rate estimation.

Random-point norms draw uniform sphere samples from seeded Gaussian
chunks; each chunk has its own (seed, index) stream and reductions run in
fixed chunk order, so results are bit-identical whether the chunks are
processed serially or by the CMM_THREADS worker pool.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geom import area_form, radial_project
from .mesh import triangle_areas
from .tracers import get_tracer

CSV_HEADER = "test,k,Nt,remaps,linf,l1,map_x,map_y,map_z,density,mass,walltime,seed"

_CHUNK = 1 << 16
_TINY = 1e-300


def _thread_count():
    """Worker count from CMM_THREADS: unset means 1; any other value must be
    an integer of at least 1."""
    raw = os.environ.get("CMM_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError("CMM_THREADS must be an integer of at least 1, got %r" % raw)
    return n


def _chunk_points(seed, index, m):
    rng = np.random.default_rng((seed, index))
    return radial_project(rng.standard_normal((m, 3)))


def _per_chunk(fn, n_samples, seed):
    """Apply fn to every sample chunk; return the results in chunk order."""
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("need at least one sample, got %d" % n_samples)
    sizes = []
    left = n_samples
    while left > 0:
        sizes.append(min(_CHUNK, left))
        left -= _CHUNK

    def work(i):
        return np.atleast_1d(np.asarray(fn(_chunk_points(seed, i, sizes[i]))))

    threads = _thread_count()
    if threads == 1 or len(sizes) == 1:
        return [work(i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(work, range(len(sizes))))


def _max_over_samples(fn, n_samples, seed):
    results = _per_chunk(fn, n_samples, seed)
    out = results[0]
    for r in results[1:]:
        out = np.maximum(out, r)
    return out


def linf_error(chain, phi0, exact, n_samples=1_000_000, seed=0):
    """Relative sup error of the transported tracer at random points.

    Normalized by the sup of |exact| over the same points; a vanishing
    reference leaves the error unnormalized.
    """

    def fn(pts):
        ref = exact(pts)
        num = np.abs(phi0(chain.eval(pts)) - ref)
        return np.array([np.max(num), np.max(np.abs(ref))])

    m = _max_over_samples(fn, n_samples, seed)
    den = m[1] if m[1] > _TINY else 1.0
    return float(m[0] / den)


def l1_error(chain, phi0, exact, mesh):
    """Vertex-rule L1 error: each triangle spreads its area over its corners."""
    verts = mesh.vertices
    err = np.abs(phi0(chain.eval(verts)) - exact(verts))
    ref = np.abs(exact(verts))
    w = np.zeros(mesh.n_vertices)
    np.add.at(w, mesh.triangles.ravel(), np.repeat(triangle_areas(mesh) / 3.0, 3))
    num = float(np.sum(err * w))
    den = float(np.sum(ref * w))
    return num / (den if den > _TINY else 1.0)


def map_error(chain, exact_map, n_samples=1_000_000, seed=0):
    """Componentwise sup distance between the chain and an exact map."""

    def fn(pts):
        return np.max(np.abs(chain.eval(pts) - exact_map(pts)), axis=0)

    return _max_over_samples(fn, n_samples, seed)


def density_error(chain, n_samples=1_000_000, seed=0):
    """Sup of |1 - J| at random points; the exact J is 1 for volume
    preserving maps, including any map at the end of a retracing flow."""

    def fn(pts):
        return np.array([np.max(np.abs(1.0 - chain.eval_with_jacobian(pts)[1]))])

    return float(_max_over_samples(fn, n_samples, seed)[0])


def mass_integral(chain, n_cells=64):
    """Total transported area of the sphere, normalized to 1.

    Pulls the area form back through the chain over an n_cells x n_cells
    (longitude, colatitude) grid with 3x3 Gauss-Legendre nodes per cell.
    The colatitude range is inset by 1e-10 to stay inside the chart. The
    form is evaluated on the (d theta, d lambda) pair, which orients the
    empty-chain integrand to +sin(theta).
    """
    if n_cells < 8:
        raise ValueError("mass quadrature needs at least 8 cells per axis")
    nodes, weights = leggauss(3)
    inset = 1e-10
    lam_edges = np.linspace(0.0, 2.0 * np.pi, n_cells + 1)
    th_edges = np.linspace(inset, np.pi - inset, n_cells + 1)

    def axis_nodes(edges):
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        wts = half[:, None] * weights[None, :]
        return pts.ravel(), wts.ravel()

    lam, wl = axis_nodes(lam_edges)
    th, wt = axis_nodes(th_edges)
    LAM, TH = np.meshgrid(lam, th)
    W = (wt[:, None] * wl[None, :]).ravel()
    LAM = LAM.ravel()
    TH = TH.ravel()

    st, ct = np.sin(TH), np.cos(TH)
    sl, cl = np.sin(LAM), np.cos(LAM)
    pts = np.stack([st * cl, st * sl, ct], axis=-1)
    d_th = np.stack([ct * cl, ct * sl, -st], axis=-1)
    d_lam = np.stack([-st * sl, st * cl, np.zeros_like(st)], axis=-1)
    tang = np.stack([d_th, d_lam], axis=1)

    total = 0.0
    for i in range(0, pts.shape[0], _CHUNK):
        sl_ = slice(i, i + _CHUNK)
        total += float(np.dot(W[sl_], area_form(*chain.jet(pts[sl_], tang[sl_]))))
    return total / (4.0 * np.pi)


def convergence_slope(hs, errs):
    """Least-squares slope of log error against log h.

    Pairs below the 1e-12 precision floor are dropped; fewer than two
    surviving pairs is an error.
    """
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs >= 1e-12
    if np.count_nonzero(keep) < 2:
        raise ValueError("need at least two error values above the precision floor")
    return float(np.polyfit(np.log(hs[keep]), np.log(errs[keep]), 1)[0])


@dataclass
class ErrorReport:
    """One experiment's error measurements, serialized as one CSV row."""

    test: str
    k: int
    n_steps: int
    remaps: int
    linf: float
    l1: float
    map_err: tuple
    density_err: float
    mass_err: float
    wall_time_s: float
    seed: int

    def __post_init__(self):
        vals = (self.linf, self.l1, self.density_err, self.mass_err) + tuple(
            self.map_err
        )
        if not all(np.isfinite(v) and v >= 0.0 for v in vals):
            raise ValueError("error measures must be finite and non-negative")

    def csv_row(self):
        return "%s,%d,%d,%d,%.6e,%.6e,%.6e,%.6e,%.6e,%.6e,%.6e,%.3f,%d" % (
            self.test,
            self.k,
            self.n_steps,
            self.remaps,
            self.linf,
            self.l1,
            self.map_err[0],
            self.map_err[1],
            self.map_err[2],
            self.density_err,
            self.mass_err,
            self.wall_time_s,
            self.seed,
        )


def initial_tracer(flow, name=None):
    """The tracer a run starts from: the named one, or the flow's own."""
    return flow.initial if name is None else get_tracer(name)


def reference_map(flow, t):
    """Exact backward map at time t, or None."""
    if flow.exact_map is not None:
        return lambda p: flow.exact_map(p, t)
    if flow.reversing and t == flow.T:
        return lambda p: np.asarray(p, dtype=float)
    return None


def reference_solution(flow, phi0, t):
    """Exact tracer field at time t: phi0 along the exact backward map, or
    None when the flow has no exact map at t."""
    xref = reference_map(flow, t)
    if xref is None:
        return None
    return lambda p: phi0(xref(p))


def evaluate_run(flow, chain, n_steps, tracer_name=None, t=None,
                 n_samples=1_000_000, seed=0, mass_cells=64, wall_time_s=0.0):
    """Assemble the full error report for a finished run.

    t defaults to the flow period. The flow must provide an exact backward
    map (closed form, or retracing at T) at that time.
    """
    if t is None:
        t = flow.T
    xref = reference_map(flow, t)
    if xref is None:
        raise ValueError("flow %r has no exact reference at t=%g" % (flow.name, t))
    phi0 = initial_tracer(flow, tracer_name)
    exact = reference_solution(flow, phi0, t)
    mass = mass_integral(chain, mass_cells)
    return ErrorReport(
        test=flow.name,
        k=chain.mesh.level,
        n_steps=n_steps,
        remaps=max(0, chain.n_submaps - 1),
        linf=linf_error(chain, phi0, exact, n_samples, seed),
        l1=l1_error(chain, phi0, exact, chain.mesh),
        map_err=tuple(map_error(chain, xref, n_samples, seed)),
        density_err=density_error(chain, n_samples, seed),
        mass_err=abs(1.0 - mass),
        wall_time_s=wall_time_s,
        seed=seed,
    )
