"""Evaluation of a finished chain: tracer pullback, error norms, mass
quadrature, and convergence-rate estimation.

Every evaluation runs over fixed slices of _CHUNK points, so its working
memory does not grow with the point count; random samples come from one
seeded (seed, index) stream per chunk. Reductions run in fixed chunk order,
so results are bit-identical whether the chunks run serially or on the
CMM_THREADS pool. evaluate_run draws and walks each sample chunk once for
its three sample norms and keeps five floats per chunk.
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


def _per_chunk(work, n):
    """Run work(i, lo, hi) over consecutive _CHUNK slices [lo, hi) of n
    points, on CMM_THREADS workers; return the results in chunk order."""
    bounds = [(i, lo, min(lo + _CHUNK, n)) for i, lo in enumerate(range(0, n, _CHUNK))]
    threads = _thread_count()
    if threads == 1 or len(bounds) < 2:
        return [work(*b) for b in bounds]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(lambda b: work(*b), bounds))


def _per_point(fn, points, shape=None):
    """fn applied to points (..., 3) chunk by chunk. With shape, points is
    instead a function points(lo, hi) that builds the flat range [lo, hi)
    of a grid of that leading shape, so each chunk makes its own points.
    fn maps (m, 3) points to (m, ...) values; the result has the points'
    leading shape."""
    if shape is None:
        shape = np.shape(points)[:-1]
        flat = np.asarray(points, dtype=float).reshape(-1, 3)
        points = lambda lo, hi: flat[lo:hi]  # noqa: E731
    out = np.concatenate(_per_chunk(lambda i, lo, hi: fn(points(lo, hi)), int(np.prod(shape)))
                         or [np.empty(0)])
    return out.reshape(tuple(shape) + out.shape[1:])


def pullback_tracer(chain, tracer, points, shape=None):
    """Transported tracer values at points (..., 3): the initial field
    along the backward map. With shape, points is a function of a flat
    range of a grid, as in _per_point."""
    return _per_point(lambda p: tracer(chain.eval(p)), points, shape)


def _over_samples(fn, n_samples, seed):
    """fn(points) for each chunk of n_samples random points, in chunk order."""
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("need at least one sample, got %d" % n_samples)
    return _per_chunk(lambda i, lo, hi: fn(_chunk_points(seed, i, hi - lo)), n_samples)


def _linf_parts(phi0, exact, pts, foot):
    ref = exact(pts)
    return np.array([np.max(np.abs(phi0(foot) - ref)), np.max(np.abs(ref))])


def _map_parts(exact_map, pts, foot):
    return np.max(np.abs(foot - exact_map(pts)), axis=0)


def linf_error(chain, phi0, exact, n_samples=1_000_000, seed=0, *, parts=None):
    """Relative sup error of the transported tracer at random points.

    Normalized by the sup of |exact| over the same points; a vanishing
    reference leaves the error unnormalized. parts, if given, holds each
    sample chunk's (max error, max |exact|), as density_error's chunks
    computed them for evaluate_run, and is reduced in place of a walk.
    """
    if parts is None:
        parts = _over_samples(lambda pts: _linf_parts(phi0, exact, pts, chain.eval(pts)),
                              n_samples, seed)
    m = np.max(parts, axis=0)
    den = m[1] if m[1] > _TINY else 1.0
    return float(m[0] / den)


def l1_error(chain, phi0, exact, mesh):
    """Vertex-rule L1 error: each triangle spreads its area over its corners."""
    ref = _per_point(exact, mesh.vertices)
    err = np.abs(pullback_tracer(chain, phi0, mesh.vertices) - ref)
    w = np.zeros(mesh.n_vertices)
    np.add.at(w, mesh.triangles.ravel(), np.repeat(triangle_areas(mesh) / 3.0, 3))
    den = float(np.sum(np.abs(ref) * w))
    return float(np.sum(err * w)) / (den if den > _TINY else 1.0)


def map_error(chain, exact_map, n_samples=1_000_000, seed=0, *, parts=None):
    """Componentwise sup distance between the chain and an exact map;
    parts, if given, holds each sample chunk's componentwise max, as in
    linf_error."""
    if parts is None:
        parts = _over_samples(lambda pts: _map_parts(exact_map, pts, chain.eval(pts)),
                              n_samples, seed)
    return np.max(parts, axis=0)


def density_error(chain, n_samples=1_000_000, seed=0, *, also=None):
    """Sup of |1 - J| at random points; the exact J is 1 for volume
    preserving maps, including any map at the end of a retracing flow.
    also, if given, is a pair (fn, out): each chunk also computes
    fn(points, footpoints), and out receives the results in chunk order."""

    def fn(pts):
        foot, jac = chain.eval_with_jacobian(pts)
        return np.max(np.abs(1.0 - jac)), None if also is None else also[0](pts, foot)

    parts = _over_samples(fn, n_samples, seed)
    if also is not None:
        also[1].extend(extra for _, extra in parts)
    return float(np.max([jac for jac, _ in parts]))


def _mass_nodes(n_cells, lo, hi):
    """Weights (m,), points (m, 3) and (d theta, d lambda) tangent pairs
    (m, 2, 3) of the mass quadrature nodes [lo, hi) of 9 n_cells^2, in
    colatitude-major order. Sines and cosines are taken per axis."""
    nodes, weights = leggauss(3)

    def axis_nodes(a, b):
        edges = np.linspace(a, b, n_cells + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()

    lam, wl = axis_nodes(0.0, 2.0 * np.pi)
    th, wt = axis_nodes(1e-10, np.pi - 1e-10)
    it, il = np.divmod(np.arange(lo, hi), lam.size)
    st, ct, sl, cl = np.sin(th)[it], np.cos(th)[it], np.sin(lam)[il], np.cos(lam)[il]
    pts = np.stack([st * cl, st * sl, ct], axis=-1)
    d_th = np.stack([ct * cl, ct * sl, -st], axis=-1)
    d_lam = np.stack([-st * sl, st * cl, np.zeros_like(st)], axis=-1)
    return wt[it] * wl[il], pts, np.stack([d_th, d_lam], axis=1)


def mass_integral(chain, n_cells=64):
    """Total transported area of the sphere, normalized to 1.

    Pulls the area form back through the chain over an n_cells x n_cells
    (longitude, colatitude) grid with 3x3 Gauss-Legendre nodes per cell.
    The colatitude range is inset by 1e-10 to stay inside the chart. The
    form is evaluated on the (d theta, d lambda) pair, which orients the
    empty-chain integrand to +sin(theta). Each chunk builds its own nodes.
    """
    if n_cells < 8:
        raise ValueError("mass quadrature needs at least 8 cells per axis")

    def part(i, lo, hi):
        W, pts, tang = _mass_nodes(n_cells, lo, hi)
        # a numpy reduction, whose order no BLAS thread count can change
        return float(np.sum(W * area_form(*chain.jet(pts, tang))))

    parts = _per_chunk(part, 9 * n_cells * n_cells)
    # Chunk order, left to right: sum() compensates floats from Python 3.12.
    total = 0.0
    for part in parts:
        total += part
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
    # One draw and chain walk per sample chunk: density_error's chunks also
    # take the other two norms' chunk maxima, which those norms reduce.
    parts = []
    density_err = density_error(chain, n_samples, seed, also=(
        lambda pts, foot: (_map_parts(xref, pts, foot), _linf_parts(phi0, exact, pts, foot)),
        parts))
    map_err = tuple(map_error(chain, xref, n_samples, seed, parts=[m for m, _ in parts]))
    linf = linf_error(chain, phi0, exact, n_samples, seed, parts=[e for _, e in parts])
    return ErrorReport(
        test=flow.name,
        k=chain.mesh.level,
        n_steps=n_steps,
        remaps=max(0, chain.n_submaps - 1),
        linf=linf,
        l1=l1_error(chain, phi0, exact, chain.mesh),
        map_err=map_err,
        density_err=density_err,
        mass_err=abs(1.0 - mass),
        wall_time_s=wall_time_s,
        seed=seed,
    )
