"""Command-line harness: configure, run, measure, and render experiments.

Every subcommand reads an optional INI config file (one section per
subcommand) with flag overrides; unknown sections or keys are rejected.
Each option's value, from a flag or the config file, passes through its
spec entry's converter before any mesh is built or step taken.
Exit codes: 0 on success, 2 on usage or config errors, 3 on a numerical
breakdown (non-finite map data, a map value collapsing toward the origin,
or a point-location walk that does not end).
"""

import argparse
import configparser
import math
import os
import sys
import time
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import diagnostics as diag
from .errors import LocationFailure, NonFiniteState, ZeroVector
from .evolve import CMConfig, run as evolve_run
from .fields import FLOWS, get_flow
from .geom import radial_project, sph_to_cart, vertex_frames
from .mapping import MapChain, save_chain
from .mesh import MAX_LEVEL, build_icosahedral, h_max, save_mesh
from .tracers import TRACERS, correlated_pair


class UsageError(Exception):
    """Bad flags or config; reported on stderr with exit code 2."""


_POLE_INSET = 1e-6


# option converters: each maps a flag or config string to its value, or
# raises ValueError("must ...") for a value the commands cannot use


def _as_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError("must be a boolean, got %r" % s)


def _integer(lo=None):
    def conv(s):
        try:
            v = int(s)
        except ValueError:
            raise ValueError("must be an integer, got %r" % s) from None
        if lo is not None and v < lo:
            raise ValueError("must be at least %d, got %d" % (lo, v))
        return v

    return conv


def _real(above=None):
    def conv(s):
        try:
            v = float(s)
        except ValueError:
            raise ValueError("must be a number, got %r" % s) from None
        if not math.isfinite(v):
            raise ValueError("must be finite, got %r" % s)
        if above is not None and not v > above:
            raise ValueError("must be greater than %g, got %g" % (above, v))
        return v

    return conv


def _int_list(lo):
    entry = _integer(lo)

    def conv(s):
        parts = [x for x in s.split(",") if x.strip()]
        if not parts:
            raise ValueError("must list at least one integer, got %r" % s)
        return [entry(x) for x in parts]

    return conv


def _choice(names):
    def conv(s):
        if s not in names:
            raise ValueError("must be one of %s, got %r" % (", ".join(sorted(names)), s))
        return s

    return conv


def _output_path(s):
    """A file to write, in a directory that exists and is writable."""
    if not s or os.path.isdir(s):
        raise ValueError("must name a file, got %r" % s)
    d = os.path.dirname(os.path.abspath(s))
    if not (os.path.isdir(d) and os.access(d, os.W_OK)):
        raise ValueError("must go into an existing, writable directory, got %r" % s)
    return s


def _image_path(s):
    """An image file to write: .pgm for a graymap, .ppm for a colour pixmap."""
    if not s.endswith((".pgm", ".ppm")):
        raise ValueError("must end in .pgm or .ppm, got %r" % s)
    return _output_path(s)


def _output_dir(s):
    """A directory to write into: an existing one, or a new one below a writable one."""
    if not s:
        raise ValueError("must name a directory, got %r" % s)
    base = os.path.abspath(s)
    while not os.path.exists(base):
        base = os.path.dirname(base)
    if not (os.path.isdir(base) and os.access(base, os.W_OK)):
        raise ValueError("must be a directory, or a new one under a writable "
                         "directory, got %r" % s)
    return s


def _load_config(path, section, known):
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path, encoding="utf-8"):
            raise UsageError("cannot read config file %r" % path)
    except (configparser.Error, UnicodeDecodeError) as e:
        raise UsageError("config file %r: %s" % (path, " ".join(str(e).split())))
    for sec in cp.sections():
        if sec not in _COMMANDS:
            raise UsageError("config: unknown section [%s]" % sec)
    out = {}
    if cp.has_section(section):
        for key, val in cp.items(section):
            name = key.replace("-", "_")
            if name not in known:
                raise UsageError("config [%s]: unknown key %r" % (section, key))
            out[name] = val
    return out


def _merge(args, command, spec):
    """Resolve each option (flag, then config value, then default) and pass
    every string value through the spec entry's converter."""
    cfg = _load_config(args.config, command, spec) if args.config else {}
    out = {}
    for key, (conv, default) in spec.items():
        v = getattr(args, key)
        where = "--" + key.replace("_", "-")
        if v is None and key in cfg:
            v, where = cfg[key], "config [%s]: %s" % (command, key)
        if v is None:
            v = default
        if isinstance(v, str):
            try:
                v = conv(v)
            except ValueError as e:
                raise UsageError("%s %s" % (where, e))
        out[key] = v
    return SimpleNamespace(**out)


def _check_level(ns):
    """Reject a refinement level out of range, or above 6 without
    --allow-deep: k, or k_max for a k range, which must not be empty."""
    k = ns.k_max if "k_max" in vars(ns) else ns.k
    if "k_min" in vars(ns) and ns.k_min > k:
        raise UsageError("k range is empty: %d..%d" % (ns.k_min, k))
    if k > MAX_LEVEL:
        raise UsageError("refinement k=%d is out of range (max %d)" % (k, MAX_LEVEL))
    if k > 6:
        if not ns.allow_deep:
            raise UsageError(
                "k=%d exceeds the desk-scale cap of 6; pass --allow-deep to override"
                % k
            )
        print(
            "warning: k=%d builds %d triangles; expect minutes of runtime "
            "and gigabytes of memory" % (k, 20 * 4**k),
            file=sys.stderr,
        )


def _build_flow(test, alpha, T):
    kwargs = {} if T is None else {"T": T}
    if alpha is not None:
        if test not in ("solid_body", "deformational"):
            raise UsageError("test %r has no tilt parameter" % test)
        kwargs["alpha"] = alpha
    return get_flow(test, **kwargs)


def _config(ns, t_final, k=None, remap_stride=None):
    """The run's CMConfig; k and remap_stride override the options."""
    k = ns.k if k is None else k
    try:
        return CMConfig(
            level=k,
            n_steps=ns.n_steps if ns.n_steps is not None else 2**k + 10,
            t_final=t_final,
            remap_stride=ns.remap_stride if remap_stride is None else remap_stride,
            verbose=ns.verbose,
        )
    except ValueError as e:
        raise UsageError(str(e))


def _evolve(flow, cfg):
    t0 = time.perf_counter()
    chain = evolve_run(flow, cfg)
    return chain, time.perf_counter() - t0


def _report(flow, chain, cfg, ns, wall):
    return diag.evaluate_run(
        flow, chain, cfg.n_steps, tracer_name=ns.tracer, t=cfg.t_final,
        n_samples=ns.samples, seed=ns.seed, mass_cells=ns.mass_cells,
        wall_time_s=wall,
    )


# file output


def _write_table(path, header, fmt, rows):
    """CSV file: the header line, then one fmt % row line per row."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(fmt % row + "\n")


# image output


def _viridis_lut():
    anchors = np.array(
        [[68, 1, 84], [72, 40, 120], [62, 74, 137], [49, 104, 142],
         [38, 130, 142], [31, 158, 137], [53, 183, 121], [109, 205, 89],
         [180, 222, 44], [253, 231, 37]],
        dtype=float,
    )
    x = np.linspace(0.0, 1.0, anchors.shape[0])
    xi = np.linspace(0.0, 1.0, 256)
    lut = np.stack([np.interp(xi, x, anchors[:, c]) for c in range(3)], axis=-1)
    return np.round(lut).astype(np.uint8)


_LUT = _viridis_lut()


def _write_image(path, values):
    """Binary portable graymap (.pgm path) or viridis pixmap (.ppm path) of
    a 2-D array, spanning the values' range."""
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    img = np.zeros(values.shape, dtype=np.uint8)
    if not vmax - vmin < 1e-300:
        # 255 (values - vmin) / (vmax - vmin), rounded, on one float copy
        scaled = values - vmin
        scaled *= 255.0
        scaled /= vmax - vmin
        img = np.round(scaled, out=scaled).astype(np.uint8)
    magic = b"P5"
    if path.endswith(".ppm"):
        img, magic = _LUT[img], b"P6"
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n255\n" % (magic, img.shape[1], img.shape[0]))
        f.write(img.tobytes())


def _equirect_grid(n_theta, n_lam, lo, hi):
    """Centres of the pixels [lo, hi), counted row by row, of an n_theta x
    n_lam equirectangular grid, shape (hi - lo, 3). Sines and cosines are
    taken per axis."""
    lam = (np.arange(n_lam) + 0.5) * 2.0 * np.pi / n_lam
    theta = _POLE_INSET + (np.arange(n_theta) + 0.5) * (
        np.pi - 2.0 * _POLE_INSET
    ) / n_theta
    i, j = np.divmod(np.arange(lo, hi), n_lam)
    st = np.sin(theta)[i]
    return np.stack([st * np.cos(lam)[j], st * np.sin(lam)[j], np.cos(theta)[i]], axis=-1)


def _window_grid(center_lam, center_theta, width, res, lo, hi):
    """Pixels [lo, hi), counted row by row, of a res x res window of the
    given width in the tangent plane at the centre, projected to the
    sphere, shape (hi - lo, 3)."""
    c = sph_to_cart(center_lam, center_theta)
    g1, g2 = vertex_frames(c)
    s = np.linspace(-0.5 * width, 0.5 * width, res)
    i, j = np.divmod(np.arange(lo, hi), res)
    return radial_project(c + s[j, None] * g1 + (-s)[i, None] * g2)


# subcommands


def cmd_mesh(ns):
    t0 = time.perf_counter()
    mesh = build_icosahedral(ns.k)
    dt = time.perf_counter() - t0
    print(
        "k=%d vertices=%d triangles=%d h=%.5f build=%.2fs"
        % (ns.k, mesh.n_vertices, mesh.n_triangles, h_max(mesh), dt)
    )
    if ns.out:
        os.makedirs(ns.out, exist_ok=True)
        save_mesh(mesh, os.path.join(ns.out, "vertices.txt"),
                  os.path.join(ns.out, "triangles.txt"))
        print("saved to %s" % ns.out)
    return 0


def cmd_run(ns):
    flow = _build_flow(ns.test, ns.alpha, ns.T)
    t_final = ns.t if ns.t is not None else flow.T
    if ns.csv and diag.reference_map(flow, t_final) is None:
        raise UsageError(
            "--csv needs an exact map at t=%g; %s has none" % (t_final, flow.name))
    cfg = _config(ns, t_final)
    chain, wall = _evolve(flow, cfg)
    print(
        "%s: k=%d steps=%d t=%.4f submaps=%d wall=%.2fs"
        % (flow.name, ns.k, cfg.n_steps, t_final, chain.n_submaps, wall)
    )
    if ns.save_chain:
        save_chain(chain, ns.save_chain)
        print("chain saved to %s" % ns.save_chain)
    if ns.csv:
        row = _report(flow, chain, cfg, ns, wall).csv_row()
        _write_table(ns.csv, diag.CSV_HEADER, "%s", [row])
        print(diag.CSV_HEADER)
        print(row)
    return 0


def cmd_converge(ns):
    flow = _build_flow(ns.test, ns.alpha, ns.T)
    cfgs = [_config(ns, flow.T, k=k) for k in range(ns.k_min, ns.k_max + 1)]
    reports = []
    hs = []
    print(diag.CSV_HEADER)
    for cfg in cfgs:
        chain, wall = _evolve(flow, cfg)
        report = _report(flow, chain, cfg, ns, wall)
        reports.append(report)
        hs.append(h_max(chain.mesh))
        print(report.csv_row())
    for label, vals in (
        ("linf", [r.linf for r in reports]),
        ("map", [max(r.map_err) for r in reports]),
        ("density", [r.density_err for r in reports]),
    ):
        try:
            print("slope %s: %.3f" % (label, diag.convergence_slope(hs, vals)))
        except ValueError:
            print("slope %s: n/a (errors at precision floor)" % label)
    if ns.csv:
        _write_table(ns.csv, diag.CSV_HEADER, "%s", [r.csv_row() for r in reports])
    return 0


def cmd_render(ns):
    if ns.width is not None and (ns.center_lam is None or ns.center_theta is None):
        raise UsageError("window rendering needs --center-lam and --center-theta")
    flow = _build_flow(ns.test, ns.alpha, ns.T)
    t_final = ns.t if ns.t is not None else flow.T
    phi0 = diag.initial_tracer(flow, ns.tracer)
    if t_final == 0.0:
        chain = MapChain(mesh=None)
    else:
        chain, _ = _evolve(flow, _config(ns, t_final))
    # Each chunk of pixels builds its own points, so only the values are whole.
    res = ns.resolution
    if ns.width is not None:
        grid = partial(_window_grid, ns.center_lam, ns.center_theta, ns.width, res)
        shape = (res, res)
    else:
        grid, shape = partial(_equirect_grid, res, 2 * res), (res, 2 * res)
    values = diag.pullback_tracer(chain, phi0, grid, shape)
    _write_image(ns.out, values)
    print("wrote %s (%dx%d)" % (ns.out, values.shape[1], values.shape[0]))
    if ns.csv:
        rows = ((i, j, values[i, j]) for i, j in np.ndindex(values.shape))
        _write_table(ns.csv, "row,col,value", "%d,%d,%.17g", rows)
        print("values saved to %s" % ns.csv)
    return 0


def cmd_mixing(ns):
    flow = _build_flow("deformational", ns.alpha, ns.T)
    t_half = ns.t if ns.t is not None else 0.5 * flow.T
    chain, _ = _evolve(flow, _config(ns, t_half))
    q1, q2 = correlated_pair()
    res = ns.resolution
    # Both tracers read one chain walk per point; each chunk builds its points.
    a, b = diag.pullback_tracer(chain, lambda foot: np.stack([q1(foot), q2(foot)], -1),
                                partial(_equirect_grid, res, res), (res * res,)).T
    resid = float(np.max(np.abs(b - (-0.8 * a * a + 0.9))))
    _write_table(ns.out, "q1,q2", "%.17g,%.17g", zip(a, b))
    print("wrote %s (%d points), correlation residual %.3e" % (ns.out, a.size, resid))
    return 0


def cmd_mass(ns):
    flow = _build_flow(ns.test, ns.alpha, ns.T)
    chain, _ = _evolve(flow, _config(ns, flow.T))
    rows = []
    for n in ns.n_list:
        err = abs(1.0 - diag.mass_integral(chain, n))
        rows.append((n, err))
        print("N=%d |1-mass|=%.6e" % (n, err))
    if ns.out:
        _write_table(ns.out, "N,mass_err", "%d,%.17g", rows)
    return 0


def cmd_remap_study(ns):
    flow = _build_flow("moving_vortex", None, ns.T)
    phi0 = diag.initial_tracer(flow, ns.tracer)
    exact = diag.reference_solution(flow, phi0, flow.T)
    cfgs = [_config(ns, flow.T, remap_stride=s) for s in ns.strides]
    header = "stride,remaps,linf,walltime"
    rows = []
    print(header)
    for cfg in cfgs:
        chain, wall = _evolve(flow, cfg)
        err = diag.linf_error(chain, phi0, exact, ns.samples, ns.seed)
        rows.append((cfg.remap_stride, chain.n_submaps - 1, err, wall))
        print("%d,%d,%.6e,%.2f" % rows[-1])
    if ns.csv:
        _write_table(ns.csv, header, "%d,%d,%.17g,%.3f", rows)
    return 0


# argument plumbing: one table of {command: (handler, {option: (converter,
# default)})}; a default that is a string passes the converter too

_RUNNISH = {
    "test": (_choice(FLOWS), "solid_body"),
    "alpha": (_real(), None),
    "T": (_real(above=0.0), None),
    "k": (_integer(0), 3),
    "n_steps": (_integer(), None),
    "remap_stride": (_integer(), 0),
    "tracer": (_choice(TRACERS), None),
    "seed": (_integer(0), 0),
    "samples": (_integer(1), 1_000_000),
    "mass_cells": (_integer(8), 64),
    "verbose": (_as_bool, False),
    "allow_deep": (_as_bool, False),
}


def _without(*keys):
    return {k: v for k, v in _RUNNISH.items() if k not in keys}


_COMMANDS = {
    "mesh": (cmd_mesh, {
        "k": (_integer(0), 3),
        "out": (_output_dir, None),
        "allow_deep": (_as_bool, False),
    }),
    "run": (cmd_run, dict(
        _RUNNISH,
        t=(_real(), None),
        save_chain=(_output_path, None),
        csv=(_output_path, None),
    )),
    "converge": (cmd_converge, dict(
        _without("k"),
        k_min=(_integer(0), 2),
        k_max=(_integer(0), 5),
        csv=(_output_path, None),
    )),
    "render": (cmd_render, dict(
        _without("samples", "seed", "mass_cells"),
        t=(_real(), None),
        resolution=(_integer(1), 400),
        center_lam=(_real(), None),
        center_theta=(_real(), None),
        width=(_real(above=1e-6), None),
        out=(_image_path, "render.ppm"),
        csv=(_output_path, None),
    )),
    "mixing": (cmd_mixing, dict(
        _without("test", "tracer", "samples", "seed", "mass_cells"),
        alpha=(_real(), 1.05),
        T=(_real(above=0.0), 5.0),
        k=(_integer(0), 4),
        t=(_real(), None),
        resolution=(_integer(1), 200),
        out=(_output_path, "mixing.csv"),
    )),
    "mass": (cmd_mass, dict(
        _without("tracer", "samples", "seed", "mass_cells"),
        test=(_choice(FLOWS), "compressible"),
        T=(_real(above=0.0), 5.0),
        k=(_integer(0), 4),
        n_list=(_int_list(8), [32, 64, 128]),
        out=(_output_path, None),
    )),
    "remap-study": (cmd_remap_study, dict(
        _without("test", "alpha", "mass_cells", "remap_stride"),
        T=(_real(above=0.0), 2.0),
        k=(_integer(0), 4),
        n_steps=(_integer(), 250),
        strides=(_int_list(0), [0, 25, 10]),
        tracer=(_choice(TRACERS), "rsph"),
        csv=(_output_path, None),
    )),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cmsphere",
        description="Tracer transport on the sphere via backward "
        "characteristic maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, spec) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        for key, (conv, _) in sorted(spec.items()):
            flag = "--" + key.replace("_", "-")
            if conv is _as_bool:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, default=None)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler, spec = _COMMANDS[args.command]
    try:
        try:
            diag._thread_count()
        except ValueError as e:
            raise UsageError(str(e))
        ns = _merge(args, args.command, spec)
        _check_level(ns)
        # Breakdowns overflow before the finiteness checks report them.
        with np.errstate(all="ignore"):
            return handler(ns)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (NonFiniteState, ZeroVector, LocationFailure) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
