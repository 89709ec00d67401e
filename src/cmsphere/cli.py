"""Command-line harness: configure, run, measure, and render experiments.

Every subcommand reads an optional INI config file (one section per
subcommand) with flag overrides; unknown sections or keys are rejected.
Exit codes: 0 on success, 2 on usage or config errors, 3 on a numerical
breakdown (non-finite map data, a map value collapsing toward the origin,
or a point-location walk that does not end).
"""

import argparse
import configparser
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import diagnostics as diag
from .errors import LocationFailure, NonFiniteState, ZeroVector
from .evolve import CMConfig, pullback_tracer, run as evolve_run
from .fields import FLOWS, get_flow
from .geom import radial_project, sph_to_cart, vertex_frames
from .mapping import MapChain, save_chain
from .mesh import build_icosahedral, h_max, save_mesh
from .tracers import TRACERS, correlated_pair


class UsageError(Exception):
    """Bad flags or config; reported on stderr with exit code 2."""


_COMMANDS = ("mesh", "run", "converge", "render", "mixing", "mass", "remap-study")

_POLE_INSET = 1e-6


def _as_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % s)


def _int_list(s):
    try:
        return [int(x) for x in str(s).split(",") if x.strip()]
    except ValueError:
        raise UsageError("expected a comma-separated integer list, got %r" % s)


def _load_config(path, section, known):
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise UsageError("cannot read config file %r" % path)
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
    """Resolve each option: flag, then config value, then default."""
    cfg = {}
    if getattr(args, "config", None):
        cfg = _load_config(args.config, command, spec)
    out = {}
    for key, (conv, default) in spec.items():
        v = getattr(args, key, None)
        if v is None and key in cfg:
            try:
                v = conv(cfg[key])
            except ValueError as e:
                raise UsageError("config [%s]: key %r: %s" % (command, key, e))
        out[key] = default if v is None else v
    for key in ("samples", "resolution"):
        if key in out and out[key] < 1:
            raise UsageError("--%s must be at least 1, got %d" % (key, out[key]))
    return SimpleNamespace(**out)


def _check_level(k, allow_deep):
    if k < 0:
        raise UsageError("refinement level must be nonnegative")
    if k > 8:
        raise UsageError("refinement k=%d is out of range (max 8)" % k)
    if k > 6:
        if not allow_deep:
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
    if test not in FLOWS:
        raise UsageError(
            "unknown test %r; choose from %s" % (test, ", ".join(sorted(FLOWS)))
        )
    kwargs = {}
    if T is not None:
        # The flows divide by their period, so this precedes construction.
        if not T > 0.0:
            raise UsageError("--T must be positive, got %g" % T)
        kwargs["T"] = T
    if alpha is not None:
        if test not in ("solid_body", "deformational"):
            raise UsageError("test %r has no tilt parameter" % test)
        kwargs["alpha"] = alpha
    return get_flow(test, **kwargs)


def _pick_tracer(flow, name):
    if name is not None and name not in TRACERS:
        raise UsageError(
            "unknown tracer %r; choose from %s" % (name, ", ".join(sorted(TRACERS)))
        )
    return diag.initial_tracer(flow, name)


def _default_steps(k):
    return 2**k + 10


def _evolve_to(flow, ns, t_final, mesh=None):
    try:
        cfg = CMConfig(
            level=ns.k,
            n_steps=ns.n_steps if ns.n_steps is not None else _default_steps(ns.k),
            t_final=t_final,
            remap_stride=ns.remap_stride,
            epsilon=ns.epsilon,
            verbose=ns.verbose,
        )
    except ValueError as e:
        raise UsageError(str(e))
    t0 = time.time()
    chain = evolve_run(flow, cfg, mesh=mesh)
    return chain, cfg, time.time() - t0


# image output


def _viridis_lut():
    anchors = np.array(
        [
            [68, 1, 84],
            [72, 40, 120],
            [62, 74, 137],
            [49, 104, 142],
            [38, 130, 142],
            [31, 158, 137],
            [53, 183, 121],
            [109, 205, 89],
            [180, 222, 44],
            [253, 231, 37],
        ],
        dtype=float,
    )
    x = np.linspace(0.0, 1.0, anchors.shape[0])
    xi = np.linspace(0.0, 1.0, 256)
    lut = np.stack(
        [np.interp(xi, x, anchors[:, c]) for c in range(3)], axis=-1
    )
    return np.round(lut).astype(np.uint8)


_LUT = _viridis_lut()


def _normalize_bytes(values):
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    if vmax - vmin < 1e-300:
        return np.zeros(values.shape, dtype=np.uint8)
    return np.round(255.0 * (values - vmin) / (vmax - vmin)).astype(np.uint8)


def write_pgm(path, values):
    """Grayscale portable graymap from a 2-D value array."""
    img = _normalize_bytes(values)
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        f.write(img.tobytes())


def write_ppm(path, values):
    """Color portable pixmap from a 2-D value array via the embedded LUT."""
    img = _LUT[_normalize_bytes(values)]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        f.write(img.tobytes())


def _equirect_grid(n_theta, n_lam=None):
    if n_lam is None:
        n_lam = 2 * n_theta
    lam = (np.arange(n_lam) + 0.5) * 2.0 * np.pi / n_lam
    theta = _POLE_INSET + (np.arange(n_theta) + 0.5) * (
        np.pi - 2.0 * _POLE_INSET
    ) / n_theta
    LAM, TH = np.meshgrid(lam, theta)
    return sph_to_cart(LAM, TH)


def _window_grid(center_lam, center_theta, width, res):
    c = sph_to_cart(center_lam, center_theta)
    g1, g2 = vertex_frames(c)
    s = np.linspace(-0.5 * width, 0.5 * width, res)
    A, B = np.meshgrid(s, -s)
    return radial_project(
        c + A[..., None] * g1 + B[..., None] * g2
    )


# subcommands


def cmd_mesh(ns):
    _check_level(ns.k, ns.allow_deep)
    t0 = time.time()
    mesh = build_icosahedral(ns.k)
    dt = time.time() - t0
    print(
        "k=%d vertices=%d triangles=%d h=%.5f build=%.2fs"
        % (ns.k, mesh.n_vertices, mesh.n_triangles, h_max(mesh), dt)
    )
    if ns.out:
        os.makedirs(ns.out, exist_ok=True)
        save_mesh(
            mesh,
            os.path.join(ns.out, "vertices.txt"),
            os.path.join(ns.out, "triangles.txt"),
        )
        print("saved to %s" % ns.out)
    return 0


def cmd_run(ns):
    _check_level(ns.k, ns.allow_deep)
    flow = _build_flow(ns.test, ns.alpha, ns.T)
    t_final = ns.t if ns.t is not None else flow.T
    chain, cfg, wall = _evolve_to(flow, ns, t_final)
    print(
        "%s: k=%d steps=%d t=%.4f submaps=%d wall=%.2fs"
        % (flow.name, ns.k, cfg.n_steps, t_final, chain.n_submaps, wall)
    )
    if ns.save_chain:
        save_chain(chain, ns.save_chain)
        print("chain saved to %s" % ns.save_chain)
    if ns.csv:
        report = diag.evaluate_run(
            flow,
            chain,
            cfg.n_steps,
            tracer_name=ns.tracer,
            t=t_final,
            n_samples=ns.samples,
            seed=ns.seed,
            mass_cells=ns.mass_cells,
            wall_time_s=wall,
        )
        diag.write_csv(ns.csv, [report])
        print(diag.CSV_HEADER)
        print(report.csv_row())
    return 0


def cmd_converge(ns):
    if ns.k_min > ns.k_max:
        raise UsageError("k range is empty: %d..%d" % (ns.k_min, ns.k_max))
    _check_level(ns.k_max, ns.allow_deep)
    flow = _build_flow(ns.test, ns.alpha, ns.T)
    reports = []
    hs = []
    print(diag.CSV_HEADER)
    for k in range(ns.k_min, ns.k_max + 1):
        local = SimpleNamespace(**vars(ns))
        local.k = k
        chain, cfg, wall = _evolve_to(flow, local, flow.T)
        report = diag.evaluate_run(
            flow,
            chain,
            cfg.n_steps,
            tracer_name=ns.tracer,
            n_samples=ns.samples,
            seed=ns.seed,
            mass_cells=ns.mass_cells,
            wall_time_s=wall,
        )
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
        diag.write_csv(ns.csv, reports)
    return 0


def cmd_render(ns):
    _check_level(ns.k, ns.allow_deep)
    flow = _build_flow(ns.test, ns.alpha, ns.T)
    t_final = ns.t if ns.t is not None else flow.T
    phi0 = _pick_tracer(flow, ns.tracer)
    if t_final == 0.0:
        mesh = build_icosahedral(ns.k)
        chain = MapChain(mesh=mesh, maps=[], breaks=[0.0])
    else:
        chain, _, _ = _evolve_to(flow, ns, t_final)
    if ns.width is not None:
        if ns.width < 1e-6:
            raise UsageError("window width below 1e-6 is not resolvable")
        if ns.center_lam is None or ns.center_theta is None:
            raise UsageError("window rendering needs --center-lam and --center-theta")
        pts = _window_grid(ns.center_lam, ns.center_theta, ns.width, ns.resolution)
    else:
        pts = _equirect_grid(ns.resolution)
    shape = pts.shape[:2]
    values = pullback_tracer(chain, phi0, pts.reshape(-1, 3)).reshape(shape)
    if ns.gray:
        write_pgm(ns.out, values)
    else:
        write_ppm(ns.out, values)
    print("wrote %s (%dx%d)" % (ns.out, shape[1], shape[0]))
    if ns.csv:
        with open(ns.csv, "w") as f:
            f.write("row,col,value\n")
            for i in range(shape[0]):
                for j in range(shape[1]):
                    f.write("%d,%d,%.17g\n" % (i, j, values[i, j]))
        print("values saved to %s" % ns.csv)
    return 0


def cmd_mixing(ns):
    _check_level(ns.k, ns.allow_deep)
    flow = _build_flow("deformational", ns.alpha, ns.T)
    t_half = ns.t if ns.t is not None else 0.5 * flow.T
    chain, _, _ = _evolve_to(flow, ns, t_half)
    q1, q2 = correlated_pair()
    pts = _equirect_grid(ns.resolution, ns.resolution).reshape(-1, 3)
    foot = chain.eval(pts)
    a, b = q1(foot), q2(foot)
    resid = float(np.max(np.abs(b - (-0.8 * a * a + 0.9))))
    with open(ns.out, "w") as f:
        f.write("q1,q2\n")
        for x, y in zip(a, b):
            f.write("%.17g,%.17g\n" % (x, y))
    print("wrote %s (%d points), correlation residual %.3e" % (ns.out, a.size, resid))
    return 0


def cmd_mass(ns):
    _check_level(ns.k, ns.allow_deep)
    if any(n < 8 for n in ns.n_list):
        raise UsageError("quadrature sizes must be at least 8")
    flow = _build_flow(ns.test, ns.alpha, ns.T)
    chain, _, wall = _evolve_to(flow, ns, flow.T)
    rows = []
    for n in ns.n_list:
        err = abs(1.0 - diag.mass_integral(chain, n))
        rows.append((n, err))
        print("N=%d |1-mass|=%.6e" % (n, err))
    if ns.out:
        with open(ns.out, "w") as f:
            f.write("N,mass_err\n")
            for n, err in rows:
                f.write("%d,%.17g\n" % (n, err))
    return 0


def cmd_remap_study(ns):
    _check_level(ns.k, ns.allow_deep)
    flow = _build_flow("moving_vortex", None, ns.T)
    phi0 = _pick_tracer(flow, ns.tracer)
    exact = lambda p: phi0(flow.exact_map(p, flow.T))
    rows = []
    print("stride,remaps,linf,walltime")
    for stride in ns.strides:
        local = SimpleNamespace(**vars(ns))
        local.remap_stride = stride
        chain, cfg, wall = _evolve_to(flow, local, flow.T)
        err = diag.linf_error(chain, phi0, exact, ns.samples, ns.seed)
        rows.append((stride, chain.n_submaps - 1, err, wall))
        print("%d,%d,%.6e,%.2f" % rows[-1])
    if ns.csv:
        with open(ns.csv, "w") as f:
            f.write("stride,remaps,linf,walltime\n")
            for r in rows:
                f.write("%d,%d,%.17g,%.3f\n" % r)
    return 0


# argument plumbing

_RUNNISH = {
    "test": (str, "solid_body"),
    "alpha": (float, None),
    "T": (float, None),
    "k": (int, 3),
    "n_steps": (int, None),
    "remap_stride": (int, 0),
    "tracer": (str, None),
    "epsilon": (float, 1e-5),
    "seed": (int, 0),
    "samples": (int, 1_000_000),
    "mass_cells": (int, 64),
    "verbose": (_as_bool, False),
    "allow_deep": (_as_bool, False),
}

def _without(base, *keys):
    d = dict(base)
    for k in keys:
        d.pop(k)
    return d


_SPECS = {
    "mesh": {
        "k": (int, 3),
        "out": (str, None),
        "allow_deep": (_as_bool, False),
    },
    "run": dict(
        _RUNNISH,
        t=(float, None),
        save_chain=(str, None),
        csv=(str, None),
    ),
    "converge": dict(
        _without(_RUNNISH, "k"),
        k_min=(int, 2),
        k_max=(int, 5),
        csv=(str, None),
    ),
    "render": dict(
        _without(_RUNNISH, "samples", "seed", "mass_cells"),
        t=(float, None),
        resolution=(int, 400),
        center_lam=(float, None),
        center_theta=(float, None),
        width=(float, None),
        out=(str, "render.ppm"),
        csv=(str, None),
        gray=(_as_bool, False),
    ),
    "mixing": dict(
        _without(_RUNNISH, "test", "tracer", "samples", "seed", "mass_cells"),
        alpha=(float, 1.05),
        T=(float, 5.0),
        k=(int, 4),
        t=(float, None),
        resolution=(int, 200),
        out=(str, "mixing.csv"),
    ),
    "mass": dict(
        _without(_RUNNISH, "tracer", "samples", "seed", "mass_cells"),
        test=(str, "compressible"),
        T=(float, 5.0),
        k=(int, 4),
        n_list=(_int_list, [32, 64, 128]),
        out=(str, None),
    ),
    "remap-study": dict(
        _without(_RUNNISH, "test", "alpha", "mass_cells", "remap_stride"),
        T=(float, 2.0),
        k=(int, 4),
        n_steps=(int, 250),
        strides=(_int_list, [0, 25, 10]),
        tracer=(str, "rsph"),
        csv=(str, None),
    ),
}

_HANDLERS = {
    "mesh": cmd_mesh,
    "run": cmd_run,
    "converge": cmd_converge,
    "render": cmd_render,
    "mixing": cmd_mixing,
    "mass": cmd_mass,
    "remap-study": cmd_remap_study,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cmsphere",
        description="Tracer transport on the sphere via backward "
        "characteristic maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        for key, (conv, _) in sorted(_SPECS[name].items()):
            flag = "--" + key.replace("_", "-")
            if conv is _as_bool:
                p.add_argument(flag, action="store_true", default=None)
            elif conv is _int_list:
                p.add_argument(flag, type=_int_list, default=None)
            else:
                p.add_argument(flag, type=conv, default=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        ns = _merge(args, args.command, _SPECS[args.command])
        return _HANDLERS[args.command](ns)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (NonFiniteState, ZeroVector, LocationFailure) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
