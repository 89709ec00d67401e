"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the cmsphere modules from outside
the package: a module-level function is replaced in every cmsphere module
that bound it (``from .geom import radial_project`` makes a second
binding), a method on its class, and flow velocities and tracer fields on
the objects that carry them. Every call becomes a span: name, start, end,
parent span, root span, and exact counters (points, computed bytes). Spans
stay in memory until the run writes them out. ``uninstall`` restores the
original functions, so untraced phases run the unmodified code.
"""

import contextlib
import functools
import inspect
from time import perf_counter

import numpy as np


def _rows(a):
    """Number of points in an array of shape (..., 3)."""
    shape = np.shape(a)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _coef_bytes(coeffs):
    return coeffs.shape[2] * coeffs.itemsize


# (module, qualified attribute, points(args), computed bytes(args) or None).
# args holds the call's bound arguments, defaults applied.
TARGETS = (
    ("geom", "radial_project", lambda a: _rows(a["v"]), None),
    ("geom", "vertex_frames", lambda a: _rows(a["base"]), None),
    ("geom", "project_differential", lambda a: _rows(a["xi"]), None),
    ("mesh", "build_icosahedral", lambda a: 0, None),
    ("mesh", "locate_batch", lambda a: _rows(a["p"]), None),
    ("stencil", "build_stencils", lambda a: a["mesh"].n_vertices, None),
    ("stencil", "reconstruct_hermite", lambda a: len(a["samples"]), None),
    (
        "spline",
        "build_coefficients",
        lambda a: a["mesh"].n_triangles,
        # The (n_triangles, 19, m) float64 coefficient array it returns.
        lambda a: a["mesh"].n_triangles * 19 * a["values"].shape[1] * 8,
    ),
    (
        "spline",
        "MacroSpline.eval_located",
        lambda a: len(a["tri"]),
        # Six gathered sub-triangle coefficients per point and component.
        lambda a: len(a["tri"]) * 6 * _coef_bytes(a["self"].coeffs),
    ),
    ("spline", "MacroSpline.derivative_located", lambda a: len(a["tri"]), None),
    ("mapping", "SphereMap.from_hermite", lambda a: len(a["values"]), None),
    ("mapping", "MapChain.eval", lambda a: _rows(a["p"]), None),
    ("mapping", "MapChain.eval_with_jacobian", lambda a: _rows(a["p"]), None),
    ("mapping", "MapChain.jet", lambda a: _rows(a["p"]), None),
    ("evolve", "run", lambda a: 0, None),
    ("evolve", "rk4_backstep", lambda a: _rows(a["points"]), None),
    ("diagnostics", "evaluate_run", lambda a: 0, None),
    ("diagnostics", "linf_error", lambda a: a["n_samples"], None),
    ("diagnostics", "map_error", lambda a: a["n_samples"], None),
    ("diagnostics", "density_error", lambda a: a["n_samples"], None),
    ("diagnostics", "mass_integral", lambda a: 9 * a["n_cells"] ** 2, None),
    ("diagnostics", "l1_error", lambda a: a["mesh"].n_vertices, None),
)

# Keys naming the point set a diagnostic requests, ending in its size.
# linf, map and density errors draw the same samples for the same
# (seed, n_samples).
DISTINCT_KEYS = {
    "diagnostics.linf_error": lambda a: ("samples", a["seed"], a["n_samples"]),
    "diagnostics.map_error": lambda a: ("samples", a["seed"], a["n_samples"]),
    "diagnostics.density_error": lambda a: ("samples", a["seed"], a["n_samples"]),
    "diagnostics.mass_integral": lambda a: ("mass", 9 * a["n_cells"] ** 2),
    "diagnostics.l1_error": lambda a: ("vertices", a["mesh"].n_vertices),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "points", "bytes", "key")

    def __init__(self, name, parent, root, points=0, nbytes=0, key=None):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.root = root
        self.points = points
        self.bytes = nbytes
        self.key = key

    @property
    def duration(self):
        return self.end - self.start

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.root,
                self.points, self.bytes]


class Recorder:
    """In-memory span log plus the patches that feed it."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._undo = []
        self._flow = None

    # recording

    def _open(self, name, points=0, nbytes=0, key=None):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent].root if parent >= 0 else len(self.spans)
        span = Span(name, parent, root, points, nbytes, key)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name):
        """A root span around one benchmark phase."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, points, nbytes=None):
        """fn, recording a span per call; points and nbytes count from
        the call's bound arguments."""
        sig = inspect.signature(fn)
        key_fn = DISTINCT_KEYS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span = rec._open(
                name,
                points(a),
                nbytes(a) if nbytes else 0,
                key_fn(a) if key_fn else None,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(span)

        return traced

    # patching

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, flow):
        """Wrap every target, the flow's velocity and the tracer registry."""
        import importlib

        self._flow = flow
        pkg = self.package
        modules = [
            importlib.import_module("%s.%s" % (pkg, m))
            for m in ("geom", "mesh", "stencil", "spline", "mapping", "evolve",
                      "fields", "tracers", "diagnostics")
        ]
        for mod_name, attr, points, nbytes in TARGETS:
            mod = importlib.import_module("%s.%s" % (pkg, mod_name))
            name = "%s.%s" % (mod_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, name, points, nbytes))
                else:
                    wrapped = self.wrap(raw, name, points, nbytes)
                self._set(cls, meth, wrapped)
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(orig, name, points, nbytes)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._set(m, k, wrapped)

        self._set(flow, "velocity", self.wrap(
            flow.velocity, "fields.velocity", lambda a: _rows(a["p"])))

        tracers = importlib.import_module("%s.tracers" % pkg)
        for tname, make in list(tracers.TRACERS.items()):
            self._undo.append((tracers.TRACERS, tname, make))
            tracers.TRACERS[tname] = self._traced_factory(make, tname)

    def _traced_factory(self, make, tname):
        rec = self

        @functools.wraps(make)
        def factory(**params):
            field = make(**params)
            return rec.wrap(field, "tracers." + tname, lambda a: _rows(a["p"]))

        return factory

    @contextlib.contextmanager
    def paused(self):
        """Run the original, unwrapped functions inside the block."""
        if not self._undo:
            yield
            return
        flow = self._flow
        self.uninstall()
        try:
            yield
        finally:
            self.install(flow)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # reporting

    def counters_by_root(self):
        """{root index: {name: (calls, points, bytes)}} for every root span."""
        out = {}
        for s in self.spans:
            if s.parent < 0:
                out.setdefault(s.root, {})
                continue
            c = out.setdefault(s.root, {}).setdefault(s.name, [0, 0, 0])
            c[0] += 1
            c[1] += s.points
            c[2] += s.bytes
        return {r: {k: tuple(v) for k, v in d.items()} for r, d in out.items()}

    def report(self):
        """Per-name totals: inclusive and self seconds, share, counters.

        Self time is a span's duration minus its children's durations;
        calls nest, so children never overlap. Shares are of the traced
        wall time, the summed duration of all root spans. The located per
        distinct point ratio divides the points located under diagnostics
        spans by the distinct point sets those diagnostics requested,
        counted once per root span.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        wall = sum(s.duration for s in self.spans if s.parent < 0)
        names = {}
        for i, s in enumerate(self.spans):
            d = names.setdefault(
                s.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "points": 0, "bytes": 0}
            )
            d["s"] += s.duration
            d["self_s"] += s.duration - child[i]
            d["calls"] += 1
            d["points"] += s.points
            d["bytes"] += s.bytes
        for d in names.values():
            d["share"] = d["self_s"] / wall if wall > 0 else 0.0

        modules = {}
        for name, d in names.items():
            mod = name.split(".")[0]
            m = modules.setdefault(mod, {"self_s": 0.0})
            m["self_s"] += d["self_s"]
        for m in modules.values():
            m["share"] = m["self_s"] / wall if wall > 0 else 0.0

        located = 0
        distinct = set()
        for i, s in enumerate(self.spans):
            if s.key is not None:
                distinct.add((s.root, s.key))
            if s.name == "mesh.locate_batch" and self._under_diagnostics(i):
                located += s.points
        n_distinct = sum(key[-1] for _, key in distinct)
        return {
            "wall_s": wall,
            "names": names,
            "modules": modules,
            "located_points": located,
            "distinct_points": n_distinct,
            "located_per_distinct_point": located / n_distinct if n_distinct else 0.0,
        }

    def _under_diagnostics(self, i):
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].key is not None:
                return True
            p = self.spans[p].parent
        return False
