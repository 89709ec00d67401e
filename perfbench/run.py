"""cmsphere benchmark: one workload per process, metrics as one JSON line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload deform_k5 --seed 1 --seconds 45 --trace 0

The process pins every thread pool to one thread before numpy loads, builds
the workload's inputs from --seed, measures with tracing off (--trace 0) or
records per-layer spans (--trace 1), checks the outputs, and prints as its
last line {"correct", "attempted", "failed", "metrics"}. A failed check
still prints that line, with correct false, and exits 1. A checkout without
src/cmsphere exits 2 and prints no result.

Untraced runs repeat the workload's cycle (set-ups, evolution, evaluation)
for about --seconds and report the end-to-end metrics of BENCHMARK.json:
the median set-up time, the mean evolve and evaluate wall times, peak RSS,
and the reference error norms. Traced runs follow a fixed schedule (cycles
alternating traced and untraced, then the reference evaluation) so that
their counters repeat exactly, report per-layer times, shares and
counters and the tracing overhead, and write every span to .perfbench-out/.
"""

import os

for _var in ("CMM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import TARGETS  # noqa: E402
from workloads import MASS_CELLS, REF_SAMPLES, REF_SEED, WORKLOADS  # noqa: E402

TRACED_CYCLES = 2
MIN_CYCLES = 2
WARMUP_SETUPS = 2
FOOT_TOL = 1e-12


def import_package():
    """Import cmsphere from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "cmsphere" / "__init__.py").is_file():
        print("perfbench: no src/cmsphere under %s" % ROOT, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import cmsphere

    if Path(cmsphere.__file__).resolve().parent != (src / "cmsphere").resolve():
        print("perfbench: imported cmsphere from %s, not this checkout"
              % cmsphere.__file__, file=sys.stderr)
        sys.exit(2)


def environment():
    """Machine and toolchain facts, read-only from /proc and /sys."""
    import numpy as np

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": "unknown",
        "cache": {},
        "threads": {k: os.environ[k] for k in ("CMM_THREADS", "OMP_NUM_THREADS",
                                                 "OPENBLAS_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                env["cache"]["L" + level] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return env


class Failures:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.notes = []

    def check(self, ok, what):
        if not ok:
            self.notes.append(what)


class Bench:
    """One workload's inputs, operations and output checks."""

    def __init__(self, name, seed, fails):
        from cmsphere import errors, fields

        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.fails = fails
        self.flow = fields.get_flow(self.spec["flow"], **self.spec["flow_params"])
        self.breakdown = (errors.ZeroVector, errors.LocationFailure,
                          errors.NonFiniteState)
        self.mesh = None
        self.chain = None
        self.digests = []
        self.results = []
        self.references = []
        # Output checks run inside this context; a traced run pauses its
        # recorder there so the checks add no spans.
        self.unrecorded = contextlib.nullcontext

    def config(self, n_steps=None):
        """The workload's run, or its first n_steps steps without remaps."""
        from cmsphere.evolve import CMConfig

        s = self.spec
        if n_steps is None:
            return CMConfig(level=s["level"], n_steps=s["n_steps"], t_final=self.flow.T,
                            remap_stride=s["remap_stride"])
        return CMConfig(level=s["level"], n_steps=n_steps,
                        t_final=self.flow.T * n_steps / s["n_steps"])

    def attempt(self, what, fn):
        """Run one operation; a numerical breakdown counts as a failure."""
        self.fails.attempted += 1
        try:
            return fn()
        except self.breakdown as exc:
            self.fails.notes.append("%s raised %s: %s" % (what, type(exc).__name__, exc))
            return None

    def setup(self):
        """Mesh build, then a one-step warm-up; returns its seconds.

        The warm-up fills the mesh's lazily built caches, so that work is
        charged to set-up here as it would be in a user's first step.
        """
        from cmsphere import evolve, mesh

        self.mesh = None
        t0 = perf_counter()
        self.mesh = mesh.build_icosahedral(self.spec["level"])
        evolve.run(self.flow, self.config(1), mesh=self.mesh)
        return perf_counter() - t0

    def evolve(self):
        """The workload's full evolution on the set-up mesh; returns its seconds."""
        from cmsphere import evolve

        # Free the previous chain first, so that peak memory holds one.
        self.chain = None
        gc.collect()
        t0 = perf_counter()
        self.chain = evolve.run(self.flow, self.config(), mesh=self.mesh)
        wall = perf_counter() - t0
        self.check_chain(self.chain)
        return wall

    def evaluate(self):
        """Evaluate the chain at eval_samples points from --seed; returns seconds."""
        from cmsphere import diagnostics, tracers

        spec = self.spec
        t0 = perf_counter()
        if spec["evaluate"] == "evaluate_run":
            rep = diagnostics.evaluate_run(
                self.flow, self.chain, spec["n_steps"], tracer_name=spec["tracer"],
                n_samples=spec["eval_samples"], seed=self.seed, mass_cells=MASS_CELLS)
            result = report_tuple(rep)
        else:
            flow = self.flow
            phi0 = tracers.get_tracer(spec["tracer"])
            exact = lambda p: phi0(flow.exact_map(p, flow.T))  # noqa: E731
            result = (diagnostics.linf_error(self.chain, phi0, exact,
                                             spec["eval_samples"], self.seed),)
        wall = perf_counter() - t0
        self.results.append(result)
        return wall

    def reference(self):
        """Evaluate the chain at the fixed reference samples; returns seconds."""
        from cmsphere import diagnostics

        t0 = perf_counter()
        rep = diagnostics.evaluate_run(
            self.flow, self.chain, self.spec["n_steps"], tracer_name=self.spec["tracer"],
            n_samples=REF_SAMPLES, seed=REF_SEED, mass_cells=MASS_CELLS)
        wall = perf_counter() - t0
        self.references.append(report_tuple(rep))
        return wall

    def cycle_steps(self):
        """One cycle as (label, operation) pairs: half the set-ups, evolve on
        the last mesh, the other half, evaluate the chain. Splitting the
        set-ups spreads their samples over the cycle."""
        half = [("setup", self.setup)] * (self.spec["setups"] // 2)
        return half + [("evolve", self.evolve)] + half + [("evaluate", self.evaluate)]

    def check_chain(self, chain):
        """Finite unit-norm footpoints at the vertices; record the digest."""
        import numpy as np

        with self.unrecorded():
            foot = chain.eval(self.mesh.vertices)
        dev = np.abs(np.linalg.norm(foot, axis=1) - 1.0)
        self.fails.check(bool(np.all(np.isfinite(foot)) and np.all(dev <= FOOT_TOL)),
                         "footpoints not finite unit vectors")
        h = hashlib.sha256(np.asarray(chain.breaks, dtype=float).tobytes())
        for m in chain.maps:
            h.update(np.ascontiguousarray(m.spline.coeffs).tobytes())
        self.digests.append(h.hexdigest())

    def check_outputs(self, reference):
        """Repeatability across repetitions and against reference.json."""
        f = self.fails
        f.check(len(set(self.digests)) == 1, "chain digest differs between repetitions")
        f.check(len(set(self.results)) == 1, "evaluation results differ between repetitions")
        f.check(len(set(self.references)) == 1,
                "reference evaluation differs between repetitions")
        if not self.references:
            return {}
        linf, l1, map_err, density_err, mass_err = self.references[0]
        got = {"linf": linf, "map_err": max(map_err), "density_err": density_err,
               "mass_err": mass_err}
        want = reference["workloads"][self.name]
        tol = reference["rel_tol"]
        for k, v in got.items():
            f.check(abs(v - want[k]) <= tol * abs(want[k]),
                    "%s = %r, reference %r" % (k, v, want[k]))
        # Traced and untraced runs, and runs with other seeds, print the
        # same two lines; perfbench/prove.py compares them across runs.
        print("# digest " + (self.digests[0] if self.digests else "none"))
        print("# accuracy " + json.dumps(got, sort_keys=True))
        return got


def report_tuple(rep):
    return (rep.linf, rep.l1, tuple(float(x) for x in rep.map_err), rep.density_err,
            rep.mass_err)


def describe(name, values, unit):
    """One human-readable line: median, quartiles and sample count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return "# %-12s median %.6g %s  q1 %.6g  q3 %.6g  n=%d  [%s]" % (
        name, statistics.median(values), unit, q1, q3, len(values),
        " ".join("%.4g" % v for v in values))


def untraced(bench, seconds, reference):
    """Repeat whole cycles while the next one is expected to end in time.

    Set-up, evolution and evaluation interleave through the run, so all
    three times sample the same stretch of the host's load. Untimed
    warm-up set-ups first take the process's one-off first-call costs.
    setup_s is the median set-up; evolve_s and evaluate_s are the mean
    evolution and evaluation, that is their total time over their count:
    a run holds only a few of each, and on a shared host the mean of a
    few repeats steadier from run to run than their median.
    """
    for _ in range(WARMUP_SETUPS):
        if bench.attempt("warm-up", bench.setup) is None:
            return None
    times = {"setup": [], "evolve": [], "evaluate": []}
    cycles = []
    t_start = perf_counter()
    while len(cycles) < MIN_CYCLES or (
        perf_counter() - t_start + statistics.median(cycles) <= seconds
    ):
        t0 = perf_counter()
        for label, fn in bench.cycle_steps():
            wall = bench.attempt(label, fn)
            if wall is None:
                return None
            times[label].append(wall)
        cycles.append(perf_counter() - t0)
    if bench.attempt("reference evaluation", bench.reference) is None:
        return None
    accuracy = bench.check_outputs(reference)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    for label, vals in times.items():
        print(describe(label + "_s", vals, "s"))
        value = statistics.median(vals) if label == "setup" else statistics.fmean(vals)
        metrics[label + "_s"] = {"value": value, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    for k in ("linf", "map_err", "density_err", "mass_err"):
        metrics[k] = {"value": accuracy[k], "unit": "1"}
    return metrics


def traced(bench, reference):
    """Fixed schedule, so that counters repeat exactly between runs.

    Cycles alternate traced and untraced, then the reference evaluation
    runs traced and once untraced. Every operation is its own root span.
    The tracing overhead is the median difference between the traced and
    the untraced cycle of each pair.
    """
    from spans import Recorder

    rec = Recorder("cmsphere")
    bench.unrecorded = rec.paused

    def traced_run(label, fn):
        rec.install(bench.flow)
        try:
            with rec.phase("bench." + label) as span:
                out = bench.attempt(label, fn)
        finally:
            rec.uninstall()
        return out is not None, span.duration

    def untraced_run(label, fn):
        t0 = perf_counter()
        out = bench.attempt(label, fn)
        return out is not None, perf_counter() - t0

    cycle_walls = {traced_run: [], untraced_run: []}
    for how in (traced_run, untraced_run) * TRACED_CYCLES:
        wall = 0.0
        for label, fn in bench.cycle_steps():
            ok, dt = how(label, fn)
            if not ok:
                return None, None
            wall += dt
        cycle_walls[how].append(wall)
    for how in (traced_run, untraced_run):
        ok, _ = how("check", bench.reference)
        if not ok:
            return None, None
    bench.check_outputs(reference)

    by_root = rec.counters_by_root()
    for label in ("setup", "evolve", "evaluate", "check"):
        seen = {repr(sorted(by_root[s.root].items()))
                for s in rec.spans if s.parent < 0 and s.name == "bench." + label}
        bench.fails.check(len(seen) <= 1, "%s counters differ between repetitions" % label)

    rep = rec.report()
    on, off = cycle_walls[traced_run], cycle_walls[untraced_run]
    diffs = [t - u for t, u in zip(on, off)]
    rep["trace_overhead_s"] = statistics.median(diffs)
    rep["trace_overhead_share"] = statistics.median(d / u for d, u in zip(diffs, off))
    rep["cycle_untraced_s"] = off
    rep["cycle_traced_s"] = on
    return rep, rec

# Per-layer metric names: every traced name reports .s, .share and .calls;
# these also report .points.
POINTS = (
    "geom.radial_project", "mesh.locate_batch", "spline.eval_located",
    "spline.derivative_located", "mapping.MapChain.eval",
    "mapping.MapChain.eval_with_jacobian", "mapping.MapChain.jet",
    "evolve.rk4_backstep", "fields.velocity", "tracers.field",
)
LAYERS = tuple(
    "%s.%s" % (m, a.replace("MacroSpline.", "")) for m, a, _, _ in TARGETS
) + ("fields.velocity", "tracers.field")
MODULES = ("geom", "mesh", "stencil", "spline", "mapping", "evolve", "fields",
           "tracers", "diagnostics")


def layer_metrics(rep):
    """Map the trace report onto the per-layer metric names."""
    names = {full: {"s": 0.0, "self_s": 0.0, "calls": 0, "points": 0, "bytes": 0,
                    "share": 0.0} for full in LAYERS}
    for full, d in rep["names"].items():
        if full.startswith("bench."):
            continue
        key = full.replace("MacroSpline.", "")
        if key.startswith("tracers."):
            key = "tracers.field"
        t = names[key]
        for k in t:
            t[k] += d[k]
    out = {}
    for key, d in sorted(names.items()):
        out[key + ".s"] = (d["s"], "s")
        out[key + ".share"] = (d["share"], "1")
        out[key + ".calls"] = (d["calls"], "count")
        if key in POINTS:
            out[key + ".points"] = (d["points"], "count")
            out[key + ".points_per_s"] = (d["points"] / d["s"] if d["s"] > 0 else 0.0,
                                          "1/s")
    out["evolve.run.self_s"] = (names["evolve.run"]["self_s"], "s")
    out["spline.build_coefficients.bytes_computed"] = (
        names["spline.build_coefficients"]["bytes"], "B")
    out["spline.eval_located.gather_bytes_computed"] = (
        names["spline.eval_located"]["bytes"], "B")
    for m in MODULES:
        out[m + ".self_s"] = (rep["modules"].get(m, {}).get("self_s", 0.0), "s")
    out["diagnostics.located_per_distinct_point"] = (rep["located_per_distinct_point"], "1")
    out["trace.wall_s"] = (rep["wall_s"], "s")
    out["trace.overhead_s"] = (rep["trace_overhead_s"], "s")
    out["trace.overhead_share"] = (rep["trace_overhead_share"], "1")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def write_trace(name, seed, env, rep, rec):
    out_dir = Path.cwd() / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("trace_%s_seed%d.json" % (name, seed))
    doc = {
        "workload": name,
        "seed": seed,
        "environment": env,
        "span_fields": ["name", "start", "end", "parent", "root", "points", "bytes"],
        "spans": [s.as_list() for s in rec.spans],
        "report": rep,
    }
    path.write_text(json.dumps(doc))
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seconds <= 0:
        ap.error("--seconds must be positive")

    import_package()
    reference = json.loads((HERE / "reference.json").read_text())
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    print("# workload %s seed %d: %s" % (ns.workload, ns.seed, WORKLOADS[ns.workload]["why"]))

    fails = Failures()
    bench = Bench(ns.workload, ns.seed, fails)
    if ns.trace:
        rep, rec = traced(bench, reference)
        metrics = layer_metrics(rep) if rep is not None else {}
        if rec is not None:
            print("# trace written to %s" % write_trace(ns.workload, ns.seed, env, rep, rec))
    else:
        metrics = untraced(bench, ns.seconds, reference) or {}

    for note in fails.notes:
        print("# FAILED: " + note)
    failed = min(len(fails.notes), fails.attempted)
    correct = not fails.notes
    print(json.dumps({"correct": correct, "attempted": fails.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
