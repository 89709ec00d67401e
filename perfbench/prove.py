"""Repeat the benchmark over seeds and summarise its spread.

Usage, from the root of a source checkout:

    python3 perfbench/prove.py --seeds 1-10 [--workloads deform_k5,remap_k4]
        [--trace-seeds 1-2] [--update perfbench/baseline.json]
        [--compare perfbench/baseline.json]

Runs perfbench/run.py once per workload and seed, one process at a time,
and prints for every end-to-end metric its median, quartiles and spread
(interquartile distance over median) against the bound in BENCHMARK.json.
Traced runs check that every per-layer counter (calls, points, bytes)
repeats exactly across seeds and report the median share of each layer.
Every run, traced or not, must print the same chain digest and reference
accuracy.
--update writes these figures into the "measured" entry of a baseline
file, keeping its other entries; --compare checks them against the
"measured" entry of such a file (for instance the parent commit's), one
bound per metric. Exits 1 if a run fails, a spread reaches
a third of its bound, a counter differs, or a compared median is worse
than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTER_UNITS = ("count", "B")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    for line in lines:
        for tag in ("env", "digest", "accuracy"):
            if line.startswith("# %s " % tag):
                result[tag] = line[len(tag) + 3:]
    result["wall_s"] = wall
    return result


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def compare(old, new, bounds, lower):
    """Each end-to-end median against an earlier set of runs; True when no
    metric is worse by more than its bound and shared counters agree."""
    if not old:
        return True
    ok = True
    for k, st in new["end_to_end"].items():
        if k not in old["end_to_end"]:
            continue
        base = old["end_to_end"][k]["median"]
        change = (st["median"] - base) / base if base else 0.0
        worse = change if lower[k] else -change
        ok &= worse <= bounds[k]
        print("  %-12s %+.2f%% against the earlier median %.6g%s" % (
            k, 100 * change, base, "  WORSE THAN BOUND" if worse > bounds[k] else ""))
    if "per_layer" in old and "per_layer" in new:
        shared = [k for k in new["per_layer"] if k in old["per_layer"]
                  and isinstance(new["per_layer"][k], int)]
        same = all(new["per_layer"][k] == old["per_layer"][k] for k in shared)
        ok &= same
        print("  %d per-layer counters %s the earlier runs" % (
            len(shared), "equal" if same else "DIFFER FROM"))
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace-seeds", type=seed_range, default=[])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--update", type=Path, default=None)
    ap.add_argument("--compare", type=Path, default=None)
    ns = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    before = json.loads(ns.compare.read_text())["measured"] if ns.compare else {}
    names = ns.workloads.split(",") if ns.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    measured = {}
    env = None

    walls = []
    for w in names:
        values = {}
        outputs = set()
        for seed in ns.seeds:
            res = run_once(w, seed, seconds, 0)
            if res is None:
                print("%s seed %d: FAILED" % (w, seed))
                ok = False
                continue
            env = json.loads(res["env"])
            outputs.add((res["digest"], res["accuracy"]))
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            walls.append(res["wall_s"])
            print("%s seed %d (%.1f s): %s" % (w, seed, res["wall_s"], " ".join(
                "%s=%.5g" % (k, m["value"]) for k, m in res["metrics"].items())), flush=True)
        entry = {"end_to_end": {}}
        for k, vals in values.items():
            if len(vals) < 2:
                continue
            st = stats(vals)
            st["bound"] = bounds[k]
            entry["end_to_end"][k] = st
            steady = k == "setup_s" or st["spread"] < bounds[k] / 3
            ok &= steady
            print("  %-12s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  bound %.2f %s" % (
                k, st["median"], st["q1"], st["q3"], st["spread"], bounds[k],
                "" if steady else "NOT STEADY"))

        traces = []
        for seed in ns.trace_seeds:
            res = run_once(w, seed, seconds, 1)
            if res is None:
                print("%s traced seed %d: FAILED" % (w, seed))
                ok = False
            else:
                traces.append(res["metrics"])
                print("%s traced seed %d (%.1f s)" % (w, seed, res["wall_s"]), flush=True)
                outputs.add((res["digest"], res["accuracy"]))
        if traces:
            counters = [{k: m["value"] for k, m in t.items() if m["unit"] in COUNTER_UNITS}
                        for t in traces]
            same = all(c == counters[0] for c in counters)
            ok &= same
            print("  per-layer counters %s across %d traced runs" % (
                "identical" if same else "DIFFER", len(traces)))
            layer = {}
            for k in traces[0]:
                if k.endswith(".share") or k.endswith(".self_s") or k.startswith("trace."):
                    layer[k] = statistics.median(t[k]["value"] for t in traces)
            layer.update(counters[0])
            entry["per_layer"] = layer
            for k in sorted(layer, key=lambda k: -layer[k] if k.endswith(".share") else 0)[:8]:
                print("  %-40s %.4g" % (k, layer[k]))
        same = len(outputs) == 1
        ok &= same
        print("  chain digest and accuracy %s across %d runs" % (
            "identical" if same else "DIFFER", len(ns.seeds) + len(traces)))
        measured[w] = entry
        ok &= compare(before.get(w), entry, bounds, lower)

    if walls:
        mean = sum(walls) / len(walls)
        print("untraced runs: mean %.1f s, longest %.1f s" % (mean, max(walls)))

    if ns.update:
        doc = json.loads(ns.update.read_text()) if ns.update.exists() else {}
        doc.setdefault("measured", {}).update(measured)
        doc["measured_with"] = {"seeds": "%d-%d" % (ns.seeds[0], ns.seeds[-1]),
                                "run_seconds": seconds}
        doc["environment"] = env
        ns.update.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
