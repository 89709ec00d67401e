"""Every committed perf record carries the fields a speedup claim needs.

A root BENCH_<slug>.json backs a claimed speedup: it names the end-to-end
metric and workload it claims, the machine it ran on, and the before and
after runs of the final set, each as at least 5 runs with their median.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_RUNS = 5


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.stem for p in RECORDS])
def test_record_fields(path):
    rec = json.loads(path.read_text())
    assert path.stem == "BENCH_" + rec["slug"]
    metric, workload = rec["claimed"]["metric"], rec["claimed"]["workload"]
    assert metric in {m["name"] for m in CONTRACT["end_to_end"]}
    assert workload in {w["name"] for w in CONTRACT["workloads"]}
    assert {"nproc", "python", "numpy"} <= set(rec["machine"])
    final = rec["sets"]["final"][workload]
    for side in ("before", "after"):
        assert len(final[side][metric]["runs"]) >= MIN_RUNS
        for name, stat in final[side].items():
            if isinstance(stat, dict) and "runs" in stat:
                # stored to 4 decimals
                assert abs(stat["median"] - statistics.median(stat["runs"])) <= 5e-5 + 1e-12, name
