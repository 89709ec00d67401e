"""The traced benchmark's span recorder still finds every layer it times.

perfbench/spans.py wraps cmsphere functions by name and reads their
arguments by name; a rename or a bypassed layer would silently drop spans
from `perfbench/run.py --trace 1`. This runs a tiny traced evolution and
evaluation and checks that every target recorded a span and that
uninstalling restores the original functions.
"""

import importlib
import importlib.util
from pathlib import Path

from cmsphere import diagnostics, evolve, tracers
from cmsphere.fields import get_flow

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def target_objects(targets):
    """The function object each target names, as the package holds it now."""
    out = {}
    for mod_name, attr, _, _ in targets:
        owner = importlib.import_module("cmsphere." + mod_name)
        for part in attr.split("."):
            owner = vars(owner)[part]
        out[mod_name + "." + attr] = owner
    return out


def test_every_target_records_a_span():
    spans = load_spans()
    flow = get_flow("deformational")
    before = target_objects(spans.TARGETS)
    velocity = flow.velocity
    registry = dict(tracers.TRACERS)

    rec = spans.Recorder("cmsphere")
    rec.install(flow)
    try:
        # called through their modules, where the recorder patches them
        chain = evolve.run(flow, evolve.CMConfig(level=1, n_steps=2, t_final=flow.T))
        diagnostics.evaluate_run(flow, chain, 2, n_samples=1000, mass_cells=8)
    finally:
        rec.uninstall()

    seen = {s.name for s in rec.spans}
    missing = [name for name in before if name not in seen]
    assert not missing
    after = target_objects(spans.TARGETS)
    assert all(after[name] is fn for name, fn in before.items())
    assert flow.velocity is velocity
    assert tracers.TRACERS == registry
