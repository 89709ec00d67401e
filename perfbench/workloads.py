"""The benchmark's workloads: problem sizes and why each one exists.

Each workload runs one closed loop with a single caller in one process
and one thread. The loop repeats a cycle a user of the library goes
through: set up (`setups` times: build the mesh, then a one-step evolution
that fills its lazily built caches), evolve the backward map on that mesh,
and evaluate the finished chain (`evaluate_run`, or `linf_error` with
`tracer`, at `eval_samples` points drawn from --seed). Evolution and
evaluation are timed apart, so a change to one path must read "no change"
in the other's time. After the loop the last chain is evaluated once at a
fixed reference sample set whose error norms are checked against
reference.json.

Evaluation draws its samples in fixed chunks of 2^16 points
(cmsphere.diagnostics), so the sample counts here change only how many
identical chunks one evaluation processes.

Importing this module pulls in no numpy, so run.py can pin thread counts
first.
"""

# Sample set of the reference evaluation: independent of --seed, so the
# accuracy numbers are the same on every run and can be checked.
REF_SAMPLES = 1 << 16
REF_SEED = 0
MASS_CELLS = 64

WORKLOADS = {
    "deform_k5": dict(
        flow="deformational",
        flow_params={"alpha": 1.05, "T": 1.0},
        level=5,
        n_steps=42,
        remap_stride=0,
        tracer=None,
        evaluate="evaluate_run",
        eval_samples=1 << 18,
        setups=2,
        why="k=5 deformational run with no remap: few large steps (rk4, locate, "
        "eval, reconstruct, coefficients), then evaluate_run locating each sample three times",
    ),
    "remap_k4": dict(
        flow="moving_vortex",
        flow_params={"T": 2.0},
        level=4,
        n_steps=250,
        remap_stride=25,
        tracer="rsph",
        evaluate="linf",
        eval_samples=1 << 16,
        setups=4,
        why="many small k=4 steps with a remap every 25 (per-call overhead, "
        "window restarts), then rsph linf through a 10-deep chain",
    ),
}
