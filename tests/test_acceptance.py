"""End-to-end acceptance checklist for the package.

One test per numbered criterion. Each prints a single PASS/FAIL line
with the measured numbers (visible with pytest -s, or in the failure
output), so a full run reads as a checklist. The convergence runs are
shared between criteria through a module fixture; they take a few
minutes combined.
"""

import time

import numpy as np
import pytest
from conftest import (
    bernstein_value,
    derivative,
    edge_jumps,
    evaluate,
    interpolate,
    sample_sphere,
)

from cmsphere.diagnostics import (
    convergence_slope,
    density_error,
    l1_error,
    linf_error,
    mass_integral,
    initial_tracer,
    reference_solution,
)
from cmsphere.evolve import CMConfig, rk4_backstep, run
from cmsphere.fields import get_flow
from cmsphere.mapping import MapChain
from cmsphere.mesh import SUB_COEF, build_icosahedral, h_max, locate_batch
from cmsphere.spline import MacroSpline
from cmsphere.tracers import correlated_pair, get_tracer

pytestmark = pytest.mark.slow

SAMPLES = 1_000_000
SEED = 0

MESH_TABLE = {
    0: 1.10715,
    1: 0.62832,
    2: 0.32637,
    3: 0.16483,
    4: 0.08263,
    5: 0.04134,
    6: 0.02067,
}

DESK = (2, 3, 4, 5)
# the vortex pair needs one extra refinement before the fit window opens
EXTRA = (2, 3, 4, 5, 6)


def standard_steps(k):
    return 2**k + 10


# Each step adds one O(h^2) interpolation error to J, so |1 - J| is fitted in h at
# one step count; fewer than the finest level's own count leaves an RK4 error floor.
FIXED_STEPS = standard_steps(DESK[-1])

SUITE = [
    # label, flow, params, T, levels, first fitted level, extras
    ("sbr a=0", "solid_body", {"alpha": 0.0}, 1.0, DESK, 2, ""),
    ("sbr a=pi/4", "solid_body", {"alpha": np.pi / 4}, 1.0, DESK, 2, ""),
    ("sbr a=1.05", "solid_body", {"alpha": 1.05}, 1.0, DESK, 2, ""),
    ("sbr a=pi/2", "solid_body", {"alpha": np.pi / 2}, 1.0, DESK, 2, ""),
    ("deform T1 a=0", "deformational", {"alpha": 0.0}, 1.0, DESK, 2, "density"),
    ("deform T1 a=pi/4", "deformational", {"alpha": np.pi / 4}, 1.0, DESK, 2,
     "density"),
    ("deform T1 a=1.05", "deformational", {"alpha": 1.05}, 1.0, DESK, 2,
     "density zalesak"),
    ("deform T5 a=0", "deformational", {"alpha": 0.0}, 5.0, DESK, 2, ""),
    ("deform T5 a=pi/4", "deformational", {"alpha": np.pi / 4}, 5.0, DESK, 2, ""),
    ("deform T5 a=1.05", "deformational", {"alpha": 1.05}, 5.0, DESK, 2, ""),
    ("static vortex", "static_vortex", {}, 1.0, EXTRA, 3, ""),
    ("moving vortex", "moving_vortex", {}, 1.0, EXTRA, 3, ""),
    ("compressible T1", "compressible", {}, 1.0, DESK, 2, "density"),
    ("compressible T5", "compressible", {}, 5.0, DESK, 2, "density mass"),
]

INCOMPRESSIBLE = ("deform T1 a=0", "deform T1 a=pi/4", "deform T1 a=1.05")


def report(num, ok, detail):
    print("criterion %d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def exp_field(p):
    p = np.asarray(p)
    return np.exp(p[..., 0]) * p[..., 2]


def exp_gradient(p):
    p = np.asarray(p)
    g = np.zeros_like(p)
    g[..., 0] = np.exp(p[..., 0]) * p[..., 2]
    g[..., 2] = np.exp(p[..., 0])
    return g


def hermite_interpolant(mesh):
    grad = exp_gradient(mesh.vertices)
    return interpolate(
        mesh,
        exp_field(mesh.vertices),
        np.sum(mesh.g1 * grad, axis=1),
        np.sum(mesh.g2 * grad, axis=1),
    )


@pytest.fixture(scope="module")
def transport_suite():
    """Evolve every flow configuration once and collect its error rows."""
    out = {}
    for label, name, params, T, levels, fit_from, extras in SUITE:
        flow = get_flow(name, T=T, **params)
        phi0 = initial_tracer(flow)
        exact = reference_solution(flow, phi0, flow.T)
        rows = []
        for k in levels:
            cfg = CMConfig(level=k, n_steps=standard_steps(k), t_final=flow.T)
            chain = run(flow.velocity, cfg)
            row = {
                "k": k,
                "h": h_max(chain.mesh),
                "linf": linf_error(chain, phi0, exact, SAMPLES, SEED),
            }
            if "density" in extras:
                row["density"] = density_error(chain, SAMPLES, SEED)
            if "zalesak" in extras:
                zal = get_tracer("zalesak_disks")
                row["zal_l1"] = l1_error(chain, zal, zal, chain.mesh)
            if "mass" in extras and k == 4:
                row["mass"] = [
                    abs(1.0 - mass_integral(chain, n)) for n in (32, 64, 128)
                ]
            rows.append(row)
        out[label] = (rows, fit_from)
    return out


@pytest.fixture(scope="module")
def fixed_step_density(transport_suite):
    """The incompressible |1 - J| rows with every level run at FIXED_STEPS.

    Rows whose standard schedule already has FIXED_STEPS steps are reused.
    """
    out = {}
    for label, name, params, T, *_ in SUITE:
        if label not in INCOMPRESSIBLE:
            continue
        flow = get_flow(name, T=T, **params)
        rows, fit_from = transport_suite[label]
        fixed = []
        for row in rows:
            if standard_steps(row["k"]) != FIXED_STEPS:
                cfg = CMConfig(level=row["k"], n_steps=FIXED_STEPS, t_final=flow.T)
                chain = run(flow.velocity, cfg)
                row = {
                    "k": row["k"],
                    "h": row["h"],
                    "density": density_error(chain, SAMPLES, SEED),
                }
            fixed.append(row)
        out[label] = (fixed, fit_from)
    return out


def fitted_slope(entry, field):
    rows, fit_from = entry
    used = [r for r in rows if r["k"] >= fit_from]
    return convergence_slope([r["h"] for r in used], [r[field] for r in used])


def test_criterion_01_mesh_table():
    worst = 0.0
    build_k6 = 0.0
    counts_ok = True
    for k, h_ref in MESH_TABLE.items():
        t0 = time.time()
        mesh = build_icosahedral(k)
        dt = time.time() - t0
        counts_ok &= mesh.n_vertices == 10 * 4**k + 2
        counts_ok &= mesh.n_triangles == 20 * 4**k
        worst = max(worst, abs(h_max(mesh) - h_ref))
        if k == 6:
            build_k6 = dt
    ok = counts_ok and worst < 1e-3 and build_k6 < 10.0
    assert report(
        1,
        ok,
        "counts exact k=0..6, max h deviation %.1e, k=6 build %.2fs"
        % (worst, build_k6),
    )


def test_criterion_02_spline_orders():
    t0 = time.time()
    pts = sample_sphere(200000, seed=1)
    rng = np.random.default_rng(4)
    dirs = rng.standard_normal(pts.shape)
    dirs -= np.sum(dirs * pts, axis=1, keepdims=True) * pts
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    exact_v = exp_field(pts)
    exact_d = np.sum(dirs * exp_gradient(pts), axis=1)
    hs, val_errs, der_errs = [], [], []
    for k in range(2, 7):
        mesh = build_icosahedral(k)
        sp = hermite_interpolant(mesh)
        hs.append(h_max(mesh))
        val_errs.append(np.abs(evaluate(sp, pts)[:, 0] - exact_v).max())
        der_errs.append(np.abs(derivative(sp, pts, dirs)[:, 0] - exact_d).max())
    s_val = convergence_slope(hs, val_errs)
    s_der = convergence_slope(hs, der_errs)
    wall = time.time() - t0
    ok = abs(s_val - 3.0) <= 0.25 and abs(s_der - 2.0) <= 0.3 and wall < 60.0
    assert report(
        2,
        ok,
        "value slope %.3f (want 3.0+-0.25), derivative slope %.3f "
        "(want 2.0+-0.3), %.1fs" % (s_val, s_der, wall),
    )


def test_criterion_03_c1_joins():
    sp = hermite_interpolant(build_icosahedral(3))
    c0, c1 = edge_jumps(sp, 100)
    ok = c0 <= 1e-12 and c1 <= 1e-9
    assert report(
        3, ok, "k=3 cross-edge jumps: value %.2e (<=1e-12), transversal "
        "derivative %.2e (<=1e-9), 100 points per edge" % (c0, c1)
    )


def test_criterion_04_tracer_convergence(transport_suite):
    slopes = {
        label: fitted_slope(transport_suite[label], "linf")
        for label, *_ in SUITE
    }
    ok = all(s >= 1.9 for s in slopes.values())
    detail = ", ".join("%s %.2f" % (label, s) for label, s in slopes.items())
    assert report(4, ok, "tracer sup-error slopes (want >= 1.9): " + detail)


def test_criterion_05_density_convergence(transport_suite, fixed_step_density):
    fixed = {
        label: fitted_slope(fixed_step_density[label], "density")
        for label in INCOMPRESSIBLE
    }
    standard = {
        label: fitted_slope(transport_suite[label], "density")
        for label in INCOMPRESSIBLE
    }
    compressible = {
        label: fitted_slope(transport_suite[label], "density")
        for label in ("compressible T1", "compressible T5")
    }
    ok = all(s >= 1.9 for s in fixed.values()) and all(
        s >= 0.9 for s in (*standard.values(), *compressible.values())
    )
    assert report(
        5,
        ok,
        "incompressible |1-J| slopes at %d steps (want >= 1.9): %s; on the "
        "2^k+10 schedule (want >= 0.9): %s; compressible density slopes "
        "(want >= 0.9): %s"
        % (
            FIXED_STEPS,
            ", ".join("%s %.3f" % kv for kv in fixed.items()),
            ", ".join("%s %.3f" % kv for kv in standard.items()),
            ", ".join("%s %.3f" % kv for kv in compressible.items()),
        ),
    )


def test_criterion_06_period_scaling(transport_suite):
    alphas = ("a=0", "a=pi/4", "a=1.05")
    means = []
    for i, k in enumerate(DESK):
        ratios = [
            transport_suite["deform T5 " + a][0][i]["linf"]
            / transport_suite["deform T1 " + a][0][i]["linf"]
            for a in alphas
        ]
        means.append(float(np.exp(np.mean(np.log(ratios)))))
    ok = all(4.0 <= m <= 30.0 for m in means)
    assert report(
        6,
        ok,
        "T=5 vs T=1 error ratio, geometric mean over tilts at k=2..5: "
        + ", ".join("%.1f" % m for m in means)
        + " (want within [4, 30])",
    )


def test_criterion_07_zalesak_exact(transport_suite):
    rows, _ = transport_suite["deform T1 a=1.05"]
    vals = {r["k"]: r["zal_l1"] for r in rows}
    ok = all(v == 0.0 for v in vals.values())
    assert report(
        7,
        ok,
        "slotted-disk l1 error at k=2..5: "
        + ", ".join("%g" % vals[k] for k in sorted(vals))
        + " (want exactly 0)",
    )


def test_criterion_08_correlation_preserved():
    q1, q2 = correlated_pair()
    pts = sample_sphere(200000, seed=2)
    worst = 0.0
    for k in (2, 4):
        flow = get_flow("deformational", alpha=1.05, T=5.0)
        cfg = CMConfig(level=k, n_steps=2**k + 10, t_final=0.5 * flow.T)
        foot = run(flow.velocity, cfg).eval(pts)
        a, b = q1(foot), q2(foot)
        worst = max(worst, float(np.abs(b - (-0.8 * a * a + 0.9)).max()))
    ok = worst <= 1e-13
    assert report(
        8, ok, "max correlation residual over k=2,4 at half period: %.1e "
        "(<= 1e-13)" % worst
    )


def test_criterion_09_mass_conservation(transport_suite):
    empty = MapChain(mesh=build_icosahedral(2))
    base = abs(1.0 - mass_integral(empty, 64))
    rows, _ = transport_suite["compressible T5"]
    trio = next(r["mass"] for r in rows if r["k"] == 4)
    ok = base <= 1e-12 and trio[0] > trio[1] > trio[2]
    assert report(
        9,
        ok,
        "identity-map mass error %.1e (<= 1e-12); compressible T=5 k=4 "
        "|1-mass| at N=32,64,128: %.2e, %.2e, %.2e (decreasing)"
        % (base, trio[0], trio[1], trio[2]),
    )


def test_criterion_10_remapping_benefit():
    flow = get_flow("moving_vortex", T=2.0)
    phi0 = get_tracer("rsph")
    exact = lambda p: phi0(flow.exact_map(p, flow.T))
    errs = {}
    for stride in (0, 25, 10):
        cfg = CMConfig(level=4, n_steps=250, t_final=flow.T, remap_stride=stride)
        chain = run(flow.velocity, cfg)
        errs[stride] = linf_error(chain, phi0, exact, 200000, SEED)
    ratio = max(errs[25], errs[10]) / min(errs[25], errs[10])
    ok = errs[25] < errs[0] and ratio <= 3.0
    assert report(
        10,
        ok,
        "vortex T=2, 250 steps, k=4: no remap %.3f, stride 25 %.3f, "
        "stride 10 %.3f; remapped pair within %.2fx (<= 3)"
        % (errs[0], errs[25], errs[10], ratio),
    )


def test_criterion_11_numerical_properties():
    # determinism: the same configuration twice, bit for bit
    flow = get_flow("deformational", alpha=1.05, T=1.0)
    cfg = CMConfig(level=2, n_steps=14, t_final=1.0)
    first = run(flow.velocity, cfg)
    second = run(flow.velocity, cfg)
    same = all(
        np.array_equal(a.spline.coeffs, b.spline.coeffs)
        for a, b in zip(first.maps, second.maps)
    )
    phi0 = initial_tracer(flow)
    same &= linf_error(first, phi0, phi0, 100000, SEED) == linf_error(
        second, phi0, phi0, 100000, SEED
    )

    pts = sample_sphere(200000, seed=6)
    norm_dev = float(
        np.abs(np.linalg.norm(first.eval(pts), axis=1) - 1.0).max()
    )

    mesh = build_icosahedral(2)
    rng = np.random.default_rng(17)
    coeffs = rng.standard_normal((mesh.n_triangles, 19, 1))
    sp = MacroSpline(mesh, coeffs)
    sub_pts = sample_sphere(4000, seed=8)
    tri, sub, bary = locate_batch(mesh, sub_pts)
    direct = bernstein_value(coeffs[tri[:, None], SUB_COEF[sub]], bary)
    bern_dev = float(np.abs(sp.eval_located(tri, sub, bary) - direct).max())

    steps = sample_sphere(500, seed=9)

    def gap(dt):
        one = rk4_backstep(flow.velocity, steps, 0.7, dt)
        mid = rk4_backstep(flow.velocity, steps, 0.7, dt / 2.0)
        two = rk4_backstep(flow.velocity, mid, 0.7 - dt / 2.0, dt / 2.0)
        return np.linalg.norm(one - two, axis=1).max()

    order = float(np.log2(gap(0.1) / gap(0.05)))

    ok = same and norm_dev <= 1e-13 and bern_dev <= 1e-14 and order >= 4.7
    assert report(
        11,
        ok,
        "reruns bit-identical: %s; unit-norm deviation %.1e (<= 1e-13); "
        "de Casteljau vs Bernstein %.1e (<= 1e-14); RK4 halving order %.2f "
        "(>= 4.7)" % (same, norm_dev, bern_dev, order),
    )
