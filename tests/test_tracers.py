import math

import numpy as np
import pytest
from conftest import reference_cosine_bells, reference_sph_harmonics, reference_zalesak_disks

from cmsphere.geom import sph_to_cart
from cmsphere.tracers import (
    _RSPH_BLOCK,
    BELL_CENTERS,
    BELL_RADIUS,
    correlated_pair,
    cosine_bells,
    get_tracer,
    mandelbrot,
    random_sph_harmonics,
    zalesak_disks,
)

ZOOM_CENTER = -0.235125 + 0.827215j


def random_points(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, 3))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def escape_reference(c, max_iter=500):
    """Scalar escape-time loop, written independently of the library."""
    z = 0j
    for n in range(max_iter):
        z = z * z + c
        if abs(z) > 2.0:
            mu = n + 1.0 - math.log2(math.log(abs(z)))
            return n, min(max(mu / max_iter, 0.0), 1.0 - 1e-12)
    return None, 1.0


def test_cosine_bells_values():
    f = cosine_bells()
    (lam1, th1), (lam2, th2) = BELL_CENTERS
    # centers are a third of pi apart, so each bell peaks alone
    assert f(sph_to_cart(lam1, th1)) == 1.0
    assert f(sph_to_cart(lam2, th2)) == 1.0
    # a quarter arc unit along the equator sits halfway down the bell
    halfway = sph_to_cart(lam1 - 0.25, th1)
    assert f(halfway) == pytest.approx(0.55, abs=1e-15)
    assert f(sph_to_cart(0.0, np.pi / 2)) == 0.1
    vals = f(random_points(20000, 0))
    assert vals.min() >= 0.1 and vals.max() <= 1.0


def test_cosine_bells_match_law_of_cosines():
    pts = random_points(1 << 16, 2)
    assert np.abs(cosine_bells()(pts) - reference_cosine_bells(pts)).max() < 1e-14


def test_zalesak_disk_cases():
    f = zalesak_disks()
    r = BELL_RADIUS
    (lam1, th1), (lam2, th2) = BELL_CENTERS
    probes = [
        (lam1 + 0.2, th1, 1.0),  # in disk, clear of the slot band
        (lam1, th1, 0.1),  # slot interior
        (lam1, th1 - 0.22, 1.0),  # below the slot cut of disk 1
        (lam1, th1 + 0.22, 0.1),
        (lam2, th2 + 0.22, 1.0),  # disk 2 opens the other way
        (lam2, th2 - 0.22, 0.1),
        (0.0, th1, 0.1),  # outside both disks
    ]
    for lam, th, expect in probes:
        assert f(sph_to_cart(lam, th)) == expect
    vals = f(random_points(20000, 1))
    assert set(np.unique(vals)) <= {0.1, 1.0}
    # angles taken only inside a disk give the all-points field bit for bit
    probe_pts = sph_to_cart(*np.array([(lam, th) for lam, th, _ in probes]).T)
    for pts in (probe_pts, random_points(1 << 16, 7)):
        assert np.array_equal(f(pts), reference_zalesak_disks(pts))


def test_rsph_deterministic_and_chunked():
    pts = random_points((1 << 17) + 257, 3)
    f = random_sph_harmonics(seed=42, lmax=32)
    full = f(pts)
    again = random_sph_harmonics(seed=42, lmax=32)(pts)
    assert np.array_equal(full, again)
    # splitting the batch must not change anything, whatever the chunking
    parts = np.concatenate([f(pts[:1000]), f(pts[1000:])])
    assert np.array_equal(full, parts)
    other = random_sph_harmonics(seed=7, lmax=32)(pts[:100])
    assert np.abs(full[:100] - other).max() > 0.1


def test_rsph_blocks_change_no_bit():
    # evaluated in blocks of _RSPH_BLOCK points, rsph gives what slices of
    # 1000 points give, at and around the block boundaries, and on an
    # (a, b, 3) input whose rows straddle them
    f = random_sph_harmonics(seed=42, lmax=32)

    def sliced(pts):
        return np.concatenate([f(pts[lo : lo + 1000]) for lo in range(0, len(pts), 1000)])

    for n in (1, _RSPH_BLOCK - 1, _RSPH_BLOCK, _RSPH_BLOCK + 1, 3 * _RSPH_BLOCK + 5):
        pts = random_points(n, n)
        assert np.array_equal(f(pts), sliced(pts))
    pts = random_points(3 * (_RSPH_BLOCK + 3), 8)
    assert np.array_equal(f(pts.reshape(3, -1, 3)), sliced(pts).reshape(3, -1))


def test_rsph_matches_term_by_term_reference():
    lam = np.linspace(0.0, np.pi, 7)
    theta = np.linspace(0.0, np.pi, 9)
    special = np.array([
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],  # the exact poles
        [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [-0.0, -0.0, 1.0],
        [1e-300, 0.0, 1.0], [1e-300, 0.0, -1.0],
        [0.6, 0.0, 0.8], [0.6, -0.0, -0.8], [0.6, -1e-17, 0.8],  # the lam = 0 seam
    ])
    pts = np.concatenate([
        random_points(1 << 17, 4),
        special,
        sph_to_cart(np.zeros_like(theta), theta),
        sph_to_cart(lam, np.full_like(lam, 0.5 * np.pi)),
    ])
    want = reference_sph_harmonics(seed=42, lmax=32)(pts)
    with np.errstate(all="raise"):
        got = random_sph_harmonics(seed=42, lmax=32)(pts)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_rsph_energy_matches_coefficients():
    # Gauss-Legendre in colatitude and a uniform longitude grid integrate
    # squared combinations of degree <= 32 exactly, so the mean square of
    # the field must equal the coefficient energy over the sphere area.
    f = random_sph_harmonics(seed=42, lmax=32)
    nodes, weights = np.polynomial.legendre.leggauss(80)
    theta = np.arccos(nodes)
    lam = np.linspace(0.0, 2.0 * np.pi, 144, endpoint=False)
    grid_lam, grid_theta = np.meshgrid(lam, theta)
    vals = f(sph_to_cart(grid_lam, grid_theta))
    mean_sq = np.sum(weights[:, None] * vals**2) / (2.0 * lam.size)
    coeffs = np.random.default_rng(42).uniform(-1.0, 1.0, size=33**2)
    assert mean_sq == pytest.approx(np.sum(coeffs**2) / (4.0 * np.pi), rel=1e-12)


def test_rsph_against_scipy():
    special = pytest.importorskip("scipy.special")
    try:
        harm = special.sph_harm_y

        def yc(l, m, th, la):
            return harm(l, m, th, la)

    except AttributeError:
        harm = special.sph_harm

        def yc(l, m, th, la):
            return harm(m, l, la, th)

    rng = np.random.default_rng(1)
    th = rng.uniform(0.1, np.pi - 0.1, 40)
    la = rng.uniform(0.0, 2.0 * np.pi, 40)
    coeffs = np.random.default_rng(42).uniform(-1.0, 1.0, size=33**2)
    direct = np.zeros(40)
    for l in range(33):
        direct += coeffs[l * (l + 1)] * yc(l, 0, th, la).real
        for m in range(1, l + 1):
            y = np.sqrt(2.0) * (-1.0) ** m * yc(l, m, th, la)
            direct += coeffs[l * (l + 1) + m] * y.real
            direct += coeffs[l * (l + 1) - m] * y.imag
    got = random_sph_harmonics(seed=42, lmax=32)(sph_to_cart(la, th))
    assert np.abs(got - direct).max() < 1e-11


def test_mandelbrot_escape_values():
    # freeze the reference loop itself first
    assert escape_reference(ZOOM_CENTER) == (359, pytest.approx(0.7193998442226959))
    assert escape_reference(ZOOM_CENTER + 4e-5)[0] == 272
    assert escape_reference(0j) == (None, 1.0)
    assert escape_reference(-1 + 0j) == (None, 1.0)
    assert escape_reference(0.3 + 0.5j) == (None, 1.0)
    assert escape_reference(1 + 0j)[0] == 2

    f = mandelbrot()
    south = np.array([0.0, 0.0, -1.0])
    # the south pole maps to the window center, (1, 0, 0) to center + scale
    assert float(f(south)) == pytest.approx(0.7193998442226959, abs=2e-9)
    assert float(f([1.0, 0.0, 0.0])) == pytest.approx(0.5462960757135402, abs=1e-9)
    for c in (0j, -1 + 0j, 0.3 + 0.5j):
        assert float(mandelbrot(center=c)(south)) == 1.0
    assert float(mandelbrot(center=1 + 0j)(south)) == pytest.approx(
        0.0046268861544162205, abs=1e-12
    )


def test_mandelbrot_matches_reference_off_center():
    rng = np.random.default_rng(11)
    zeta = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    denom = 1.0 + np.abs(zeta) ** 2
    pts = np.stack(
        [2.0 * zeta.real / denom, 2.0 * zeta.imag / denom, (np.abs(zeta) ** 2 - 1.0) / denom],
        axis=-1,
    )
    got = mandelbrot()(pts)
    want = np.array([escape_reference(ZOOM_CENTER + 4e-5 * z)[1] for z in zeta])
    assert np.abs(got - want).max() < 5e-7
    assert got.min() >= 0.0 and got.max() <= 1.0


def test_mandelbrot_polar_cap():
    f = mandelbrot()
    eps = 5e-10
    with np.errstate(all="raise"):
        assert float(f([0.0, 0.0, 1.0])) == 0.0
        assert float(f([math.sin(eps), 0.0, math.cos(eps)])) == 0.0


def test_correlated_pair_relation_is_exact():
    q1, q2 = correlated_pair()
    pts = random_points(10000, 5)
    v1 = q1(pts)
    assert np.array_equal(q2(pts), -0.8 * v1 * v1 + 0.9)
    assert np.array_equal(v1, cosine_bells()(pts))


def test_shape_polymorphism():
    pts = random_points(10, 6).reshape(2, 5, 3)
    for name in ("cosine_bells", "zalesak_disks", "rsph", "mandelbrot"):
        assert get_tracer(name)(pts).shape == (2, 5)


def test_get_tracer_params_and_errors():
    shallow = get_tracer("mandelbrot", max_iter=5)
    assert float(shallow(np.array([0.0, 0.0, -1.0]))) == 1.0
    with pytest.raises(ValueError, match="unknown tracer"):
        get_tracer("bells")
