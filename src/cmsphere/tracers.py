"""Initial tracer fields on the sphere.

All tracers take Cartesian points of shape (..., 3) and return values of
the same leading shape. Distances to bell and disk centres use the
spherical law of cosines in (longitude, colatitude) coordinates.
"""

import numpy as np

from .geom import cart_to_sph, great_circle_distance

BELL_RADIUS = 0.5
BELL_CENTERS = ((7.0 * np.pi / 6.0, 0.5 * np.pi), (5.0 * np.pi / 6.0, 0.5 * np.pi))


def _center_distances(p):
    """Great-circle distances to the two bell centres, shapes (..., 2)."""
    lam, theta = cart_to_sph(p)
    out = []
    for lam_i, theta_i in BELL_CENTERS:
        c = np.cos(theta_i) * np.cos(theta) + np.sin(theta_i) * np.sin(theta) * np.cos(
            lam - lam_i
        )
        out.append(np.arccos(np.clip(c, -1.0, 1.0)))
    return np.stack(out, axis=-1)


def cosine_bells():
    """Two cosine bells over a 0.1 background, peak value 1."""

    def field(p):
        r = _center_distances(p)
        g = np.where(
            r < BELL_RADIUS, 0.5 * (1.0 + np.cos(np.pi * r / BELL_RADIUS)), 0.0
        )
        return 0.1 + 0.9 * (g[..., 0] + g[..., 1])

    return field


def zalesak_disks():
    """Two slotted disks of value 1 over a 0.1 background.

    The slot of the first disk opens toward smaller colatitude, the slot
    of the second toward larger colatitude.
    """
    (lam1, theta1), (lam2, theta2) = BELL_CENTERS
    r = BELL_RADIUS

    def field(p):
        lam, theta = cart_to_sph(p)
        dist = _center_distances(p)
        in1 = dist[..., 0] <= r
        in2 = dist[..., 1] <= r
        d1 = np.abs(lam - lam1)
        d2 = np.abs(lam - lam2)
        hit = (in1 & (d1 >= r / 6.0)) | (in2 & (d2 >= r / 6.0))
        hit |= in1 & (d1 < r / 6.0) & (theta - theta1 < -r * 5.0 / 12.0)
        hit |= in2 & (d2 < r / 6.0) & (theta - theta2 > r * 5.0 / 12.0)
        return np.where(hit, 1.0, 0.1)

    return field


def random_sph_harmonics(seed=42, lmax=32):
    """Random combination of fully normalized real harmonics up to lmax.

    Coefficients are uniform in [-1, 1], indexed l(l+1)+m, drawn once at
    construction. Evaluation runs a rolling three-term recurrence per
    order m, on the point chunks diagnostics hands it.
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(lmax + 1) ** 2)

    def field(p):
        lam, theta = cart_to_sph(p)
        ct, st = np.cos(theta), np.sin(theta)
        acc = np.zeros_like(ct)
        pmm = np.full_like(ct, np.sqrt(0.25 / np.pi))
        for m in range(lmax + 1):
            if m > 0:
                pmm = pmm * st * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
                az_c = np.sqrt(2.0) * np.cos(m * lam)
                az_s = np.sqrt(2.0) * np.sin(m * lam)
            p_prev = np.zeros_like(ct)
            p_curr = pmm
            a_prev = 0.0
            for l in range(m, lmax + 1):
                if l > m:
                    a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                    p_next = a * (ct * p_curr - (p_prev / a_prev if a_prev else 0.0))
                    p_prev, p_curr, a_prev = p_curr, p_next, a
                if m == 0:
                    acc += coeffs[l * (l + 1)] * p_curr
                else:
                    acc += p_curr * (
                        coeffs[l * (l + 1) + m] * az_c + coeffs[l * (l + 1) - m] * az_s
                    )
        return acc

    return field


def correlated_pair():
    """Two tracers tied by an exact pointwise relation.

    q2 is computed from q1's values, so any map pulls both back through
    the same footpoints and the relation q2 = -0.8 q1^2 + 0.9 survives in
    floating point.
    """
    q1 = cosine_bells()

    def q2(p):
        v = q1(p)
        return -0.8 * v * v + 0.9

    return q1, q2


def mandelbrot(center=-0.235125 + 0.827215j, scale=4e-5, max_iter=500, cap=1e-9):
    """Escape-time field of a Mandelbrot zoom under stereographic mapping.

    The sphere minus a small cap around the north pole is projected from
    the north pole onto the plane tangent at the south pole; the plane is
    scaled and recentred on a deep-zoom window. Non-escaping points get
    value 1, escaping ones a smoothed iteration count normalized to
    [0, 1), and the cap gets 0.
    """
    north = np.array([0.0, 0.0, 1.0])

    def field(p):
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, 3)
        out = np.zeros(flat.shape[0])
        keep = (great_circle_distance(flat, north) > cap) & (flat[:, 2] < 1.0)
        q = flat[keep]
        zeta = (q[:, 0] + 1j * q[:, 1]) / (1.0 - q[:, 2])
        c = center + scale * zeta
        val = np.ones(c.shape[0])
        idx = np.arange(c.shape[0])
        z = np.zeros_like(c)
        for n in range(max_iter):
            z = z * z + c[idx]
            r = np.abs(z)
            esc = r > 2.0
            if np.any(esc):
                mu = n + 1.0 - np.log2(np.log(r[esc]))
                val[idx[esc]] = np.clip(mu / max_iter, 0.0, 1.0 - 1e-12)
                idx = idx[~esc]
                z = z[~esc]
            if idx.size == 0:
                break
        out[keep] = val
        return out.reshape(p.shape[:-1])

    return field


TRACERS = {
    "cosine_bells": cosine_bells,
    "zalesak_disks": zalesak_disks,
    "rsph": random_sph_harmonics,
    "mandelbrot": mandelbrot,
}


def get_tracer(name, **params):
    """Look up a scalar tracer constructor by name and build it."""
    try:
        make = TRACERS[name]
    except KeyError:
        raise ValueError(
            "unknown tracer %r; choose from %s" % (name, ", ".join(sorted(TRACERS)))
        )
    return make(**params)
