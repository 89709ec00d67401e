"""Initial tracer fields on the sphere.

All tracers take Cartesian points of shape (..., 3) and return values of
the same leading shape. Bell and disk tests measure the chord to the
Cartesian centres; the harmonics are evaluated as polynomials in x, y, z.
"""

import numpy as np

from .geom import cart_to_sph, great_circle_distance, sph_to_cart

BELL_RADIUS = 0.5
BELL_CENTERS = ((7.0 * np.pi / 6.0, 0.5 * np.pi), (5.0 * np.pi / 6.0, 0.5 * np.pi))
# the centres as sph_to_cart builds them: a point built from a centre's
# angles has chord exactly 0 and so the bell's peak value exactly
_BELL_XYZ = [sph_to_cart(lam, theta) for lam, theta in BELL_CENTERS]
# a great-circle distance r is below BELL_RADIUS when the chord 2 sin(r/2) is
_BELL_CHORD_SQ = (2.0 * np.sin(0.5 * BELL_RADIUS)) ** 2
# rsph evaluates this many points at a time, so that its work rows (1.4 MB)
# stay in a 2 MB L2 cache; every operation is elementwise, so the blocks
# change no bit
_RSPH_BLOCK = 1 << 14


def _bell_chords(p):
    """Squared chords |p - q_i|^2 to the two bell centres, shape (..., 2),
    and the mask of those that lie inside the bell radius."""
    p = np.asarray(p, dtype=float)
    h2 = np.stack(
        [sum((p[..., j] - q[j]) ** 2 for j in range(3)) for q in _BELL_XYZ], axis=-1
    )
    return h2, h2 < _BELL_CHORD_SQ


def cosine_bells():
    """Two cosine bells over a 0.1 background, peak value 1.

    The arc distance r = 2 arcsin(h / 2) and the bell profile are computed
    only where the chord h to a centre lies inside the bell.
    """

    def field(p):
        h2, inside = _bell_chords(p)
        g = np.zeros_like(h2)
        r = 2.0 * np.arcsin(0.5 * np.sqrt(h2[inside]))
        g[inside] = 0.5 * (1.0 + np.cos(np.pi * r / BELL_RADIUS))
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
        p = np.asarray(p, dtype=float)
        _, inside = _bell_chords(p)
        # angles and slot tests only for the points inside a disk
        near = inside.any(axis=-1)
        lam, theta = cart_to_sph(p[near])
        in1, in2 = inside[near].T
        band1 = np.abs(lam - lam1) < r / 6.0
        band2 = np.abs(lam - lam2) < r / 6.0
        hit = in1 & (~band1 | (theta - theta1 < -r * 5.0 / 12.0))
        hit |= in2 & (~band2 | (theta - theta2 > r * 5.0 / 12.0))
        out = np.full(near.shape, 0.1)
        out[near] = np.where(hit, 1.0, 0.1)
        return out

    return field


def random_sph_harmonics(seed=42, lmax=32):
    """Random combination of fully normalized real harmonics up to lmax.

    Coefficients are uniform in [-1, 1], indexed l(l+1)+m, drawn once at
    construction. On the unit sphere the order-m terms are
    Re((C_m(z) - i S_m(z)) (x + iy)^m), with C_m and S_m polynomials in z,
    so evaluation calls no trigonometric function and needs no longitude
    at the poles. The associated Legendre functions, divided by their
    sin^m(theta) factor and by A_l = a_{m+1} ... a_l, follow
    q_{l+1} = z q_l - q_{l-1} / a_l^2 from q_m = 1, with z clipped to
    [-1, 1]; the normalization and A_l go into the coefficients at
    construction. Each order's two sums are taken in one forward pass,
    and the orders are combined by Horner's rule in x + iy from lmax down.
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(lmax + 1) ** 2)

    orders = []
    pmm = np.sqrt(0.25 / np.pi)
    for m in range(lmax + 1):
        if m > 0:
            pmm *= np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        ls = np.arange(m, lmax + 1, dtype=float)
        a = np.ones_like(ls)
        a[1:] = np.sqrt((4.0 * ls[1:] ** 2 - 1.0) / (ls[1:] ** 2 - m * m))
        scale = (np.sqrt(2.0) if m else 1.0) * pmm * np.cumprod(a)
        idx = np.arange(m, lmax + 1) * np.arange(m + 1, lmax + 2)
        # gamma[j] = 1 / a_{m+j}^2 steps q_{m+j} to q_{m+j+1}
        orders.append((scale * coeffs[idx + m], -scale * coeffs[idx - m], 1.0 / a**2))

    def block(x, y, z):
        ct = np.clip(z, -1.0, 1.0)
        re, im, next_re, next_im, q0, q1, tmp = (np.zeros_like(ct) for _ in range(7))
        for m in range(lmax, -1, -1):
            wc, ws, gamma = orders[m]
            # (next_re, next_im) = (x + iy) (re + i im), the Horner step
            np.multiply(x, re, out=next_re)
            np.multiply(y, im, out=tmp)
            np.subtract(next_re, tmp, out=next_re)
            if m:
                np.multiply(x, im, out=next_im)
                np.multiply(y, re, out=tmp)
                np.add(next_im, tmp, out=next_im)
            # plus C_m - i S_m, summed along q_m = 1, q_{m+1} = z, ...
            q0.fill(1.0)
            np.copyto(q1, ct)
            next_re += wc[0]
            if m:
                next_im += ws[0]
            for j in range(1, wc.size):
                if j > 1:
                    np.multiply(ct, q1, out=tmp)
                    np.multiply(q0, gamma[j - 1], out=q0)
                    np.subtract(tmp, q0, out=q0)
                    q0, q1 = q1, q0
                np.multiply(q1, wc[j], out=tmp)
                np.add(next_re, tmp, out=next_re)
                if m:
                    np.multiply(q1, ws[j], out=tmp)
                    np.add(next_im, tmp, out=next_im)
            re, next_re = next_re, re
            im, next_im = next_im, im
        return re

    def field(p):
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, 3)
        out = np.empty(flat.shape[0])
        for lo in range(0, out.size, _RSPH_BLOCK):
            out[lo : lo + _RSPH_BLOCK] = block(*np.ascontiguousarray(flat[lo : lo + _RSPH_BLOCK].T))
        return out.reshape(p.shape[:-1])

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
