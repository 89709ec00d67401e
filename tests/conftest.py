from functools import partial
from types import SimpleNamespace

import numpy as np

from cmsphere.diagnostics import _chunk_points, _per_chunk
from cmsphere.fields import RotatingFrame, vortex_rate
from cmsphere.geom import cart_to_sph, radial_project, rotation_matrix
from cmsphere.mesh import SUB_COEF, _edge_geometry, locate_batch
from cmsphere.spline import EDGE_ROWS, MacroSpline, build_coefficients
from cmsphere.tracers import BELL_CENTERS, BELL_RADIUS, _bell_chords


def sample_sphere(n, seed):
    """Uniform random unit points in the chunked order the random-point
    error norms draw them."""
    return np.concatenate(_per_chunk(lambda i, lo, hi: _chunk_points(seed, i, hi - lo), n))


def memory_layouts(a):
    """a in C order, in Fortran order, as a strided view, and, for
    tangents (n, q, 3), as the view of (q, 3, n) rows."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    wide[..., ::2] = a
    out = [np.ascontiguousarray(a), np.asfortranarray(a), wide[..., ::2]]
    if a.ndim == 3:
        out.append(np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1))
    return out


def edge_geometry(mesh):
    """The build-time geometry the mesh does not keep, rebuilt by the
    build's own code: edges (n_edges, 2), tri_edges (n_triangles, 3), the
    two flat slots (3 * triangle + slot) of each edge, triangle centers,
    and each triangle's split points (n_triangles, 3, 3)."""
    edges, tri_edges, slots, centers, splits = _edge_geometry(mesh.vertices, mesh.triangles)
    return SimpleNamespace(edges=edges, tri_edges=tri_edges, slots=slots,
                           centers=centers, splits=splits)


def pullback_density(chain, density, points):
    """Transported density: initial field at the footpoints times the
    backward Jacobian determinant."""
    x, jac = chain.eval_with_jacobian(points)
    return density(x) * jac


def longdouble_jacobian(chain, p):
    """The chain's Jacobian determinants at unit points p (n, 3), evaluated
    in np.longdouble from the stored coefficients and sub_inv: orthonormal
    frames of p are pushed through each submap's de Casteljau value and
    its barycentric derivative, projected, and the area form is taken at
    the end. Points are located in float64, where the spline is C1."""
    ld = np.longdouble
    x = np.asarray(p, dtype=ld)
    ref = np.where((np.abs(x[:, 2]) > 0.9)[:, None], np.eye(3, dtype=ld)[0], np.eye(3, dtype=ld)[2])
    g1 = ref - np.sum(ref * x, axis=1)[:, None] * x
    g1 /= np.sqrt(np.sum(g1 * g1, axis=1))[:, None]
    t = np.stack([g1, np.cross(x, g1)], axis=1)
    for m in reversed(chain.maps):
        tri, sub, _ = locate_batch(chain.mesh, x.astype(float))
        inv = chain.mesh.sub_inv[tri, sub].astype(ld)
        c = m.spline.coeffs[tri[:, None], SUB_COEF[sub]].astype(ld)
        b = np.sum(inv * x[:, None, :], axis=2)
        bt = np.sum(inv[:, None] * t[:, :, None, :], axis=3)
        e = [sum(b[:, k, None] * c[:, j] for k, j in enumerate(cols))
             for cols in ([0, 3, 5], [3, 1, 4], [5, 4, 2])]
        raw = sum(b[:, k, None] * e[k] for k in range(3))
        w = 2 * sum(bt[..., k, None] * e[k][:, None] for k in range(3))
        n = np.sqrt(np.sum(raw * raw, axis=1))[:, None]
        x = raw / n
        t = (w - np.sum(w * x[:, None], axis=2)[..., None] * x[:, None]) / n[:, None]
    return np.sum(x * np.cross(t[:, 0], t[:, 1]), axis=1)


def vortex_solution(flow, p, t):
    """Closed-form tracer of static_vortex or moving_vortex at (p, t).

    From "Moving vortices on the sphere: a test case for horizontal
    advection problems" (Nair and Jablonowski, 2008): in the vortex frame,
    which turns about z at the rigid rate for moving_vortex, the tracer is
    1 - tanh(rho / 5 sin(lam' - w(rho) t)) with rho = 3 sin(theta').
    """
    rate = 2.0 * np.pi / flow.T if flow.name == "moving_vortex" else 0.0
    post = rotation_matrix(np.array([1.0, 0.0, 0.0]), -0.5 * np.pi)
    frame = RotatingFrame(pre=np.eye(3), rate=rate, post=post)
    lam, theta = cart_to_sph(np.asarray(p, dtype=float) @ frame.matrix(t))
    rho = 3.0 * np.sin(theta)
    return 1.0 - np.tanh(0.2 * rho * np.sin(lam - vortex_rate(rho, flow.T) * t))


def _row_framed_velocity(frame, local):
    """fields._framed_velocity in its (n, 3) row form: local takes and
    returns (n, 3) rows of primed points."""

    def velocity(p, t):
        p = np.asarray(p, dtype=float)
        m = frame.matrix(t)
        return np.cross(frame.omega, p) + local(p @ m, t) @ m.T

    return velocity


def _row_deform_prime(q, t, T):
    amp = 4.0 * np.cos(np.pi * t / T) * q[..., 1]
    out = np.empty(np.shape(q))
    np.multiply(amp, -q[..., 2], out=out[..., 0])
    np.multiply(amp, 0.0, out=out[..., 1])
    np.multiply(amp, q[..., 0], out=out[..., 2])
    return out


def _row_vortex_prime(q, t, T):
    w = vortex_rate(3.0 * np.hypot(q[..., 0], q[..., 1]), T)
    out = np.empty(np.shape(q))
    np.multiply(w, -q[..., 1], out=out[..., 0])
    np.multiply(w, q[..., 0], out=out[..., 1])
    np.multiply(w, 0.0, out=out[..., 2])
    return out


def _row_compressible(T):
    def velocity(p, t):
        x, y, z = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
        s = np.hypot(x, y)
        a = np.cos(np.pi * t / T) * s
        u, v = a * (x - s) * z * s * s, a * 0.5 * y
        return np.stack([v * z * x - u * y, u * x + v * z * y, -v * s * s], axis=-1)

    return velocity


def reference_velocity(name, alpha=0.0, T=1.0):
    """The velocity of fields.FLOWS[name](alpha=..., T=...) (vortices and
    compressible take T only) in its (n, 3) row form, every component a
    column q[..., i]: the oracle for the fields' (3, n) component-row
    forms, which must equal it bit for bit."""
    ry = lambda angle: rotation_matrix(np.array([0.0, 1.0, 0.0]), angle)
    if name == "compressible":
        return _row_compressible(T)
    if name in ("static_vortex", "moving_vortex"):
        rate = 2.0 * np.pi / T if name == "moving_vortex" else 0.0
        post = rotation_matrix(np.array([1.0, 0.0, 0.0]), -0.5 * np.pi)
        frame = RotatingFrame(pre=np.eye(3), rate=rate, post=post)
        return _row_framed_velocity(frame, partial(_row_vortex_prime, T=T))
    if name == "deformational":
        frame = RotatingFrame(pre=ry(alpha), rate=2.0 * np.pi / T, post=np.eye(3))
        return _row_framed_velocity(frame, partial(_row_deform_prime, T=T))
    frame = RotatingFrame(pre=ry(alpha), rate=2.0 * np.pi / T, post=ry(-alpha))
    return lambda p, t: np.cross(frame.omega, np.asarray(p, dtype=float))


def reference_compressible_velocity(T):
    """The velocity of fields.compressible in its spherical form: the
    angular rates times the unit vectors e_lam and e_theta, all from
    (longitude, colatitude), with longitude 0 at the poles."""

    def velocity(p, t):
        lam, theta = cart_to_sph(np.asarray(p, dtype=float))
        st, ct = np.sin(theta), np.cos(theta)
        sl, cl = np.sin(lam), np.cos(lam)
        amp = np.cos(np.pi * t / T)
        u = -np.sin(0.5 * lam) ** 2 * (2.0 * st * ct) * st**2 * amp
        v = 0.5 * sl * st**3 * amp
        e_lam = np.stack([-sl, cl, np.zeros_like(sl)], axis=-1)
        e_theta = np.stack([ct * cl, ct * sl, -st], axis=-1)
        return (u * st**2)[..., None] * e_lam + v[..., None] * e_theta

    return velocity


def reference_zalesak_disks(p):
    """The slotted-disk field of tracers.zalesak_disks with longitude and
    colatitude taken at every point, inside a disk or not."""
    (lam1, theta1), (lam2, theta2) = BELL_CENTERS
    r = BELL_RADIUS
    lam, theta = cart_to_sph(p)
    _, inside = _bell_chords(p)
    in1 = inside[..., 0]
    in2 = inside[..., 1]
    d1 = np.abs(lam - lam1)
    d2 = np.abs(lam - lam2)
    hit = (in1 & (d1 >= r / 6.0)) | (in2 & (d2 >= r / 6.0))
    hit |= in1 & (d1 < r / 6.0) & (theta - theta1 < -r * 5.0 / 12.0)
    hit |= in2 & (d2 < r / 6.0) & (theta - theta2 > r * 5.0 / 12.0)
    return np.where(hit, 1.0, 0.1)


def reference_sph_harmonics(seed=42, lmax=32):
    """The random harmonic field of tracers.random_sph_harmonics, evaluated
    term by term in (longitude, colatitude): each order m runs the
    normalized three-term recurrence in l and multiplies every term by
    cos(m lam) and sin(m lam)."""
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(lmax + 1) ** 2)

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


def reference_cosine_bells(p):
    """The two-bell field of tracers.cosine_bells, with arc distances from
    the spherical law of cosines in (longitude, colatitude)."""
    lam, theta = cart_to_sph(p)
    g = []
    for lam_i, theta_i in BELL_CENTERS:
        c = np.cos(theta_i) * np.cos(theta) + np.sin(theta_i) * np.sin(theta) * np.cos(
            lam - lam_i
        )
        r = np.arccos(np.clip(c, -1.0, 1.0))
        g.append(np.where(r < BELL_RADIUS, 0.5 * (1.0 + np.cos(np.pi * r / BELL_RADIUS)), 0.0))
    return 0.1 + 0.9 * (g[0] + g[1])


def interpolate(mesh, values, d1, d2):
    """Spline through vertex Hermite data of shape (n_vertices,) or
    (n_vertices, m); scalar data gives a one-component spline."""
    def cols(a):
        return np.asarray(a, dtype=float).reshape(mesh.n_vertices, -1)

    return MacroSpline(mesh, build_coefficients(mesh, cols(values), cols(d1), cols(d2)))


def reference_coefficients(mesh, values, d1, d2):
    """Coefficients (n_triangles, 19, m) built triangle-major, with the mesh
    constants moved back to triangle-first axes: the oracle for the
    component-major build, which must equal it bit for bit."""
    tris = mesh.triangles
    ring_cos, ring_half_sin, ring_g1, ring_g2 = (
        x.transpose(2, 0, 1)
        for x in (mesh.ring_cos, mesh.ring_half_sin, mesh.ring_g1, mesh.ring_g2)
    )
    f = values[tris]
    de = (
        d1[tris][:, :, None, :] * ring_g1[..., None]
        + d2[tris][:, :, None, :] * ring_g2[..., None]
    )
    ring = ring_cos[..., None] * f[:, :, None, :] + ring_half_sin[..., None] * de

    n_tris = tris.shape[0]
    m = values.shape[1]
    c = np.empty((n_tris, 19, m))
    c[:, 0:3] = f
    c[:, 3:12] = ring.reshape(n_tris, 9, m)

    r = mesh.rs[0].T
    s = mesh.rs[1].T
    for row, (edge, i, j) in enumerate(EDGE_ROWS, start=12):
        c[:, row] = r[:, edge, None] * c[:, i] + s[:, edge, None] * c[:, j]
    a = mesh.center_bary.T
    c[:, 18] = (
        a[:, 0, None] * c[:, 4] + a[:, 1, None] * c[:, 7] + a[:, 2, None] * c[:, 10]
    )
    return c


class RowMajorSpline:
    """The row-major located kernels, the oracle for MacroSpline's
    component-major ones, which must equal them bit for bit: one (n, m)
    slab per gathered coefficient row."""

    def __init__(self, spline):
        self.mesh = spline.mesh
        self._rows = np.ascontiguousarray(spline.coeffs.transpose(1, 0, 2))

    def _first_stage(self, tri, sub, bary):
        _, n_tris, m = self._rows.shape
        flat = self._rows.reshape(-1, m)
        cf = np.take(flat, np.take(SUB_COEF.T * n_tris, sub, axis=1) + tri, axis=0)
        b1 = bary[:, 0, None]
        b2 = bary[:, 1, None]
        b3 = bary[:, 2, None]
        e1 = b1 * cf[0] + b2 * cf[3] + b3 * cf[5]
        e2 = b1 * cf[3] + b2 * cf[1] + b3 * cf[4]
        e3 = b1 * cf[5] + b2 * cf[4] + b3 * cf[2]
        return e1, e2, e3

    def eval_located(self, tri, sub, bary):
        return _row_last_stage(bary, *self._first_stage(tri, sub, bary))

    def derivative_located(self, tri, sub, bary, g):
        e1, e2, e3 = self._first_stage(tri, sub, bary)
        sub_inv = self.mesh.sub_inv.reshape(-1, 3, 3)
        bg = np.einsum("nij,nqj->nqi", np.take(sub_inv, tri * 6 + sub, axis=0), g)
        return _row_last_stage(bary, e1, e2, e3), 2.0 * (
            bg[..., 0, None] * e1[:, None]
            + bg[..., 1, None] * e2[:, None]
            + bg[..., 2, None] * e3[:, None]
        )


def _row_last_stage(bary, e1, e2, e3):
    return bary[:, 0, None] * e1 + bary[:, 1, None] * e2 + bary[:, 2, None] * e3


def evaluate(spline, p):
    """Values at unit points p (n, 3), shape (n, m)."""
    return spline.eval_located(*locate_batch(spline.mesh, p))


def derivative(spline, p, g):
    """Directional derivatives along g (n, 3) at unit points p (n, 3),
    shape (n, m)."""
    tri, sub, bary = locate_batch(spline.mesh, p)
    return spline.derivative_located(tri, sub, bary, g[:, None])[1][:, 0]


def bernstein_value(coeffs6, bary):
    """Direct Bernstein-form evaluation, the cross-check for de Casteljau.

    coeffs6 holds (c200, c020, c002, c110, c011, c101) in the last-but-one
    axis, the order of the rows of mesh.SUB_COEF.
    """
    b1 = bary[:, 0, None]
    b2 = bary[:, 1, None]
    b3 = bary[:, 2, None]
    return (
        coeffs6[:, 0] * b1 * b1
        + coeffs6[:, 1] * b2 * b2
        + coeffs6[:, 2] * b3 * b3
        + 2.0 * (coeffs6[:, 3] * b1 * b2 + coeffs6[:, 4] * b2 * b3 + coeffs6[:, 5] * b1 * b3)
    )


def locate_in_triangle(mesh, tri, pts):
    """Sub-triangle index and spherical barycentric coords of pts, with the
    macro triangle forced to tri (one entry per point). Lets a point on a
    shared edge be evaluated from either side."""
    d = np.einsum("esj,ej->es", mesh.spoke_normals[tri], pts)
    score = np.minimum(d, -np.roll(d, -1, axis=1))
    sub = score.argmax(axis=1)
    bary = np.einsum("eij,ej->ei", mesh.sub_inv[tri, sub], pts)
    return sub, bary


def edge_jumps(spline, n_pts):
    """Largest cross-edge value and transversal-derivative disagreement of a
    one-component spline, sampled at n_pts interior points per macro edge."""
    mesh = spline.mesh
    geo = edge_geometry(mesh)
    pair = geo.slots // 3
    a = mesh.vertices[geo.edges[:, 0]]
    b = mesh.vertices[geo.edges[:, 1]]
    normal = radial_project(np.cross(a, b))
    c0 = 0.0
    c1 = 0.0
    for t in np.linspace(0.05, 0.95, n_pts):
        pts = radial_project((1.0 - t) * a + t * b)
        vals = []
        ders = []
        for side in range(2):
            tri = pair[:, side]
            sub, bary = locate_in_triangle(mesh, tri, pts)
            vals.append(spline.eval_located(tri, sub, bary)[:, 0])
            ders.append(spline.derivative_located(tri, sub, bary, normal[:, None])[1][:, 0, 0])
        c0 = max(c0, np.abs(vals[1] - vals[0]).max())
        c1 = max(c1, np.abs(ders[1] - ders[0]).max())
    return c0, c1
