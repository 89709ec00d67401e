from types import SimpleNamespace

import numpy as np

from cmsphere.diagnostics import _per_chunk
from cmsphere.fields import RotatingFrame, vortex_rate
from cmsphere.geom import cart_to_sph, radial_project, rotation_matrix
from cmsphere.mesh import _edge_geometry, locate_batch
from cmsphere.spline import EDGE_ROWS, MacroSpline, build_coefficients


def sample_sphere(n, seed):
    """Uniform random unit points in the chunked order the random-point
    error norms draw them."""
    return np.concatenate(_per_chunk(lambda pts: pts, n, seed))


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


def interpolate(mesh, values, d1, d2):
    """Spline through vertex Hermite data of shape (n_vertices,) or
    (n_vertices, m); scalar data gives a one-component spline."""
    def cols(a):
        return np.asarray(a, dtype=float).reshape(mesh.n_vertices, -1)

    return MacroSpline(mesh, build_coefficients(mesh, cols(values), cols(d1), cols(d2)))


def reference_coefficients(mesh, values, d1, d2):
    """Coefficients (n_triangles, 19, m) built triangle-major, with the mesh
    constants moved back to triangle-first axes: the oracle for the
    row-major build, which must equal it bit for bit."""
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


def evaluate(spline, p):
    """Values at unit points p (n, 3), shape (n, m)."""
    return spline.eval_located(*locate_batch(spline.mesh, p))


def derivative(spline, p, g):
    """Directional derivatives along g (n, 3) at unit points p (n, 3),
    shape (n, m)."""
    tri, sub, bary = locate_batch(spline.mesh, p)
    return spline.derivative_located(tri, sub, bary, g[:, None])[:, 0]


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
            ders.append(spline.derivative_located(tri, sub, bary, normal[:, None])[:, 0, 0])
        c0 = max(c0, np.abs(vals[1] - vals[0]).max())
        c1 = max(c1, np.abs(ders[1] - ders[0]).max())
    return c0, c1
