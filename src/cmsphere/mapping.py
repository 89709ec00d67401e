"""Sphere-valued map splines, their composition chains, and Jacobians.

A SphereMap interpolates the three Cartesian components of a backward map
over one remapping window and projects evaluations radially back onto the
sphere. A MapChain composes the per-window submaps, newest first, and
carries the chain rule for tangent vectors through the projection.

A submap's value is a homogeneous quadratic in the barycentrics of its
sub-triangle, so its projected Jacobian determinant has a closed form in
the first de Casteljau stage (MacroSpline.area_factor_located); the
chain's determinant is the product of these over the submaps, and no
tangent frame is pushed for it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroVector
from .geom import _any_below, _copy_columns, _norm3, project_differential
from .mesh import MAX_LEVEL, build_icosahedral, locate_batch
from .spline import MacroSpline, build_coefficients

# Map evaluations whose pre-projection norm falls below this are treated as
# failures; a healthy map stays within a tenth of the unit sphere.
MIN_PRE_NORM = 1e-6

_CHAIN_FORMAT = 1


class SphereMap:
    """One window's interpolated backward map."""

    def __init__(self, spline):
        self.spline = spline

    @classmethod
    def from_hermite(cls, mesh, values, d1, d2):
        """Interpolate map component data given at the mesh vertices.

        values, d1, d2 : arrays, shape (n_vertices, 3)
            Cartesian components and their frame derivatives, checked
            by the caller (evolve.run) to lie near the sphere.
        """
        return cls(MacroSpline(mesh, build_coefficients(mesh, values, d1, d2)))

    def eval(self, p, dirs=None, loc=None):
        """Mapped points of unit points p (n, 3); with directions dirs
        (n, q, 3), also the directions pushed through the projected map.
        loc is the (tri, sub, bary) location of p, located here if absent.

        Raises
        ------
        ZeroVector
            If a pre-projection value has norm below MIN_PRE_NORM.
        """
        tri, sub, bary = locate_batch(self.spline.mesh, p) if loc is None else loc
        if dirs is None:
            return _project(self.spline.eval_located(tri, sub, bary))[0]
        raw, w = self.spline.derivative_located(tri, sub, bary, dirs)
        return _project(raw)[0], project_differential(raw[:, None, :], w)

    def eval_with_jacobian(self, p):
        """Mapped points of unit points p (n, 3), eval's bit for bit, and
        the projected map's Jacobian determinants (n,); raises as eval."""
        raw, det = self.spline.area_factor_located(*locate_batch(self.spline.mesh, p))
        out, n = _project(raw)
        det /= n[:, 0] * n[:, 0] * n[:, 0]
        return out, det


def _project(raw):
    """Map values raw (n, 3) projected onto the sphere, and their norms
    (n, 1); every entry point divides here, so their footpoints agree."""
    n = _norm3(raw)[:, None]
    if _any_below(n, MIN_PRE_NORM):
        raise ZeroVector("map value collapsed toward the origin")
    return raw / n, n


def _points(p):
    """Query points p (n, 3) as a C-contiguous float array, checked finite
    with one reduction: location would place NaN or inf anywhere."""
    p = np.ascontiguousarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("query points must be finite")
    return p


@dataclass
class MapChain:
    """Backward map as a composition of per-window submaps.

    maps[0] covers the earliest window; evaluation composes newest first,
    so the full map is maps[0] o maps[1] o ... o maps[-1]. breaks holds the
    window boundary times, len(maps) + 1 entries. An empty chain is the
    identity and needs no mesh.
    """

    mesh: object
    maps: list = field(default_factory=list)
    breaks: list = field(default_factory=lambda: [0.0])

    @property
    def n_submaps(self):
        return len(self.maps)

    def _walk(self, p, tangents=None):
        """Push points, and tangents (n, q, 3) if given, through the submaps
        newest first."""
        out = _points(p)
        for m in reversed(self.maps):
            if tangents is None:
                out = m.eval(out)
            else:
                out, tangents = m.eval(out, tangents)
        return out, tangents

    def eval(self, p):
        """Footpoints (n, 3) of unit points p (n, 3). This and the other
        entry points raise ValueError for a NaN or infinite coordinate."""
        return self._walk(p)[0]

    def eval_with_jacobian(self, p):
        """Mapped points (n, 3) of unit points p (n, 3) and the chained
        Jacobian determinants (n,), the product of the submaps'; an empty
        chain gives exact ones."""
        out = _points(p)
        det = np.ones(out.shape[0])
        for m in reversed(self.maps):
            out, d = m.eval_with_jacobian(out)
            det *= d
        return out, det

    def jet(self, p, tangents):
        """Push points and per-point tangent bundles through the chain.

        p : (n, 3); tangents : (n, q, 3). Returns (points, tangents) of the
        same shapes, the tangents as the view of (q, 3, n) rows. An empty
        chain returns the points unchanged and the tangents' values.
        """
        n, q, _ = np.shape(tangents)
        rows = np.empty((q, 3, n)).transpose(2, 0, 1)
        return self._walk(p, _copy_columns(np.asarray(tangents, dtype=float), rows))


def save_chain(chain, path):
    """Serialize a chain to exactly path, .npz or not: refinement level,
    window breaks, coefficients.

    Keys: format (int), level (int), breaks (n_maps + 1,), coeffs
    (n_maps, n_triangles, 19, 3). An identity chain without a mesh has no
    level to save and raises ValueError.
    """
    if chain.mesh is None:
        raise ValueError("cannot save a chain without a mesh: it has no refinement level")
    coeffs = np.stack([m.spline.coeffs for m in chain.maps], axis=0) if chain.maps else np.zeros(
        (0, chain.mesh.n_triangles, 19, 3)
    )
    with open(path, "wb") as f:  # given a path, numpy would append .npz
        np.savez_compressed(f, format=_CHAIN_FORMAT, level=chain.mesh.level,
                            breaks=np.asarray(chain.breaks, dtype=float), coeffs=coeffs)


def load_chain(path, mesh=None):
    """Rebuild a serialized chain, reconstructing the mesh if not supplied.

    Raises
    ------
    ValueError
        Before any mesh is built, if a key is missing or does not fit the
        layout save_chain writes: one integer each for format and level,
        finite non-decreasing breaks and finite float64 coefficients.
    """
    with np.load(path) as z:
        missing = [k for k in ("format", "level", "breaks", "coeffs") if k not in z.files]
        if missing:
            raise ValueError("chain file lacks %s" % ", ".join(missing))
        fmt, level, breaks, coeffs = (z[k] for k in ("format", "level", "breaks", "coeffs"))
    if any(a.shape != () or a.dtype.kind not in "iu" for a in (fmt, level)):
        raise ValueError("chain format and level must be single integers")
    if int(fmt) != _CHAIN_FORMAT:
        raise ValueError("unknown chain format %r" % int(fmt))
    level = int(level)
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError("chain refinement %d outside [0, %d]" % (level, MAX_LEVEL))
    if mesh is not None and mesh.level != level:
        raise ValueError("chain was saved at refinement %d, mesh is %d" % (level, mesh.level))
    # A level-k mesh has 20 * 4**k triangles.
    n_triangles = 20 * 4**level
    if coeffs.shape != coeffs.shape[:1] + (n_triangles, 19, 3):
        raise ValueError("chain coefficients have shape %s, want (n_maps, %d, 19, 3)"
                         % (coeffs.shape, n_triangles))
    if coeffs.dtype != np.float64 or not np.isfinite(coeffs).all():
        raise ValueError("chain coefficients must be finite float64, not %s" % coeffs.dtype)
    if (breaks.dtype.kind not in "iuf" or breaks.shape != (len(coeffs) + 1,)
            or not np.isfinite(breaks).all() or np.any(breaks[1:] < breaks[:-1])):
        raise ValueError("chain breaks must be %d finite non-decreasing times" % (len(coeffs) + 1))
    if mesh is None:
        mesh = build_icosahedral(level)
    maps = [SphereMap(MacroSpline(mesh, c)) for c in coeffs]
    return MapChain(mesh=mesh, maps=maps, breaks=breaks.astype(float).tolist())
