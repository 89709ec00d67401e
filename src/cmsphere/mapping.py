"""Sphere-valued map splines, their composition chains, and Jacobians.

A SphereMap interpolates the three Cartesian components of a backward map
over one remapping window and projects evaluations radially back onto the
sphere. A MapChain composes the per-window submaps, newest first, and
carries the chain rule for tangent vectors and Jacobian determinants
through the projection.

Jacobian determinants are taken in the deterministic vertex frames of
geom.vertex_frames; since g1 x g2 equals the base point everywhere, the
chain's determinant is the area form of the input points' frames pushed
through the whole chain by the same walk that carries tangents.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroVector
from .geom import area_form, project_differential, vertex_frames
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
        raw = self.spline.eval_located(tri, sub, bary)
        n = np.linalg.norm(raw, axis=-1, keepdims=True)
        if np.any(n < MIN_PRE_NORM):
            raise ZeroVector("map value collapsed toward the origin")
        out = raw / n
        if dirs is None:
            return out
        w = self.spline.derivative_located(tri, sub, bary, dirs)
        return out, project_differential(raw[:, None, :], w)


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
        out = np.asarray(p, dtype=float)
        for m in reversed(self.maps):
            if tangents is None:
                out = m.eval(out)
            else:
                out, tangents = m.eval(out, tangents)
        return out, tangents

    def eval(self, p):
        """Footpoints (n, 3) of unit points p (n, 3)."""
        return self._walk(p)[0]

    def eval_with_jacobian(self, p):
        """Mapped points (n, 3) of unit points p (n, 3) and the chained
        Jacobian determinants (n,); an empty chain gives exact ones."""
        p = np.asarray(p, dtype=float)
        if not self.maps:
            return p, np.ones(p.shape[0])
        out, t = self._walk(p, np.stack(vertex_frames(p), axis=1))
        return out, area_form(out, t)

    def jet(self, p, tangents):
        """Push points and per-point tangent bundles through the chain.

        p : (n, 3); tangents : (n, q, 3). Returns (points, tangents) of the
        same shapes. An empty chain returns the inputs unchanged.
        """
        return self._walk(p, np.asarray(tangents, dtype=float))


def save_chain(chain, path):
    """Serialize a chain: refinement level, window breaks, coefficients.

    Keys: format (int), level (int), breaks (n_maps + 1,), coeffs
    (n_maps, n_triangles, 19, 3).
    """
    coeffs = np.stack([m.spline.coeffs for m in chain.maps], axis=0) if chain.maps else np.zeros(
        (0, chain.mesh.n_triangles, 19, 3)
    )
    np.savez_compressed(
        path,
        format=_CHAIN_FORMAT,
        level=chain.mesh.level,
        breaks=np.asarray(chain.breaks, dtype=float),
        coeffs=coeffs,
    )


def load_chain(path, mesh=None):
    """Rebuild a serialized chain, reconstructing the mesh if not supplied.

    Raises
    ------
    ValueError
        If a key is missing, or the format, level, coefficient shape or
        breaks do not fit the layout save_chain writes.
    """
    with np.load(path) as z:
        missing = [k for k in ("format", "level", "breaks", "coeffs") if k not in z.files]
        if missing:
            raise ValueError("chain file lacks %s" % ", ".join(missing))
        if int(z["format"]) != _CHAIN_FORMAT:
            raise ValueError("unknown chain format %r" % int(z["format"]))
        level = int(z["level"])
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError("chain refinement %d outside [0, %d]" % (level, MAX_LEVEL))
        breaks = [float(t) for t in z["breaks"]]
        coeffs = z["coeffs"]
    if mesh is not None and mesh.level != level:
        raise ValueError("chain was saved at refinement %d, mesh is %d" % (level, mesh.level))
    # Checked before the mesh is built: a level-k mesh has 20 * 4**k triangles.
    n_triangles = 20 * 4**level
    if coeffs.shape != coeffs.shape[:1] + (n_triangles, 19, 3):
        raise ValueError("chain coefficients have shape %s, want (n_maps, %d, 19, 3)"
                         % (coeffs.shape, n_triangles))
    if len(breaks) != len(coeffs) + 1 or np.any(np.diff(breaks) < 0.0):
        raise ValueError("chain breaks must be %d non-decreasing times" % (len(coeffs) + 1))
    if mesh is None:
        mesh = build_icosahedral(level)
    maps = [SphereMap(MacroSpline(mesh, c)) for c in coeffs]
    return MapChain(mesh=mesh, maps=maps, breaks=breaks)
