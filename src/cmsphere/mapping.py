"""Sphere-valued map splines, their composition chains, and Jacobians.

A SphereMap interpolates the three Cartesian components of a backward map
over one remapping window and projects evaluations radially back onto the
sphere. A MapChain composes the per-window submaps, newest first, and
carries the chain rule for tangent vectors and Jacobian determinants
through the projection.

Jacobian determinants are taken in the deterministic vertex frames of
geom.vertex_frames; since g1 x g2 equals the base point everywhere, each is
the area form out . (pa x pb) of the pushed frames, and they compose
multiplicatively along a chain.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroVector
from .geom import project_differential, vertex_frames
from .mesh import build_icosahedral, locate_batch
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
            Cartesian components and their frame derivatives.

        Raises
        ------
        ValueError
            If any vertex value norm is outside [0.5, 1.5].
        """
        norms = np.linalg.norm(values, axis=1)
        if np.any(norms < 0.5) or np.any(norms > 1.5):
            raise ValueError("map vertex values stray too far from the sphere")
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

    def _walk(self, p, tangents=None, jacobian=False):
        """Push points, and tangents (n, q, 3) if given, through the submaps
        newest first. With jacobian, the tangents are each step's vertex
        frames and their area forms multiply into dets."""
        out = np.asarray(p, dtype=float)
        dets = np.ones(out.shape[0])
        for m in reversed(self.maps):
            if jacobian:
                tangents = np.stack(vertex_frames(out), axis=1)
            if tangents is None:
                out = m.eval(out)
                continue
            out, tangents = m.eval(out, tangents)
            if jacobian:
                area = np.cross(tangents[:, 0], tangents[:, 1])
                dets = dets * np.einsum("ij,ij->i", out, area)
        return out, tangents, dets

    def eval(self, p):
        """Footpoints (n, 3) of unit points p (n, 3)."""
        return self._walk(p)[0]

    def eval_with_jacobian(self, p):
        """Mapped points (n, 3) of unit points p (n, 3) and the chained
        Jacobian determinants (n,)."""
        out, _, dets = self._walk(p, jacobian=True)
        return out, dets

    def jet(self, p, tangents):
        """Push points and per-point tangent bundles through the chain.

        p : (n, 3); tangents : (n, q, 3). Returns (points, tangents) of the
        same shapes. An empty chain returns the inputs unchanged.
        """
        out, tang, _ = self._walk(p, np.asarray(tangents, dtype=float))
        return out, tang


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
        If the format, level, coefficient shape or breaks do not fit the
        layout save_chain writes.
    """
    with np.load(path) as z:
        if int(z["format"]) != _CHAIN_FORMAT:
            raise ValueError("unknown chain format %r" % int(z["format"]))
        level = int(z["level"])
        breaks = [float(t) for t in z["breaks"]]
        coeffs = z["coeffs"]
    if mesh is None:
        mesh = build_icosahedral(level)
    elif mesh.level != level:
        raise ValueError("chain was saved at refinement %d, mesh is %d" % (level, mesh.level))
    if coeffs.shape != coeffs.shape[:1] + (mesh.n_triangles, 19, 3):
        raise ValueError("chain coefficients have shape %s, want (n_maps, %d, 19, 3)"
                         % (coeffs.shape, mesh.n_triangles))
    if len(breaks) != len(coeffs) + 1 or np.any(np.diff(breaks) < 0.0):
        raise ValueError("chain breaks must be %d non-decreasing times" % (len(coeffs) + 1))
    maps = [SphereMap(MacroSpline(mesh, c)) for c in coeffs]
    return MapChain(mesh=mesh, maps=maps, breaks=breaks)
