"""Exception types shared across the package."""


class CmsphereError(Exception):
    """Base class for all package-specific failures."""


class ZeroVector(CmsphereError):
    """A position or direction argument had (near-)zero length."""


class DegenerateTriangle(CmsphereError):
    """Triangle vertices are numerically coplanar with the origin."""


class LocationFailure(CmsphereError):
    """The point-location walk did not terminate."""


class RefinementTooDeep(CmsphereError):
    """Requested refinement level exceeds the supported range."""


class NonFiniteState(CmsphereError):
    """A NaN or infinity appeared in evolved map data."""
