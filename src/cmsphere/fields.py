"""Velocity fields for the standard transport tests, with exact references.

Each flow bundles its velocity with whatever exact information it admits: a
closed-form backward map, or just the fact that the field retraces itself so
the final map is the identity. The exact tracer is the initial tracer along
that map.

Every flow but the compressible one is a rigid rotation plus, optionally, a
field written in a frame that turns with it: u(p, t) = omega x p +
R(t) u'(R(t)^T p, t). The deformational flow co-rotates its deformation
with the tilted rigid part; the moving vortex sweeps its twin vortices
about z at the rigid rate, and the static vortex is the same flow in a
still frame (rate 0, so R(t) is exactly its fixed tilt).
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geom import cart_to_sph, rotation_matrix, rotate_about_axis, sph_to_cart
from .tracers import cosine_bells

_Z = np.array([0.0, 0.0, 1.0])


@dataclass
class Flow:
    """A velocity field u(points, t) plus its reference data.

    exact_map, when set, sends (points, t) to the time-zero footpoints.
    reversing means the field retraces itself over [0, T], so the map at T
    is the identity. initial is the tracer a run starts from when the caller
    names none.
    """

    name: str
    T: float
    velocity: object
    reversing: bool = False
    exact_map: object = None
    initial: object = field(default_factory=cosine_bells)


@dataclass(frozen=True)
class RotatingFrame:
    """Time-dependent orthogonal frame R(t) = pre Rz(rate t) post."""

    pre: np.ndarray
    rate: float
    post: np.ndarray

    def matrix(self, t):
        return self.pre @ rotation_matrix(_Z, self.rate * t) @ self.post


def _rx(angle):
    return rotation_matrix(np.array([1.0, 0.0, 0.0]), angle)


def _ry(angle):
    return rotation_matrix(np.array([0.0, 1.0, 0.0]), angle)


def _tilted_axis(alpha):
    """Unit rotation axis tilted from z toward x by alpha."""
    return np.array([np.sin(alpha), 0.0, np.cos(alpha)])


def _framed_velocity(omega, frame, local):
    """Rigid rotation omega plus local(q, t), a field given in frame's
    coordinates q = p R(t)."""

    def velocity(p, t):
        p = np.asarray(p, dtype=float)
        m = frame.matrix(t)
        q = p @ m
        return np.cross(omega, p) + local(q, t) @ m.T

    return velocity


def solid_body(alpha=0.0, T=1.0):
    """Rigid rotation with one period over [0, T], axis tilted by alpha."""
    rate = 2.0 * np.pi / T
    axis = _tilted_axis(alpha)
    omega = rate * axis

    def velocity(p, t):
        return np.cross(omega, np.asarray(p, dtype=float))

    def exact_map(p, t):
        return rotate_about_axis(p, axis, -rate * t)

    return Flow(name="solid_body", T=T, velocity=velocity, exact_map=exact_map)


def _deform_prime(q, t, T):
    """Deformation velocity in its co-rotating frame, rows of q primed."""
    amp = 4.0 * np.cos(np.pi * t / T) * q[..., 1]
    out = np.stack([-q[..., 2], np.zeros_like(amp), q[..., 0]], axis=-1)
    return amp[..., None] * out


def deformational(alpha=0.0, T=5.0):
    """Rotation plus a deformation that retraces itself over [0, T].

    The deformation is expressed in a frame co-rotating with the rigid
    part, so the two components stay aligned for every tilt alpha.
    """
    rate = 2.0 * np.pi / T
    frame = RotatingFrame(pre=_ry(alpha), rate=rate, post=np.eye(3))
    velocity = _framed_velocity(rate * _tilted_axis(alpha), frame, partial(_deform_prime, T=T))
    return Flow(name="deformational", T=T, velocity=velocity, reversing=True)


def vortex_rate(rho, T):
    """Angular rate of the twin vortices as a function of rho = 3 sin(theta').

    Finite everywhere; the removable singularity at rho = 0 is set to 0,
    which leaves the velocity unchanged since the azimuthal direction
    vector vanishes there too.
    """
    rho = np.asarray(rho, dtype=float)
    safe = np.where(rho == 0.0, 1.0, rho)
    w = np.tanh(safe) / (safe * np.cosh(safe) ** 2)
    w = np.where(rho == 0.0, 0.0, w)
    return (2.0 * np.pi / T) * 1.5 * np.sqrt(3.0) * w


def _vortex_prime(q, t, T):
    """Vortex velocity in its own frame, steady: azimuthal rotation at
    vortex_rate."""
    s = np.hypot(q[..., 0], q[..., 1])
    w = vortex_rate(3.0 * s, T)
    out = np.stack([-q[..., 1], q[..., 0], np.zeros_like(w)], axis=-1)
    return w[..., None] * out


def _vortex_initial(p, frame0):
    """Vortex tracer at t = 0; p @ frame0 gives the rows of p primed."""
    lam, theta = cart_to_sph(np.asarray(p, dtype=float) @ frame0)
    rho = 3.0 * np.sin(theta)
    return 1.0 - np.tanh(0.2 * rho * np.sin(lam))


def _vortex_flow(name, T, rate):
    """Twin vortices on the equator, their frame turning about z at rate;
    runs start from the vortex field."""
    frame = RotatingFrame(pre=np.eye(3), rate=rate, post=_rx(-0.5 * np.pi))

    def exact_map(p, t):
        q = np.asarray(p, dtype=float) @ frame.matrix(t)
        lam, theta = cart_to_sph(q)
        w = vortex_rate(3.0 * np.sin(theta), T)
        return sph_to_cart(lam - w * t, theta) @ frame.matrix(0.0).T

    return Flow(
        name=name,
        T=T,
        velocity=_framed_velocity(rate * _Z, frame, partial(_vortex_prime, T=T)),
        exact_map=exact_map,
        initial=partial(_vortex_initial, frame0=frame.matrix(0.0)),
    )


def static_vortex(T=1.0):
    """Twin vortices fixed on the equator: moving_vortex in a still frame."""
    return _vortex_flow("static_vortex", T, 0.0)


def moving_vortex(T=1.0):
    """Twin vortices swept along by a rigid z rotation of period T."""
    return _vortex_flow("moving_vortex", T, 2.0 * np.pi / T)


def compressible(T=1.0):
    """Divergent field that retraces itself over [0, T].

    The angular rates are lam_dot = u sin(theta), theta_dot = v with
    u = -sin^2(lam/2) sin(2 theta) sin^2(theta) cos(pi t / T) and
    v = (1/2) sin(lam) sin^3(theta) cos(pi t / T).
    """

    def velocity(p, t):
        p = np.asarray(p, dtype=float)
        lam, theta = cart_to_sph(p)
        st, ct = np.sin(theta), np.cos(theta)
        sl, cl = np.sin(lam), np.cos(lam)
        amp = np.cos(np.pi * t / T)
        u = -np.sin(0.5 * lam) ** 2 * (2.0 * st * ct) * st**2 * amp
        v = 0.5 * sl * st**3 * amp
        e_lam = np.stack([-sl, cl, np.zeros_like(sl)], axis=-1)
        e_theta = np.stack([ct * cl, ct * sl, -st], axis=-1)
        return (u * st**2)[..., None] * e_lam + v[..., None] * e_theta

    return Flow(name="compressible", T=T, velocity=velocity, reversing=True)


FLOWS = {
    "solid_body": solid_body,
    "deformational": deformational,
    "static_vortex": static_vortex,
    "moving_vortex": moving_vortex,
    "compressible": compressible,
}


def get_flow(name, **params):
    """Look up a flow constructor by name and build it."""
    try:
        make = FLOWS[name]
    except KeyError:
        raise ValueError(
            "unknown flow %r; choose from %s" % (name, ", ".join(sorted(FLOWS)))
        )
    return make(**params)
