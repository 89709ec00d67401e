"""Velocity fields for the standard transport tests, with exact references.

Each flow bundles its velocity with whatever exact information it admits: a
closed-form backward map, or just the fact that the field retraces itself so
the final map is the identity. The exact tracer is the initial tracer along
that map.

Every flow but the compressible one is a rigid rotation plus, optionally, a
field written in a frame that turns with it: u(p, t) = omega x p +
R(t) u'(R(t)^T p, t), where omega is the frame's own angular velocity.
Solid body is the frame alone, with backward map p R(t). The deformational
flow co-rotates its deformation with the tilted rigid part; the moving
vortex sweeps its twin vortices about z at the rigid rate, and the static
vortex is the same flow in a still frame (rate 0, so R(t) is exactly its
fixed tilt). No velocity or exact map goes through angles.

Velocities work on the (3, n) component rows p.T of their (n, 3) points,
so evolve.run's (n, 3) views of contiguous rows come back as rows; any
memory order gives the same bits.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geom import _cross3, cart_to_sph, rotation_matrix
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
    """Time-dependent orthogonal frame R(t) = pre Rz(rate t) post.

    Its angular velocity omega = rate pre e_z is constant: R'(t) = [omega]x R(t).
    """

    pre: np.ndarray
    rate: float
    post: np.ndarray

    @property
    def omega(self):
        return self.rate * self.pre[:, 2]

    def matrix(self, t):
        return self.pre @ rotation_matrix(_Z, self.rate * t) @ self.post


def _ry(angle):
    return rotation_matrix(np.array([0.0, 1.0, 0.0]), angle)


def _framed_velocity(frame, local):
    """The frame's rigid rotation plus local(q, t), a field given in its
    coordinates q = p R(t), on (3, n) component rows."""

    omega = frame.omega

    def velocity(p, t):
        p = np.asarray(p, dtype=float)
        m = frame.matrix(t)
        return _cross3(omega, p) + (m @ local(m.T @ p.T, t)).T

    return velocity


def solid_body(alpha=0.0, T=1.0):
    """Rigid rotation with one period over [0, T], axis tilted by alpha."""
    frame = RotatingFrame(pre=_ry(alpha), rate=2.0 * np.pi / T, post=_ry(-alpha))

    omega = frame.omega

    def velocity(p, t):
        return _cross3(omega, np.asarray(p, dtype=float))

    def exact_map(p, t):
        return np.asarray(p, dtype=float) @ frame.matrix(t)

    return Flow(name="solid_body", T=T, velocity=velocity, exact_map=exact_map)


def _deform_prime(q, t, T):
    """Deformation velocity in its co-rotating frame, on the (3, n)
    component rows q of the primed points."""
    amp = 4.0 * np.cos(np.pi * t / T) * q[1]
    out = np.empty(np.shape(q))
    np.multiply(amp, -q[2], out=out[0])
    # amp * 0.0 keeps the sign of zero and NaN of the scaled zero row
    np.multiply(amp, 0.0, out=out[1])
    np.multiply(amp, q[0], out=out[2])
    return out


def deformational(alpha=0.0, T=5.0):
    """Rotation plus a deformation that retraces itself over [0, T].

    The deformation is expressed in a frame co-rotating with the rigid
    part, so the two components stay aligned for every tilt alpha.
    """
    frame = RotatingFrame(pre=_ry(alpha), rate=2.0 * np.pi / T, post=np.eye(3))
    velocity = _framed_velocity(frame, partial(_deform_prime, T=T))
    return Flow(name="deformational", T=T, velocity=velocity, reversing=True)


def vortex_rate(rho, T):
    """Angular rate of the twin vortices as a function of rho = 3 sin(theta').

    Finite everywhere; the removable singularity at rho = 0 is set to 0,
    which leaves the velocity unchanged since the azimuthal direction
    vector vanishes there too.
    """
    rho = np.asarray(rho, dtype=float)
    w = np.divide(np.tanh(rho), rho * np.cosh(rho) ** 2, out=np.zeros_like(rho), where=rho != 0.0)
    return (2.0 * np.pi / T) * 1.5 * np.sqrt(3.0) * w


def _vortex_prime(q, t, T):
    """Vortex velocity in its own frame, steady: azimuthal rotation at
    vortex_rate, on the (3, n) component rows q of the primed points."""
    w = vortex_rate(3.0 * np.hypot(q[0], q[1]), T)
    out = np.empty(np.shape(q))
    np.multiply(w, -q[1], out=out[0])
    np.multiply(w, q[0], out=out[1])
    np.multiply(w, 0.0, out=out[2])
    return out


def _vortex_initial(p, frame0):
    """Vortex tracer at t = 0; p @ frame0 gives the rows of p primed."""
    lam, theta = cart_to_sph(np.asarray(p, dtype=float) @ frame0)
    rho = 3.0 * np.sin(theta)
    return 1.0 - np.tanh(0.2 * rho * np.sin(lam))


def _vortex_flow(name, T, rate):
    """Twin vortices on the equator, their frame turning about z at rate;
    runs start from the vortex field."""
    post = rotation_matrix(np.array([1.0, 0.0, 0.0]), -0.5 * np.pi)
    frame = RotatingFrame(pre=np.eye(3), rate=rate, post=post)

    def exact_map(p, t):
        # each primed point turns back about z' by its own vortex angle
        x, y, z = np.moveaxis(np.asarray(p, dtype=float) @ frame.matrix(t), -1, 0)
        angle = vortex_rate(3.0 * np.hypot(x, y), T) * t
        c, s = np.cos(angle), np.sin(angle)
        return np.stack([c * x + s * y, c * y - s * x, z], axis=-1) @ frame.matrix(0.0).T

    return Flow(
        name=name,
        T=T,
        velocity=_framed_velocity(frame, partial(_vortex_prime, T=T)),
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
    v = (1/2) sin(lam) sin^3(theta) cos(pi t / T). With s = sin(theta) =
    hypot(x, y), x = s cos(lam) and y = s sin(lam), the field is
    cos(pi t / T) s [(x - s) z s^2 (-y, x, 0) + (1/2) y (z x, z y, -s^2)]:
    no angle, no division and no pole case.
    """

    def velocity(p, t):
        x, y, z = np.asarray(p, dtype=float).T
        s = np.hypot(x, y)
        a = np.cos(np.pi * t / T) * s
        u, v = a * (x - s) * z * s * s, a * 0.5 * y
        return np.stack([v * z * x - u * y, u * x + v * z * y, -v * s * s]).T

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
