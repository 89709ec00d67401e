"""Backward characteristic map evolution.

Each step integrates the vertex stencils one substep backward along the
flow, composes with the current window's map, and reinterpolates. When a
remap is due the window's submap is frozen onto the chain and the next
window starts from the exact identity, so the first step of every window
carries no interpolation error. The footpoints move far less than a cell
per step, so each step locates them starting from the previous step's
location.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState
from .geom import radial_project
from .mapping import MapChain, SphereMap
from .mesh import build_icosahedral, locate_batch
from .stencil import EPSILON, build_stencils, reconstruct_hermite


@dataclass(frozen=True)
class CMConfig:
    """Run parameters for the map evolution.

    remap_stride = 0 disables remapping; otherwise the chain gains a submap
    every remap_stride steps. Values a run cannot use raise ValueError on
    construction.
    """

    level: int
    n_steps: int
    t_final: float
    remap_stride: int = 0
    verbose: bool = False

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.t_final <= 0.0:
            raise ValueError("t_final must be positive")
        if not 0 <= self.remap_stride <= self.n_steps:
            raise ValueError("remap_stride must lie in [0, n_steps]")


def rk4_backstep(u, points, t, dt):
    """One projected RK4 step backward along u, from time t to t - dt.

    Stage points are projected to the sphere before each velocity
    evaluation, as is the final result.
    """
    k1 = u(points, t)
    k2 = u(radial_project(points - 0.5 * dt * k1), t - 0.5 * dt)
    k3 = u(radial_project(points - 0.5 * dt * k2), t - 0.5 * dt)
    k4 = u(radial_project(points - dt * k3), t - dt)
    return radial_project(points - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def run(u, config, mesh=None):
    """Evolve the backward map of u over [0, t_final].

    Parameters
    ----------
    u : callable or flow object
        Velocity as u(points, t) -> (n, 3); an object with a velocity
        attribute works too.
    config : CMConfig
    mesh : SphereMesh, optional
        Reused if given, built from config.level otherwise. Its level must
        equal config.level.

    Returns
    -------
    MapChain

    Raises
    ------
    ValueError
        If mesh is given at a level other than config.level.
    NonFiniteState
        If reconstructed map data stops being finite, or a vertex value's
        norm leaves [0.5, 1.5].
    """
    vel = getattr(u, "velocity", u)
    if mesh is None:
        mesh = build_icosahedral(config.level)
    elif mesh.level != config.level:
        raise ValueError("config is at refinement %d, mesh is %d" % (config.level, mesh.level))

    probes = build_stencils(mesh, EPSILON).reshape(-1, 3)
    nv = mesh.n_vertices
    dt = config.t_final / config.n_steps

    chain = MapChain(mesh=mesh, maps=[], breaks=[0.0])
    current = None
    # Every submap shares the mesh, so the footpoints' location carries
    # over steps and window restarts as the next step's walk start.
    loc = None

    for n in range(1, config.n_steps + 1):
        t_next = n * dt
        foot = rk4_backstep(vel, probes, t_next, dt)
        if current is None:
            samples = foot
        else:
            loc = locate_batch(mesh, foot, start=loc)
            samples = current.eval(foot, loc=loc)
        values, d1, d2 = reconstruct_hermite(samples.reshape(nv, 4, 3), EPSILON)
        # NaN and infinite values fail the norm band as well
        if not (
            np.all(np.abs(np.linalg.norm(values, axis=1) - 1.0) <= 0.5)
            and np.all(np.isfinite(d1))
            and np.all(np.isfinite(d2))
        ):
            raise NonFiniteState("map data lost finiteness or left the sphere at step %d" % n)
        current = SphereMap.from_hermite(mesh, values, d1, d2)

        if config.verbose:
            dev = np.max(np.abs(np.linalg.norm(values, axis=1) - 1.0))
            print(
                "step %d/%d t=%.6f max_norm_dev=%.3e"
                % (n, config.n_steps, t_next, dev)
            )

        if config.remap_stride and n % config.remap_stride == 0 and n < config.n_steps:
            chain.maps.append(current)
            chain.breaks.append(t_next)
            current = None

    chain.maps.append(current)
    chain.breaks.append(config.t_final)
    return chain


def pullback_tracer(chain, tracer, points):
    """Transported tracer values: the initial field along the backward map."""
    return tracer(chain.eval(points))

