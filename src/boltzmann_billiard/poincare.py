"""The collision map on a level set: two involutions and their composition.

The map from one bounce to the next factors as t = j o i, where i keeps
the conic and exchanges the two wall intersections, and j keeps the wall
point and reflects the conic.  Both act on configuration points by
rational formulas and preserve the level-set equations exactly, so long
orbits need no renormalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyLocusError, OrbitAbort, PoleError
from .levelset import (
    ConfigPoint,
    LevelSetParams,
    RealLocusClass,
    level_set_residual,
    other_wall_root,
    project_onto_level_set,
    wall_abscissa_from_z,
)
from .uniformize import AngleCoord, uniformize


def involution_i(c: ConfigPoint, params: LevelSetParams) -> ConfigPoint:
    """Other wall intersection of the same conic (second root of the wall equation)."""
    return ConfigPoint(other_wall_root(c.x, c.A1, c.A2, params.D), c.A1, c.A2)


def i_fixed_point(c: ConfigPoint, params: LevelSetParams, tol: float = 1e-12) -> bool:
    """Whether the wall equation has a double root at this conic.

    Happens exactly on the radial-conic locus A2 = -D/2, where the two
    intersections collide and i fixes the point.
    """
    w = c.A2 + params.D
    disc = c.A1 * c.A1 + w * w - 1.0
    return abs(disc) <= tol * max(1.0, w * w)


def _reflect(x, A1, A2, E):
    """(A1, A2) of the conic reflected at wall abscissa x.

    Plain arithmetic only, so it serves floats and numpy arrays alike.
    """
    q = x * x + 1.0
    co = (x * x - 1.0) / q
    si = 2.0 * x / q
    e4 = 4.0 * E * x / q
    return co * A1 - si * A2 + e4, -si * A1 - co * A2 + e4 * x


def involution_j(c: ConfigPoint, params: LevelSetParams) -> ConfigPoint:
    """Reflected conic at the same wall point.

    Acts on (A1, A2) as a Euclidean reflection of the eccentricity circle;
    equivalently, the conic of the bounced particle.
    """
    return ConfigPoint(c.x, *_reflect(c.x, c.A1, c.A2, params.E))


def map_t(c: ConfigPoint, params: LevelSetParams) -> ConfigPoint:
    """One collision step: exchange wall intersections, then reflect the conic."""
    x = other_wall_root(c.x, c.A1, c.A2, params.D)
    return ConfigPoint(x, *_reflect(x, c.A1, c.A2, params.E))


@dataclass(frozen=True)
class Orbit:
    """A finite orbit with per-point level-set residuals."""

    points: tuple
    params: LevelSetParams
    residuals: tuple


def iterate_orbit(c0: ConfigPoint, params: LevelSetParams, n: int, *,
                  renormalize: bool = False, residual_ceiling: float = 1e-6,
                  abort_abscissa: float = 1e12) -> Orbit:
    """Iterate the collision map n times from c0.

    Returns the n+1 visited points with residuals.  Raises OrbitAbort
    (carrying the valid prefix) if a point stops being finite, drifts off
    the level set beyond residual_ceiling, or |x| exceeds abort_abscissa.
    Renormalization, off by default, projects each new point back onto the
    level set by one Gauss-Newton step.
    """
    if not params.nondegenerate:
        raise DomainError(f"orbit iteration needs a nondegenerate level set (class {params.cls.value})")
    pts = [c0]
    res = [level_set_residual(c0, params)]
    for step in range(1, n + 1):
        try:
            c = map_t(pts[-1], params)
        except PoleError as exc:
            raise OrbitAbort(f"step {step}: {exc}", Orbit(tuple(pts), params, tuple(res)), step) from exc
        if renormalize:
            c = project_onto_level_set(c, params, max_steps=1)
        ok = all(map(math.isfinite, (c.x, c.A1, c.A2))) and abs(c.x) <= abort_abscissa
        r = level_set_residual(c, params) if ok else math.inf
        if not ok or r > residual_ceiling:
            raise OrbitAbort(
                f"step {step}: orbit left the level set (residual {r:.3e})",
                Orbit(tuple(pts), params, tuple(res)), step)
        pts.append(c)
        res.append(r)
    return Orbit(tuple(pts), params, tuple(res))


def sample_level_set(params: LevelSetParams, m: int, seed: int = 0,
                     method: str = "auto") -> list:
    """Draw m points of the real locus, deterministically for a fixed seed.

    method "theta" samples uniformly in the uniformizing angle (components
    chosen by fair coin on two-component sets); "rational" samples the
    eccentricity circle by angle and keeps parameter values whose wall
    equation has real roots, picking a root at random.  "auto" uses the
    angle route on nondegenerate sets.
    """
    if params.cls is RealLocusClass.EMPTY:
        raise EmptyLocusError(f"real locus of (D={params.D}, E={params.E}) is empty")
    if not params.nondegenerate:
        raise DomainError(f"sampling needs a nondegenerate level set (class {params.cls.value})")
    if method == "auto":
        method = "theta" if params.lattice is not None else "rational"
    rng = np.random.default_rng(seed)
    two_comp = params.cls is not RealLocusClass.I
    out = []
    guard = 0
    while len(out) < m:
        guard += 1
        if guard > 100 * m + 1000:
            raise DomainError("sampling failed to find real points (locus nearly degenerate?)")
        if method == "theta":
            theta = float(rng.random())
            eps = int(rng.integers(0, 2)) if two_comp else 0
            try:
                c = uniformize(AngleCoord(theta, eps), params)
            except PoleError:
                continue
        elif method == "rational":
            psi = float(rng.uniform(0.0, 2.0 * math.pi))
            A1 = -params.R * math.sin(psi)
            A2 = 2.0 * params.E + params.R * math.cos(psi)
            w = A2 + params.D
            disc = A1 * A1 + w * w - 1.0
            if disc < 0.0:
                continue
            z = math.sqrt(disc) * (1.0 if rng.integers(0, 2) == 0 else -1.0)
            try:
                x = wall_abscissa_from_z(z, A1, A2, params.D)
            except PoleError:
                continue
            c = ConfigPoint(x, A1, A2)
        else:
            raise ValueError(f"unknown sampling method {method!r}")
        c = project_onto_level_set(c, params)
        if level_set_residual(c, params) > 1e-12:
            continue
        out.append(c)
    return out
