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
from functools import cached_property

import numpy as np

from .errors import DomainError, EmptyLocusError, OrbitAbort, PoleError
from .grid import level_set_residual_array, project_onto_level_set_array, uniformize_array
from .levelset import (
    ConfigPoint,
    LevelSetParams,
    RealLocusClass,
    _reflect,
    other_wall_root,
    project_onto_level_set,
)


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


_CHECK_BLOCK = 4096  # map steps between the array checks of iterate_orbit


@dataclass(frozen=True, eq=False)
class Orbit:
    """A finite orbit with per-point level-set residuals.

    x, A1, A2 and residuals are float arrays over the visited points;
    points gives them as a tuple of ConfigPoint, built on first access.
    """

    x: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    residuals: np.ndarray
    params: LevelSetParams

    @cached_property
    def points(self) -> tuple:
        return tuple(map(ConfigPoint, self.x.tolist(), self.A1.tolist(), self.A2.tolist()))


def _walk(x: float, A1: float, A2: float, n: int, D: float, E: float):
    """n collision steps from (x, A1, A2), on plain floats.

    Returns the lists x, A1, A2 of the new points and the PoleError that
    stopped the walk early, or None; the points before the pole are kept.
    """
    xs, A1s, A2s = [], [], []
    try:
        for _ in range(n):
            x = other_wall_root(x, A1, A2, D)
            A1, A2 = _reflect(x, A1, A2, E)
            xs.append(x)
            A1s.append(A1)
            A2s.append(A2)
    except PoleError as exc:
        return xs, A1s, A2s, exc
    return xs, A1s, A2s, None


def iterate_orbit(c0: ConfigPoint, params: LevelSetParams, n: int, *,
                  renormalize: bool = False, residual_ceiling: float = 1e-6,
                  abort_abscissa: float = 1e12) -> Orbit:
    """Iterate the collision map n times from c0.

    Returns the n+1 visited points with residuals.  Raises OrbitAbort
    (carrying the valid prefix) if a point stops being finite, drifts off
    the level set beyond residual_ceiling, or |x| exceeds abort_abscissa.
    Renormalization, off by default, projects each new point back onto the
    level set by one Gauss-Newton step.

    The map runs on plain floats, _CHECK_BLOCK steps at a time (one step
    at a time when renormalizing).  The new points of each block are
    checked together, and the abort names the first failing step, as a
    check after every step would.
    """
    if not params.nondegenerate:
        raise DomainError(f"orbit iteration needs a nondegenerate level set (class {params.cls.value})")
    if n < 0:
        raise ValueError(f"orbit iteration needs n >= 0 steps (got {n})")
    xyz = np.empty((3, n + 1))  # x, A1, A2 of the points made so far
    res = np.empty(n + 1)

    def prefix(k: int) -> Orbit:
        return Orbit(xyz[0, :k], xyz[1, :k], xyz[2, :k], res[:k], params)

    def check(lo: int, hi: int) -> None:
        """OrbitAbort at the first of the stored points lo..hi-1 that fails a check."""
        block = xyz[:, lo:hi]
        r = res[lo:hi] = level_set_residual_array(*block, params)
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(block).all(axis=0) & (np.abs(block[0]) <= abort_abscissa)
        r = np.where(ok, r, math.inf)  # a non-finite or far point reports residual inf
        bad = ~ok | (r > residual_ceiling)
        bad[:1] &= lo > 0  # the start point is not checked
        if bad.any():
            i = int(np.argmax(bad))
            raise OrbitAbort(f"step {lo + i}: orbit left the level set (residual {r[i]:.3e})",
                             prefix(lo + i), lo + i)

    xyz[:, 0] = c0.x, c0.A1, c0.A2
    check(0, 1)
    block = 1 if renormalize else _CHECK_BLOCK
    lo = 1  # points stored and checked; point i is reached after i steps
    while lo <= n:
        x, A1, A2 = xyz[:, lo - 1].tolist()
        xs, A1s, A2s, pole = _walk(x, A1, A2, min(block, n + 1 - lo), params.D, params.E)
        if renormalize and xs:
            c = project_onto_level_set(ConfigPoint(xs[0], A1s[0], A2s[0]), params, max_steps=1)
            xs[0], A1s[0], A2s[0] = c.x, c.A1, c.A2
        hi = lo + len(xs)
        xyz[:, lo:hi] = xs, A1s, A2s
        del xs, A1s, A2s  # stored; free the float objects before the checks
        check(lo, hi)  # the points before a pole come first
        if pole is not None:
            raise OrbitAbort(f"step {hi}: {pole}", prefix(hi), hi) from pole
        lo = hi
    return prefix(n + 1)


def _points(keep: np.ndarray, *xyz: np.ndarray) -> list:
    """ConfigPoints of the arrays x, A1, A2 where keep is set, in order."""
    return list(map(ConfigPoint, *(v[keep].tolist() for v in xyz)))


def _theta_candidates(params: LevelSetParams, rng, k: int) -> list:
    """The accepted points among k candidates drawn uniformly in the angle.

    The candidates are drawn in the scalar order (theta, then a fair-coin
    component on two-component sets) and evaluated together.
    """
    if params.cls is RealLocusClass.I:
        theta, eps = rng.random(k), 0
    else:
        theta, eps = np.array([(rng.random(), rng.integers(0, 2)) for _ in range(k)]).T
    x, A1, A2, pole = uniformize_array(theta, eps, params)
    x, A1, A2 = project_onto_level_set_array(x, A1, A2, params)
    return _points(~pole & ~(level_set_residual_array(x, A1, A2, params) > 1e-12), x, A1, A2)


def sample_level_set(params: LevelSetParams, m: int, seed: int = 0) -> list:
    """Draw m points of the real locus, deterministically for a fixed seed.

    The points are uniform in the uniformizing angle theta, with the
    component chosen by a fair coin on two-component sets.  A candidate is
    dropped where the wall abscissa is at infinity or where its projection
    onto the level set leaves a residual above 1e-12; after 100 m + 1000
    candidates the sampling gives up with DomainError.

    The candidates are evaluated in blocks, as many at a time as points are
    still missing; the draws do not depend on the outcomes, so the points
    are those of a one-at-a-time loop.
    """
    if params.cls is RealLocusClass.EMPTY:
        raise EmptyLocusError(f"real locus of (D={params.D}, E={params.E}) is empty")
    if not params.nondegenerate:
        raise DomainError(f"sampling needs a nondegenerate level set (class {params.cls.value})")
    rng = np.random.default_rng(seed)
    limit = 100 * m + 1000  # candidates tried before giving up
    out: list = []
    tried = 0
    while len(out) < m:
        if tried == limit:
            raise DomainError("sampling failed to find real points (locus nearly degenerate?)")
        k = min(m - len(out), limit - tried)
        out += _theta_candidates(params, rng, k)
        tried += k
    return out


def component_curve(params: LevelSetParams, eps: int = 0, n: int = 257) -> list:
    """Closed polyline of one component, swept uniformly in theta.

    Points where the wall abscissa passes through infinity are skipped.
    """
    if n <= 0:
        return []
    theta = [j / (n - 1) % 1.0 for j in range(n)]
    x, A1, A2, pole = uniformize_array(theta, eps, params)
    return _points(~pole, x, A1, A2)
