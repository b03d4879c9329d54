"""Kepler conserved quantities and the elastic wall reflection.

Units put the particle mass, the force constant and the wall distance all
at 1: the attracting centre sits at the origin and the wall is the line
x2 = 1.  Bound motion takes place on the side of the wall away from the
centre, so an outgoing state has p2 >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArcUnsupportedError, DomainError
from .levelset import ConfigPoint, LevelSetParams, _require_nondegenerate, other_wall_root

_L_FLOOR = 1e-12  # |L| below which phase_from_config refuses a radial conic
_ARC_POINTS = 64  # points of a trajectory_arc, both wall points included


@dataclass(frozen=True)
class PhaseState:
    x1: float
    x2: float
    p1: float
    p2: float

    @property
    def r(self) -> float:
        return math.hypot(self.x1, self.x2)


@dataclass(frozen=True)
class ConservedSet:
    """Energy, angular momentum, eccentricity vector and second integral."""

    E: float
    L: float
    A1: float
    A2: float
    D: float


def conserved_quantities(s: PhaseState) -> ConservedSet:
    """E, L, (A1, A2) and D = L^2 - 2 A2 of a phase state."""
    r = s.r
    if r == 0.0:
        raise DomainError("state sits at the force centre (r = 0)")
    E = 0.5 * (s.p1 * s.p1 + s.p2 * s.p2) - 1.0 / r
    L = s.x1 * s.p2 - s.x2 * s.p1
    A1 = s.p2 * L - s.x1 / r
    A2 = -s.p1 * L - s.x2 / r
    return ConservedSet(E, L, A1, A2, L * L - 2.0 * A2)


def reflect_at_wall(s: PhaseState) -> PhaseState:
    """Elastic bounce at the wall: flip p2.  Requires x2 = 1 exactly."""
    if s.x2 != 1.0:
        raise DomainError(f"reflection needs a wall state with x2 = 1 (got x2={s.x2!r})")
    return PhaseState(s.x1, s.x2, s.p1, -s.p2)


def phase_from_config(c: ConfigPoint, params: LevelSetParams) -> PhaseState:
    """Reconstruct the outgoing phase state at the wall point (x, 1) of a collision.

    The squared angular momentum is D + 2 A2; the sign of L is fixed by
    requiring p2 >= 0.  Its time reverse, with both momentum components
    negated, is the state arriving at this wall point along the same conic.
    On class I sets at E >= 0 and on IIminus sets the level set also holds
    wall points of the far branch of a hyperbola, where no physical state
    exists; they are refused here, while the algebraic collision map passes
    through them (at E >= 0 successive bounces connect through infinity).
    """
    L2 = params.D + 2.0 * c.A2
    if L2 < -1e-10:
        raise DomainError(f"negative squared angular momentum D + 2 A2 = {L2!r}")
    L = math.sqrt(max(L2, 0.0))
    if L < _L_FLOOR:
        raise DomainError("radial conic: momentum at the wall is not defined (|L| below floor)")
    r = math.hypot(c.x, 1.0)
    # on a hyperbolic conic the squared wall equation also contains the far
    # branch (A2 + D - A1 x = -r); no real momenta realize those points
    if c.A2 + params.D - c.A1 * c.x < 0.0:
        raise DomainError("configuration lies on the far branch of a hyperbolic conic; "
                          "no wall state exists there")
    p2 = (c.A1 + c.x / r) / L
    p1 = -(c.A2 + 1.0 / r) / L
    if p2 < 0.0:
        p1, p2 = -p1, -p2
    return PhaseState(c.x, 1.0, p1, p2)


def trajectory_arc(c: ConfigPoint, params: LevelSetParams):
    """Sample the Kepler arc from this bounce to the next wall hit.

    Returns _ARC_POINTS points (x1, x2) on the conic r = L^2 / (1 + A1
    cos(phi) + A2 sin(phi)), swept in the direction of motion from (x, 1)
    to the second wall intersection; the endpoints are set to the two wall
    points exactly.  Every sample stays on the far side of the wall.  Arcs
    that would pass through infinity (possible only for E >= 0) raise
    ArcUnsupportedError.
    """
    _require_nondegenerate(params)
    L2 = params.D + 2.0 * c.A2
    if L2 <= 1e-12:
        raise DomainError("radial conic has no arc between distinct wall points")
    z = c.z(params)
    if abs(z) < 1e-12:
        raise DomainError("tangent collision: the two wall intersections coincide")
    xp = other_wall_root(c.x, c.A1, c.A2, params.D)
    phi1 = math.atan2(1.0, c.x)
    phi2 = math.atan2(1.0, xp)
    direction = 1.0 if z > 0.0 else -1.0  # sign of dphi/dt is the sign of L
    sweep = math.fmod(direction * (phi2 - phi1), 2.0 * math.pi)
    if sweep <= 0.0:
        sweep += 2.0 * math.pi
    n = _ARC_POINTS
    pts = []
    for j in range(n):
        phi = phi1 + direction * sweep * j / (n - 1)
        den = 1.0 + c.A1 * math.cos(phi) + c.A2 * math.sin(phi)
        if den <= 1e-12:
            raise ArcUnsupportedError("arc passes through infinity (hyperbolic branch)")
        r = L2 / den
        pts.append((r * math.cos(phi), r * math.sin(phi)))
    pts[0] = (c.x, 1.0)
    pts[-1] = (xp, 1.0)
    for _, x2 in pts:
        if x2 < 1.0 - 1e-9:
            raise ArcUnsupportedError("arc left the half-plane above the wall")
    return pts
