"""Angle coordinates on the real locus and the analytic rotation number.

On a nondegenerate level set the real locus is one circle (class I) or two
(classes II+/II-), and the collision map acts on it by a rigid rotation in
a canonical angle theta in [0, 1).  This module evaluates the explicit
Jacobi parametrization of the locus in all-real arithmetic, inverts it,
and computes the rotation number from complete and incomplete elliptic
integrals.

Class I lives on the imaginary axis of the uniformizing plane,
u = 4 i K'' theta; after the imaginary-argument and imaginary-modulus
reductions everything is expressed through real Jacobi functions of
modulus kappa with kappa^2 = 1/(1 - k2):

    A1 = -2 R kappa sn(w) dn(w),  A2 = 2E - R + 2R dn(w)^2,  z = C cn(w)

with w = 4 K(kappa^2) theta.  Classes II live on u = 2 i K' theta + 2 K eps
with eps in {0, 1} labelling the component; with the complementary squared
modulus mc = 1 - k2 and v = 2 K' theta,

    A1 = -(-1)^eps 2 R sn(v) cn(v),  A2 = 2E - R + 2R cn(v)^2,
    z = (-1)^eps C dn(v)   (component eps = 0 is the z > 0 circle).

The wall abscissa follows from z = (1 - A1^2) x + A1 (A2 + D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elliptic import (
    complete_K,
    legendre_F_phi,
    seg_case_i,
    seg_case_ii_plus,
)
from .errors import ClassChangeError, DomainError, NearDegenerateError
from .levelset import (
    ConfigPoint,
    LevelSetParams,
    RealLocusClass,
    derive_params,
    wall_abscissa_from_z,
)
from .elliptic import _sncndn_real

# Orientation of the analytic rotation number relative to the forward
# collision map in the theta coordinate above; anchored per class against
# the empirical winding (matches to 1e-12 on all tested parameter points).
_ALPHA_SIGN = {
    RealLocusClass.I: -1.0,
    RealLocusClass.II_PLUS: 1.0,
    RealLocusClass.II_MINUS: -1.0,
}

_ENDPOINT_GUARD = 1e-10


@dataclass(frozen=True)
class AngleCoord:
    """Point of the real locus: angle theta in [0, 1) and component index."""

    theta: float
    eps: int = 0


@dataclass(frozen=True)
class RotationData:
    """Rotation number of the collision map on a level set."""

    alpha: float
    flips_component: bool


def _require_nondegenerate(params: LevelSetParams):
    if not params.nondegenerate:
        raise DomainError(f"operation needs a nondegenerate level set (class {params.cls.value})")


def _coerce_angle(a) -> AngleCoord:
    if isinstance(a, AngleCoord):
        return a
    return AngleCoord(float(a), 0)


def uniformize(a, params: LevelSetParams) -> ConfigPoint:
    """Point of the real locus at angle coordinate a (all-real evaluation).

    Raises PoleError when the wall abscissa is at infinity there (A1^2 = 1);
    callers that sample may retry with a perturbed angle.
    """
    _require_nondegenerate(params)
    a = _coerce_angle(a)
    R, E, D, C = params.R, params.E, params.D, params.C
    if params.cls is RealLocusClass.I:
        if a.eps != 0:
            raise DomainError("class I has a single component (eps = 0)")
        kap2 = 1.0 / (1.0 - params.k2)
        kap = math.sqrt(kap2)
        w = 4.0 * complete_K(kap2) * a.theta
        s, c, d = _sncndn_real(w, kap2)
        A1 = -2.0 * R * kap * s * d
        A2 = 2.0 * E - R + 2.0 * R * d * d
        z = C * c
    else:
        if a.eps not in (0, 1):
            raise DomainError("component index eps must be 0 or 1")
        mc = 1.0 - params.k2
        v = 2.0 * complete_K(mc) * a.theta
        s, c, d = _sncndn_real(v, mc)
        sgn = -1.0 if a.eps == 0 else 1.0
        A1 = sgn * 2.0 * R * s * c
        A2 = 2.0 * E - R + 2.0 * R * c * c
        z = -sgn * C * d
    x = wall_abscissa_from_z(z, A1, A2, D)
    return ConfigPoint(x, A1, A2)


def angle_of(c: ConfigPoint, params: LevelSetParams) -> AngleCoord:
    """Invert the parametrization: angle coordinate of a real-locus point.

    The quadrant is resolved from the signs of the Jacobi triple, so theta
    is continuous along each component; the component index is the sign
    of z.  Roundtrip defect with uniformize is at the incomplete-integral
    accuracy level.
    """
    _require_nondegenerate(params)
    R, E, C = params.R, params.E, params.C
    z = c.z(params)
    if params.cls is RealLocusClass.I:
        kap2 = 1.0 / (1.0 - params.k2)
        kap = math.sqrt(kap2)
        Kk = complete_K(kap2)
        d2 = (c.A2 - 2.0 * E + R) / (2.0 * R)
        d = math.sqrt(max(d2, 0.0))
        if d <= 0.0:
            raise DomainError("point is off the real locus (dn = 0)")
        s = -c.A1 / (2.0 * R * kap * d)
        co = z / C
        h = math.hypot(s, co)
        if h == 0.0:
            raise DomainError("degenerate angle inversion")
        phi = math.atan2(s / h, co / h)
        w = legendre_F_phi(phi, kap2) % (4.0 * Kk)
        return AngleCoord(w / (4.0 * Kk), 0)
    mc = 1.0 - params.k2
    Kp = complete_K(mc)
    eps = 0 if z > 0.0 else 1
    sgn = -1.0 if eps == 0 else 1.0
    sc = c.A1 / (sgn * 2.0 * R)           # sn * cn
    c2 = (c.A2 - 2.0 * E + R) / (2.0 * R)  # cn^2
    two_phi = math.atan2(2.0 * sc, 2.0 * c2 - 1.0)
    v = legendre_F_phi(0.5 * two_phi, mc) % (2.0 * Kp)
    return AngleCoord(v / (2.0 * Kp), eps)


def rotation_number(params: LevelSetParams) -> RotationData:
    """Analytic rotation number of the collision map on this level set.

    Class I integrates the one-component path from -1 to 1/s0 and divides
    by the circle period 4K''; classes II integrate from 1 (or -1) to s0
    and divide by 2K'.  The overall sign per class is the orientation
    constant anchored against the empirical winding.
    """
    _require_nondegenerate(params)
    sign = _ALPHA_SIGN[params.cls]
    if params.cls is RealLocusClass.I:
        if 1.0 - abs(params.s0_inv) < _ENDPOINT_GUARD:
            raise NearDegenerateError("s0 within guard of a branch point (near-degenerate set)")
        seg = seg_case_i(params.s0_inv, params.k2)
        Kpp = params.lattice.Kpp
        alpha = (sign * seg / (4.0 * Kpp)) % 1.0
        return RotationData(alpha, False)
    k = math.sqrt(params.k2)
    s0a = abs(params.s0)
    if s0a - 1.0 < _ENDPOINT_GUARD or 1.0 / k - s0a < _ENDPOINT_GUARD:
        raise NearDegenerateError("s0 within guard of a branch point (near-degenerate set)")
    seg = seg_case_ii_plus(s0a, params.k2)
    Kp = params.lattice.Kp
    alpha = (sign * seg / (2.0 * Kp)) % 1.0
    return RotationData(alpha, params.cls is RealLocusClass.II_PLUS)


def dalpha_dD(params: LevelSetParams, h: float = 1e-5) -> float:
    """Central-difference derivative of the rotation number in D.

    Raises ClassChangeError when D +/- h crosses a classification boundary.
    """
    _require_nondegenerate(params)
    lo = derive_params(params.D - h, params.E)
    hi = derive_params(params.D + h, params.E)
    if lo.cls is not params.cls or hi.cls is not params.cls:
        raise ClassChangeError(f"step h={h!r} crosses a class boundary at D={params.D!r}")
    a_lo = rotation_number(lo).alpha
    a_hi = rotation_number(hi).alpha
    d = (a_hi - a_lo + 0.5) % 1.0 - 0.5  # shortest circular increment
    return d / (2.0 * h)
