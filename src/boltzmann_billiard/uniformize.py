"""Angle coordinates on the real locus and the analytic rotation number.

On a nondegenerate level set the real locus is one circle (class I) or two
(classes II+/II-), and the collision map acts on it by a rigid rotation in
a canonical angle theta in [0, 1).  The locus has an explicit Jacobi
parametrization in all-real arithmetic; grid.uniformize_array evaluates
it over arrays of angles and grid.theta_array inverts it, and uniformize
and angle_of below are their single-point forms.  This module also
computes the rotation number from complete and incomplete elliptic
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

import numpy as np

from .elliptic import complete_Kp, complete_Kpp, seg_case_i, seg_case_ii_plus
from .errors import ClassChangeError, NearDegenerateError, PoleError
from .grid import theta_array, uniformize_array
from .levelset import (
    _ALPHA_SIGN,
    _ENDPOINT_GUARD,
    ConfigPoint,
    LevelSetParams,
    RealLocusClass,
    _columns,
    _require_nondegenerate,
    derive_params,
)

_DALPHA_STEP = 1e-5  # step in D of the central difference in dalpha_dD


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


def uniformize(a: AngleCoord, params: LevelSetParams) -> ConfigPoint:
    """Point of the real locus at angle coordinate a: uniformize_array at one angle.

    Raises PoleError when the wall abscissa is at infinity there (A1^2 = 1);
    callers that sample may retry with a perturbed angle.
    """
    x, A1, A2, pole = uniformize_array(np.array([a.theta]), a.eps, params)
    if pole[0]:
        raise PoleError("wall abscissa at infinity (A1^2 = 1)")
    return ConfigPoint(float(x[0]), float(A1[0]), float(A2[0]))


def angle_of(c: ConfigPoint, params: LevelSetParams) -> AngleCoord:
    """Angle coordinate of a real-locus point: theta_array at one point.

    The component index is 0 in class I and otherwise the sign of z (0
    where z > 0).  Roundtrip defect with uniformize is at the
    incomplete-integral accuracy level.
    """
    theta = float(theta_array(*_columns(c), params)[0])
    return AngleCoord(theta, 0 if params.cls is RealLocusClass.I or c.z(params) > 0.0 else 1)


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
        Kpp = complete_Kpp(params.k2)
        if 1.0 - abs(params.s0_inv) < _ENDPOINT_GUARD:
            raise NearDegenerateError("s0 within guard of a branch point (near-degenerate set)")
        seg = seg_case_i(params.s0_inv, params.k2)
        alpha = (sign * seg / (4.0 * Kpp)) % 1.0
        return RotationData(alpha, False)
    Kp = complete_Kp(params.k2)
    s0a = abs(params.s0)
    if s0a - 1.0 < _ENDPOINT_GUARD or 1.0 / math.sqrt(params.k2) - s0a < _ENDPOINT_GUARD:
        raise NearDegenerateError("s0 within guard of a branch point (near-degenerate set)")
    seg = seg_case_ii_plus(s0a, params.k2)
    alpha = (sign * seg / (2.0 * Kp)) % 1.0
    return RotationData(alpha, params.cls is RealLocusClass.II_PLUS)


def dalpha_dD(params: LevelSetParams) -> float:
    """Central-difference derivative of the rotation number in D.

    Raises ClassChangeError when D +/- _DALPHA_STEP crosses a class boundary.
    """
    _require_nondegenerate(params)
    lo = derive_params(params.D - _DALPHA_STEP, params.E)
    hi = derive_params(params.D + _DALPHA_STEP, params.E)
    if lo.cls is not params.cls or hi.cls is not params.cls:
        raise ClassChangeError(f"D +/- {_DALPHA_STEP!r} crosses a class boundary at D={params.D!r}")
    a_lo = rotation_number(lo).alpha
    a_hi = rotation_number(hi).alpha
    d = (a_hi - a_lo + 0.5) % 1.0 - 0.5  # shortest circular increment
    return d / (2.0 * _DALPHA_STEP)
