"""Angle coordinates on the real locus and the analytic rotation number.

On a nondegenerate level set the real locus is one circle (class I) or two
(classes II+/II-), and the collision map acts on it by a rigid rotation in
a canonical angle theta in [0, 1).  The locus has an explicit Jacobi
parametrization in all-real arithmetic; uniformize_array evaluates it
over arrays of angles and theta_array inverts it, and uniformize and
angle_of are their single-point forms.  The rotation number comes from
complete and incomplete elliptic integrals, for one level set
(rotation_number) or for arrays of (D, E) (rotation_grid).

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

In theta the involutions i and j are reflections of the circle, and
t = j o i is their composite:

    class   i                     j                             components swapped by
    I       theta -> 1/2 - theta  theta -> alpha - 1/2 - theta  neither
    II+     theta -> -theta       theta -> alpha - theta        i
    II-     theta -> -theta       theta -> alpha - theta        i and j

so t swaps components (RotationData.flips_component) exactly when one of
i, j does; tests/test_uniformize.py pins the j law and the swaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import (_Kp_domain, _Kpp_domain, _carlson_rf_array, _complete_K, _complete_K_array,
                       _each, _kappa, _sncndn_array, carlson_rf, complete_Kp, complete_Kpp,
                       seg_case_i, seg_case_ii_plus)
from .errors import DomainError, NearDegenerateError, PoleError
from .levelset import (ConfigPoint, LevelSetParams, RealLocusClass, _AT_INFINITY, _classes,
                       _classify, _columns, _den, _k2_s0_inv, _require_nondegenerate, _z)

# Orientation of the analytic rotation number relative to the forward
# collision map in the uniformizing angle theta, per class; pinned by
# tests/test_uniformize.py::test_translation_and_j_laws_per_point.
_ALPHA_SIGN = {
    RealLocusClass.I: -1.0,
    RealLocusClass.II_PLUS: 1.0,
    RealLocusClass.II_MINUS: -1.0,
}
# the grid's class codes are positions in RealLocusClass (levelset._classify): the code of
# class I, and the signs by code, NaN for the degenerate classes
_CODE_I = list(RealLocusClass).index(RealLocusClass.I)
_SIGN = np.array([_ALPHA_SIGN.get(cls, math.nan) for cls in RealLocusClass])

_ENDPOINT_GUARD = 1e-10  # distance of s0 from a branch point below which alpha is refused


def _near_branch_i(x):
    """Whether the class I segment end x = 1/s0 lies within the guard of a branch point, -1 or 1.

    Plain arithmetic, so it serves floats and numpy arrays alike.
    """
    return 1.0 - abs(x) < _ENDPOINT_GUARD


def _near_branch_ii(x, k):
    """Whether the class II segment end x = |s0| lies within the guard of a branch point, 1 or
    1/k with k = sqrt(k2).

    Plain arithmetic, so it serves floats and numpy arrays alike.
    """
    return (x - 1.0 < _ENDPOINT_GUARD) | (1.0 / k - x < _ENDPOINT_GUARD)


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


def uniformize_array(theta: np.ndarray, eps, params: LevelSetParams
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Points of the real locus at the angles theta, by the Jacobi parametrization.

    theta may have any shape, and eps is a component index or an array of
    them, broadcast against theta (see the uniformize module for the
    formulas).  Returns x, A1, A2 and a mask of the points where the wall
    abscissa is at infinity (|1 - A1^2| < 1e-12), in theta's shape; x is
    NaN there.  Raises DomainError for an
    infinite or NaN angle.
    """
    _require_nondegenerate(params)
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise DomainError("theta must be finite")
    eps = np.broadcast_to(eps, theta.shape)
    R, E, D, C = params.R, params.E, params.D, params.C
    if params.cls is RealLocusClass.I:
        if (eps != 0).any():
            raise DomainError("class I has a single component (eps = 0)")
        kap2, mc = _kappa(params.k2)
        s, c, d = _sncndn_array(4.0 * _complete_K(mc) * theta, mc)
        A1 = -2.0 * R * math.sqrt(kap2) * s * d
        z, q = C * c, d
    else:
        if not ((eps == 0) | (eps == 1)).all():
            raise DomainError("component index eps must be 0 or 1")
        s, c, d = _sncndn_array(2.0 * complete_Kp(params.k2) * theta, params.k2)
        sgn = np.where(eps == 0, -1.0, 1.0)
        # sgn is +-1, so its products with the scalars 2R and -C are exact in either order
        A1 = sgn * (2.0 * R) * s * c
        z, q = sgn * -C * d, c
    A2 = 2.0 * E - R + 2.0 * R * q * q  # q is dn in class I, cn in classes II
    # the wall abscissa from z = (1 - A1^2) x + A1 (A2 + D)
    den = _den(A1)
    pole = np.abs(den) < 1e-12
    with np.errstate(all="ignore"):
        x = np.where(pole, np.nan, (z - A1 * (A2 + D)) / den)
    return x, A1, A2, pole


def uniformize(a: AngleCoord, params: LevelSetParams) -> ConfigPoint:
    """Point of the real locus at angle coordinate a: uniformize_array at one angle.

    Raises PoleError when the wall abscissa is at infinity there (A1^2 = 1);
    callers that sample may retry with a perturbed angle.  Raises
    DomainError for an infinite or NaN angle.
    """
    x, A1, A2, pole = uniformize_array(np.array([a.theta]), a.eps, params)
    if pole[0]:
        raise PoleError(_AT_INFINITY)
    return ConfigPoint(float(x[0]), float(A1[0]), float(A2[0]))


def _wrap(x: np.ndarray) -> np.ndarray:
    """x mod 1 of an array, as x - floor(x): numpy's x % 1.0, double for double, with no fmod.

    np.remainder adds 1 to a negative fmod, which is exact, so both round
    the same exact x - floor(x) once, and both give +0.0 at integers, -0.0
    among them, and NaN at NaN and infinities (tests/test_uniformize.py).
    """
    return x - np.floor(x)


def _amplitudes(x: np.ndarray, A1: np.ndarray, A2: np.ndarray, params: LevelSetParams):
    """sn and cn of the Jacobi amplitude phi of every point (x, A1, A2), by + - * / and sqrt.

    theta is F(phi | m) / period, phi in [0, 2 pi) in class I and in [0, pi) in
    classes II.  Returns sn, cn, 1 - m, K(m) and the period.  Raises DomainError at
    the first failing point: in class I where dn = 0 (off the real locus), and in
    every class where the angle is degenerate or the amplitude or x is not finite.
    """
    _require_nondegenerate(params)
    R, E, C = params.R, params.E, params.C
    with np.errstate(all="ignore"):
        z = _z(x, A1, A2, params.D)
        c2 = (A2 - 2.0 * E + R) / (2.0 * R)  # dn^2 in class I, cn^2 in classes II
        if params.cls is RealLocusClass.I:
            m, mc = _kappa(params.k2)
            K = _complete_K(mc)
            d = np.sqrt(np.maximum(c2, 0.0))
            checks = [(d <= 0.0, "point is off the real locus (dn = 0)")]
            p, q = -A1 / (2.0 * R * math.sqrt(m) * d), z / C  # (sn, cn) times a factor > 0
        else:  # m = 1 - k2
            K, mc = complete_Kp(params.k2), params.k2
            checks = []
            p, q = A1 / np.where(z > 0.0, -R, R), 2.0 * c2 - 1.0  # (sin, cos) of 2 phi, likewise
        h = np.maximum(np.abs(p), np.abs(q))  # scaled first, so that p^2 + q^2 cannot overflow
        p, q = p / h, q / h
        r = np.sqrt(p * p + q * q)
        sn, cn = p / r, q / r
        if params.cls is not RealLocusClass.I:
            # halve 2 phi: the larger of |sn| and |cn| from 1 + |cos 2 phi|, the other from
            # sin 2 phi = 2 sn cn; sn >= 0 picks phi in [0, pi)
            big = np.sqrt((1.0 + np.abs(cn)) / 2.0)
            other, cos_big = sn / (2.0 * big), cn >= 0.0
            sn, cn = (np.where(cos_big, np.abs(other), big),
                      np.where(cos_big, np.where(other < 0.0, -big, big), other))
        # x enters classes II only through the sign of z, so it needs its own check
        checks += [(h == 0.0, "degenerate angle inversion"),
                   (~(np.isfinite(sn) & np.isfinite(cn) & np.isfinite(x)),
                    "angle inversion gives NaN (point not finite?)")]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():  # the first failing point, and the first check it fails
        i = int(np.argmax(bad))
        raise DomainError(next(msg for mask, msg in checks if mask.flat[i]))
    return sn, cn, mc, K, (4.0 if params.cls is RealLocusClass.I else 2.0) * K


def _unfold(r, sn, cn, at_pi):
    """r, a value at phi's reference angle in [0, pi/2] and at_pi at pi, unfolded to phi."""
    r = np.where(cn < 0.0, at_pi - r, r)
    return np.where(sn < 0.0, 2.0 * at_pi - r, r)


def _lift(sn, cn, mc, K, period) -> np.ndarray:
    """theta in [0, 1] of the amplitudes from _amplitudes, not reduced mod 1.

    R_F is carlson_rf per element (elliptic._each): the callers, angle_of and
    the two ends of periods.empirical_rotation, pass one or two points, where
    _carlson_rf_array's numpy calls would cost more than the work.
    """
    # F(phi | m) = |sn| R_F(cn^2, dn^2, 1) at the reference angle, with no 1 - sn^2 to cancel
    f = np.abs(sn) * _each(carlson_rf, cn * cn, cn * cn + mc * (sn * sn), np.ones_like(cn))
    return _unfold(f, sn, cn, 2.0 * K) / period


def _turns(sn, cn) -> int:
    """Steps where phi in [0, 2 pi) decreases, by a key that rises with phi as F(phi | m) does."""
    key = _unfold(np.abs(sn) / (np.abs(sn) + np.abs(cn)), sn, cn, 2.0)
    return int(np.count_nonzero(key[1:] < key[:-1]))


def theta_array(x: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                params: LevelSetParams) -> np.ndarray:
    """Angle theta in [0, 1) of every real-locus point (x, A1, A2): _amplitudes, then _lift.

    x, A1 and A2 share one shape, any, and theta has it.
    """
    return _wrap(_lift(*_amplitudes(x, A1, A2, params)))


def angle_of(c: ConfigPoint, params: LevelSetParams) -> AngleCoord:
    """Angle coordinate of a real-locus point: theta_array at one point.

    The component index is 0 in class I and otherwise the sign of z (0
    where z > 0).
    """
    theta = float(theta_array(*_columns(c), params)[0])
    return AngleCoord(theta, 0 if params.cls is RealLocusClass.I or c.z(params) > 0.0 else 1)


def rotation_number(params: LevelSetParams) -> RotationData:
    """Analytic rotation number of the collision map on this level set.

    Class I integrates the one-component path from -1 to 1/s0 and divides
    by the circle period 4K''; classes II integrate from 1 (or -1) to s0
    and divide by 2K'.  The overall sign per class is the orientation
    constant _ALPHA_SIGN.  Raises NearDegenerateError where the end of the
    segment lies within _ENDPOINT_GUARD of a branch point (_near_branch_i,
    _near_branch_ii).
    """
    _require_nondegenerate(params)
    one, k2 = params.cls is RealLocusClass.I, params.k2
    K = complete_Kpp(k2) if one else complete_Kp(k2)  # K'' or K'
    x = params.s0_inv if one else abs(params.s0)  # the end of the segment
    if _near_branch_i(x) if one else _near_branch_ii(x, math.sqrt(k2)):
        raise NearDegenerateError("s0 within guard of a branch point (near-degenerate set)")
    seg = K + seg_case_i(x, k2) if one else seg_case_ii_plus(x, k2)  # class I: from -1 to x
    alpha = (_ALPHA_SIGN[params.cls] * seg / ((4.0 if one else 2.0) * K)) % 1.0
    return RotationData(alpha, params.cls is RealLocusClass.II_PLUS)


def _alpha(D, E, code, nd, s, R, den):
    """Rotation numbers of the cells from _classify's class codes, its nondegenerate mask nd
    and its curve terms s, R, den; NaN at the degenerate cells and where the scalar path
    raises."""
    k2, s0_inv = _k2_s0_inv(D, E, s, R, den)
    one = code == _CODE_I  # the rest of the nondegenerate cells is class II
    s0a = np.abs(np.where(s0_inv == 0.0, np.inf, 1.0 / s0_inv))
    # domain checks of complete_Kpp / complete_Kp, and the guards of rotation_number (which
    # blank every class II cell with 1 - k2 < 1e-12: there (1, 1/k) is narrower than a guard)
    ok = nd & np.where(one, _Kpp_domain(k2) & ~_near_branch_i(s0_inv),
                       _Kp_domain(k2) & ~_near_branch_ii(s0a, np.sqrt(k2)))
    alpha = np.full(D.shape, np.nan)
    x = np.where(one, s0_inv, s0a)[ok]  # the end of the segment
    one, code, k2 = one[ok], code[ok], k2[ok]
    # past the guards the range checks of seg_case_i and seg_case_ii_plus never act, nor
    # does the clamp of x to [-1, 1] or [1, 1/k], so they are left out; 1 - k2 x^2 can
    # still round below 0 within 1e-10 of 1/k when k2 < 5e-12, so its clamp stays
    kap2, mc = _kappa(k2)
    ell2, x2, mc2 = -k2, x * x, 1.0 - k2  # mc2: the parameter of the class II segment
    K = _complete_K_array(np.where(one, mc, k2))  # K(kappa^2) for class I, K' for class II
    rf = _carlson_rf_array(np.where(one, ell2 * (1.0 - x2), np.maximum(0.0, 1.0 - k2 * x2) / mc2),
                           np.where(one, ell2 + x2, 1.0), np.where(one, ell2, x2))
    Kpp = np.sqrt(kap2) * K
    seg = np.where(one, Kpp + x * rf, np.sqrt((x - 1.0) * (x + 1.0) / mc2) * rf)
    period = np.where(one, 4.0 * Kpp, 2.0 * K)
    alpha[ok] = _wrap(_SIGN[code] * seg / period)
    return alpha


def _grid_codes(D, E) -> tuple[np.ndarray, np.ndarray]:
    """rotation_grid with each class given as its code, its position in RealLocusClass."""
    D, E = np.broadcast_arrays(np.asarray(D, dtype=float), np.asarray(E, dtype=float))
    if not (np.isfinite(D).all() and np.isfinite(E).all()):
        raise DomainError("D and E must be finite")
    shape = D.shape
    D, E = D.ravel(), E.ravel()
    # a cell whose curve data overflow is classified, and its alpha is blank
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        code, *terms = _classify(D, E)
        alpha = _alpha(D, E, code, *terms)
    return code.reshape(shape), alpha.reshape(shape)


def rotation_grid(D, E) -> tuple[np.ndarray, np.ndarray]:
    """Classes and rotation numbers of the parameter points (D, E).

    D and E are array-likes broadcast against each other.  Returns an
    object array of RealLocusClass members and a float array of rotation
    numbers in [0, 1), NaN where the cell has none (a degenerate class, a
    guard of rotation_number or any domain error of the scalar path); each
    cell equals the scalar derive_params / rotation_number result bit for
    bit.  Raises DomainError if any D or E is not finite.
    """
    code, alpha = _grid_codes(D, E)
    return _classes(code), alpha
