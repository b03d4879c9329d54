"""Legendre elliptic integrals and Jacobi elliptic functions.

Two modulus regimes occur in the level-set geometry: squared modulus
m = k^2 < 0 (rhombic period lattice) and 0 < m < 1 (rectangular lattice).
Both are handled in all-real arithmetic.  Complete integrals use the
arithmetic-geometric mean, incomplete ones go through Carlson's symmetric
form R_F evaluated with the duplication theorem, and Jacobi sn, cn, dn on
the real axis use the AGM descent with a backward recurrence.

Everything here is a pure function of its arguments and thread-safe.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .errors import DomainError, EndpointSingularityError

_AGM_RTOL = sys.float_info.epsilon  # relative gap at which the AGM iteration stops
_AGM_MAX_STEPS = 64     # safety cap; at this tolerance the AGM stops within 7 steps for m <= 1 - 1e-9
_RF_RTOL = 1e-16        # target relative error of Carlson R_F
_MODULUS_FLOOR = 1e-12  # refuse to evaluate closer than this to a log singularity
_JACOBI_CA = 1e-9       # AGM descent cutoff; final accuracy is of order CA**2


def _agm(a: float, b: float) -> float:
    for _ in range(_AGM_MAX_STEPS):
        if abs(a - b) <= _AGM_RTOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


@lru_cache(maxsize=4096)
def _complete_K(m: float) -> float:
    return math.pi / (2.0 * _agm(1.0, math.sqrt(1.0 - m)))


def complete_K(m) -> float:
    """Complete integral K of the squared modulus m < 1, via the AGM."""
    if not m < 1.0 - _MODULUS_FLOOR:
        raise DomainError(f"complete_K diverges as k2 -> 1 (got k2={float(m)!r})")
    return _complete_K(m)


def complete_Kp(m) -> float:
    """Complementary complete integral K' = K(1 - k2), for 0 < k2 < 1."""
    if m < 0.0:
        raise DomainError("complete_Kp needs 0 < k2 < 1; use complete_Kpp for k2 < 0")
    if m < _MODULUS_FLOOR:
        raise DomainError(f"complete_Kp diverges logarithmically as k2 -> 0 (got k2={float(m)!r})")
    if not m < 1.0:
        raise DomainError(f"complete_Kp needs k2 < 1 (got k2={float(m)!r})")
    return _complete_K(1.0 - m)


def complete_Kpp(m) -> float:
    """Companion period K'' for squared modulus k2 = -ell^2 < 0.

    K'' is the integral of 1/sqrt((1+v^2)(1-ell^2 v^2)) over 0 <= v <= 1/ell.
    Rescaling v reduces it to kappa * K(kappa^2) with kappa^2 = 1/(1+ell^2).
    """
    if m >= 0.0:
        raise DomainError("complete_Kpp is defined for k2 < 0 only")
    ell = math.sqrt(-m)
    if ell < _MODULUS_FLOOR:
        raise DomainError(f"complete_Kpp diverges as ell -> 0 (got ell={ell!r})")
    kap2 = 1.0 / (1.0 - m)
    if not kap2 < 1.0:
        # ell is below half an ulp of 1: the AGM would start from b = 0 and never converge
        raise DomainError(f"complete_Kpp: 1/(1 - k2) rounds to 1 (got k2={float(m)!r})")
    return math.sqrt(kap2) * _complete_K(kap2)


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson symmetric integral R_F(x, y, z) by the duplication theorem.

    Arguments must be non-negative with at most one of them zero.
    """
    if min(x, y, z) < 0.0 or (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        raise DomainError("carlson_rf needs non-negative arguments, at most one zero")
    A0 = (x + y + z) / 3.0
    A = A0
    Q = (3.0 * _RF_RTOL) ** (-1.0 / 6.0) * max(abs(A0 - x), abs(A0 - y), abs(A0 - z))
    f = 1.0
    while f * Q > abs(A):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        A = 0.25 * (A + lam)
        f *= 0.25
    # A - x equals (A0 - x_original) * f, so these are Carlson's X, Y, Z
    X = (A - x) / A
    Y = (A - y) / A
    Z = -X - Y
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    # fifth-order series tail of the duplication theorem
    s = 1.0 - E2 / 10.0 + E3 / 14.0 + E2 * E2 / 24.0 - 3.0 * E2 * E3 / 44.0
    return s / math.sqrt(A)


def legendre_F(x: float, m) -> float:
    """Incomplete first-kind integral of ds/sqrt((1-s^2)(1-m s^2)) from 0 to x.

    Valid for |x| <= 1 and any squared modulus m < 1; odd in x.
    """
    if not m < 1.0:
        raise DomainError(f"legendre_F needs k2 < 1 (got k2={float(m)!r})")
    ax = abs(x)
    if ax > 1.0 + 1e-12:
        raise EndpointSingularityError(f"legendre_F argument |x|={ax!r} beyond the branch point 1")
    ax = min(ax, 1.0)
    s2 = ax * ax
    v = ax * carlson_rf(1.0 - s2, 1.0 - m * s2, 1.0)
    return -v if x < 0.0 else v


def legendre_F_phi(phi: float, m) -> float:
    """Legendre F(phi | m) for any real amplitude phi, quasi-periodic in phi."""
    n = round(phi / math.pi)
    r = phi - n * math.pi
    val = legendre_F(math.sin(r), m)
    if n != 0:
        val += 2.0 * n * complete_K(m)
    return val


def seg_case_i(x: float, m) -> float:
    """Integral of 1/sqrt((1-s^2)(ell^2+s^2)) from -1 to x, for m = -ell^2 < 0.

    This is the one-component rotation path after the substitution that maps
    the unbounded segment onto (-1, 1).  The endpoint x = -1 gives 0 and
    x = +1 gives 2 K''.
    """
    if m >= 0.0:
        raise DomainError("seg_case_i is defined for k2 < 0 only")
    if abs(x) > 1.0 + 1e-12:
        raise EndpointSingularityError(f"seg_case_i argument x={x!r} beyond the branch point 1")
    x = max(-1.0, min(1.0, x))
    kap2 = 1.0 / (1.0 - m)
    ell2 = -m
    # the half path from 0 to x in Carlson form, odd in x; the Legendre form
    # kap*(K - F(sqrt(1-x^2))) cancels catastrophically near x = 0
    half = x * carlson_rf(ell2 * (1.0 - x * x), ell2 + x * x, ell2)
    return math.sqrt(kap2) * _complete_K(kap2) + half


def seg_case_ii_plus(x: float, m) -> float:
    """Integral of 1/sqrt((s^2-1)(1-m s^2)) from 1 to x, for 0 < m < 1.

    Needs 1 <= x <= 1/k.  The substitution s = 1/dn(w, k') turns the path
    into a plain first-kind integral with the complementary modulus, so both
    endpoints are regular here; x = 1/k gives exactly K'.
    """
    if not 0.0 < m < 1.0:
        raise DomainError("seg_case_ii_plus needs 0 < k2 < 1")
    k = math.sqrt(m)
    if x < 1.0 - 1e-12 or x > 1.0 / k + 1e-12:
        raise EndpointSingularityError(f"seg_case_ii_plus argument x={x!r} outside [1, 1/k]")
    x = max(1.0, min(1.0 / k, x))
    mc = 1.0 - m
    sn = math.sqrt(max(0.0, (x * x - 1.0) / (mc * x * x)))
    return legendre_F(min(1.0, sn), mc)


def _jacobi_descent(emc: float):
    """AGM descent of the Jacobi functions for emc = 1 - m in (0, 1).

    Returns the argument scale c and the (a, sqrt(emc)) pairs of the
    descent in the order the backward recurrence consumes them.  It depends
    on the modulus only, so batched evaluations run it once.
    """
    a = 1.0
    em = []
    en = []
    c = 0.0
    for _ in range(16):
        em.append(a)
        emc = math.sqrt(emc)
        en.append(emc)
        c = 0.5 * (a + emc)
        if abs(a - emc) <= _JACOBI_CA * a:
            break
        emc = emc * a
        a = c
    return c, tuple(zip(reversed(em), reversed(en)))


def _sncndn_core(u: float, emc: float):
    """sn, cn, dn on the real axis for emc = 1 - m in (0, 1].

    AGM descent with backward recurrence; final accuracy is of order
    _JACOBI_CA squared, i.e. close to double rounding.
    """
    if emc == 1.0:  # m = 0
        return math.sin(u), math.cos(u), 1.0
    if abs(u) < 1e-8:
        # the backward recurrence divides by sn; series it out instead
        m = 1.0 - emc
        u2 = u * u
        return u * (1.0 - (1.0 + m) * u2 / 6.0), 1.0 - 0.5 * u2, 1.0 - 0.5 * m * u2
    c, steps = _jacobi_descent(emc)
    dn = 1.0
    u = c * u
    sn = math.sin(u)
    cn = math.cos(u)
    if sn != 0.0:
        a = cn / sn
        c = c * a
        for b, e in steps:
            a = c * a
            c = c * dn
            dn = (e + a) / (b + a)
            a = c / b
        a = 1.0 / math.sqrt(c * c + 1.0)
        sn = a if sn >= 0.0 else -a
        cn = c * sn
    return sn, cn, dn


def jacobi_sn_cn_dn(u: float, m: float):
    """Jacobi sn, cn, dn for real argument u and squared modulus m < 1.

    Negative m is routed through the imaginary-modulus transformation,
    which maps to the modulus m1 = -m/(1-m) in (0, 1); dn of that modulus
    is bounded away from zero, so the transformed values are pole-free.
    """
    if not m < 1.0:
        raise DomainError(f"squared modulus must be < 1 (got {float(m)!r})")
    if m < 0.0:
        kap = math.sqrt(1.0 / (1.0 - m))
        m1 = -m / (1.0 - m)
        s, c, d = _sncndn_core(u / kap, 1.0 - m1)
        return kap * s / d, c / d, 1.0 / d
    return _sncndn_core(u, 1.0 - m)
