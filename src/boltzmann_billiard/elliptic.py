"""Legendre elliptic integrals and Jacobi elliptic functions.

Two modulus regimes occur in the level-set geometry: squared modulus
m = k^2 < 0 (rhombic period lattice) and 0 < m < 1 (rectangular lattice).
Both are handled in all-real arithmetic.  Complete integrals use the
arithmetic-geometric mean, incomplete ones go through Carlson's symmetric
form R_F evaluated with the duplication theorem, and Jacobi sn, cn, dn on
the real axis use the AGM descent with a backward recurrence.

The AGM kernel _complete_K and the Jacobi kernel take the complementary
parameter mc = 1 - m, as K(m) = pi / (2 agm(1, sqrt(mc))) (DLMF 19.8.5)
does, and each caller passes the mc it holds: complete_K(m) passes 1 - m,
complete_Kp(k2) passes k2 and class I's modulus kappa^2 = 1/(1 - k2)
passes -k2 kappa^2 (_kappa).  No caller forms 1 - (1 - k2) or 1 - kappa^2,
which cancel as k2 -> 0.

The AGM, K and R_F have array twins named *_array for the batched kernels
of uniformize; _each says how each twin agrees.  sn, cn, dn exist only as
the array kernel _sncndn_array, for 0 <= m < 1; its sin and cos per
element come from cmath.rect, which rounds as math.sin and math.cos do.

Everything here is a pure function of its arguments and thread-safe.
The layer is self-contained: scipy and mpmath appear only in the test
suite, as independent oracles.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from functools import lru_cache

import numpy as np

from .errors import DomainError, EndpointSingularityError

_AGM_RTOL = sys.float_info.epsilon  # relative gap at which the AGM iteration stops
_AGM_MAX_STEPS = 64     # safety cap; at this tolerance the AGM stops within 7 steps for m <= 1 - 1e-9
_RF_RTOL = 1e-16        # target relative error of Carlson R_F
_MODULUS_FLOOR = 1e-12  # refuse to evaluate closer than this to a log singularity
_JACOBI_CA = 1e-9       # AGM descent cutoff; final accuracy is of order CA**2
_RF_Q = (3.0 * _RF_RTOL) ** (-1.0 / 6.0)  # R_F stops once f * _RF_Q * max|A0 - x| <= |A|


def _each(fn, *arrays) -> np.ndarray:
    """A math function per element, so it rounds exactly as in the scalar code.

    Array twins repeat the scalar +, -, *, /, sqrt, abs, comparisons and
    mod one for one, which numpy rounds as math does, and freeze each
    converged element where the scalar loop stops.  Where numpy may differ
    from math in the last bit, they map math's own over the elements of
    ravel().tolist(), as this function does, fill the result by np.fromiter
    with no list in between and give it the shape of the first array: cos
    and sin in _sncndn_array (one cmath.rect call for both), hypot in
    levelset.implied_invariants_array.  Over a few elements it also stands in
    for a twin whose numpy calls cost more than the work: carlson_rf in
    uniformize._lift, whose callers pass one or two points.
    """
    return np.fromiter(map(fn, *(a.ravel().tolist() for a in arrays)), float,
                       arrays[0].size).reshape(arrays[0].shape)


def _agm(a: float, b: float) -> float:
    for _ in range(_AGM_MAX_STEPS):
        if abs(a - b) <= _AGM_RTOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _agm_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_agm per element."""
    for _ in range(_AGM_MAX_STEPS):
        go = ~(np.abs(a - b) <= _AGM_RTOL * a)
        if not go.any():
            break
        a, b = np.where(go, 0.5 * (a + b), a), np.where(go, np.sqrt(a * b), b)
    return 0.5 * (a + b)


@lru_cache(maxsize=4096)
def _complete_K(mc: float) -> float:
    """K of the complementary parameter mc = 1 - m, mc > 0 (DLMF 19.8.5)."""
    return math.pi / (2.0 * _agm(1.0, math.sqrt(mc)))


def _complete_K_array(mc: np.ndarray) -> np.ndarray:
    """_complete_K per element."""
    return np.pi / (2.0 * _agm_array(np.ones_like(mc), np.sqrt(mc)))


def _kappa(m):
    """kappa^2 = 1/(1 - m) of a squared modulus m < 0, and its complement mc = -m kappa^2.

    Plain arithmetic on floats or arrays.  Every class I reader of K(kappa^2)
    passes this mc to _complete_K, so none of them forms 1 - kappa^2.
    """
    kap2 = 1.0 / (1.0 - m)
    return kap2, -m * kap2


def complete_K(m) -> float:
    """Complete integral K of the squared modulus m < 1: the AGM at mc = 1 - m."""
    if not m < 1.0 - _MODULUS_FLOOR:
        raise DomainError(f"complete_K diverges as m -> 1 (got m={float(m)!r})")
    return _complete_K(1.0 - m)


def complete_Kp(m) -> float:
    """Complementary complete integral K' = K(1 - k2), for 0 < k2 < 1: the AGM at mc = k2."""
    if m < 0.0:
        raise DomainError("complete_Kp needs 0 < k2 < 1; use complete_Kpp for k2 < 0")
    if m < _MODULUS_FLOOR:
        raise DomainError(f"complete_Kp diverges logarithmically as k2 -> 0 (got k2={float(m)!r})")
    if not m < 1.0:
        raise DomainError(f"complete_Kp needs k2 < 1 (got k2={float(m)!r})")
    return _complete_K(m)


def _Kp_domain(m: np.ndarray) -> np.ndarray:
    """Where complete_Kp(m) returns a value, per element."""
    return ~(m < _MODULUS_FLOOR) & (m < 1.0)


def complete_Kpp(m) -> float:
    """Companion period K'' for squared modulus k2 = -ell^2 < 0.

    K'' is the integral of 1/sqrt((1+v^2)(1-ell^2 v^2)) over 0 <= v <= 1/ell.
    Rescaling v reduces it to kappa * K(kappa^2) with kappa^2 = 1/(1+ell^2),
    and K(kappa^2) is the AGM at the complement mc = ell^2 kappa^2 (_kappa).
    """
    if not -math.inf < m < 0.0:
        raise DomainError("complete_Kpp is defined for finite k2 < 0 only")
    if math.sqrt(-m) < _MODULUS_FLOOR:
        raise DomainError(f"complete_Kpp diverges as k2 -> 0 (got k2={float(m)!r})")
    kap2, mc = _kappa(m)
    return math.sqrt(kap2) * _complete_K(mc)


def _Kpp_domain(m: np.ndarray) -> np.ndarray:
    """Where complete_Kpp(m) returns a value, per element."""
    return (-np.inf < m) & (m < 0.0) & ~(np.sqrt(-m) < _MODULUS_FLOOR)


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson symmetric integral R_F(x, y, z) by the duplication theorem.

    Arguments must be non-negative with at most one of them zero, and
    their mean must be finite (it is not for an infinite argument, nor
    where the sum overflows).
    """
    if not (x >= 0.0 and y >= 0.0 and z >= 0.0) or (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        raise DomainError("carlson_rf needs non-negative arguments, at most one zero")
    A0 = (x + y + z) / 3.0
    if A0 == math.inf:
        raise DomainError("carlson_rf needs arguments with a finite mean")
    A = A0
    Q = _RF_Q * max(abs(A0 - x), abs(A0 - y), abs(A0 - z))
    f = 1.0
    while f * Q > abs(A):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        A = 0.25 * (A + lam)
        f *= 0.25
    return _rf_series(A, x, y, z) / math.sqrt(A)


def _carlson_rf_array(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """carlson_rf per element, for arguments inside its domain."""
    A0 = (x + y + z) / 3.0
    A = A0
    Q = _RF_Q * np.maximum(np.maximum(np.abs(A0 - x), np.abs(A0 - y)), np.abs(A0 - z))
    f = 1.0  # the same power of 1/4 in every cell still iterating
    go = f * Q > np.abs(A)
    while go.any():
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x = np.where(go, 0.25 * (x + lam), x)
        y = np.where(go, 0.25 * (y + lam), y)
        z = np.where(go, 0.25 * (z + lam), z)
        A = np.where(go, 0.25 * (A + lam), A)
        f *= 0.25
        go &= f * Q > np.abs(A)
    return _rf_series(A, x, y, z) / np.sqrt(A)


def _rf_series(A, x, y, z):
    """Fifth-order series tail of the duplication theorem; R_F is it over sqrt(A)."""
    # A - x equals (A0 - x_original) * f, so these are Carlson's X, Y, Z
    X = (A - x) / A
    Y = (A - y) / A
    Z = -X - Y
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    return 1.0 - E2 / 10.0 + E3 / 14.0 + E2 * E2 / 24.0 - 3.0 * E2 * E3 / 44.0


def legendre_F(x: float, m) -> float:
    """Incomplete first-kind integral of ds/sqrt((1-s^2)(1-m s^2)) from 0 to x.

    Valid for |x| <= 1 and any squared modulus m < 1; odd in x.
    """
    if not m < 1.0:
        raise DomainError(f"legendre_F needs k2 < 1 (got k2={float(m)!r})")
    ax = abs(x)
    if not ax <= 1.0 + 1e-12:
        raise EndpointSingularityError(f"legendre_F argument |x|={ax!r} beyond the branch point 1")
    ax = min(ax, 1.0)
    s2 = ax * ax
    v = ax * carlson_rf(1.0 - s2, 1.0 - m * s2, 1.0)
    return -v if x < 0.0 else v


def legendre_F_phi(phi: float, m) -> float:
    """Legendre F(phi | m) for any finite amplitude phi, quasi-periodic in phi."""
    if not math.isfinite(phi):
        raise DomainError(f"legendre_F_phi needs a finite amplitude (got phi={float(phi)!r})")
    n = round(phi / math.pi)
    r = phi - n * math.pi
    val = legendre_F(math.sin(r), m)
    if n != 0:
        val += 2.0 * n * complete_K(m)
    return val


def seg_case_i(x: float, m) -> float:
    """Integral of 1/sqrt((1-s^2)(ell^2+s^2)) from 0 to x, for m = -ell^2 < 0.

    This is the half of the one-component rotation path after the
    substitution that maps the unbounded segment onto (-1, 1); the path
    from -1 to x is complete_Kpp(m) plus this.  It is odd in x, and x = +1
    gives K'' and x = -1 gives -K''.  An m that is not below 0, or is so far
    below it that the mean of the Carlson arguments overflows, raises
    carlson_rf's DomainError.
    """
    if not abs(x) <= 1.0 + 1e-12:
        raise EndpointSingularityError(f"seg_case_i argument x={x!r} beyond the branch point 1")
    x = max(-1.0, min(1.0, x))
    ell2, x2 = -m, x * x
    # Carlson form; the Legendre form kap*(K - F(sqrt(1-x^2))) cancels
    # catastrophically near x = 0
    return x * carlson_rf(ell2 * (1.0 - x2), ell2 + x2, ell2)


def seg_case_ii_plus(x: float, m) -> float:
    """Integral of 1/sqrt((s^2-1)(1-m s^2)) from 1 to x, for 0 < m < 1.

    Needs 1 <= x <= 1/k.  The substitution s = 1/dn(w, k') turns the path
    into a first-kind integral of the complementary parameter mc = 1 - m,
    sqrt((x^2 - 1)/mc) R_F((1 - m x^2)/mc, 1, x^2) in Carlson form, so both
    endpoints are regular here and no 1 - sn^2 cancels; x = 1/k gives K'.
    """
    if not 0.0 < m < 1.0:
        raise DomainError("seg_case_ii_plus needs 0 < k2 < 1")
    k = math.sqrt(m)
    if not 1.0 - 1e-12 <= x <= 1.0 / k + 1e-12:
        raise EndpointSingularityError(f"seg_case_ii_plus argument x={x!r} outside [1, 1/k]")
    x = max(1.0, min(1.0 / k, x))
    mc, x2 = 1.0 - m, x * x
    return math.sqrt((x - 1.0) * (x + 1.0) / mc) * carlson_rf(max(0.0, 1.0 - m * x2) / mc, 1.0, x2)


def _rect(v: np.ndarray) -> np.ndarray:
    """cos v + i sin v per element, in v's shape, each part bit for bit math.cos and math.sin.

    CPython's cmath.rect(r, phi) is r cos(phi) + i r sin(phi) from the same
    libm cos and sin that math calls, and both products are exact at r = 1;
    phi = +-0 gives (1, +-0), +-inf raises ValueError and NaN gives NaN, as
    math does.  One call per element in place of two takes about a third off
    _sncndn_array (BENCH_jacobi_rect.json).
    """
    return np.fromiter(map(cmath.rect, itertools.repeat(1.0), v.ravel().tolist()), complex,
                       v.size).reshape(v.shape)


def _sncndn_array(u: np.ndarray, emc: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobi sn, cn, dn at every real element of u, for emc = 1 - m in (0, 1].

    AGM descent with backward recurrence; final accuracy is of order
    _JACOBI_CA squared, i.e. close to double rounding.  The descent depends
    on emc only, so it runs once, in scalar code; only the recurrence runs
    over the array.  Where |u| < 1e-8 the recurrence would divide by sn,
    and (u, 1, 1) stands in: there the next terms of the series in u, of
    relative size (1 + m) u^2 / 6, u^2 / 2 and m u^2 / 2, are below half an
    ulp of 1 (5.5e-17) and round away.  This is the package's only sn, cn,
    dn; tests/oracles.py keeps a scalar twin that agrees bit for bit.  The
    sin and cos it starts from are math's, read from one cmath.rect call
    per element (_rect).  emc = 1 (m = 0) takes the same path: the descent
    stops after one step with c = 1, the recurrence keeps dn = 1, and sn,
    cn are sin u, cos u to rounding.  Only selftest passes it: class I
    passes -k2/(1 - k2) < 1 and classes II pass k2 < 1.
    """
    a, e, steps = 1.0, emc, []
    for _ in range(16):
        e = math.sqrt(e)
        steps.append((a, e))
        c = 0.5 * (a + e)
        if abs(a - e) <= _JACOBI_CA * a:
            break
        e = e * a
        a = c
    z = _rect(c * u)
    sn, cn, dn = z.imag, z.real, np.ones_like(u)
    # sn = 0 only at u = 0, whose elements are overwritten below
    with np.errstate(all="ignore"):
        a = cn / sn
        c = c * a
        for b, e in reversed(steps):
            a = c * a
            c = c * dn
            dn = (e + a) / (b + a)
            a = c / b
        a = 1.0 / np.sqrt(c * c + 1.0)
        sn = np.where(sn >= 0.0, a, -a)
        cn = c * sn
    small = np.abs(u) < 1e-8
    if small.any():
        sn, cn, dn = np.where(small, u, sn), np.where(small, 1.0, cn), np.where(small, 1.0, dn)
    return sn, cn, dn
