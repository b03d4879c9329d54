"""Batched kernels: whole arrays of parameter points or of orbit points.

Each kernel gives every element bit for bit what a scalar evaluation
gives it, by repeating the scalar floating-point operations one for one
over arrays: +, -, *, /, sqrt, abs, comparisons and mod, which numpy
rounds exactly as math and Python floats do.  Transcendental functions
whose numpy versions may differ from math in the last bit (atan2, hypot,
sin, cos) are math's own, mapped over the elements.  Loops freeze each
converged element, so every element stops at the step where the scalar
loop stops.

rotation_grid gives every (D, E) cell the class and the rotation number
of derive_params followed by rotation_number.  Cells where the scalar
path has no rotation number get NaN: degenerate classes, the
near-degenerate guards of rotation_number, and every domain error the
scalar path would raise.  It wraps _grid_codes, which gives each class as
its position in RealLocusClass, so that the CLI can look up class names
without a Python call per cell.

map_t_array, config_distance_array and orbit_drift_columns act on arrays
of points (x, A1, A2) of one level set, as map_t, config_distance and the
ConfigPoint.L / implied_invariants pair do on a single point.

theta_array (point to angle) and uniformize_array (angle to point) are
the only implementations of the uniformization: angle_of and uniformize
call them with one-element arrays, and the scalar references they are
tested against live in tests/oracles.py.  The point kernels raise the
exception of the scalar evaluation at the first element where it raises,
with one difference: where the angle comes out NaN, theta_array raises
DomainError and the scalar path a bare ValueError.  So the angle
inversion raises only DomainError: in class I at a point off the real
locus (dn = 0) or with a degenerate angle, and in every class at a NaN
angle.  uniformize_array instead returns a mask of the points where the
wall abscissa is at infinity.  The level-set residual and the projection
onto the level set are array kernels of levelset.
"""

from __future__ import annotations

import math

import numpy as np

from .elliptic import (_AGM_MAX_STEPS, _AGM_RTOL, _MODULUS_FLOOR, _RF_RTOL, _jacobi_descent,
                       complete_K, complete_Kp)
from .errors import DomainError, PoleError
from .levelset import (_ALPHA_SIGN, _AT_INFINITY, _ENDPOINT_GUARD, _TABLE_CLASSES, NONDEGENERATE,
                       LevelSetParams, RealLocusClass, _class_tests, _curve_terms, _k2_s0_inv, _L,
                       _max, _reflect, _require_nondegenerate, _z)

_CLASSES = np.array(list(RealLocusClass), dtype=object)  # class code -> class
_CODE = {cls: code for code, cls in enumerate(RealLocusClass)}
_NONDEGENERATE = [_CODE[cls] for cls in NONDEGENERATE]
_RF_Q = (3.0 * _RF_RTOL) ** (-1.0 / 6.0)  # the factor carlson_rf computes per call


def _agm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """elliptic._agm per element."""
    for _ in range(_AGM_MAX_STEPS):
        go = ~(np.abs(a - b) <= _AGM_RTOL * a)
        if not go.any():
            break
        a, b = np.where(go, 0.5 * (a + b), a), np.where(go, np.sqrt(a * b), b)
    return 0.5 * (a + b)


def _complete_K(m: np.ndarray) -> np.ndarray:
    """elliptic._complete_K per element."""
    return np.pi / (2.0 * _agm(np.ones_like(m), np.sqrt(1.0 - m)))


def _carlson_rf(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """elliptic.carlson_rf per element, for arguments inside its domain."""
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
    X = (A - x) / A
    Y = (A - y) / A
    Z = -X - Y
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    s = 1.0 - E2 / 10.0 + E3 / 14.0 + E2 * E2 / 24.0 - 3.0 * E2 * E3 / 44.0
    return s / np.sqrt(A)


def _classify(D, E):
    """Class codes by the class table of derive_params, and the curve terms s, R, den."""
    s, R2, R, den = _curve_terms(D, E)
    code = np.select(_class_tests(D, s, R2, den), [_CODE[cls] for cls in _TABLE_CLASSES],
                     _CODE[RealLocusClass.II_MINUS])
    return code, s, R, den


def _alpha(D, E, s, R, den):
    """Rotation numbers of nondegenerate cells, NaN where the scalar path raises."""
    k2, s0_inv = _k2_s0_inv(D, E, s, R, den)
    one = np.abs(D) < 2.0  # class I; the rest is class II
    s0a = np.abs(np.where(s0_inv == 0.0, np.inf, 1.0 / s0_inv))
    # domain checks of complete_Kpp / complete_Kp, and the guards of rotation_number (which
    # blank every class II cell with 1 - k2 < 1e-12: there (1, 1/k) is narrower than a guard)
    ok = np.where(
        one,
        (k2 < 0.0) & ~(np.sqrt(-k2) < _MODULUS_FLOOR) & (1.0 / (1.0 - k2) < 1.0)
        & ~(1.0 - np.abs(s0_inv) < _ENDPOINT_GUARD),
        ~(k2 < 0.0) & ~(k2 < _MODULUS_FLOOR) & (k2 < 1.0)
        & ~(s0a - 1.0 < _ENDPOINT_GUARD) & ~(1.0 / np.sqrt(k2) - s0a < _ENDPOINT_GUARD))
    alpha = np.full(D.shape, np.nan)
    one, D, k2, x, s0a = one[ok], D[ok], k2[ok], s0_inv[ok], s0a[ok]
    # past the guards the clamps and range checks of seg_case_i and
    # seg_case_ii_plus never act, so they are left out
    kap2 = 1.0 / (1.0 - k2)
    ell2 = -k2
    mc = 1.0 - k2
    # seg_case_ii_plus(s0a): legendre_F(t, mc) with t = min(1, sn)
    t = np.minimum(1.0, np.sqrt(np.maximum(0.0, (s0a * s0a - 1.0) / (mc * s0a * s0a))))
    s2 = t * t
    K = _complete_K(np.where(one, kap2, mc))  # K(kappa^2) for class I, K' for class II
    rf = _carlson_rf(np.where(one, ell2 * (1.0 - x * x), 1.0 - s2),
                     np.where(one, ell2 + x * x, 1.0 - mc * s2),
                     np.where(one, ell2, 1.0))
    Kpp = np.sqrt(kap2) * K
    seg = np.where(one, Kpp + x * rf, t * rf)
    period = np.where(one, 4.0 * Kpp, 2.0 * K)
    sign = np.where(one, _ALPHA_SIGN[RealLocusClass.I],
                    np.where(D > 2.0, _ALPHA_SIGN[RealLocusClass.II_PLUS],
                             _ALPHA_SIGN[RealLocusClass.II_MINUS]))
    alpha[ok] = np.mod(sign * seg / period, 1.0)
    return alpha


def _grid_codes(D, E) -> tuple[np.ndarray, np.ndarray]:
    """rotation_grid with each class given as its position in RealLocusClass."""
    D, E = np.broadcast_arrays(np.asarray(D, dtype=float), np.asarray(E, dtype=float))
    if not (np.isfinite(D).all() and np.isfinite(E).all()):
        raise DomainError("D and E must be finite")
    shape = D.shape
    D, E = D.ravel(), E.ravel()
    # a cell whose curve data overflow is classified, and its alpha is blank
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        code, s, R, den = _classify(D, E)
        alpha = np.full(D.shape, np.nan)
        nd = np.flatnonzero(np.isin(code, _NONDEGENERATE))
        alpha[nd] = _alpha(D[nd], E[nd], s[nd], R[nd], den[nd])
    return code.reshape(shape), alpha.reshape(shape)


def rotation_grid(D, E) -> tuple[np.ndarray, np.ndarray]:
    """Classes and rotation numbers of the parameter points (D, E).

    D and E are array-likes broadcast against each other.  Returns an
    object array of RealLocusClass members and a float array of rotation
    numbers in [0, 1), NaN where the cell has none; each cell equals the
    scalar derive_params / rotation_number result bit for bit.  Raises
    DomainError if any D or E is not finite.
    """
    code, alpha = _grid_codes(D, E)
    # through 1-d: indexing with a 0-d code array would give a bare member, not an array
    return _CLASSES[code.ravel()].reshape(code.shape), alpha


def map_t_array(x: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                params: LevelSetParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """map_t at every point (x, A1, A2) of the level set of params.

    other_wall_root's two branches, then the reflection of involution_j.
    Raises PoleError if any point has its second wall intersection at
    infinity.
    """
    with np.errstate(all="ignore"):
        w = A2 + params.D
        den = 1.0 - A1 * A1
        ssum = -2.0 * w * A1 / den
        # den == 0 makes ssum non-finite, so one test covers both of the scalar checks
        if not np.isfinite(ssum).all():
            raise PoleError(_AT_INFINITY)
        far = (x != 0.0) & (np.abs(x) > 0.5 * np.abs(ssum))
        x = np.where(far, (1.0 - w * w) / den / x, ssum - x)
        return (x, *_reflect(x, A1, A2, params.E))


def config_distance_array(x, A1, A2, x0, A10, A20) -> np.ndarray:
    """periods.config_distance between the points (x, A1, A2) and (x0, A10, A20)."""
    with np.errstate(all="ignore"):
        return _max(np.abs(x / (1.0 + np.abs(x)) - x0 / (1.0 + np.abs(x0))),
                    np.abs(A1 - A10), np.abs(A2 - A20))


def orbit_drift_columns(x: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                        params: LevelSetParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ConfigPoint.L and implied_invariants at every point (x, A1, A2).

    Returns the arrays L, D_impl and E_impl; E_impl is NaN where
    |D + 2 A2| < 1e-15, as in the scalar function.  Raises DomainError
    where ConfigPoint.L does (D + 2E <= 0).
    """
    D, E = params.D, params.E
    with np.errstate(all="ignore"):
        L = _L(_z(x, A1, A2, D), D, E)
        r = _each(math.hypot, x, np.ones_like(x))
        D_impl = np.copysign(r, A2 + D - A1 * x) + A1 * x - A2
        L2 = D + 2.0 * A2
        E_impl = np.where(np.abs(L2) < 1e-15, np.nan,
                          (A1 * A1 + A2 * A2 - 1.0) / (2.0 * L2))
    return L, D_impl, E_impl


def _each(fn, *arrays) -> np.ndarray:
    """A math function per element, so it rounds exactly as in the scalar code."""
    return np.array(list(map(fn, *(a.tolist() for a in arrays))), dtype=float)


def theta_array(x: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                params: LevelSetParams) -> np.ndarray:
    """Angle theta in [0, 1) of every real-locus point (x, A1, A2).

    Inverts the parametrization of uniformize_array; the quadrant is
    resolved from the signs of the Jacobi triple, so theta is continuous
    along each component.  At the first point where the inversion fails it
    raises DomainError: in class I where dn = 0 (off the real locus) or
    where the angle is degenerate, and in every class where the angle
    comes out NaN (at a NaN point, say).
    """
    _require_nondegenerate(params)
    R, E, C = params.R, params.E, params.C
    with np.errstate(all="ignore"):
        z = _z(x, A1, A2, params.D)
        c2 = (A2 - 2.0 * E + R) / (2.0 * R)  # dn^2 in class I, cn^2 in classes II
        if params.cls is RealLocusClass.I:
            m = 1.0 / (1.0 - params.k2)
            kap = math.sqrt(m)
            K = complete_K(m)
            period = 4.0 * K
            d = np.sqrt(np.maximum(c2, 0.0))
            s = -A1 / (2.0 * R * kap * d)
            co = z / C
            h = _each(math.hypot, s, co)
            phi = _each(math.atan2, s / h, co / h)
            checks = [(d <= 0.0, "point is off the real locus (dn = 0)"),
                      (h == 0.0, "degenerate angle inversion")]
        else:
            m = 1.0 - params.k2
            K = complete_Kp(params.k2)
            period = 2.0 * K
            sgn = np.where(z > 0.0, -1.0, 1.0)
            sc = A1 / (sgn * 2.0 * R)
            phi = 0.5 * _each(math.atan2, 2.0 * sc, 2.0 * c2 - 1.0)
            checks = []
        checks.append((np.isnan(phi), "angle inversion gives NaN (point not finite?)"))
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():  # the first failing point, and the first check it fails
            i = int(np.argmax(bad))
            raise DomainError(next(msg for mask, msg in checks if mask[i]))
        # legendre_F_phi(phi, m) % period; |sn| <= 1 and 0 < m < 1, so R_F is in its domain
        n = np.rint(phi / math.pi)  # half to even, as round() does
        r = phi - n * math.pi
        sn = _each(math.sin, r)
        ax = np.abs(sn)
        s2 = ax * ax
        v = ax * _carlson_rf(1.0 - s2, 1.0 - m * s2, 1.0)
        val = np.where(sn < 0.0, -v, v)
        val = np.where(n != 0.0, val + 2.0 * n * K, val)
        return np.mod(val, period) / period


def _sncndn_array(u: np.ndarray, emc: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """elliptic._sncndn_core(u, emc) at every element of u.

    The AGM descent depends on emc only, so it runs once, in scalar code;
    only the backward recurrence runs over the array.
    """
    if emc == 1.0:  # m = 0
        return _each(math.sin, u), _each(math.cos, u), np.ones_like(u)
    c, steps = _jacobi_descent(emc)
    v = c * u
    sn, cn = _each(math.sin, v), _each(math.cos, v)
    # sn = 0 only at u = 0, whose elements the series mask below overwrites
    with np.errstate(all="ignore"):
        a = cn / sn
        c = c * a
        dn = np.ones_like(u)
        for b, e in steps:
            a = c * a
            c = c * dn
            dn = (e + a) / (b + a)
            a = c / b
        a = 1.0 / np.sqrt(c * c + 1.0)
        a = np.where(sn >= 0.0, a, -a)
        sn, cn = a, c * a
    small = np.abs(u) < 1e-8  # the series branch, where the recurrence would divide by sn
    if small.any():
        m = 1.0 - emc
        u2 = u * u
        sn = np.where(small, u * (1.0 - (1.0 + m) * u2 / 6.0), sn)
        cn = np.where(small, 1.0 - 0.5 * u2, cn)
        dn = np.where(small, 1.0 - 0.5 * m * u2, dn)
    return sn, cn, dn


def uniformize_array(theta: np.ndarray, eps, params: LevelSetParams
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Points of the real locus at the angles theta, by the Jacobi parametrization.

    eps is a component index or an array of them, broadcast against theta
    (see the uniformize module for the formulas).  Returns x, A1, A2 and a
    mask of the points where the wall abscissa is at infinity
    (|1 - A1^2| < 1e-12); x is NaN there.
    """
    _require_nondegenerate(params)
    theta = np.asarray(theta, dtype=float)
    eps = np.broadcast_to(eps, theta.shape)
    R, E, D, C = params.R, params.E, params.D, params.C
    if params.cls is RealLocusClass.I:
        if (eps != 0).any():
            raise DomainError("class I has a single component (eps = 0)")
        kap2 = 1.0 / (1.0 - params.k2)
        kap = math.sqrt(kap2)
        s, c, d = _sncndn_array(4.0 * complete_K(kap2) * theta, 1.0 - kap2)
        A1 = -2.0 * R * kap * s * d
        A2 = 2.0 * E - R + 2.0 * R * d * d
        z = C * c
    else:
        if not ((eps == 0) | (eps == 1)).all():
            raise DomainError("component index eps must be 0 or 1")
        mc = 1.0 - params.k2
        s, c, d = _sncndn_array(2.0 * complete_Kp(params.k2) * theta, 1.0 - mc)
        sgn = np.where(eps == 0, -1.0, 1.0)
        A1 = sgn * 2.0 * R * s * c
        A2 = 2.0 * E - R + 2.0 * R * c * c
        z = -sgn * C * d
    # the wall abscissa from z = (1 - A1^2) x + A1 (A2 + D)
    den = 1.0 - A1 * A1
    pole = np.abs(den) < 1e-12
    with np.errstate(all="ignore"):
        x = np.where(pole, np.nan, (z - A1 * (A2 + D)) / den)
    return x, A1, A2, pole
