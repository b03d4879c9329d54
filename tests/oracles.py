"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the production code paths: the complete
and incomplete integrals are done by adaptive quadrature on singularity-free
substitutions, the Jacobi functions by numerically inverting the incomplete
integral, and cross-checks go through scipy.special / mpmath.  The scalar
references further down repeat a batched kernel's formulas one point at a
time in Python floats, so each kernel is compared with a second, separate
implementation.  Production modules must never import this file.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

import mpmath
import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from scipy import integrate, optimize, special


# ---------------------------------------------------------------------------
# complete integrals by quadrature
# ---------------------------------------------------------------------------

def K_quad(m: float) -> float:
    """K(m) = integral of dphi / sqrt(1 - m sin^2 phi) over [0, pi/2]."""
    assert m < 1.0
    val, err = integrate.quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                              0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10
    return val


def Kp_quad(m: float) -> float:
    assert 0.0 < m < 1.0
    return K_quad(1.0 - m)


def Kpp_quad(m: float) -> float:
    """Companion period for m = -ell^2 < 0.

    Integral of ds / sqrt((1 - s^2)(ell^2 + s^2)) over [0, 1]; substituting
    s = sin phi removes the endpoint singularity.
    """
    assert m < 0.0
    ell2 = -m
    val, err = integrate.quad(lambda t: 1.0 / math.sqrt(ell2 + math.sin(t) ** 2),
                              0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10
    return val


# ---------------------------------------------------------------------------
# incomplete integrals by quadrature
# ---------------------------------------------------------------------------

def F_quad(x: float, m: float) -> float:
    """Integral of ds / sqrt((1-s^2)(1-m s^2)) from 0 to x, |x| <= 1."""
    assert abs(x) <= 1.0 and m < 1.0
    phi = math.asin(x)
    val, err = integrate.quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                              0.0, phi, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10
    return val


def seg_case_i_quad(x: float, m: float) -> float:
    """Integral of ds / sqrt((1-s^2)(ell^2+s^2)) from -1 to x, m = -ell^2 < 0.

    With s = -cos(psi) the path becomes dpsi / sqrt(ell^2 + cos^2 psi) over
    [0, arccos(-x)], which is free of endpoint singularities.
    """
    assert m < 0.0 and abs(x) <= 1.0
    ell2 = -m
    psi = math.acos(-x)
    val, err = integrate.quad(lambda t: 1.0 / math.sqrt(ell2 + math.cos(t) ** 2),
                              0.0, psi, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10
    return val


def seg_case_ii_quad(x: float, m: float) -> float:
    """Integral of ds / sqrt((s^2-1)(1-m s^2)) from 1 to x, 1 <= x <= 1/k.

    With s = 1/cos(phi) the integrand collapses to 1 / sqrt(cos^2 phi - m)
    over [0, arccos(1/x)]; only the very endpoint x = 1/k is singular.
    """
    assert 0.0 < m < 1.0 and 1.0 <= x <= 1.0 / math.sqrt(m) + 1e-12
    phi = math.acos(min(1.0, 1.0 / x))
    val, err = integrate.quad(lambda t: 1.0 / math.sqrt(math.cos(t) ** 2 - m),
                              0.0, phi, epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-8
    return val


# ---------------------------------------------------------------------------
# Jacobi functions: reference values and inversion
# ---------------------------------------------------------------------------

def ellipj_ref(u: float, m: float):
    """Reference (sn, cn, dn) for real u.

    scipy covers 0 <= m < 1 directly; negative m goes through mpmath.
    """
    if 0.0 <= m < 1.0:
        sn, cn, dn, _ = special.ellipj(u, m)
        return float(sn), float(cn), float(dn)
    with mpmath.workdps(30):
        sn = complex(mpmath.ellipfun("sn", u, m=m)).real
        cn = complex(mpmath.ellipfun("cn", u, m=m)).real
        dn = complex(mpmath.ellipfun("dn", u, m=m)).real
    return sn, cn, dn


def ellipj_imag_ref(v: float, m: float):
    """Reference (sn, cn, dn) at u = i v as complex numbers."""
    with mpmath.workdps(30):
        u = mpmath.mpc(0.0, v)
        return (complex(mpmath.ellipfun("sn", u, m=m)),
                complex(mpmath.ellipfun("cn", u, m=m)),
                complex(mpmath.ellipfun("dn", u, m=m)))


def sn_by_inversion(u: float, m: float) -> float:
    """sn(u, m) on the real axis by root-finding F_quad(s) = u.

    Only valid for 0 <= u <= K(m), which is all the identity checks need.
    """
    K = K_quad(m)
    assert -1e-12 <= u <= K * (1.0 + 1e-12)
    u = min(max(u, 0.0), K)
    if u == 0.0:
        return 0.0
    if u >= K:
        return 1.0
    return optimize.brentq(lambda s: F_quad(s, m) - u, 0.0, 1.0, xtol=1e-14)


def mp_F_phi(phi: float, m: float) -> float:
    with mpmath.workdps(30):
        return float(mpmath.ellipf(phi, m).real)


def mp_angle(c, params) -> tuple:
    """(theta, phi) of a real-locus point by a 40-digit inversion of the real Jacobi formulas.

    The float point and parameters are taken as exact; phi is the Jacobi
    amplitude, by atan2 of the Jacobi pair (class I) or half the atan2 of
    (2 sn cn, 2 cn^2 - 1) (classes II), and theta is F(phi | m) over the period.
    """
    from boltzmann_billiard import RealLocusClass

    with mpmath.workdps(40):
        x, A1, A2 = map(mpmath.mpf, (c.x, c.A1, c.A2))
        R, E, C, D, k2 = map(mpmath.mpf, (params.R, params.E, params.C, params.D, params.k2))
        z = (1 - A1 * A1) * x + A1 * (A2 + D)
        c2 = (A2 - 2 * E + R) / (2 * R)
        if params.cls is RealLocusClass.I:
            m = 1 / (1 - k2)
            phi = mpmath.atan2(-A1 / (2 * R * mpmath.sqrt(m) * mpmath.sqrt(c2)), z / C)
            period = 4 * mpmath.ellipk(m)
        else:
            m = 1 - k2
            phi = mpmath.atan2(A1 / (-R if z > 0 else R), 2 * c2 - 1) / 2
            period = 2 * mpmath.ellipk(m)
        return float(mpmath.ellipf(phi, m) / period % 1), float(phi)


def mp_seg_case_i(x: float, m: float) -> float:
    """The path from -1 to x, complete_Kpp(m) + seg_case_i(x, m), by 30-digit tanh-sinh
    quadrature, split at s = 0."""
    with mpmath.workdps(30):
        ell2 = -mpmath.mpf(m)
        return float(mpmath.quad(lambda s: 1 / mpmath.sqrt((1 - s * s) * (ell2 + s * s)),
                                 [-1, 0, mpmath.mpf(x)]))


def mp_alpha(D: float, E: float):
    """Rotation number of the level set (D, E) at 40 digits, as an mpf in [0, 1).

    D and E are taken as exact, and k2 and 1/s0 are formed from them in
    40-digit arithmetic, so the float curve data play no part.
    """
    with mpmath.workdps(40):
        D, E = mpmath.mpf(D), mpmath.mpf(E)
        s = D + 2 * E
        R = mpmath.sqrt(1 + 2 * D * E + 4 * E * E)
        return mp_alpha_of_curve(D, (D + 4 * E - 2 * R) / (D + 4 * E + 2 * R), (s - R) / (s + R))


def mp_alpha_of_curve(D, k2, s0_inv):
    """Rotation number at 40 digits of the curve data k2, 1/s0, taken as exact; D picks the class.

    The integrals are mpmath's Legendre F and K, not the Carlson and AGM
    forms of the package:
        class I:  alpha = -F(arccos(-1/s0) | kap2) / (4 K(kap2)),  kap2 = 1/(1 - k2);
        class II: alpha = +-F(arccos(1/|s0|) | 1/mc) / (2 sqrt(mc) K(mc)),  mc = 1 - k2,
    with + on IIplus and - on IIminus.
    """
    with mpmath.workdps(40):
        k2, s0_inv = mpmath.mpf(k2), mpmath.mpf(s0_inv)
        if abs(D) < 2:
            kap2 = 1 / (1 - k2)
            a = -mpmath.ellipf(mpmath.acos(-s0_inv), kap2) / (4 * mpmath.ellipk(kap2))
        else:
            mc = 1 - k2
            seg = mpmath.ellipf(mpmath.acos(abs(s0_inv)), 1 / mc) / mpmath.sqrt(mc)
            a = (1 if D > 2 else -1) * seg / (2 * mpmath.ellipk(mc))
        return mpmath.re(a) % 1


def alpha_error_units(alpha: float, ref) -> float:
    """Circle distance of a float alpha from an mpf reference, in units of 2^-53."""
    with mpmath.workdps(40):
        d = abs(mpmath.mpf(alpha) - ref)
        return float(min(d, 1 - d) * 2 ** 53)


ALPHA_SAMPLE_SEED = 20261019


@functools.lru_cache(maxsize=1)
def alpha_sample(per_class: int = 1500) -> dict:
    """(D, E) points of each nondegenerate class with a rotation number, by class value.

    per_class points from random.Random(ALPHA_SAMPLE_SEED), D uniform on the
    class's part of [-6, 6] and E uniform on [-1, 3], then the points
    D = +-2 +- 10^-k, k = 1..8, at three energies on each side of each
    nodal line: E in {-0.3, 0.5, 2} next to D = 2, E in {1.1, 1.5, 3} next
    to D = -2.  The classes come from derive_params, and a point where
    rotation_number raises is drawn again.
    """
    from boltzmann_billiard import BilliardError, derive_params, rotation_number

    rng = random.Random(ALPHA_SAMPLE_SEED)
    boxes = {"I": (-2.0, 2.0), "IIplus": (2.0, 6.0), "IIminus": (-6.0, -2.0)}
    out = {name: [] for name in boxes}
    for name, (lo, hi) in boxes.items():
        while len(out[name]) < per_class:
            D, E = rng.uniform(lo, hi), rng.uniform(-1.0, 3.0)
            params = derive_params(D, E)
            if params.cls.value != name:
                continue
            try:
                rotation_number(params)
            except BilliardError:
                continue
            out[name].append((D, E))
    for k in range(1, 9):
        t = 10.0 ** -k
        for E in (-0.3, 0.5, 2.0):
            out["I"].append((2.0 - t, E))
            out["IIplus"].append((2.0 + t, E))
        for E in (1.1, 1.5, 3.0):
            out["I"].append((-2.0 + t, E))
            out["IIminus"].append((-2.0 - t, E))
    return out


def carlson_rf_ref(x: float, y: float, z: float) -> float:
    return float(special.elliprf(x, y, z))


# ---------------------------------------------------------------------------
# scalar Jacobi sn, cn, dn: the twin of elliptic._sncndn_array, written out in
# full so that the two share no helper
# ---------------------------------------------------------------------------

_JACOBI_CA = 1e-9  # AGM descent cutoff of elliptic._sncndn_array


def _sncndn_core(u: float, emc: float):
    """sn, cn, dn on the real axis for emc = 1 - m in (0, 1], in Python floats.

    AGM descent with backward recurrence, and (u, 1, 1) where |u| < 1e-8, op
    for op as elliptic._sncndn_array does them over arrays.
    """
    if abs(u) < 1e-8:
        # the backward recurrence divides by sn; the series in u rounds to u, 1, 1
        return u, 1.0, 1.0
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
    dn = 1.0
    u = c * u
    sn = math.sin(u)
    cn = math.cos(u)
    if sn != 0.0:
        a = cn / sn
        c = c * a
        for b, e in zip(reversed(em), reversed(en)):
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
    from boltzmann_billiard import DomainError

    if not m < 1.0:
        raise DomainError(f"squared modulus must be < 1 (got {float(m)!r})")
    if m < 0.0:
        kap = math.sqrt(1.0 / (1.0 - m))
        m1 = -m / (1.0 - m)
        s, c, d = _sncndn_core(u / kap, 1.0 - m1)
        return kap * s / d, c / d, 1.0 / d
    return _sncndn_core(u, 1.0 - m)


def _sncndn_real(u: float, m: float):
    """jacobi_sn_cn_dn, extended to m = 1 by the tanh limit."""
    if m == 1.0:
        sn = math.tanh(u)
        cn = 1.0 / math.cosh(u)
        return sn, cn, cn
    return jacobi_sn_cn_dn(u, m)


def _sncndn_imag(v: float, m: float):
    """Values at u = i v as complex numbers, for squared modulus m < 1.

    The imaginary-argument transformation with the complementary modulus
    1 - m, or, for m < 0, with kappa^2 = 1/(1 - m).
    """
    from boltzmann_billiard import PoleError

    if m < 0.0:
        # rhombic regime: reduce to the complementary real modulus kappa
        kap2 = 1.0 / (1.0 - m)
        kap = math.sqrt(kap2)
        s, c, d = _sncndn_real(v / kap, kap2)
        # d >= sqrt(1 - kap2) > 0, no poles on this line
        return complex(0.0, kap * s / d), complex(1.0 / d, 0.0), complex(c / d, 0.0)
    s, c, d = _sncndn_real(v, 1.0 - m)
    if abs(c) < 1e-12:
        raise PoleError("Jacobi pole: u is too close to i K' on the imaginary axis")
    return complex(0.0, s / c), complex(1.0 / c, 0.0), complex(d / c, 0.0)


def jacobi_sn_cn_dn_complex(u, m: float, line_tol: float = 1e-9):
    """Jacobi sn, cn, dn at complex u on the lines R, iR and iR + 2K.

    These are the lines the complex uniformization of the real locus
    uses.  The real part is reduced modulo the real period 4K, so
    translates of the supported lines work too.  Off-line arguments raise
    DomainError.
    """
    from boltzmann_billiard import DomainError, complete_K

    if not m < 1.0:
        raise DomainError(f"squared modulus must be < 1 (got {float(m)!r})")
    z = complex(u)
    re, im = z.real, z.imag
    scale = 1.0 + abs(re) + abs(im)
    if abs(im) <= line_tol * scale:
        s, c, d = jacobi_sn_cn_dn(re, m)
        return complex(s, 0.0), complex(c, 0.0), complex(d, 0.0)
    K = complete_K(m)
    r = math.remainder(re, 4.0 * K)  # in [-2K, 2K]
    if abs(r) <= line_tol * scale:
        return _sncndn_imag(im, m)
    if abs(abs(r) - 2.0 * K) <= line_tol * scale:
        s, c, d = _sncndn_imag(im, m)
        return -s, -c, d
    raise DomainError(
        "jacobi_sn_cn_dn_complex supports u on the real axis, the imaginary axis, "
        "or the imaginary axis shifted by the half real period 2K"
    )


def uniformize_complex_oracle(a, params):
    """uniformize's point through the complex Jacobi formulas.

    Evaluates A1 = 2 i R sn(u)/cn(u)^2, A2 = 2E - R + 2R/cn(u)^2,
    z = C dn(u)/cn(u) at u = 4 i K'' theta (class I) or
    u = 2 i K' theta + 2 K eps (classes II).
    """
    from boltzmann_billiard import (AngleCoord, ConfigPoint, DomainError, PoleError, RealLocusClass,
                                    complete_K, complete_Kp, complete_Kpp)

    if not params.nondegenerate:
        raise DomainError(f"operation needs a nondegenerate level set (class {params.cls.value})")
    if not isinstance(a, AngleCoord):
        a = AngleCoord(float(a), 0)
    if params.cls is RealLocusClass.I:
        u = complex(0.0, 4.0 * complete_Kpp(params.k2) * a.theta)
    else:
        u = complex(2.0 * complete_K(params.k2) * a.eps, 2.0 * complete_Kp(params.k2) * a.theta)
    sn, cn, dn = jacobi_sn_cn_dn_complex(u, params.k2)
    if abs(cn) < 1e-8:
        raise PoleError("uniformization pole: cn(u) = 0 (point at infinity of the conic pencil)")
    A1 = 2.0j * params.R * sn / (cn * cn)
    A2 = 2.0 * params.E - params.R + 2.0 * params.R / (cn * cn)
    z = params.C * dn / cn
    if max(abs(A1.imag), abs(A2.imag), abs(z.imag)) > 1e-8 * (1.0 + abs(z)):
        raise DomainError("angle coordinate does not lie on the real locus")
    x = _wall_abscissa_from_z(z.real, A1.real, A2.real, params.D)
    return ConfigPoint(x, A1.real, A2.real)


# ---------------------------------------------------------------------------
# scalar references for the curve kernels (uniformize_array, theta_array,
# level_set_residual_array, project_onto_level_set_array,
# implied_invariants_array, config_distance_array), one point at a time in
# Python floats
# ---------------------------------------------------------------------------

def _require_nondegenerate(params):
    from boltzmann_billiard import DomainError

    if not params.nondegenerate:
        raise DomainError(f"operation needs a nondegenerate level set (class {params.cls.value})")


def _wall_abscissa_from_z(z: float, A1: float, A2: float, D: float) -> float:
    """Invert the linear relation z = (1 - A1^2) x + A1 (A2 + D) for x."""
    from boltzmann_billiard import PoleError

    den = 1.0 - A1 * A1
    if abs(den) < 1e-12:
        raise PoleError("second wall intersection at infinity (A1^2 = 1)")
    return (z - A1 * (A2 + D)) / den


def scalar_uniformize(a, params):
    """Point of the real locus at angle coordinate a, by the real Jacobi formulas.

    Raises PoleError where the wall abscissa is at infinity (A1^2 = 1).
    """
    from boltzmann_billiard import (AngleCoord, ConfigPoint, DomainError, RealLocusClass,
                                    complete_Kp)
    from boltzmann_billiard.elliptic import _complete_K

    _require_nondegenerate(params)
    if not isinstance(a, AngleCoord):
        a = AngleCoord(float(a), 0)
    R, E, D, C = params.R, params.E, params.D, params.C
    if params.cls is RealLocusClass.I:
        if a.eps != 0:
            raise DomainError("class I has a single component (eps = 0)")
        # modulus kappa^2 = 1/(1 - k2), passed as its complement -k2 kappa^2
        kap2 = 1.0 / (1.0 - params.k2)
        mc = -params.k2 * kap2
        w = 4.0 * _complete_K(mc) * a.theta
        s, c, d = _sncndn_core(w, mc)
        A1 = -2.0 * R * math.sqrt(kap2) * s * d
        A2 = 2.0 * E - R + 2.0 * R * d * d
        z = C * c
    else:
        if a.eps not in (0, 1):
            raise DomainError("component index eps must be 0 or 1")
        # modulus 1 - k2, passed as its complement k2
        v = 2.0 * complete_Kp(params.k2) * a.theta
        s, c, d = _sncndn_core(v, params.k2)
        sgn = -1.0 if a.eps == 0 else 1.0
        A1 = sgn * 2.0 * R * s * c
        A2 = 2.0 * E - R + 2.0 * R * c * c
        z = -sgn * C * d
    x = _wall_abscissa_from_z(z, A1, A2, D)
    return ConfigPoint(x, A1, A2)


def scalar_amplitude(c, params):
    """sin and cos of the Jacobi amplitude of a real-locus point, with 1 - m, K(m) and the period.

    The square-root inversion of the real Jacobi formulas: in class I the
    normalized (sn, cn) of modulus kappa^2; in classes II the half angle of
    (2 sn cn, 2 cn^2 - 1) of modulus 1 - k2, with sn >= 0.
    """
    from boltzmann_billiard import DomainError, RealLocusClass, complete_Kp
    from boltzmann_billiard.elliptic import _complete_K

    _require_nondegenerate(params)
    R, E = params.R, params.E
    z = c.z(params)
    c2 = (c.A2 - 2.0 * E + R) / (2.0 * R)  # dn^2 in class I, cn^2 in classes II
    if params.cls is RealLocusClass.I:
        m = 1.0 / (1.0 - params.k2)
        mc = -params.k2 * m
        K = _complete_K(mc)
        period = 4.0 * K
        d = math.sqrt(max(c2, 0.0))
        if d <= 0.0:
            raise DomainError("point is off the real locus (dn = 0)")
        p, q = -c.A1 / (2.0 * R * math.sqrt(m) * d), z / params.C
    else:
        mc = params.k2
        K = complete_Kp(params.k2)
        period = 2.0 * K
        p, q = c.A1 / (-R if z > 0.0 else R), 2.0 * c2 - 1.0  # 2 sn cn, 2 cn^2 - 1
    h = max(abs(p), abs(q)) if not math.isnan(p + q) else math.nan  # as np.maximum gives it
    if h == 0.0:
        raise DomainError("degenerate angle inversion")
    p, q = p / h, q / h
    r = math.sqrt(p * p + q * q)
    sn, cn = p / r, q / r
    if params.cls is not RealLocusClass.I:
        big = math.sqrt((1.0 + abs(cn)) / 2.0)
        other = sn / (2.0 * big)
        if cn >= 0.0:
            sn, cn = abs(other), (-big if other < 0.0 else big)
        else:
            sn, cn = big, other
    if not all(map(math.isfinite, (sn, cn, c.x))):
        raise DomainError("angle inversion gives NaN (point not finite?)")
    return sn, cn, mc, K, period


def _scalar_unfold(r, sn, cn, at_pi):
    if cn < 0.0:
        r = at_pi - r
    return 2.0 * at_pi - r if sn < 0.0 else r


def scalar_lift(sn, cn, mc, K, period):
    """theta in [0, 1] of an amplitude: F(phi | m) / period, phi in [0, 2 pi)."""
    from boltzmann_billiard import carlson_rf

    f = abs(sn) * carlson_rf(cn * cn, cn * cn + mc * (sn * sn), 1.0)
    return _scalar_unfold(f, sn, cn, 2.0 * K) / period


def scalar_angle_of(c, params):
    """Angle coordinate of a real-locus point: scalar_lift of its scalar_amplitude.

    The component index is the sign of z.
    """
    from boltzmann_billiard import AngleCoord, RealLocusClass

    theta = scalar_lift(*scalar_amplitude(c, params)) % 1.0
    return AngleCoord(theta, 0 if params.cls is RealLocusClass.I or c.z(params) > 0.0 else 1)


def scalar_circle_residual(c, params) -> float:
    """Relative defect of the eccentricity-circle equation (scaled so large E stays fair)."""
    terms = (c.A1 * c.A1, c.A2 * c.A2, 4.0 * params.E * c.A2, 2.0 * params.D * params.E)
    num = abs(terms[0] + terms[1] - terms[2] - 1.0 - terms[3])
    return num / max(1.0, *map(abs, terms))


def scalar_wall_residual(c, params) -> float:
    """Relative defect of the wall equation (scaled so large x stays fair)."""
    w = c.A2 + params.D - c.A1 * c.x
    num = abs(c.x * c.x + 1.0 - w * w)
    return num / max(1.0, c.x * c.x + 1.0, w * w)


def scalar_level_set_residual(c, params) -> float:
    """The larger of the two defects; a NaN defect reads as +inf."""
    defects = scalar_circle_residual(c, params), scalar_wall_residual(c, params)
    return math.inf if any(map(math.isnan, defects)) else max(defects)


def scalar_project_onto_level_set(c, params):
    """Gauss-Newton projection onto the circle and wall equations, two steps at most."""
    from boltzmann_billiard import ConfigPoint

    x, A1, A2 = c.x, c.A1, c.A2
    D, E = params.D, params.E
    for _ in range(2):
        f1 = A1 * A1 + A2 * A2 - 4.0 * E * A2 - 1.0 - 2.0 * D * E
        w = A2 + D - A1 * x
        f2 = x * x + 1.0 - w * w
        if abs(f1) + abs(f2) < 1e-15:
            break
        # rows of the Jacobian of (f1, f2) in (x, A1, A2)
        j1 = (0.0, 2.0 * A1, 2.0 * A2 - 4.0 * E)
        j2 = (2.0 * x + 2.0 * w * A1, 2.0 * w * x, -2.0 * w)
        g11 = sum(v * v for v in j1)
        g12 = sum(a * b for a, b in zip(j1, j2))
        g22 = sum(v * v for v in j2)
        det = g11 * g22 - g12 * g12
        if det == 0.0:
            break
        l1 = (f1 * g22 - f2 * g12) / det
        l2 = (f2 * g11 - f1 * g12) / det
        x -= j1[0] * l1 + j2[0] * l2
        A1 -= j1[1] * l1 + j2[1] * l2
        A2 -= j1[2] * l1 + j2[2] * l2
    return ConfigPoint(x, A1, A2)


def scalar_implied_invariants(c, params) -> tuple:
    """(D, E) recomputed from the point alone, the wall sheet resolved toward params.D;
    E is NaN where |D + 2 A2| < 1e-15."""
    r = math.hypot(c.x, 1.0)
    w_ref = c.A2 + params.D - c.A1 * c.x
    D_impl = math.copysign(r, w_ref) + c.A1 * c.x - c.A2
    L2 = params.D + 2.0 * c.A2
    if abs(L2) < 1e-15:
        return D_impl, math.nan
    E_impl = (c.A1 * c.A1 + c.A2 * c.A2 - 1.0) / (2.0 * L2)
    return D_impl, E_impl


def config_distance(a, b) -> float:
    """Largest of the gaps in the bounded chart x / (1 + |x|), in A1 and in A2."""
    chart_a, chart_b = a.x / (1.0 + abs(a.x)), b.x / (1.0 + abs(b.x))
    return max(abs(chart_a - chart_b), abs(a.A1 - b.A1), abs(a.A2 - b.A2))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def alpha_slope(D: float, E: float, h: float = 1e-5) -> float:
    """Central difference of the rotation number in D, by its shortest circular increment."""
    from boltzmann_billiard import derive_params, rotation_number

    lo = rotation_number(derive_params(D - h, E)).alpha
    hi = rotation_number(derive_params(D + h, E)).alpha
    return ((hi - lo + 0.5) % 1.0 - 0.5) / (2.0 * h)


def wrapped_diff(a: float, b: float) -> float:
    """Distance of a - b from the nearest integer (circle metric)."""
    return abs((a - b + 0.5) % 1.0 - 0.5)


def sample_m_grid(n: int = 40, lo: float = -10.0, hi: float = 0.99) -> np.ndarray:
    """Deterministic grid of squared moduli spanning both sign regimes."""
    neg = -np.geomspace(1e-3, -lo, n // 2)
    pos = np.linspace(1e-3, hi, n - n // 2)
    return np.concatenate([neg, pos])


# ---------------------------------------------------------------------------
# scalar reference for the batched rotation grid
# ---------------------------------------------------------------------------

def scalar_rotation_cell(D: float, E: float):
    """(class, alpha) of one cell by the scalar path, alpha NaN where it has none.

    The class is None where derive_params itself raises.
    """
    from boltzmann_billiard import BilliardError, derive_params, rotation_number

    try:
        params = derive_params(D, E)
    except BilliardError:
        return None, math.nan
    alpha = math.nan
    if params.nondegenerate:
        try:
            alpha = rotation_number(params).alpha
        except BilliardError:
            pass
    return params.cls, alpha


def scalar_rotation_grid(D, E):
    """rotation_grid's contract, one scalar cell at a time."""
    D, E = np.broadcast_arrays(np.asarray(D, dtype=float), np.asarray(E, dtype=float))
    classes = np.empty(D.shape, dtype=object)
    alpha = np.empty(D.shape)
    for idx in np.ndindex(D.shape):
        classes[idx], alpha[idx] = scalar_rotation_cell(float(D[idx]), float(E[idx]))
    return classes, alpha


def scalar_grid_csv(Ds, Es) -> str:
    """The text `rotation --grid` writes for the axes Ds and Es, one f-string per cell.

    One rotation_grid call covers the whole window, so the text does not
    depend on the CLI's block size.  A NaN alpha is an empty field.
    """
    from boltzmann_billiard import rotation_grid

    classes, alpha = rotation_grid(np.asarray(Ds)[:, None], np.asarray(Es))
    lines = ["D,E,class,alpha\n"]
    for D, cls_row, alpha_row in zip(Ds.tolist(), classes, alpha.tolist()):
        for E, cls, a in zip(Es.tolist(), cls_row, alpha_row):
            shown = "" if a != a else "%.17g" % a
            lines.append(f"{D:.17g},{E:.17g},{cls.value},{shown}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# scalar references for the batched Poncelet checks
# ---------------------------------------------------------------------------

def _class_boxes():
    """(D, E) boxes where most points fall in each nondegenerate class."""
    from boltzmann_billiard import RealLocusClass

    return {
        RealLocusClass.I: ((-1.95, 1.95), (-0.45, 1.5)),
        RealLocusClass.II_PLUS: ((2.05, 4.0), (-0.45, 0.5)),
        RealLocusClass.II_MINUS: ((-4.0, -2.05), (1.05, 3.0)),
    }


@st.composite
def level_sets(draw):
    """Nondegenerate level sets of every class that have a rotation number."""
    from boltzmann_billiard import BilliardError, derive_params, rotation_number

    boxes = _class_boxes()
    cls = draw(st.sampled_from(list(boxes)))
    (dlo, dhi), (elo, ehi) = boxes[cls]
    params = derive_params(draw(st.floats(dlo, dhi)), draw(st.floats(elo, ehi)))
    assume(params.cls is cls)
    try:
        rotation_number(params)
    except BilliardError:
        assume(False)
    return params


def scalar_empirical_rotation(params, n_steps: int = 10_000, seed: int = 0, c0=None) -> float:
    """empirical_rotation point by point: one map_t and one scalar_amplitude per step.

    A turn is a step where the amplitude angle in [0, 2 pi) decreases; the
    lift is the number of turns plus the difference of the two end angles.
    """
    from boltzmann_billiard import map_t, sample_level_set

    def key(amp):
        sn, cn = amp[:2]
        return _scalar_unfold(abs(sn) / (abs(sn) + abs(cn)), sn, cn, 2.0)

    if c0 is None:
        c0 = sample_level_set(params, 1, seed)[0]
    first = last = scalar_amplitude(c0, params)
    c = c0
    turns = 0
    for _ in range(n_steps):
        c = map_t(c, params)
        amp = scalar_amplitude(c, params)
        turns += key(amp) < key(last)
        last = amp
    return ((turns + scalar_lift(*last) - scalar_lift(*first)) / n_steps) % 1.0


def scalar_detect_period(c0, params):
    """detect_period_direct as a map_t loop: the smallest p <= periods._P_MAX with
    config_distance(t^p(c0), c0) below periods._RETURN_TOL, else None."""
    from boltzmann_billiard import map_t, periods

    c = c0
    for p in range(1, periods._P_MAX + 1):
        c = map_t(c, params)
        if config_distance(c, c0) < periods._RETURN_TOL:
            return p
    return None


def scalar_poncelet_check(params, seed: int = 0):
    """poncelet_check one start at a time, with a separate residual pass.

    The starts come from periods._sample_xyz, so a test that replaces it
    there gives both paths the same starts.
    """
    from boltzmann_billiard import ConfigPoint, map_t, periods

    rot = periods.rotation_number(params)
    predicted = periods.smallest_period(rot.alpha, rot.flips_component)
    pts = list(map(ConfigPoint, *periods._sample_xyz(params, periods._N_STARTS, seed).tolist()))
    detected = {scalar_detect_period(c, params) for c in pts}
    unanimous = detected.pop() if len(detected) == 1 else None
    residual = math.nan
    if unanimous is not None:
        worst = 0.0
        for c in pts:
            cp = c
            for _ in range(unanimous):
                cp = map_t(cp, params)
            worst = max(worst, config_distance(cp, c))
        residual = worst
    return periods.PeriodReport(predicted, unanimous, rot.alpha,
                                predicted == unanimous, residual)


def scalar_find_periodic_locus(E: float, p: int, D_range: tuple = (0.0, 2.0)) -> list:
    """find_periodic_locus with its brackets tested one scan interval at a time.

    Reads the cached D scan (periods._scan) and refines with
    periods._illinois, so a test that replaces either there gives both
    paths the same; the brackets are selected per interval, in Python
    floats.
    """
    from boltzmann_billiard import BilliardError, RealLocusClass, derive_params, periods

    if p < 1:
        raise ValueError("period must be positive")
    if p == 1:
        return []

    def defect(D: float) -> float:
        try:
            a = periods.rotation_number(derive_params(D, E)).alpha
        except BilliardError:
            return math.nan
        return (p * a + 0.5) % 1.0 - 0.5

    lo, hi = D_range
    Ds, classes, alpha = periods._scan(*(float(v).hex() for v in (E, lo, hi)))
    if p % 2 == 1:
        alpha = np.where(classes == RealLocusClass.II_PLUS, math.nan, alpha)
    grid = Ds.tolist()
    vals = ((p * alpha + 0.5) % 1.0 - 0.5).tolist()
    roots = []
    for (D0, f0), (D1, f1) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
        # a NaN end fails the sign test
        if not f0 * f1 <= 0.0 or f0 == 0.0 and f1 == 0.0:
            continue
        # drop wrap-around jumps of the recentred defect (both ends near 1/2)
        if min(abs(f0), abs(f1)) > 0.45:
            continue
        root, f = periods._illinois(defect, D0, f0, D1, f1)
        if abs(f) < 1e-8 and not any(abs(root - r) < 1e-7 for r in roots):
            roots.append(root)
    return sorted(roots)


# ---------------------------------------------------------------------------
# scalar references for the orbit: the map_t walk (_walk's oracle) and the
# translation (iterate_orbit's and the orbit command's)
# ---------------------------------------------------------------------------

class ScalarOrbit(NamedTuple):
    points: tuple
    residuals: tuple


def _abort_reason(c, r: float, abort_abscissa: float) -> str:
    """Why a checked orbit point stops the orbit: a finite point past the abscissa, else its residual."""
    if all(map(math.isfinite, (c.x, c.A1, c.A2))) and abs(c.x) > abort_abscissa:
        return f"|x| = {abs(c.x):.3e} exceeds abort_abscissa {abort_abscissa!r}"
    return f"orbit left the level set (residual {r:.3e})"


def scalar_iterate_orbit(c0, params, n: int, *,
                         residual_ceiling: float = 1e-6, abort_abscissa: float = 1e12):
    """The map_t walk from c0, one ConfigPoint at a time, each step checked as it is made.

    Raises OrbitAbort carrying a ScalarOrbit prefix.
    """
    from boltzmann_billiard import DomainError, OrbitAbort, PoleError, map_t

    if not params.nondegenerate:
        raise DomainError(f"operation needs a nondegenerate level set (class {params.cls.value})")
    pts = [c0]
    res = [scalar_level_set_residual(c0, params)]
    for step in range(1, n + 1):
        try:
            c = map_t(pts[-1], params)
        except PoleError as exc:
            raise OrbitAbort(f"step {step}: {exc}", ScalarOrbit(tuple(pts), tuple(res)), step) from exc
        ok = all(map(math.isfinite, (c.x, c.A1, c.A2))) and abs(c.x) <= abort_abscissa
        r = scalar_level_set_residual(c, params) if ok else math.inf
        if not ok or r > residual_ceiling:
            raise OrbitAbort(f"step {step}: {_abort_reason(c, r, abort_abscissa)}",
                             ScalarOrbit(tuple(pts), tuple(res)), step)
        pts.append(c)
        res.append(r)
    return ScalarOrbit(tuple(pts), tuple(res))


class TranslatedOrbit(NamedTuple):
    points: tuple
    residuals: tuple
    one_step_law_max: float
    one_step_law_step: int


def two_product(a: float, b: float):
    """Dekker's exact product of two floats: p = fl(a b) and e = a b - p."""
    split = 134217729.0  # 2**27 + 1
    p = a * b
    ah, bh = a * split, b * split
    ah = ah - (ah - a)
    bh = bh - (bh - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def translated_angle(theta0: float, alpha: float, k: int) -> float:
    """(theta0 + k alpha) mod 1 by the split sum of the orbit: k alpha as Dekker's p + e."""
    p, e = two_product(float(k), alpha)
    return ((p % 1.0 + theta0) % 1.0 + e) % 1.0


def on_set_pole_start(params):
    """A point of the level set with A1 = 1 exactly: its second wall intersection is at infinity."""
    from boltzmann_billiard import ConfigPoint

    D, E = params.D, params.E
    A2 = 2.0 * E + math.sqrt(4.0 * E * E + 2.0 * D * E)  # the circle at A1 = 1
    w = A2 + D
    return ConfigPoint((w * w - 1.0) / (2.0 * w), 1.0, A2)  # the finite root of the wall


def scalar_translated_orbit(c0, params, n: int, *,
                            residual_ceiling: float = 1e-6, abort_abscissa: float = 1e12):
    """iterate_orbit one point at a time: point k is uniformize at theta_0 + k alpha.

    The start's angle by scalar_angle_of, one scalar_uniformize per step,
    the checks of each point as it is made, and the one-step law
    config_distance(map_t(c[k-1]), c[k]) by scalar map_t.  Raises
    ValueError for a start off the level set and OrbitAbort carrying a
    TranslatedOrbit prefix.
    """
    from boltzmann_billiard import AngleCoord, OrbitAbort, PoleError, map_t, rotation_number

    _require_nondegenerate(params)
    r0 = scalar_level_set_residual(c0, params)
    if not r0 <= residual_ceiling:
        raise ValueError(f"orbit start is off the level set (residual {r0:.3e})")
    a0, rot = scalar_angle_of(c0, params), rotation_number(params)
    pts, res, law = [c0], [r0], (0.0, 0)

    def abort(step, why):
        return OrbitAbort(f"step {step}: {why}", TranslatedOrbit(tuple(pts), tuple(res), *law), step)

    for k in range(1, n + 1):
        a = AngleCoord(translated_angle(a0.theta, rot.alpha, k), a0.eps ^ (k & rot.flips_component))
        try:
            c = scalar_uniformize(a, params)
        except PoleError:
            raise abort(k, "second wall intersection at infinity (A1^2 = 1)") from None
        ok = all(map(math.isfinite, (c.x, c.A1, c.A2))) and abs(c.x) <= abort_abscissa
        r = scalar_level_set_residual(c, params) if ok else math.inf
        if not ok or r > residual_ceiling:
            raise abort(k, _abort_reason(c, r, abort_abscissa))
        try:
            gap = config_distance(map_t(pts[-1], params), c)
        except PoleError as exc:  # a start whose image is at infinity
            raise abort(k, exc) from exc
        law = (gap, k) if gap > law[0] else law
        pts.append(c)
        res.append(r)
    return TranslatedOrbit(tuple(pts), tuple(res), *law)


def mp_walk(c0, params, steps, dps: int = 40) -> list:
    """The points at the increasing steps of the map_t walk from c0 at dps digits, as floats.

    Steps by levelset.other_wall_root and _reflect on mpmath numbers, with
    the float start and parameters taken as exact.
    """
    from boltzmann_billiard import ConfigPoint
    from boltzmann_billiard.levelset import _reflect, other_wall_root

    out, k = [], 0
    with mpmath.workdps(dps):
        x, A1, A2 = map(mpmath.mpf, (c0.x, c0.A1, c0.A2))
        D, E = mpmath.mpf(params.D), mpmath.mpf(params.E)
        for step in steps:
            for k in range(k, step):
                x = other_wall_root(x, A1, A2, D)
                A1, A2 = _reflect(x, A1, A2, E)
            k = step
            out.append(ConfigPoint(float(x), float(A1), float(A2)))
    return out


def scalar_orbit_rows(points, params, D: float) -> list:
    """The orbit command's rows, one point at a time."""
    rows = []
    for step, c in enumerate(points):
        D_impl, E_impl = scalar_implied_invariants(c, params)
        rows.append([step, c.x, c.A1, c.A2, c.L(params), D_impl - D, E_impl])
    return rows


def _fnum(v) -> str:
    return "" if v != v else "%.17g" % v


def _csv_line(row) -> str:
    """One CSV line, one field at a time: "%.17g" of a float (NaN empty), str of anything else."""
    return ",".join(_fnum(v) if isinstance(v, float) else str(v) for v in row) + "\n"


def scalar_orbit_csv(points, params, D: float) -> str:
    """The orbit command's CSV, one row and one field at a time."""
    rows = scalar_orbit_rows(points, params, D)
    return "step,x,A1,A2,L,D_resid,E_check\n" + "".join(map(_csv_line, rows))


def scalar_period_scan_csv(E: float, p_list, D_range) -> str:
    """The period-scan command's CSV, one row and one field at a time (the period p by str)."""
    from boltzmann_billiard import find_periodic_locus, period3_residual

    rows = [[E, p, D_root, float(period3_residual(D_root, E))]
            for p in p_list for D_root in find_periodic_locus(E, p, D_range)]
    return "E,p,D_root,period3_residual\n" + "".join(map(_csv_line, rows))


def scalar_csv_rows(vals) -> str:
    """csvtext.csv_rows of a 2-D float array, one "%.17g" per field."""
    return "".join(",".join(map(_fnum, row)) + "\n" for row in vals.tolist())


# ---------------------------------------------------------------------------
# scalar references for the batched level-set sampling
# ---------------------------------------------------------------------------

def scalar_sample_level_set(params, m: int, seed: int = 0) -> list:
    """sample_level_set's angle route, one candidate at a time."""
    from boltzmann_billiard import AngleCoord, DomainError, PoleError, RealLocusClass

    if m < 0:
        raise ValueError(f"sampling needs m >= 0 points (got {m})")
    rng = np.random.default_rng(seed)
    two_comp = params.cls is not RealLocusClass.I
    out = []
    guard = 0
    while len(out) < m:
        guard += 1
        if guard > 100 * m + 1000:
            raise DomainError("sampling failed to find real points (locus nearly degenerate?)")
        theta = float(rng.random())
        eps = int(rng.integers(0, 2)) if two_comp else 0
        try:
            c = scalar_uniformize(AngleCoord(theta, eps), params)
        except PoleError:
            continue
        c = scalar_project_onto_level_set(c, params)
        if not scalar_level_set_residual(c, params) <= 1e-12:
            continue
        out.append(c)
    return out


def scalar_component_curve(params, eps: int = 0, n: int = 257) -> list:
    """component_curve one scalar_uniformize call per angle, skipping the poles."""
    from boltzmann_billiard import AngleCoord, PoleError

    pts = []
    for j in range(n):
        theta = j / (n - 1)
        try:
            pts.append(scalar_uniformize(AngleCoord(theta % 1.0, eps), params))
        except PoleError:
            continue
    return pts


# ---------------------------------------------------------------------------
# the per-point expressions of the kernels before their same-double rewrites:
# numpy's float remainder for the wraps to [0, 1), Python's max (poincare._max)
# for the residual scales, and the reflection j written with sin
# ---------------------------------------------------------------------------

def doubles(values) -> list:
    """Each value as (float.hex, np.signbit), and NaN as one token whatever its sign bit."""
    a = np.asarray(values, dtype=float).ravel()
    return [("nan", None) if v != v else (v.hex(), s)
            for v, s in zip(a.tolist(), np.signbit(a).tolist())]


def same_doubles(got, want) -> bool:
    """doubles(got) == doubles(want) for large arrays: NaN where NaN, and equal bits elsewhere
    (one double has one float.hex and one sign bit)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(got)
    return (got.shape == want.shape and np.array_equal(nan, np.isnan(want))
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


def remainder_wrap(x):
    """x % 1.0 by numpy's float remainder: an fmod, plus 1 where it is negative."""
    return np.asarray(x, dtype=float) % 1.0


def remainder_translated_angles(theta0: float, alpha: float, ks):
    """poincare._translated_angles with each wrap numpy's % 1.0."""
    from boltzmann_billiard.levelset import _two_product

    p, e = _two_product(np.asarray(ks).astype(float), alpha)
    return ((p % 1.0 + theta0) % 1.0 + e) % 1.0


def max_scale_residual_array(x, A1, A2, params):
    """level_set_residual_array with both scales taken by poincare._max, 1 included, and a NaN
    defect read as +inf."""
    from boltzmann_billiard.poincare import _max

    D, E = params.D, params.E
    with np.errstate(all="ignore"):
        a1, a2, e4, de2 = A1 * A1, A2 * A2, 4.0 * E * A2, 2.0 * D * E
        circle = np.abs(a1 + a2 - e4 - 1.0 - de2) / _max(max(1.0, abs(de2)), a1, a2, np.abs(e4))
        w = A2 + D - A1 * x
        q = x * x + 1.0
        wall = np.abs(q - w * w) / _max(1.0, q, w * w)
        return np.where(np.isnan(circle) | np.isnan(wall), np.inf, _max(circle, wall))


def reflect_sin(x, A1, A2, E):
    """levelset._reflect with si = sin and its two subtractions."""
    q = x * x + 1.0
    co = (x * x - 1.0) / q
    si = 2.0 * x / q
    e4 = 4.0 * E * x / q
    return co * A1 - si * A2 + e4, -si * A1 - co * A2 + e4 * x


def sin_walk(x: float, A1: float, A2: float, n: int, D: float, E: float):
    """poincare._walk's lists and pole, one levelset.other_wall_root and reflect_sin a step."""
    from boltzmann_billiard import PoleError
    from boltzmann_billiard.levelset import other_wall_root

    xs, A1s, A2s = [], [], []
    for _ in range(n):
        try:
            x = other_wall_root(x, A1, A2, D)
        except PoleError as exc:
            return xs, A1s, A2s, exc
        A1, A2 = reflect_sin(x, A1, A2, E)
        xs.append(x)
        A1s.append(A1)
        A2s.append(A2)
    return xs, A1s, A2s, None
