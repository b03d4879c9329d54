"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the production code paths: the complete
and incomplete integrals are done by adaptive quadrature on singularity-free
substitutions, the Jacobi functions by numerically inverting the incomplete
integral, and cross-checks go through scipy.special / mpmath.  Production
modules must never import this file.
"""

from __future__ import annotations

import math
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


def mp_K(m: float) -> float:
    with mpmath.workdps(30):
        return float(mpmath.ellipk(m).real)


def mp_F_phi(phi: float, m: float) -> float:
    with mpmath.workdps(30):
        return float(mpmath.ellipf(phi, m).real)


def mp_seg_case_i(x: float, m: float) -> float:
    """seg_case_i by 30-digit tanh-sinh quadrature, split at s = 0."""
    with mpmath.workdps(30):
        ell2 = -mpmath.mpf(m)
        return float(mpmath.quad(lambda s: 1 / mpmath.sqrt((1 - s * s) * (ell2 + s * s)),
                                 [-1, 0, mpmath.mpf(x)]))


def carlson_rf_ref(x: float, y: float, z: float) -> float:
    return float(special.elliprf(x, y, z))


def _sncndn_real(u: float, m: float):
    """The package's real-axis sn, cn, dn, extended to m = 1 by the tanh limit."""
    from boltzmann_billiard import jacobi_sn_cn_dn

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
    from boltzmann_billiard import DomainError, complete_K, jacobi_sn_cn_dn

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
    from boltzmann_billiard import AngleCoord, ConfigPoint, DomainError, PoleError, RealLocusClass
    from boltzmann_billiard.levelset import wall_abscissa_from_z

    if not params.nondegenerate:
        raise DomainError(f"operation needs a nondegenerate level set (class {params.cls.value})")
    if not isinstance(a, AngleCoord):
        a = AngleCoord(float(a), 0)
    lat = params.lattice
    if params.cls is RealLocusClass.I:
        u = complex(0.0, 4.0 * lat.Kpp * a.theta)
    else:
        u = complex(2.0 * lat.K * a.eps, 2.0 * lat.Kp * a.theta)
    sn, cn, dn = jacobi_sn_cn_dn_complex(u, params.k2)
    if abs(cn) < 1e-8:
        raise PoleError("uniformization pole: cn(u) = 0 (point at infinity of the conic pencil)")
    A1 = 2.0j * params.R * sn / (cn * cn)
    A2 = 2.0 * params.E - params.R + 2.0 * params.R / (cn * cn)
    z = params.C * dn / cn
    if max(abs(A1.imag), abs(A2.imag), abs(z.imag)) > 1e-8 * (1.0 + abs(z)):
        raise DomainError("angle coordinate does not lie on the real locus")
    x = wall_abscissa_from_z(z.real, A1.real, A2.real, params.D)
    return ConfigPoint(x, A1.real, A2.real)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


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
    """empirical_rotation point by point: one map_t and one angle_of per step."""
    from boltzmann_billiard import angle_of, map_t, sample_level_set

    if c0 is None:
        c0 = sample_level_set(params, 1, seed)[0]
    th_prev = angle_of(c0, params).theta
    c = c0
    d0 = None
    total = 0.0
    for _ in range(n_steps):
        c = map_t(c, params)
        th = angle_of(c, params).theta
        d = (th - th_prev) % 1.0
        if d0 is None:
            d0 = d
        elif d - d0 > 0.5:
            d -= 1.0
        elif d0 - d > 0.5:
            d += 1.0
        total += d
        th_prev = th
    return (total / n_steps) % 1.0


def scalar_poncelet_check(params, n_samples: int = 100, p_max: int = 60,
                          tol: float = 1e-8, seed: int = 0):
    """poncelet_check one start at a time, with a separate residual pass.

    The starts come from periods.sample_level_set, so a test that replaces
    it there gives both paths the same starts.
    """
    from boltzmann_billiard import map_t, periods

    rot = periods.rotation_number(params)
    predicted = periods.smallest_period(rot.alpha, rot.flips_component, p_max)
    pts = periods.sample_level_set(params, n_samples, seed)
    detected = {periods.detect_period_direct(c, params, p_max, tol) for c in pts}
    unanimous = detected.pop() if len(detected) == 1 else None
    residual = math.nan
    if unanimous is not None:
        worst = 0.0
        for c in pts:
            cp = c
            for _ in range(unanimous):
                cp = map_t(cp, params)
            worst = max(worst, periods.config_distance(cp, c))
        residual = worst
    return periods.PeriodReport(predicted, unanimous, rot.alpha,
                                predicted == unanimous, residual)


# ---------------------------------------------------------------------------
# scalar references for the columnar orbit path
# ---------------------------------------------------------------------------

class ScalarOrbit(NamedTuple):
    points: tuple
    params: object
    residuals: tuple


def scalar_iterate_orbit(c0, params, n: int, *, renormalize: bool = False,
                         residual_ceiling: float = 1e-6, abort_abscissa: float = 1e12):
    """iterate_orbit one ConfigPoint at a time, checking each step as it is made.

    Raises OrbitAbort carrying a ScalarOrbit prefix.
    """
    from boltzmann_billiard import (DomainError, OrbitAbort, PoleError, level_set_residual,
                                    map_t, project_onto_level_set)

    if not params.nondegenerate:
        raise DomainError(f"orbit iteration needs a nondegenerate level set (class {params.cls.value})")
    pts = [c0]
    res = [level_set_residual(c0, params)]
    for step in range(1, n + 1):
        try:
            c = map_t(pts[-1], params)
        except PoleError as exc:
            raise OrbitAbort(f"step {step}: {exc}", ScalarOrbit(tuple(pts), params, tuple(res)),
                             step) from exc
        if renormalize:
            c = project_onto_level_set(c, params, max_steps=1)
        ok = all(map(math.isfinite, (c.x, c.A1, c.A2))) and abs(c.x) <= abort_abscissa
        r = level_set_residual(c, params) if ok else math.inf
        if not ok or r > residual_ceiling:
            raise OrbitAbort(
                f"step {step}: orbit left the level set (residual {r:.3e})",
                ScalarOrbit(tuple(pts), params, tuple(res)), step)
        pts.append(c)
        res.append(r)
    return ScalarOrbit(tuple(pts), params, tuple(res))


def scalar_orbit_rows(points, params, D: float) -> list:
    """The orbit command's rows, one point at a time."""
    from boltzmann_billiard import implied_invariants

    rows = []
    for step, c in enumerate(points):
        D_impl, E_impl = implied_invariants(c, params)
        rows.append([step, c.x, c.A1, c.A2, c.L(params), D_impl - D, E_impl])
    return rows


def scalar_orbit_csv(points, params, D: float) -> str:
    """The orbit command's CSV, one row and one field at a time."""
    def fnum(v):
        return "" if v != v else "%.17g" % v

    out = ["step,x,A1,A2,L,D_resid,E_check\n"]
    for row in scalar_orbit_rows(points, params, D):
        out.append(",".join(fnum(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# scalar references for the batched level-set sampling
# ---------------------------------------------------------------------------

def scalar_sample_level_set(params, m: int, seed: int = 0) -> list:
    """sample_level_set's angle route, one candidate at a time."""
    from boltzmann_billiard import (AngleCoord, DomainError, PoleError, RealLocusClass,
                                    level_set_residual, project_onto_level_set, uniformize)

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
            c = uniformize(AngleCoord(theta, eps), params)
        except PoleError:
            continue
        c = project_onto_level_set(c, params)
        if level_set_residual(c, params) > 1e-12:
            continue
        out.append(c)
    return out


def scalar_component_curve(params, eps: int = 0, n: int = 257) -> list:
    """component_curve one uniformize call per angle, skipping the poles."""
    from boltzmann_billiard import AngleCoord, PoleError, uniformize

    pts = []
    for j in range(n):
        theta = j / (n - 1)
        try:
            pts.append(uniformize(AngleCoord(theta % 1.0, eps), params))
        except PoleError:
            continue
    return pts
