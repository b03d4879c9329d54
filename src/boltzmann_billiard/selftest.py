"""Built-in consistency checks, runnable without the test suite installed.

Each check exercises a closed-form identity or an exactly known fixture,
so the suite needs no external oracle and is deterministic.  The checks
call the kernels the commands run, over the arguments the commands pass:
the Jacobi kernel at complements mc = 1 - m down to the modulus floor,
the uniformization and the period check as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import _complete_K, _sncndn_array, complete_K, complete_Kp, legendre_F_phi
from .errors import BilliardError
from .kepler import conserved_quantities, phase_from_config
from .levelset import RealLocusClass, derive_params, level_set_residual, level_set_residual_array
from .periods import empirical_rotation, poncelet_check, predict_period
from .poincare import involution_i, involution_j, iterate_orbit, sample_level_set
from .uniformize import rotation_grid, rotation_number, uniformize_array


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, worst: float, tol: float) -> CheckResult:
    return CheckResult(name, worst <= tol, f"worst residual {worst:.3e} (tol {tol:.1e})")


def check_involutions() -> CheckResult:
    """i and j square to the identity and their images stay on the level set."""
    worst = 0.0
    for D, E in ((1.5, -0.2), (2.5, -0.1), (-2.5, 1.5), (0.3, 0.4)):
        params = derive_params(D, E)
        for c in sample_level_set(params, 200, seed=7):
            for f in (involution_i, involution_j):
                fc = f(c, params)
                ffc = f(fc, params)
                worst = max(worst,
                            abs(ffc.x - c.x), abs(ffc.A1 - c.A1), abs(ffc.A2 - c.A2),
                            level_set_residual(fc, params))
    return _check("involutions", worst, 1e-9)


def check_conservation() -> CheckResult:
    """E and D survive long orbits of the collision map."""
    worst = 0.0
    for D, E in ((1.5, -0.2), (2.5, -0.1)):
        params = derive_params(D, E)
        c0 = sample_level_set(params, 1, seed=3)[0]
        orbit = iterate_orbit(c0, params, 500)
        for c in orbit.points:
            s = phase_from_config(c, params)
            q = conserved_quantities(s)
            worst = max(worst, abs(q.E - E), abs(q.D - D))
    return _check("conservation", worst, 1e-8)


def check_special_functions() -> CheckResult:
    """Pythagorean identities of sn, cn, dn as the commands call them, and F(pi/2 | m) = K(m).

    _sncndn_array takes the complement mc = 1 - m, and class I sets next to
    |D| = 2 pass it down to the modulus floor, so mc runs from 1 to 1e-12.
    """
    worst = 0.0
    n = 400
    for i in range(n):
        mc = 10.0 ** (-12.0 * i / (n - 1))
        s, c, d = _sncndn_array((np.arange(7) / 6.0 - 0.5) * 3.8 * _complete_K(mc), mc)
        worst = max(worst, float(np.abs(s * s + c * c - 1.0).max()),
                    float(np.abs(d * d + (1.0 - mc) * s * s - 1.0).max()))
        m = -3.0 + 3.9 * i / (n - 1)  # spans negative and 0 < m < 0.9
        worst = max(worst, abs(legendre_F_phi(math.pi / 2.0, m) - complete_K(m)))
    worst = max(worst, abs(complete_Kp(0.5) - complete_K(0.5)))
    return _check("special-functions", worst, 1e-11)


def check_classification() -> CheckResult:
    fixtures = (
        ((1.5, -0.2), RealLocusClass.I),
        ((2.5, -0.1), RealLocusClass.II_PLUS),
        ((-2.5, 1.5), RealLocusClass.II_MINUS),
        ((1.0, -0.5), RealLocusClass.DEGENERATE_TANGENT),
        ((2.0, -0.3), RealLocusClass.NODAL_D),
        ((1.5, -2.0), RealLocusClass.NEGATIVE_SIDE),
    )
    bad = [f"({D},{E})->{derive_params(D, E).cls.value}"
           for (D, E), cls in fixtures if derive_params(D, E).cls is not cls]
    return CheckResult("classification", not bad,
                       "all fixtures classified" if not bad else "; ".join(bad))


def check_rotation_conjugacy() -> CheckResult:
    """Analytic rotation number matches the empirical winding of real orbits."""
    worst = 0.0
    for D, E in ((1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)):
        params = derive_params(D, E)
        alpha = rotation_number(params).alpha
        emp = empirical_rotation(params, n_steps=2000, seed=1)
        d = abs(alpha - emp)
        worst = max(worst, min(d, 1.0 - d))
    return _check("rotation-conjugacy", worst, 1e-12)


def check_period3() -> CheckResult:
    """poncelet_check finds every start closing after three bounces at (7/4, -5/24).

    The fixture is the pair of doubles nearest the rational point, where
    period3_residual is exactly 0 in Fraction arithmetic; the tests pin that
    identity, so the check needs no exact arithmetic of its own.
    """
    params = derive_params(7 / 4, -5 / 24)
    if predict_period(params) != 3:
        return CheckResult("period-3", False, "predicted period is not 3")
    report = poncelet_check(params, seed=11)
    if not report.predicted == report.detected == 3:
        return CheckResult("period-3", False, f"poncelet_check predicted {report.predicted}, "
                                              f"detected {report.detected}")
    return _check("period-3", report.residual, 1e-8)


def check_uniformize_roundtrip() -> CheckResult:
    """theta -> point -> residual stays pinned to the level set, at 40 angles off the poles."""
    worst, points = 0.0, 0
    theta = (np.arange(40) + 0.5) / 40.0
    for D, E in ((1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)):
        params = derive_params(D, E)
        x, A1, A2, pole = uniformize_array(theta, 0, params)
        on = ~pole
        points += int(on.sum())
        worst = max(worst, float(level_set_residual_array(x, A1, A2, params)[on].max(initial=0.0)))
    if not points:
        return CheckResult("uniformize", False, "no angle gave a point")
    return _check("uniformize", worst, 1e-9)


def check_grid_matches_scalar() -> CheckResult:
    """rotation_grid gives each cell the scalar class and alpha, bit for bit."""
    n = 12
    Ds = [-3.0 + 6.0 * i / (n - 1) for i in range(n)]
    Es = [-0.6 + 2.1 * j / (n - 1) for j in range(n)]
    classes, alphas = rotation_grid(np.array(Ds)[:, None], np.array(Es))
    bad = both = 0
    for D, cls_row, alpha_row in zip(Ds, classes, alphas.tolist()):
        for E, cls, alpha in zip(Es, cls_row, alpha_row):
            params = derive_params(D, E)
            try:
                want = rotation_number(params).alpha
            except BilliardError:
                want = math.nan
            bad += cls is not params.cls or repr(alpha) != repr(want)
            both += not (math.isnan(alpha) or math.isnan(want))
    if not both:
        return CheckResult("grid-matches-scalar", False,
                           f"no cell of {n * n} has an alpha on both sides")
    return CheckResult("grid-matches-scalar", bad == 0, f"{bad} of {n * n} cells differ")


ALL_CHECKS = (
    check_special_functions,
    check_classification,
    check_involutions,
    check_conservation,
    check_uniformize_roundtrip,
    check_rotation_conjugacy,
    check_period3,
    check_grid_matches_scalar,
)


def run_selftest() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
