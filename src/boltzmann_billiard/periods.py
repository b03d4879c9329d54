"""Periodicity: analytic prediction, direct detection, periodic parameter loci.

The collision map is conjugate to a rigid rotation by the rotation number
alpha, so an orbit is periodic exactly when alpha is rational, and then
every orbit of the level set has the same period (the Poncelet property).
On two-component sets of class II+ the map swaps the components, so the
period is additionally even.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BilliardError
from .grid import rotation_grid
from .levelset import ConfigPoint, LevelSetParams, RealLocusClass, derive_params
from .poincare import map_t, sample_level_set
from .uniformize import angle_of, rotation_number

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PeriodReport:
    """Outcome of the analytic and direct period searches."""

    predicted: int | None
    detected: int | None
    alpha: float
    method_agreement: bool
    residual: float


def _chart(x: float) -> float:
    """Bounded chart for the wall abscissa, so points near infinity compare fairly."""
    return x / (1.0 + abs(x))


def config_distance(a: ConfigPoint, b: ConfigPoint) -> float:
    return max(abs(_chart(a.x) - _chart(b.x)), abs(a.A1 - b.A1), abs(a.A2 - b.A2))


def _dist_to_int(x: float) -> float:
    return abs(x - round(x))


def smallest_period(alpha: float, flips_component: bool,
                    p_max: int = 60, tol: float = 1e-9) -> int | None:
    """Smallest p <= p_max with p*alpha integral (and p even when required)."""
    for p in range(1, p_max + 1):
        if flips_component and p % 2 == 1:
            continue
        if _dist_to_int(p * alpha) < tol:
            return p
    return None


def predict_period(params: LevelSetParams, p_max: int = 60, tol: float = 1e-9) -> int | None:
    rot = rotation_number(params)
    return smallest_period(rot.alpha, rot.flips_component, p_max, tol)


def detect_period_direct(c0: ConfigPoint, params: LevelSetParams,
                         p_max: int = 60, tol: float = 1e-8) -> int | None:
    """Smallest p <= p_max with t^p(c0) back at c0 in the bounded metric."""
    c = c0
    for p in range(1, p_max + 1):
        c = map_t(c, params)
        if config_distance(c, c0) < tol:
            return p
    return None


def poncelet_check(params: LevelSetParams, n_samples: int = 100,
                   p_max: int = 60, tol: float = 1e-8, seed: int = 0) -> PeriodReport:
    """All-or-nothing periodicity over seeded starting points.

    Detects the direct period from n_samples starts, requires unanimity,
    and compares with the analytic prediction.  Disagreement is reported
    in the result, not raised.
    """
    rot = rotation_number(params)
    predicted = smallest_period(rot.alpha, rot.flips_component, p_max)
    pts = sample_level_set(params, n_samples, seed)
    detected = {detect_period_direct(c, params, p_max, tol) for c in pts}
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
    return PeriodReport(predicted, unanimous, rot.alpha,
                        predicted == unanimous, residual)


def empirical_rotation(params: LevelSetParams, n_steps: int = 10_000,
                       seed: int = 0, c0: ConfigPoint | None = None) -> float:
    """Winding of the angle coordinate along an actual orbit, in [0, 1).

    The map is conjugate to the rotation by alpha, so each step advances
    theta by alpha mod 1; steps are unwrapped around the first increment
    and averaged to suppress inversion noise.
    """
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


def period3_residual(D, E):
    """Value of the period-three parameter polynomial at (D, E).

    Works on floats and on exact rational inputs alike.  Vanishes exactly
    on the curve of level sets whose orbits close after three bounces.
    """
    return (4 * (D * D - 4) * E * E
            + 4 * D * (D * D - 3) * E
            + D ** 4 - 2 * D * D - 3)


def find_periodic_locus(E: float, p: int, D_range: tuple = (0.0, 2.0),
                        tol: float = 1e-10, n_grid: int = 400) -> list:
    """Roots of p * alpha(D, E) = 0 mod 1 in D over D_range, for fixed E.

    Scans a grid for sign changes of the recentred defect (all grid points
    in one rotation_grid call), bisects, then polishes with a few Newton
    steps on a finite-difference derivative.
    Period 1 occurs only on the excluded tangent boundary D = -2E and is
    reported (logged) rather than returned.
    """
    if p < 1:
        raise ValueError("period must be positive")
    if p == 1:
        log.info("period 1 only occurs on the tangent boundary D + 2E = 0; nothing to scan")
        return []

    def defect(D: float) -> float | None:
        params = derive_params(D, E)
        if not params.nondegenerate:
            return None
        if params.cls is RealLocusClass.II_PLUS and p % 2 == 1:
            return None
        try:
            a = rotation_number(params).alpha
        except BilliardError:
            return None
        v = p * a
        return (v + 0.5) % 1.0 - 0.5

    lo, hi = D_range
    Ds = lo + (hi - lo) * np.arange(n_grid + 1, dtype=float) / n_grid
    classes, alpha = rotation_grid(Ds, E)
    if p % 2 == 1:
        alpha[classes == RealLocusClass.II_PLUS] = math.nan
    grid = Ds.tolist()
    # defect() at every grid point, None where it has no value
    vals = [None if f != f else f for f in ((p * alpha + 0.5) % 1.0 - 0.5).tolist()]
    roots = []
    for (D0, f0), (D1, f1) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
        if f0 is None or f1 is None or f0 == 0.0 and f1 == 0.0:
            continue
        if f0 * f1 > 0.0:
            continue
        # drop wrap-around jumps of the recentred defect (both ends near 1/2)
        if min(abs(f0), abs(f1)) > 0.45:
            continue
        a, b, fa = D0, D1, f0
        for _ in range(60):
            mid = 0.5 * (a + b)
            fm = defect(mid)
            if fm is None:
                break
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        root = 0.5 * (a + b)
        h = 1e-6
        for _ in range(3):
            f = defect(root)
            fp = defect(root + h)
            fm = defect(root - h)
            if None in (f, fp, fm) or fp == fm:
                break
            step = f / ((fp - fm) / (2.0 * h))
            if not math.isfinite(step) or abs(step) > (hi - lo):
                break
            root -= step
        f = defect(root)
        if f is not None and abs(f) < max(tol * 100.0, 1e-8):
            if not any(abs(root - r) < 1e-7 for r in roots):
                roots.append(root)
    return sorted(roots)
