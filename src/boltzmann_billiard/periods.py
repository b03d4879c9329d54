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
from .grid import config_distance_array, map_t_array, rotation_grid, theta_array
from .levelset import ConfigPoint, LevelSetParams, RealLocusClass, derive_params
from .poincare import _walk, map_t, sample_level_set
from .uniformize import rotation_number

log = logging.getLogger(__name__)

_SCAN_INTERVALS = 400  # steps of the D scan for sign changes in find_periodic_locus


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


def _first_returns(pts: list, params: LevelSetParams, p_max: int, tol: float):
    """detect_period_direct for all starts at once, with the distance at the return.

    Only the starts still searching take a step, so each start takes the
    steps its scalar search takes, and PoleError comes exactly where one of
    those would raise.  Returns per start the period (None if not found)
    and config_distance(t^p(c), c) at that period.
    """
    x0, A10, A20 = np.array([(c.x, c.A1, c.A2) for c in pts], dtype=float).reshape(-1, 3).T
    found: list = [None] * len(pts)
    dist = [math.nan] * len(pts)
    idx = np.arange(len(pts))
    x, A1, A2 = x0, A10, A20
    for p in range(1, p_max + 1):
        if not idx.size:
            break
        x, A1, A2 = map_t_array(x, A1, A2, params)
        d = config_distance_array(x, A1, A2, x0[idx], A10[idx], A20[idx])
        hit = d < tol
        for i, di in zip(idx[hit].tolist(), d[hit].tolist()):
            found[i], dist[i] = p, di
        idx, x, A1, A2 = idx[~hit], x[~hit], A1[~hit], A2[~hit]
    return found, dist


def poncelet_check(params: LevelSetParams, n_samples: int = 100,
                   p_max: int = 60, tol: float = 1e-8, seed: int = 0) -> PeriodReport:
    """All-or-nothing periodicity over seeded starting points.

    Detects the direct period from n_samples starts, requires unanimity,
    and compares with the analytic prediction.  Disagreement is reported
    in the result, not raised.  The starts are iterated together as arrays,
    with the result of detect_period_direct on each.
    """
    rot = rotation_number(params)
    predicted = smallest_period(rot.alpha, rot.flips_component, p_max)
    found, dist = _first_returns(sample_level_set(params, n_samples, seed), params, p_max, tol)
    detected = set(found)
    unanimous = detected.pop() if len(detected) == 1 else None
    # with a unanimous period, t^p(c) is the point each start returned at
    residual = max([0.0, *dist]) if unanimous is not None else math.nan
    return PeriodReport(predicted, unanimous, rot.alpha,
                        predicted == unanimous, residual)


def empirical_rotation(params: LevelSetParams, n_steps: int = 10_000,
                       seed: int = 0, c0: ConfigPoint | None = None) -> float:
    """Winding of the angle coordinate along an actual orbit, in [0, 1).

    The map is conjugate to the rotation by alpha, so each step advances
    theta by alpha mod 1; steps are unwrapped around the first increment
    and averaged to suppress inversion noise.  The orbit is iterated on
    plain floats, and its angles are computed in one batched call; errors are
    raised in the order a point-by-point evaluation would meet them.
    Raises ValueError if n_steps < 1.
    """
    if n_steps < 1:
        raise ValueError(f"empirical rotation needs n_steps >= 1 (got {n_steps})")
    if c0 is None:
        c0 = sample_level_set(params, 1, seed)[0]
    xs, A1s, A2s, pole = _walk(c0.x, c0.A1, c0.A2, n_steps, params.D, params.E)
    # the angles of the points before the pole come first in the scalar order
    theta = theta_array(np.array([c0.x, *xs]), np.array([c0.A1, *A1s]), np.array([c0.A2, *A2s]),
                        params)
    if pole is not None:
        raise pole
    d = np.mod(np.diff(theta), 1.0)
    d0 = d[:1]
    d = np.where(d - d0 > 0.5, d - 1.0, np.where(d0 - d > 0.5, d + 1.0, d))
    total = 0.0
    for v in d.tolist():  # summed left to right, as the increments arise
        total += v
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
                        tol: float = 1e-10) -> list:
    """Roots of p * alpha(D, E) = 0 mod 1 in D over D_range, for fixed E.

    Scans _SCAN_INTERVALS equal steps of D_range for sign changes of the
    recentred defect (all scan points in one rotation_grid call), bisects,
    then polishes with a few Newton steps on a finite-difference
    derivative.  Period 1 occurs only on the excluded tangent boundary
    D = -2E and is reported (logged) rather than returned.
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
    Ds = lo + (hi - lo) * np.arange(_SCAN_INTERVALS + 1, dtype=float) / _SCAN_INTERVALS
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
            if mid == a or mid == b:
                break  # adjacent doubles: further halving leaves the bracket as it is
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
