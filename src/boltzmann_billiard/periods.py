"""Periodicity: analytic prediction, direct detection, periodic parameter loci.

The collision map is conjugate to a rigid rotation by the rotation number
alpha, so an orbit is periodic exactly when alpha is rational, and then
every orbit of the level set has the same period (the Poncelet property).
On two-component sets of class II+ the map swaps the components, so the
period is additionally even.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BilliardError, DomainError
from .levelset import ConfigPoint, LevelSetParams, RealLocusClass, _columns, derive_params
from .poincare import _sample_xyz, _walk, config_distance_array, map_t_array
from .uniformize import _amplitudes, _lift, _turns, _wrap, rotation_grid, rotation_number

_SCAN_INTERVALS = 400  # steps of the D scan for sign changes in find_periodic_locus
_RETURN_TOL = 1e-8  # config_distance_array below which a start counts as returned
_INTEGRAL_TOL = 1e-9  # distance of p * alpha from an integer below which p is a period
_P_MAX = 60  # longest period the searches look for
_N_STARTS = 100  # sampled starts of poncelet_check
_CHECK_CACHE = 16  # checked level sets kept; a p = 3..8 scan meets a root again within 7 others


@dataclass(frozen=True)
class PeriodReport:
    """Outcome of the analytic and direct period searches."""

    predicted: int | None
    detected: int | None
    alpha: float
    method_agreement: bool
    residual: float


def smallest_period(alpha: float, flips_component: bool) -> int | None:
    """Smallest p <= _P_MAX with p*alpha integral (and p even when required).

    Raises DomainError for an alpha that is not finite.
    """
    if not math.isfinite(alpha):
        raise DomainError(f"smallest_period needs a finite alpha (got {float(alpha)!r})")
    for p in range(1, _P_MAX + 1):
        if flips_component and p % 2 == 1:
            continue
        if abs(p * alpha - round(p * alpha)) < _INTEGRAL_TOL:
            return p
    return None


def predict_period(params: LevelSetParams) -> int | None:
    rot = rotation_number(params)
    return smallest_period(rot.alpha, rot.flips_component)


def detect_period_direct(c0: ConfigPoint, params: LevelSetParams) -> int | None:
    """Smallest p <= _P_MAX with t^p(c0) back at c0 in the bounded metric: _first_returns
    at the single start c0."""
    return _first_returns(*_columns(c0), params)[0][0]


def _first_returns(x0: np.ndarray, A10: np.ndarray, A20: np.ndarray, params: LevelSetParams):
    """The first return of each start (x0, A10, A20) within _P_MAX map steps, all at once.

    The starts step together by map_t_array, and a start has returned at
    the first p where config_distance_array of t^p(c) and c is below
    _RETURN_TOL.  Only the starts still searching take a step, so each
    start takes the steps a search of its own would take, and PoleError
    comes exactly where one of those would raise.  Returns per start the
    period (None if not found) and the distance at that period.
    """
    n = len(x0)
    found: list = [None] * n
    dist = [math.nan] * n
    idx = np.arange(n)  # the starts still searching; x0, A10 and A20 shrink with it
    x, A1, A2 = x0, A10, A20
    for p in range(1, _P_MAX + 1):
        if not idx.size:
            break
        x, A1, A2 = map_t_array(x, A1, A2, params)
        d = config_distance_array(x, A1, A2, x0, A10, A20)
        hit = d < _RETURN_TOL
        if hit.any():  # at a period p, p - 1 of the p steps have no return
            for i, di in zip(idx[hit].tolist(), d[hit].tolist()):
                found[i], dist[i] = p, di
            keep = ~hit
            idx, x0, A10, A20, x, A1, A2 = (a[keep] for a in (idx, x0, A10, A20, x, A1, A2))
    return found, dist


@functools.lru_cache(maxsize=1)
def _starts(key: str, seed: int, params: LevelSetParams) -> np.ndarray:
    """The _N_STARTS starts of poncelet_check: _sample_xyz's read-only rows x, A1, A2.

    The one draw read twice: a winding with no c0 starts at the first of
    them, and in a period scan it runs right after the check on the same
    level set.  So the last draw is kept, keyed as the checks are (key is
    repr(params), the seed an int); an error is not kept.
    """
    return _sample_xyz(params, _N_STARTS, seed)


def poncelet_check(params: LevelSetParams, seed: int = 0) -> PeriodReport:
    """All-or-nothing periodicity over seeded starting points.

    Detects the direct period from _N_STARTS starts, requires unanimity,
    and compares with the analytic prediction.  Disagreement is reported
    in the result, not raised.  The starts are sampled and iterated
    together as arrays (_first_returns, which detect_period_direct runs on
    one start); the draw is kept for the winding that follows (_starts).

    The report is a function of the level set and the seed alone (the
    Poncelet property), so the last _CHECK_CACHE reports are kept for the
    life of the process, keyed on repr(params), exact in every float and
    signed zeros too, and the seed taken through operator.index.  A period
    scan meets every root whose period divides two of its p (6 alpha is an
    integer where 3 alpha is) a second time, and checks it once.  Errors
    are not kept: they are raised again on every call.
    """
    return _poncelet_check(repr(params), operator.index(seed), params)


@functools.lru_cache(maxsize=_CHECK_CACHE)
def _poncelet_check(key: str, seed: int, params: LevelSetParams) -> PeriodReport:
    """poncelet_check computed afresh; key, repr(params), tells apart what params' own
    equality merges (D = 0.0 and -0.0)."""
    rot = rotation_number(params)
    predicted = smallest_period(rot.alpha, rot.flips_component)
    found, dist = _first_returns(*_starts(key, seed, params), params)
    detected = set(found)
    unanimous = detected.pop() if len(detected) == 1 else None
    # with a unanimous period, t^p(c) is the point each start returned at
    residual = max([0.0, *dist]) if unanimous is not None else math.nan
    return PeriodReport(predicted, unanimous, rot.alpha,
                        predicted == unanimous, residual)


def empirical_rotation(params: LevelSetParams, n_steps: int = 10_000,
                       seed: int = 0, c0: ConfigPoint | None = None) -> float:
    """Winding of the angle coordinate along an actual orbit, in [0, 1).

    The map is conjugate to the rotation by alpha, so the lifted theta
    advances by theta_n - theta_0 plus one per step that passes theta = 0
    (where theta decreases), alpha per step on average.  The orbit runs on
    plain floats, the turns are counted on the Jacobi amplitudes of all its
    points, and only its ends are integrated; errors come in the order of a
    point-by-point evaluation.  n_steps is an integer, taken through
    operator.index: a float raises TypeError, and n_steps < 1 raises
    ValueError.  With no c0, the orbit starts at the first of
    poncelet_check's starts for the seed, read from the draw the check
    keeps (_starts) or drawn afresh.

    As in poncelet_check, the last _CHECK_CACHE windings are kept, keyed on
    repr(params), n_steps and the start: repr(c0) where one is given, else
    the seed through operator.index.  Errors are not kept.
    """
    seed = operator.index(seed) if c0 is None else None  # a given c0 leaves the seed unused
    return _empirical_rotation(repr(params), repr(c0), params, operator.index(n_steps), seed, c0)


@functools.lru_cache(maxsize=_CHECK_CACHE)
def _empirical_rotation(key: str, start: str, params: LevelSetParams, n_steps: int,
                        seed: int | None, c0: ConfigPoint | None) -> float:
    """empirical_rotation computed afresh; key and start, repr(params) and repr(c0), tell
    apart what the equality of params and c0 merges (0.0 and -0.0)."""
    if n_steps < 1:
        raise ValueError(f"empirical rotation needs n_steps >= 1 (got {n_steps})")
    if c0 is None:
        c0 = ConfigPoint(*_starts(key, seed, params)[:, 0].tolist())
    xs, A1s, A2s, pole = _walk(c0.x, c0.A1, c0.A2, n_steps, params.D, params.E)
    xyz = np.empty((3, len(xs) + 1))
    xyz[:, 0] = c0.x, c0.A1, c0.A2
    xyz[:, 1:] = xs, A1s, A2s
    # the amplitudes of the points before the pole come first in the scalar order
    sn, cn, *modulus = _amplitudes(*xyz, params)
    if pole is not None:
        raise pole
    # the ends from the same amplitudes, unreduced, so each is on the turns' side of the cut
    theta0, theta_n = _lift(sn[[0, -1]], cn[[0, -1]], *modulus).tolist()
    return ((_turns(sn, cn) + theta_n - theta0) / n_steps) % 1.0


def period3_residual(D, E):
    """Value of the period-three parameter polynomial at (D, E).

    Works on floats and on exact rational inputs alike.  Vanishes exactly
    on the curve of level sets whose orbits close after three bounces.
    """
    return (4 * (D * D - 4) * E * E
            + 4 * D * (D * D - 3) * E
            + D ** 4 - 2 * D * D - 3)


def _illinois(f, a: float, fa: float, b: float, fb: float) -> tuple:
    """Root of f between a and b (either order), where fa = f(a) and fb = f(b) differ in sign.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): b is the latest
    point and a the end of the other sign.  The next point is the secant
    point, or the midpoint where the secant leaves the open bracket; when it
    falls on b's side, a is kept and its secant weight halved.  Stops at a
    zero or NaN of f or at adjacent doubles; returns the end of smaller |f|
    with its f.
    """
    ga = fa  # secant weight of a
    while fa != 0.0 and fb != 0.0:
        m = 0.5 * (a + b)
        if m == a or m == b:
            break  # adjacent doubles
        c = b - fb * (b - a) / (fb - ga)
        if not min(a, b) < c < max(a, b):
            c = m
        fc = f(c)
        if fc != fc:
            break
        if (fc < 0.0) == (fb < 0.0):
            ga *= 0.5
        else:
            a, fa, ga = b, fb, fb
        b, fb = c, fc
    return (a, fa) if abs(fa) <= abs(fb) else (b, fb)


@functools.lru_cache(maxsize=1)
def _scan(E: str, lo: str, hi: str) -> tuple:
    """The D scan of find_periodic_locus: points, classes and alpha, as read-only arrays.

    E and the D range come in float.hex form, so that 0.0 and -0.0 are
    different keys.  The last scan is kept: its callers (period-scan, a
    loop over p at one energy) ask for the same scan for every p in turn.
    """
    E, lo, hi = map(float.fromhex, (E, lo, hi))
    Ds = lo + (hi - lo) * np.arange(_SCAN_INTERVALS + 1, dtype=float) / _SCAN_INTERVALS
    scan = (Ds, *rotation_grid(Ds, E))
    for a in scan:
        a.flags.writeable = False
    return scan


def find_periodic_locus(E: float, p: int, D_range: tuple = (0.0, 2.0)) -> list:
    """Roots of p * alpha(D, E) = 0 mod 1 in D over D_range, for fixed E.

    Scans _SCAN_INTERVALS equal steps of D_range for sign changes of the
    recentred defect (all scan points in one rotation_grid call, kept by
    _scan for the other p at the same E and D_range), refines
    each bracket from its scanned end values by _illinois down to adjacent
    doubles, and keeps the roots with a defect below 1e-8.  Period 1 occurs
    only on the excluded tangent boundary D + 2E = 0, so p = 1 returns []
    and leaves no log record: the library logs nothing, and period-scan
    writes that note.  A high-to-low D_range is scanned from low to high.
    Raises DomainError, for every p, if E, an end of D_range or its width
    times _SCAN_INTERVALS is not finite: the scan's steps are computed from
    that product.  p is an integer, taken through operator.index: a float
    raises TypeError, and p < 1 ValueError.
    """
    lo, hi = map(float, D_range)  # Python floats: a product that overflows warns of nothing
    if not (math.isfinite(E) and math.isfinite((hi - lo) * _SCAN_INTERVALS)):
        raise DomainError(f"E, D_range and its width times the {_SCAN_INTERVALS} scan steps must "
                          f"be finite (got E={float(E)!r}, D_range=({lo!r}, {hi!r}))")
    if hi < lo:  # scanned from low to high, so a root's double is the same either way
        lo, hi = hi, lo
    p = operator.index(p)
    if p < 1:
        raise ValueError("period must be positive")
    if p == 1:
        return []

    def defect(D: float) -> float:
        """The recentred defect of p * alpha at D, NaN where it has no value."""
        try:
            a = rotation_number(derive_params(D, E)).alpha
        except BilliardError:
            return math.nan
        return (p * a + 0.5) % 1.0 - 0.5

    Ds, classes, alpha = _scan(*(float(v).hex() for v in (E, lo, hi)))
    if p % 2 == 1:
        alpha = np.where(classes == RealLocusClass.II_PLUS, math.nan, alpha)
    vals = _wrap(p * alpha + 0.5) - 0.5  # defect() at every grid point
    f0, f1 = vals[:-1], vals[1:]
    with np.errstate(invalid="ignore"):  # a NaN end fails each test, with no warning
        # a sign change that is not two zeros, and not a wrap-around jump of the
        # recentred defect (both ends near 1/2)
        brackets = np.flatnonzero((f0 * f1 <= 0.0) & ~((f0 == 0.0) & (f1 == 0.0))
                                  & ~(np.minimum(np.abs(f0), np.abs(f1)) > 0.45))
    grid, vals = Ds.tolist(), vals.tolist()
    roots = []
    for i in brackets.tolist():
        root, f = _illinois(defect, grid[i], vals[i], grid[i + 1], vals[i + 1])
        if abs(f) < 1e-8 and not any(abs(root - r) < 1e-7 for r in roots):
            roots.append(root)
    return sorted(roots)
