"""The collision map on a level set: two involutions and their composition.

The map from one bounce to the next factors as t = j o i, where i keeps
the conic and exchanges the two wall intersections, and j keeps the wall
point and reflects the conic.  Both act on configuration points by
rational formulas and preserve the level-set equations exactly.

On a nondegenerate level set t is the translation by the rotation number
in the uniformizing angle, so orbits (iterate_orbit and the orbit
command) are not walked: point k is uniformize_array at theta_0 + k alpha.
iterate_orbit checks the translation law along the way, with one
map_t_array step from each point's predecessor (the one-step law); the
CSV of the orbit command reads that law only to log it, so it asks for
it only under BOLTZMANN_LOG=debug.  The float walk _walk is kept for
empirical_rotation, which measures the winding of the map itself.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .csvtext import _two_product
from .errors import DomainError, OrbitAbort, PoleError
from .levelset import (
    ConfigPoint,
    LevelSetParams,
    RealLocusClass,
    _AT_INFINITY,
    _L,
    _columns,
    _den,
    _reflect,
    _require_nondegenerate,
    _z,
    implied_invariants_array,
    level_set_residual_array,
    other_wall_root,
    project_onto_level_set_array,
)
from .uniformize import _wrap, angle_of, rotation_number, uniformize_array


def involution_i(c: ConfigPoint, params: LevelSetParams) -> ConfigPoint:
    """Other wall intersection of the same conic (second root of the wall equation)."""
    return ConfigPoint(other_wall_root(c.x, c.A1, c.A2, params.D), c.A1, c.A2)


def i_fixed_point(c: ConfigPoint, params: LevelSetParams) -> bool:
    """Whether the wall equation has a double root at this conic.

    Happens exactly on the radial-conic locus A2 = -D/2, where the two
    intersections collide and i fixes the point.
    """
    w = c.A2 + params.D
    disc = c.A1 * c.A1 + w * w - 1.0
    return abs(disc) <= 1e-12 * max(1.0, w * w)


def involution_j(c: ConfigPoint, params: LevelSetParams) -> ConfigPoint:
    """Reflected conic at the same wall point.

    Acts on (A1, A2) as a Euclidean reflection of the eccentricity circle;
    equivalently, the conic of the bounced particle.
    """
    return ConfigPoint(c.x, *_reflect(c.x, c.A1, c.A2, params.E))


def map_t(c: ConfigPoint, params: LevelSetParams) -> ConfigPoint:
    """One collision step, t = j o i: exchange wall intersections, then reflect the conic."""
    return involution_j(involution_i(c, params), params)


def map_t_array(x: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                params: LevelSetParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """map_t at every point (x, A1, A2) of the level set of params.

    other_wall_root's two branches, then the reflection of involution_j.
    Raises PoleError if any point has its second wall intersection at
    infinity.
    """
    with np.errstate(all="ignore"):
        w = A2 + params.D
        den = _den(A1)
        ssum = -2.0 * w * A1 / den
        # den == 0 makes ssum non-finite, so one test covers both of the scalar checks
        if not np.isfinite(ssum).all():
            raise PoleError(_AT_INFINITY)
        far = (x != 0.0) & (np.abs(x) > 0.5 * np.abs(ssum))
        x = np.where(far, (1.0 - w * w) / den / x, ssum - x)
        return (x, *_reflect(x, A1, A2, params.E))


def _chart(x):
    """Bounded chart of the wall abscissa (floats or arrays), so far points compare fairly."""
    return x / (1.0 + abs(x))


def _max(first, *rest):
    """Python's max per element: the first of equal values wins, and a NaN
    after the first argument is skipped."""
    m = first
    for v in rest:
        m = np.where(v > m, v, m)
    return m


def config_distance_array(x, A1, A2, x0, A10, A20) -> np.ndarray:
    """Distance between the points (x, A1, A2) and (x0, A10, A20): the largest of the
    gaps in the bounded chart of x, in A1 and in A2 (Python's max, _max)."""
    with np.errstate(all="ignore"):
        return _max(np.abs(_chart(x) - _chart(x0)), np.abs(A1 - A10), np.abs(A2 - A20))


def orbit_drift_columns(x: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                        params: LevelSetParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ConfigPoint.L and implied_invariants_array at every point (x, A1, A2).

    Returns the arrays L, D_impl and E_impl.  Raises DomainError where
    ConfigPoint.L does (D + 2E <= 0).
    """
    with np.errstate(all="ignore"):
        L = _L(_z(x, A1, A2, params.D), params.D, params.E)
    return (L, *implied_invariants_array(x, A1, A2, params))


_CHECK_BLOCK = 4096  # orbit points computed and checked together
_CURVE_POINTS = 257  # points of a component_curve, the first and last both at theta = 0


@dataclass(frozen=True, eq=False)
class Orbit:
    """A finite orbit with per-point level-set residuals and its one-step law.

    x, A1, A2 and residuals are float arrays over the visited points;
    points gives them as a tuple of ConfigPoint, built on first access.
    one_step_law_max is the largest config_distance_array between
    map_t_array of c[k-1] and c[k] over the steps k, and one_step_law_step
    the first step that reaches it (0.0 and 0 for an orbit with no step).
    """

    x: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    residuals: np.ndarray
    one_step_law_max: float
    one_step_law_step: int

    @cached_property
    def points(self) -> tuple:
        return tuple(map(ConfigPoint, self.x.tolist(), self.A1.tolist(), self.A2.tolist()))


def _walk(x: float, A1: float, A2: float, n: int, D: float, E: float):
    """n collision steps from (x, A1, A2), on plain floats.

    The loop body is other_wall_root followed by _reflect, written out with
    the same float operations in the same order (the step is _reflect's
    formula, with nsi for -sin), so the points are bit for bit those of a
    map_t loop.  Returns the lists x, A1, A2 of the new
    points and the PoleError that stopped the walk early, or None; the
    points before the pole are kept.  Its caller is empirical_rotation:
    orbits come from the translation (_checked_blocks).
    """
    xs, A1s, A2s = [0.0] * n, [0.0] * n, [0.0] * n
    E4 = 4.0 * E
    isfinite = math.isfinite
    for i in range(n):
        w = A2 + D
        # levelset._den written out: a call per step slows the walk (ROADMAP item 8 keeps it)
        den = 1.0 - A1 * A1
        if den == 0.0:
            break
        ssum = -2.0 * w * A1 / den
        if not isfinite(ssum):
            break
        if x != 0.0 and abs(x) > 0.5 * abs(ssum):
            x = (1.0 - w * w) / den / x
        else:
            x = ssum - x
        x2 = x * x
        q = x2 + 1.0
        co = (x2 - 1.0) / q
        nsi = -2.0 * x / q
        e4 = E4 * x / q
        A1, A2 = co * A1 + nsi * A2 + e4, nsi * A1 - co * A2 + e4 * x
        xs[i], A1s[i], A2s[i] = x, A1, A2
    else:
        return xs, A1s, A2s, None
    del xs[i:], A1s[i:], A2s[i:]
    return xs, A1s, A2s, PoleError(_AT_INFINITY)


def _translated_angles(theta0: float, alpha: float, ks: np.ndarray) -> np.ndarray:
    """(theta0 + k alpha) mod 1 at the integers k of ks, to about an ulp of 1.

    k alpha is Dekker's exact product p + e, so the split sum
    ((p mod 1 + theta0) mod 1 + e) mod 1 rounds only its two additions;
    (theta0 + k alpha) % 1 would lose the bits of k alpha below its own ulp.
    Each mod 1 is _wrap, x - floor(x), the double numpy's % 1.0 gives.
    """
    p, e = _two_product(ks.astype(float), alpha)
    return _wrap(_wrap(_wrap(p) + theta0) + e)


def _checked_blocks(c0: ConfigPoint, params: LevelSetParams, n: int,
                    residual_ceiling: float, abort_abscissa: float, with_law: bool = True):
    """The n+1 points of the orbit from c0, from the translation, yielded a block at a time.

    On the level set t is the translation by the rotation number alpha in
    the angle of the uniformize module, so point k is uniformize_array at
    theta_0 + k alpha (_translated_angles), with theta_0 and the component
    those of c0 (angle_of) and the component flipped at each step where t
    swaps them; no map step is taken to make it.  The arguments are checked
    at the call: n is an integer, taken through operator.index (a float
    raises TypeError, a negative one ValueError); a start whose residual is
    not <= residual_ceiling (off the level set, or not finite) has no angle
    to translate and raises ValueError, and the errors of angle_of and rotation_number (such as
    NearDegenerateError) are raised there too.

    Yields (lo, xyz, res, law): the rows x, A1, A2 of points lo, lo+1, ...,
    their residuals, and the one-step law so far, (max, step) of the
    config_distance_array between map_t_array of c[k-1] and c[k] over the
    steps k yielded, or None when with_law is false.  The first block is c0
    alone, which is not checked further; each later block holds up to
    _CHECK_BLOCK points, checked together and, with the law, each stepped
    from its predecessor by map_t_array.  Without the law only the start is
    stepped, once, so the aborts are the same either way.  At the first
    point that fails a check or is a pole of uniformize_array, the points
    before it in its block are yielded and OrbitAbort is raised with that
    step and no orbit.  A start whose own image is at infinity aborts at
    step 1.
    """
    _require_nondegenerate(params)
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"orbit iteration needs n >= 0 steps (got {n})")
    for name, limit in (("residual_ceiling", residual_ceiling), ("abort_abscissa", abort_abscissa)):
        if not limit >= 0.0:
            raise ValueError(f"{name} must be >= 0 (got {limit!r})")
    start = _columns(c0)
    res0 = level_set_residual_array(*start, params)
    if not res0[0] <= residual_ceiling:
        raise ValueError(f"orbit start is off the level set (residual {res0[0]:.3e})")
    a0, rot = angle_of(c0, params), rotation_number(params)

    def blocks():
        # the next step, the point before it, the law so far (None when it is not computed)
        lo, last, law = 1, start, (0.0, 0) if with_law else None
        yield 0, start, res0, law
        while lo <= n:
            ks = np.arange(lo, min(lo + _CHECK_BLOCK, n + 1))
            *xyz, pole = uniformize_array(_translated_angles(a0.theta, rot.alpha, ks),
                                          a0.eps ^ (ks & rot.flips_component), params)
            xyz = np.array(xyz)
            res = level_set_residual_array(*xyz, params)
            with np.errstate(invalid="ignore"):
                ok = np.isfinite(xyz).all(axis=0) & (np.abs(xyz[0]) <= abort_abscissa)
            r = np.where(ok, res, math.inf)  # a non-finite or far point reports residual inf
            bad = ~ok | (r > residual_ceiling)
            k = int(np.argmax(bad)) if bad.any() else len(bad)
            if k and (with_law or lo == 1):
                before = np.concatenate((last, xyz[:, :k - 1]), axis=1) if with_law else start
                try:
                    stepped = map_t_array(*before, params)
                except PoleError as exc:  # the later points are not poles, so this is the start's
                    raise OrbitAbort(f"step 1: {exc}", None, 1) from exc
                if with_law:
                    gap = config_distance_array(*stepped, *xyz[:, :k])
                    # a NaN gap (an off-set start stepped to infinity) never raises the running maximum
                    j = int(np.argmax(np.where(np.isnan(gap), -1.0, gap)))
                    law = (float(gap[j]), lo + j) if gap[j] > law[0] else law
                    del before, stepped, gap  # free the law's temporaries while the block is used
            if k:
                yield lo, xyz[:, :k], res[:k], law
            if k < len(bad):
                why = _AT_INFINITY if pole[k] else f"orbit left the level set (residual {r[k]:.3e})"
                if np.isfinite(xyz[:, k]).all() and not ok[k]:  # a finite point past the abscissa
                    why = f"|x| = {abs(xyz[0, k]):.3e} exceeds abort_abscissa {abort_abscissa!r}"
                raise OrbitAbort(f"step {lo + k}: {why}", None, lo + k)
            lo, last = lo + k, xyz[:, -1:].copy()  # not a view that keeps the block

    return blocks()


def iterate_orbit(c0: ConfigPoint, params: LevelSetParams, n: int, *,
                  residual_ceiling: float = 1e-6, abort_abscissa: float = 1e12) -> Orbit:
    """The orbit of n collision steps from c0, from the translation by the rotation number.

    Returns the n+1 points with residuals and the one-step law.  Point k is
    uniformize_array at theta_0 + k alpha, not k map steps (_checked_blocks),
    so the rounding of the steps does not pile up along the orbit; only
    alpha's own rounding does, k times over.  Raises ValueError if c0 is
    off the level set by more than residual_ceiling, and OrbitAbort
    (carrying the valid prefix) if a point is a pole (A1^2 = 1), stops being
    finite, drifts off the level set beyond residual_ceiling, or |x|
    exceeds abort_abscissa.  The points are computed and checked
    _CHECK_BLOCK at a time, and the abort names the first failing step.
    """
    blocks = _checked_blocks(c0, params, n, residual_ceiling, abort_abscissa)
    xyz = np.empty((3, n + 1))  # x, A1, A2 of the points made so far
    res = np.empty(n + 1)
    law = (0.0, 0)

    def prefix(k: int) -> Orbit:
        return Orbit(xyz[0, :k], xyz[1, :k], xyz[2, :k], res[:k], *law)

    try:
        for lo, block, r, law in blocks:
            xyz[:, lo:lo + len(r)] = block
            res[lo:lo + len(r)] = r
    except OrbitAbort as exc:
        exc.orbit = prefix(exc.step)
        raise
    return prefix(n + 1)


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@lru_cache(maxsize=16)
def _seeded(seed: int) -> tuple:
    """The PCG64 state and increment of an integer seed >= 0, mixed as _pcg64 describes."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(v):
        nonlocal h
        v = (v ^ h) * (h := h * mult & _M32) & _M32
        return v ^ v >> 16

    pool = [hashmix(v) for v in (words + [0, 0, 0])[:4]]
    for src, dst in itertools.product(range(max(4, len(words))), range(4)):
        if src != dst:
            r = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix((pool + words[4:])[src]) & _M32
            pool[dst] = r ^ r >> 16
    h, mult = 0x8B51F9DD, 0x58F38DED  # generate_state's hash
    bits = sum(hashmix(v) << 32 * (i ^ 2) for i, v in enumerate(pool * 2))
    inc = (bits >> 127 | 1) & _M128
    return ((inc + bits) * _PCG_MULT + inc) & _M128, inc


def _pcg64(seed: int) -> tuple:
    """The 64-bit words and the coins of np.random.default_rng(seed), for an int seed >= 0.

    numpy's first default_rng imports numpy.random, and with it hashlib,
    secrets and OpenSSL, at a cost in time and memory per process
    (BENCH_sample_stream.json) for a sample that may need one double.
    numpy 1.x imports numpy.random with numpy, so there this saves nothing.  The
    seed is mixed as SeedSequence mixes it: its 32-bit words, least
    significant first, fill a pool of four, and each pool word,
    then each seed word past the fourth, is hashed into the other pool words.
    The pool, read twice through and hashed word by word, gives eight 32-bit
    words, read as four little-endian 64-bit ones: the PCG64 state's high
    and low halves, then the increment's.  The state steps as PCG64 (XSL-RR
    128/64) does, one word per step.  Generator.random is the top 53 bits
    of the next word, and Generator.integers(0, 2) the next coin: the top bit
    of a 32-bit half-word, low half first, the high half kept for the next
    coin; the coins draw their words from the same iterator.  The mixing is
    kept per seed (_seeded), so a seed drawn from again is not mixed again.
    """
    def stream(s: int, inc: int):
        while True:
            s = (s * _PCG_MULT + inc) & _M128
            x = (s >> 64 ^ s) & _M64
            yield (x | x << 64) >> (s >> 122) & _M64  # x rotated right by the top 6 bits of s

    words = stream(*_seeded(seed))
    return words, (w >> b & 1 for w in words for b in (31, 63))


def _sample_xyz(params: LevelSetParams, m: int, seed: int) -> np.ndarray:
    """sample_level_set's points as the rows x, A1, A2 of a read-only (3, m) array.

    A pure function of the level set, m and the seed.  A degenerate set,
    Empty included, raises the one DomainError of _require_nondegenerate
    before anything else.  m and the seed are integers >= 0, taken through
    operator.index: a negative one raises ValueError and a non-integer one
    TypeError, in every nondegenerate class.  The points are those of
    np.random.default_rng(seed) (_pcg64).  Each block draws its candidates
    in the scalar order (theta, then a fair-coin component on two-component
    sets) and evaluates them together.
    """
    _require_nondegenerate(params)
    m = operator.index(m)
    if m < 0:
        raise ValueError(f"sampling needs m >= 0 points (got {m})")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words, coins = _pcg64(seed)
    limit = 100 * m + 1000  # candidates tried before giving up
    blocks = [np.empty((3, 0))]
    got = tried = 0
    while got < m:
        if tried == limit:
            raise DomainError("sampling failed to find real points (locus nearly degenerate?)")
        k = min(m - got, limit - tried)
        if params.cls is RealLocusClass.I:
            theta, eps = [(w >> 11) * 2.0**-53 for w in itertools.islice(words, k)], 0
        else:
            theta, eps = np.array([((next(words) >> 11) * 2.0**-53, next(coins))
                                   for _ in range(k)]).T
        x, A1, A2, pole = uniformize_array(theta, eps, params)
        xyz = np.array(project_onto_level_set_array(x, A1, A2, params))
        blocks.append(xyz[:, ~pole & (level_set_residual_array(*xyz, params) <= 1e-12)])
        got += blocks[-1].shape[1]
        tried += k
    xyz = np.concatenate(blocks, axis=1)
    xyz.flags.writeable = False
    return xyz


def sample_level_set(params: LevelSetParams, m: int, seed: int = 0) -> list:
    """Draw m points of the real locus, deterministically for a fixed seed.

    m is an integer >= 0 and the seed an integer >= 0: a negative one
    raises ValueError, a float, None or a numpy Generator TypeError.  The
    draws are those of np.random.default_rng(seed), made in Python without
    importing numpy.random.

    The points are uniform in the uniformizing angle theta, with the
    component chosen by a fair coin on two-component sets.  A candidate is
    dropped where the wall abscissa is at infinity or where its projection
    onto the level set leaves a residual above 1e-12; after 100 m + 1000
    candidates the sampling gives up with DomainError.

    The candidates are evaluated in blocks, as many at a time as points are
    still missing; the draws do not depend on the outcomes, so the points
    are those of a one-at-a-time loop, and the first m points of a draw of
    M >= m are those of a draw of m when that draw does not give up.
    Nothing is kept between calls.
    """
    return list(map(ConfigPoint, *_sample_xyz(params, m, seed).tolist()))


def component_curve(params: LevelSetParams, eps: int = 0) -> list:
    """Closed polyline of one component, _CURVE_POINTS points swept uniformly in theta.

    Points where the wall abscissa passes through infinity are skipped.
    """
    n = _CURVE_POINTS
    theta = [j / (n - 1) % 1.0 for j in range(n)]
    x, A1, A2, pole = uniformize_array(theta, eps, params)
    return list(map(ConfigPoint, *(v[~pole].tolist() for v in (x, A1, A2))))
