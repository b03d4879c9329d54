"""The two involutions, their composition t, and orbit iteration."""

import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import oracles
from oracles import config_distance
from boltzmann_billiard import periods, poincare
from boltzmann_billiard import (
    ConfigPoint,
    DomainError,
    OrbitAbort,
    PhaseState,
    PoleError,
    RealLocusClass,
    conserved_quantities,
    derive_params,
    empirical_rotation,
    i_fixed_point,
    implied_invariants,
    involution_i,
    involution_j,
    iterate_orbit,
    level_set_residual,
    map_t,
    phase_from_config,
    poncelet_check,
    reflect_at_wall,
    component_curve,
    sample_level_set,
)


ALL_CLASS_FIXTURES = [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)]


@pytest.mark.parametrize("D,E", ALL_CLASS_FIXTURES)
def test_involutions_are_involutions(D, E):
    params = derive_params(D, E)
    for c in sample_level_set(params, 40, seed=1):
        cii = involution_i(involution_i(c, params), params)
        cjj = involution_j(involution_j(c, params), params)
        assert config_distance(cii, c) < 1e-9
        assert config_distance(cjj, c) < 1e-9


@pytest.mark.parametrize("D,E", ALL_CLASS_FIXTURES)
def test_images_stay_on_level_set(D, E):
    params = derive_params(D, E)
    for c in sample_level_set(params, 25, seed=2):
        for image in (involution_i(c, params), involution_j(c, params),
                      map_t(c, params)):
            assert level_set_residual(image, params) < 1e-9


def test_i_keeps_conic_swaps_root(params_i):
    for c in sample_level_set(params_i, 10, seed=3):
        ci = involution_i(c, params_i)
        assert ci.A1 == c.A1 and ci.A2 == c.A2
        assert ci.x != pytest.approx(c.x, abs=1e-6) or abs(c.z(params_i)) < 1e-6


def test_i_symmetric_conic(params_i):
    # A1 = 0: the two wall roots are +/- x
    A2 = 2.0 * params_i.E + params_i.R
    x = math.sqrt((A2 + params_i.D) ** 2 - 1.0)
    c = ConfigPoint(x, 0.0, A2)
    ci = involution_i(c, params_i)
    assert ci.x == pytest.approx(-x, abs=1e-12)


def test_i_fixed_locus(params_i):
    # fixed points of i sit at zero angular momentum, A2 = -D/2
    p = params_i
    A2 = -p.D / 2.0
    A1 = math.sqrt(p.R ** 2 - (A2 - 2.0 * p.E) ** 2)
    x = -A1 * (A2 + p.D) / (1.0 - A1 * A1)  # double root of the wall equation
    c = ConfigPoint(x, A1, A2)
    assert level_set_residual(c, p) < 1e-12
    assert c.z(p) == pytest.approx(0.0, abs=1e-12)
    assert i_fixed_point(c, p)
    assert config_distance(involution_i(c, p), c) < 1e-12
    # a generic point is not fixed
    g = sample_level_set(p, 1, seed=4)[0]
    assert not i_fixed_point(g, p)


def test_j_flips_a1_at_origin(params_i):
    # x = 0 on the wall: the reflected conic is the mirror image
    p = params_i
    # find A2 with a conic through (0, 1): wall equation gives (A2 + D)^2 = 1
    A2 = 1.0 - p.D
    disc = p.R ** 2 - (A2 - 2.0 * p.E) ** 2
    if disc < 0.0:
        pytest.skip("no circle point over x = 0 at this (D, E)")
    A1 = math.sqrt(disc)
    c = ConfigPoint(0.0, A1, A2)
    cj = involution_j(c, p)
    assert cj.x == pytest.approx(0.0, abs=1e-12)
    assert cj.A1 == pytest.approx(-A1, abs=1e-12)
    assert cj.A2 == pytest.approx(A2, abs=1e-12)


def test_j_fixed_locus(params_ii_plus):
    # fixed conics of j touch the circle at A2 = 2E / (1 +- R)
    p = params_ii_plus
    for sgn in (1.0, -1.0):
        A2 = 2.0 * p.E / (1.0 + sgn * p.R)
        disc = p.R ** 2 - (A2 - 2.0 * p.E) ** 2
        if disc < 0.0:
            continue
        hit = False
        for A1 in (math.sqrt(disc), -math.sqrt(disc)):
            w = A2 + p.D
            root_disc = A1 * A1 + w * w - 1.0
            if root_disc < 0.0:
                continue
            for z in (math.sqrt(root_disc), -math.sqrt(root_disc)):
                x = (z - A1 * w) / (1.0 - A1 * A1)
                c = ConfigPoint(x, A1, A2)
                if level_set_residual(c, p) > 1e-9:
                    continue
                cj = involution_j(c, p)
                if config_distance(cj, c) < 1e-9:
                    hit = True
        assert hit, f"no j-fixed point found on the A2 = 2E/(1{'+' if sgn > 0 else '-'}R) conic"


@pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1)])
def test_j_matches_phase_route(D, E):
    # j computed algebraically must agree with the physical route:
    # reconstruct the incoming state, reflect it off the wall, read off the
    # new conic constants
    params = derive_params(D, E)
    for c in sample_level_set(params, 25, seed=5):
        out = phase_from_config(c, params)
        incoming = PhaseState(out.x1, out.x2, -out.p1, -out.p2)  # the time reverse
        q = conserved_quantities(reflect_at_wall(incoming))
        cj = involution_j(c, params)
        assert cj.A1 == pytest.approx(q.A1, abs=1e-9)
        assert cj.A2 == pytest.approx(q.A2, abs=1e-9)
        assert cj.x == pytest.approx(c.x, abs=1e-12)


@pytest.mark.parametrize("D,E", ALL_CLASS_FIXTURES)
def test_t_is_j_after_i(D, E):
    params = derive_params(D, E)
    for c in sample_level_set(params, 20, seed=6):
        direct = map_t(c, params)
        composed = involution_j(involution_i(c, params), params)
        assert config_distance(direct, composed) == 0.0


@pytest.mark.parametrize("D,E", ALL_CLASS_FIXTURES)
def test_t_conserves_invariants(D, E):
    params = derive_params(D, E)
    c = sample_level_set(params, 1, seed=7)[0]
    for _ in range(200):
        c = map_t(c, params)
        D_impl, E_impl = implied_invariants(c, params)
        assert abs(D_impl - D) < 1e-8
        assert abs(E_impl - E) < 1e-8


@given(st.floats(-4.0, 4.0), st.floats(-2.0, 2.0), st.integers(0, 2 ** 31))
def test_involution_property_random_sets(D, E, seed):
    params = derive_params(D, E)
    assume(params.nondegenerate)
    assume(min(abs(params.s0) - 1.0, abs(params.D * params.D - 4.0)) > 1e-3)
    c = sample_level_set(params, 1, seed=seed)[0]
    assert config_distance(involution_i(involution_i(c, params), params), c) < 1e-8
    assert config_distance(involution_j(involution_j(c, params), params), c) < 1e-8


class TestOrbit:
    def test_zero_steps(self, params_i):
        c0 = sample_level_set(params_i, 1, seed=8)[0]
        orbit = iterate_orbit(c0, params_i, 0)
        assert orbit.points == (c0,)
        assert len(orbit.residuals) == 1

    def test_period3_recurrence(self, params_period3):
        c0 = sample_level_set(params_period3, 1, seed=9)[0]
        orbit = iterate_orbit(c0, params_period3, 6)
        pts = orbit.points
        assert config_distance(pts[3], pts[0]) < 1e-7
        assert config_distance(pts[6], pts[0]) < 1e-7
        # and the intermediate points are genuinely distinct
        assert config_distance(pts[1], pts[0]) > 1e-3
        assert config_distance(pts[2], pts[0]) > 1e-3

    def test_generic_orbit_not_periodic(self, params_i):
        c0 = sample_level_set(params_i, 1, seed=10)[0]
        pts = iterate_orbit(c0, params_i, 6).points
        for k in range(1, 7):
            assert config_distance(pts[k], pts[0]) > 1e-4

    def test_residuals_recorded(self, params_ii_plus):
        c0 = sample_level_set(params_ii_plus, 1, seed=11)[0]
        orbit = iterate_orbit(c0, params_ii_plus, 50)
        assert len(orbit.residuals) == 51
        assert max(orbit.residuals) < 1e-9

    def test_abort_carries_prefix(self):
        # positive-energy one-oval set: orbits wander to huge abscissae, so a
        # small ceiling must abort and hand back the valid prefix
        params = derive_params(0.3, 0.4)
        c0 = sample_level_set(params, 1, seed=1)[0]
        with pytest.raises(OrbitAbort) as exc_info:
            iterate_orbit(c0, params, 500, abort_abscissa=50.0)
        abort = exc_info.value
        assert abort.step >= 1
        assert len(abort.orbit.points) == abort.step
        assert all(abs(c.x) <= 50.0 for c in abort.orbit.points)

    def test_degenerate_class_rejected(self):
        params = derive_params(1.0, -0.5)
        with pytest.raises(DomainError, match=r"^operation needs a nondegenerate level set \(class DegenerateTangent\)$"):
            iterate_orbit(ConfigPoint(0.0, 0.1, 0.2), params, 3)

    def test_negative_steps_raise(self, params_i):
        c0 = sample_level_set(params_i, 1, seed=8)[0]
        with pytest.raises(ValueError, match="n >= 0"):
            iterate_orbit(c0, params_i, -2)

    def test_steps_through_index(self, params_i):
        c0 = sample_level_set(params_i, 1, seed=8)[0]
        got, want = iterate_orbit(c0, params_i, np.int64(3)), iterate_orbit(c0, params_i, 3)
        assert got.points == want.points and got.residuals.tolist() == want.residuals.tolist()
        assert got.one_step_law_max == want.one_step_law_max
        assert got.one_step_law_step == want.one_step_law_step
        with pytest.raises(TypeError):  # at the call, not when the first block is made
            poincare._checked_blocks(c0, params_i, 3.0, 1e-6, 1e12)

    @pytest.mark.parametrize("keyword", ["residual_ceiling", "abort_abscissa"])
    @pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf])
    def test_bad_threshold_raises(self, params_i, keyword, value):
        # nan used to switch a check off or abort at step 1, a negative value to abort
        c0 = sample_level_set(params_i, 1, seed=8)[0]
        limits = {"residual_ceiling": 1e-6, "abort_abscissa": 1e12, keyword: value}
        with pytest.raises(ValueError, match=f"{keyword} must be >= 0 \\(got {value!r}\\)"):
            iterate_orbit(c0, params_i, 3, **limits)
        with pytest.raises(ValueError, match=keyword):
            poincare._checked_blocks(c0, params_i, 3, **limits)  # at the call, before any block

    def test_threshold_bounds_accepted(self, params_i):
        c0 = sample_level_set(params_i, 1, seed=8)[0]
        assert len(iterate_orbit(c0, params_i, 3, residual_ceiling=math.inf,
                                 abort_abscissa=math.inf).residuals) == 4
        # 0 is a valid, if strict, threshold; the start must meet it, so take one of residual 0
        orbit = iterate_orbit(c0, params_i, 200)
        c0 = orbit.points[orbit.residuals.tolist().index(0.0)]
        with pytest.raises(OrbitAbort):
            iterate_orbit(c0, params_i, 3, residual_ceiling=0.0, abort_abscissa=0.0)


def orbit_bits(orbit):
    """Points, residuals and one-step law of an orbit, floats as hex strings (NaN-safe)."""
    return ([tuple(v.hex() for v in (c.x, c.A1, c.A2)) for c in orbit.points],
            [r.hex() for r in orbit.residuals],
            orbit.one_step_law_max.hex(), orbit.one_step_law_step)


def orbit_outcome(fn, *args, **kwargs):
    """The orbit's bits; the abort's type, message, step and prefix bits; or a refusal's
    type and message."""
    try:
        return orbit_bits(fn(*args, **kwargs))
    except OrbitAbort as exc:
        return type(exc), str(exc), exc.step, orbit_bits(exc.orbit)
    except (ValueError, DomainError) as exc:
        return type(exc), str(exc)


def assert_matches_scalar(c0, params, n, **kwargs):
    got = orbit_outcome(iterate_orbit, c0, params, n, **kwargs)
    assert got == orbit_outcome(oracles.scalar_translated_orbit, c0, params, n, **kwargs)
    return got


def residual_records(params, seed, n):
    """Steps whose residual exceeds that of every earlier step past the start."""
    c0 = sample_level_set(params, 1, seed)[0]
    res = oracles.scalar_translated_orbit(c0, params, n, residual_ceiling=1.0).residuals
    records, top = [], -1.0
    for step in range(1, n + 1):
        if res[step] > top:
            records.append(step)
            top = res[step]
    return c0, res, records


class TestColumnarMatchesScalar:
    """iterate_orbit against the point-by-point translation in oracles, bit for bit."""

    @given(oracles.level_sets(), st.integers(0, 2**16), st.integers(0, 3000))
    def test_points_and_residuals(self, params, seed, n):
        c0 = sample_level_set(params, 1, seed)[0]
        assert_matches_scalar(c0, params, n)

    def test_abort_abscissa(self):
        params = derive_params(0.3, 0.4)
        c0 = sample_level_set(params, 1, seed=1)[0]
        got = assert_matches_scalar(c0, params, 500, abort_abscissa=50.0)
        assert got[0] is OrbitAbort and got[1] == "step 27: |x| = 1.139e+02 exceeds abort_abscissa 50.0"

    def test_point_not_finite_reads_residual_inf(self, monkeypatch):
        # a point that is not finite is off the level set, whatever the abscissa bound
        params = derive_params(0.3, 0.4)
        c0 = sample_level_set(params, 1, seed=1)[0]
        kernel = poincare.uniformize_array

        def batched(theta, eps, params):
            x, A1, A2, pole = kernel(theta, eps, params)
            return np.where(np.arange(len(x)) == 9, math.inf, x), A1, A2, pole

        monkeypatch.setattr(poincare, "uniformize_array", batched)
        with pytest.raises(OrbitAbort, match=r"^step 10: orbit left the level set \(residual inf\)$"):
            iterate_orbit(c0, params, 500, abort_abscissa=50.0)

    def test_abscissa_bound_is_inclusive(self):
        params = derive_params(0.3, 0.4)
        c0 = sample_level_set(params, 1, seed=1)[0]
        far = max(abs(x) for x in iterate_orbit(c0, params, 500).x[1:].tolist())
        got = assert_matches_scalar(c0, params, 500, abort_abscissa=far)
        assert got[0] is not OrbitAbort
        got = assert_matches_scalar(c0, params, 500, abort_abscissa=math.nextafter(far, 0.0))
        assert got[0] is OrbitAbort

    @pytest.mark.parametrize("first_block", [False, True])
    def test_residual_ceiling_mid_block(self, first_block):
        params = derive_params(2.5, -0.1)
        c0, res, records = residual_records(params, 6, 10_000)
        block = poincare._CHECK_BLOCK
        step = next(j for j in records
                    if (20 < j < block if first_block else j > block and j % block))
        ceiling = max(res[1:step])
        got = assert_matches_scalar(c0, params, 10_000, residual_ceiling=ceiling)
        assert got[0] is OrbitAbort and got[2] == step
        assert got[1] == f"step {step}: orbit left the level set (residual {res[step]:.3e})"

    @pytest.mark.parametrize("offset", [0, 1])
    def test_failure_at_block_boundary(self, monkeypatch, offset):
        # the failing step is the last point of a block (offset 0) or the
        # first point of the next one (offset 1)
        params = derive_params(2.5, -0.1)
        c0, res, records = residual_records(params, 5, 3000)
        step = next(j for j in records if j > 1000)
        monkeypatch.setattr(poincare, "_CHECK_BLOCK", step - offset)
        got = assert_matches_scalar(c0, params, 3000, residual_ceiling=max(res[1:step]))
        assert got[0] is OrbitAbort and got[2] == step

    def test_pole_at_start(self, params_i):
        # a start with A1^2 = 1 off the level set has no angle and is refused at the call;
        # one on the level set has its image at infinity, so the orbit aborts at step 1
        got = assert_matches_scalar(ConfigPoint(0.3, 1.0, 0.2), params_i, 10)
        assert got[0] is ValueError and got[1].startswith("orbit start is off the level set")
        params = derive_params(0.3, 0.4)  # a class I set whose real locus meets A1^2 = 1
        c0 = oracles.on_set_pole_start(params)
        assert level_set_residual(c0, params) < 1e-12
        got = assert_matches_scalar(c0, params, 10)
        assert got[:3] == (OrbitAbort, "step 1: second wall intersection at infinity (A1^2 = 1)", 1)

    @pytest.mark.parametrize("block", [1, 2, 4096])
    def test_nan_start(self, monkeypatch, params_i, block):
        # a NaN start has no angle to translate: it is refused at the call, whatever the block
        monkeypatch.setattr(poincare, "_CHECK_BLOCK", block)
        got = assert_matches_scalar(ConfigPoint(math.nan, 0.1, 0.2), params_i, 10)
        assert got[0] is ValueError and got[1].startswith("orbit start is off the level set")

    def test_nan_conic_start(self, params_i):
        got = assert_matches_scalar(ConfigPoint(0.3, math.nan, 0.2), params_i, 10)
        assert got[0] is ValueError and got[1].startswith("orbit start is off the level set")

    @given(st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 3),
           st.sampled_from([1e-6, math.inf]), st.sampled_from([1e12, math.inf]),
           st.integers(0, 50))
    def test_arbitrary_starts(self, params_ii_plus, start, ceiling, abscissa, n):
        # starts off the level set, huge or not finite: refused at the call, given an angle
        # (a ceiling of inf admits any start with an angle), or aborted at a pole
        assert_matches_scalar(ConfigPoint(*start), params_ii_plus, n,
                              residual_ceiling=ceiling, abort_abscissa=abscissa)


class TestTranslatedOrbit:
    """The orbit from the translation: its angle sum and its distance from an exact walk."""

    def test_split_sum_within_two_ulps(self):
        # k alpha by Dekker's product keeps theta_k within 2 ulps of 1 of the exact value for
        # every k < 2**29; (theta0 + k alpha) % 1 loses the low bits of k alpha
        rng = random.Random(20261019)
        ulp = 2.0**-52
        worst_split = worst_naive = Fraction(0)
        for _ in range(400):
            alpha, theta0 = rng.random(), rng.random()
            ks = [2**29 - 1, 1] + [rng.randrange(2**29) for _ in range(6)]
            split = poincare._translated_angles(theta0, alpha, np.array(ks)).tolist()
            for k, got in zip(ks, split):
                assert 0.0 <= got <= 1.0
                exact = (Fraction(theta0) + k * Fraction(alpha)) % 1
                for value, worst in ((got, "split"), ((theta0 + k * alpha) % 1.0, "naive")):
                    gap = abs(Fraction(value) - exact)
                    gap = min(gap, 1 - gap)
                    if worst == "split":
                        worst_split = max(worst_split, gap)
                    else:
                        worst_naive = max(worst_naive, gap)
        assert worst_split <= 2 * ulp
        assert worst_naive > 2 * ulp

    def test_wraps_are_remainders(self):
        # the three wraps are x - floor(x), double for double numpy's % 1.0, at k up to 2**52
        rng = random.Random(35)
        for theta0, alpha in [(0.0, 0.0), (0.0, 0.5), (1.0 - 2.0**-53, 1.0 - 2.0**-53)] + [
                (rng.random(), rng.random()) for _ in range(200)]:
            ks = np.array([0, 1, 2, 2**52 - 1, 2**52]
                          + [rng.randrange(2**e) for e in (8, 20, 30, 40, 52) for _ in range(20)])
            got = poincare._translated_angles(theta0, alpha, ks)
            assert oracles.doubles(got) == oracles.doubles(
                oracles.remainder_translated_angles(theta0, alpha, ks))

    @pytest.mark.parametrize("D, E, cls", [
        (1.5, -0.2, RealLocusClass.I),
        (2.5, -0.1, RealLocusClass.II_PLUS),
        (-2.5, 1.5, RealLocusClass.II_MINUS),
    ])
    def test_tracks_a_40_digit_walk(self, D, E, cls):
        # every 1000th point of 10**4 steps and the (odd) point after it, where IIplus has
        # changed component, against a walk of the same float start at 40 digits
        params = derive_params(D, E)
        assert params.cls is cls
        c0 = sample_level_set(params, 1, 7)[0]
        orbit = iterate_orbit(c0, params, 10_000)
        steps = [k + j for k in range(0, 10_001, 1000) for j in (0, 1) if k + j <= 10_000]
        walk = oracles.mp_walk(c0, params, steps)
        gaps = [config_distance(orbit.points[k], c) for k, c in zip(steps, walk)]
        assert len(gaps) == 21 and max(gaps) <= 1e-10


def point_bits(points) -> list:
    return [tuple(v.hex() for v in (c.x, c.A1, c.A2)) for c in points]


def scalar_walk(c0, params, n):
    """The points after c0 of the step-by-step orbit, as bits, and its abort message."""
    try:
        orbit, abort = oracles.scalar_iterate_orbit(c0, params, n, residual_ceiling=math.inf,
                                                    abort_abscissa=math.inf), None
    except OrbitAbort as exc:
        orbit, abort = exc.orbit, str(exc)
    return point_bits(orbit.points[1:]), abort


def fused_walk(c0, params, n):
    """_walk's points after c0, as bits, and its pole as the orbit's abort message."""
    xs, A1s, A2s, pole = poincare._walk(c0.x, c0.A1, c0.A2, n, params.D, params.E)
    assert len(xs) == len(A1s) == len(A2s) <= n
    assert (pole is None) == (len(xs) == n) and (pole is None or isinstance(pole, PoleError))
    return point_bits(map(ConfigPoint, xs, A1s, A2s)), pole and f"step {len(xs) + 1}: {pole}"


class TestFusedWalk:
    """_walk, which inlines other_wall_root and the reflection, against map_t bit for bit."""

    @pytest.mark.parametrize("D, E, seed, n, cls", [
        (0.3, 0.4, 1, 500, RealLocusClass.I),      # E > 0: |x| grows past 800
        (1.5, -0.2, 4, 3000, RealLocusClass.I),
        (2.5, -0.1, 5, 3000, RealLocusClass.II_PLUS),
        (-2.5, 1.5, 6, 3000, RealLocusClass.II_MINUS),
    ])
    def test_seeded_orbits(self, D, E, seed, n, cls):
        params = derive_params(D, E)
        assert params.cls is cls
        c0 = sample_level_set(params, 1, seed)[0]
        got = fused_walk(c0, params, n)
        assert got == scalar_walk(c0, params, n) and got[1] is None
        # both branches of other_wall_root: the product form where |x| is the larger root
        xs, A1s, A2s, _ = poincare._walk(c0.x, c0.A1, c0.A2, n, D, E)
        starts = list(zip([c0.x, *xs], [c0.A1, *A1s], [c0.A2, *A2s]))[:n]
        assert {x != 0.0 and abs(x) > 0.5 * abs(-2.0 * (A2 + D) * A1 / (1.0 - A1 * A1))
                for x, A1, A2 in starts} == {False, True}

    @given(oracles.level_sets(), st.integers(0, 2**16), st.integers(0, 300))
    def test_random_level_sets(self, params, seed, n):
        c0 = sample_level_set(params, 1, seed)[0]
        assert fused_walk(c0, params, n) == scalar_walk(c0, params, n)

    @pytest.mark.parametrize("A1", [1.0, -1.0])
    def test_pole_at_step_zero(self, params_i, A1):
        c0 = ConfigPoint(0.4, A1, 0.2)
        got = fused_walk(c0, params_i, 10)
        assert got == scalar_walk(c0, params_i, 10)
        assert got == ([], "step 1: second wall intersection at infinity (A1^2 = 1)")

    def test_pole_after_a_step(self, params_i):
        # a start whose first image has A1 = 1 exactly: j undoes a reflection
        # to A1 = 1 and i a step back, where both round trips are exact
        rng = np.random.default_rng(0)
        for _ in range(200):
            x1, A2 = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-1.0, 1.0))
            c = involution_j(ConfigPoint(x1, 1.0, A2), params_i)
            c0 = involution_i(c, params_i)
            got = fused_walk(c0, params_i, 5)
            if got[1] is not None:
                break
        assert got == scalar_walk(c0, params_i, 5)
        assert len(got[0]) == 1 and got[1].startswith("step 2: ")

    def test_zero_steps(self, params_i):
        assert poincare._walk(0.4, 1.0, 0.2, 0, params_i.D, params_i.E) == ([], [], [], None)

    @pytest.mark.parametrize("D, E", [
        (1.5, -0.2), (2.5, -0.1), (-2.5, 1.5), (0.3, 0.4), (3.0, 0.3),
        (1.524873287205999, 0.10518444534189131),  # start 3 reaches |x| ~ 4.6e5 near a pole
    ])
    def test_step_is_the_sin_reflection(self, D, E):
        # the step's nsi = -2x/q gives the doubles of the reflection written with sin
        params = derive_params(D, E)
        xyz = poincare._sample_xyz(params, 20, 1373)
        for j in range(5):
            got = poincare._walk(*xyz[:, j].tolist(), 2000, D, E)
            want = oracles.sin_walk(*xyz[:, j].tolist(), 2000, D, E)
            assert [oracles.doubles(v) for v in got[:3]] == [oracles.doubles(v) for v in want[:3]]
            assert got[3] is want[3] is None


class TestSampling:
    @pytest.mark.parametrize("D,E", ALL_CLASS_FIXTURES)
    def test_residuals_and_determinism(self, D, E):
        params = derive_params(D, E)
        a = sample_level_set(params, 30, seed=13)
        b = sample_level_set(params, 30, seed=13)
        assert a == b
        assert all(level_set_residual(c, params) <= 1e-12 for c in a)
        c = sample_level_set(params, 30, seed=14)
        assert c != a

    def test_two_component_split(self, params_ii_plus):
        # the bounded/unbounded components of a D > 2 set occupy disjoint
        # abscissa ranges on either side of the wall-centre axis
        pts = sample_level_set(params_ii_plus, 200, seed=15)
        xs_pos = [c.x for c in pts if c.z(params_ii_plus) > 0]
        xs_neg = [c.x for c in pts if c.z(params_ii_plus) < 0]
        assert len(xs_pos) > 40 and len(xs_neg) > 40
        assert max(xs_neg) < min(xs_pos)

    def test_single_component_connected(self, params_i):
        # one oval: the wall abscissae fill one interval symmetric under i
        pts = sample_level_set(params_i, 200, seed=16)
        zs = [c.z(params_i) for c in pts]
        assert any(z > 0 for z in zs) and any(z < 0 for z in zs)

    def test_empty_locus_raises(self):
        with pytest.raises(DomainError, match=r"^operation needs a nondegenerate level set \(class Empty\)$"):
            sample_level_set(derive_params(6.0, -0.1), 1)

    def test_degenerate_raises(self):
        with pytest.raises(DomainError, match=r"^operation needs a nondegenerate level set \(class DegenerateTangent\)$"):
            sample_level_set(derive_params(1.0, -0.5), 1)


def point_hexes(pts):
    return [(c.x.hex(), c.A1.hex(), c.A2.hex()) for c in pts]


def sampled(fn, *args):
    """The points fn returns in hex, or the type and message of what it raises."""
    try:
        return point_hexes(fn(*args))
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def poles_at_positive_x(monkeypatch):
    """Make uniformize_array and its scalar reference treat every point with x > 0 as a pole."""
    kernel, scalar = poincare.uniformize_array, oracles.scalar_uniformize

    def batched(theta, eps, params):
        x, A1, A2, pole = kernel(theta, eps, params)
        return x, A1, A2, pole | (x > 0.0)

    def one(a, params):
        c = scalar(a, params)
        if c.x > 0.0:
            raise PoleError("rejected")
        return c

    monkeypatch.setattr(poincare, "uniformize_array", batched)
    monkeypatch.setattr(oracles, "scalar_uniformize", one)


class TestBlockSampling:
    """The angle route in blocks against the one-candidate-at-a-time loop."""

    @given(oracles.level_sets(), st.integers(0, 2**32 - 1), st.integers(-2, 300))
    def test_matches_scalar_loop(self, params, seed, m):
        got = sampled(sample_level_set, params, m, seed)
        assert got == sampled(oracles.scalar_sample_level_set, params, m, seed)

    @pytest.mark.parametrize("residual", [None, math.inf])
    @pytest.mark.parametrize("D,E", ALL_CLASS_FIXTURES)
    def test_rejections(self, monkeypatch, D, E, residual):
        # no candidate is rejected on these sets, so make those with x > 0 poles
        # or give them this residual on both paths; a rejection leaves a block
        # short and more blocks follow
        params = derive_params(D, E)
        if residual is None:
            poles_at_positive_x(monkeypatch)
        else:
            kernel, scalar = poincare.level_set_residual_array, oracles.scalar_level_set_residual
            monkeypatch.setattr(poincare, "level_set_residual_array", lambda x, A1, A2, params:
                                np.where(x > 0.0, residual, kernel(x, A1, A2, params)))
            monkeypatch.setattr(oracles, "scalar_level_set_residual", lambda c, params:
                                residual if c.x > 0.0 else scalar(c, params))
        for seed in range(3):
            got = sample_level_set(params, 57, seed)
            assert len(got) == 57
            assert not any(c.x > 0.0 for c in got)
            assert point_hexes(got) == point_hexes(oracles.scalar_sample_level_set(params, 57, seed))

    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1)])
    def test_guard_exhausted(self, monkeypatch, D, E, m):
        # every candidate a pole: both paths try 100 m + 1000 of them, then raise
        params = derive_params(D, E)
        kernel, scalar = poincare.uniformize_array, oracles.scalar_uniformize
        tried = []

        def batched(theta, eps, params):
            tried.append(len(theta))
            x, A1, A2, pole = kernel(theta, eps, params)
            return x, A1, A2, np.ones_like(pole)

        def one(a, params):
            tried.append(1)
            raise PoleError("rejected")

        monkeypatch.setattr(poincare, "uniformize_array", batched)
        with pytest.raises(DomainError) as got:
            sample_level_set(params, m, seed=3)
        assert sum(tried) == 100 * m + 1000
        tried.clear()
        monkeypatch.setattr(oracles, "scalar_uniformize", one)
        with pytest.raises(DomainError) as want:
            oracles.scalar_sample_level_set(params, m, seed=3)
        assert sum(tried) == 100 * m + 1000
        assert str(got.value) == str(want.value) == (
            "sampling failed to find real points (locus nearly degenerate?)")

    def test_non_positive_count_checks_nothing(self, params_i, monkeypatch):
        # as in the loop, no candidate is drawn; m < 0 raises, as n < 0 does in iterate_orbit
        def boom(*args):
            raise AssertionError("a candidate was evaluated")

        monkeypatch.setattr(poincare, "uniformize_array", boom)
        assert sample_level_set(params_i, 0) == []
        with pytest.raises(ValueError, match=r"m >= 0 points \(got -2\)"):
            sample_level_set(params_i, -2)


def xyz_hexes(xyz):
    return [[v.hex() for v in row] for row in xyz.tolist()]


def counted_candidates(monkeypatch):
    """Record the size of each block of candidates that uniformize_array evaluates."""
    kernel, blocks = poincare.uniformize_array, []

    def counted(theta, eps, params):
        blocks.append(len(theta))
        return kernel(theta, eps, params)

    monkeypatch.setattr(poincare, "uniformize_array", counted)
    return blocks


class TestSampleMemo:
    """Draws are pure: a draw of m is the first m points of a longer one, and the one draw
    that is kept, periods._starts, holds the bits of a fresh draw."""

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("D,E", ALL_CLASS_FIXTURES)
    def test_prefix_of_a_longer_draw(self, monkeypatch, fresh_samples, D, E, forced):
        # forced rejections leave blocks short, so the two draws split the stream differently
        params = derive_params(D, E)
        if forced:
            poles_at_positive_x(monkeypatch)
        blocks = counted_candidates(monkeypatch)
        for seed, m, M in [(0, 1, 100), (5, 23, 57), (9, 57, 57)]:
            fresh_samples()
            short = poincare._sample_xyz(params, m, seed)
            fresh_samples()
            blocks.clear()
            assert xyz_hexes(short) == xyz_hexes(poincare._sample_xyz(params, M, seed)[:, :m])
            assert (len(blocks) > 1) == forced

    @given(oracles.level_sets(), st.integers(0, 2**32 - 1), st.integers(0, 60), st.integers(0, 60))
    def test_hits_match_scalar_loop(self, params, seed, m, extra):
        # what periods._starts relies on: the first m points of a longer draw are the
        # scalar loop's m, where neither draw gives up
        longer = sampled(sample_level_set, params, m + extra, seed)
        want = sampled(oracles.scalar_sample_level_set, params, m, seed)
        assert sampled(sample_level_set, params, m, seed) == want
        if isinstance(longer, list) and isinstance(want, list):
            assert longer[:m] == want

    def test_hit_is_a_fresh_draw(self, monkeypatch, fresh_samples, params_ii_plus):
        # a hit of the checks' kept draw evaluates no candidate, and its first m points
        # are those of a fresh draw of m
        key = repr(params_ii_plus)
        for seed in (4, np.int64(4)):
            fresh_samples()
            periods._starts(key, 4, params_ii_plus)
            with monkeypatch.context() as patch:
                blocks = counted_candidates(patch)
                kept = periods._starts(key, seed, params_ii_plus)
            assert blocks == []
            for m in (0, 1, 30, periods._N_STARTS):
                want = xyz_hexes(poincare._sample_xyz(params_ii_plus, m, 4))
                assert xyz_hexes(kept[:, :m]) == want

    def test_no_hit_past_a_smaller_draws_limit(self, monkeypatch, params_i):
        # the first 1200 candidates of a draw are poles: 7 points take 1207 of the
        # 1700 candidates they may, 1 point may take 1100 and 2 points 1200, so
        # those draws fail after their own limit, and 3 points (1300) are the first 3
        # of the 7; a draw made before changes none of it
        kernel, seen = poincare.uniformize_array, [0]

        def late(theta, eps, params):
            x, A1, A2, pole = kernel(theta, eps, params)
            first = seen[0] + np.arange(len(theta))
            seen[0] += len(theta)
            return x, A1, A2, pole | (first < 1200)

        monkeypatch.setattr(poincare, "uniformize_array", late)
        seven = poincare._sample_xyz(params_i, 7, 0)
        assert seen[0] == 1207
        for m in (1, 2):
            seen[0] = 0
            with pytest.raises(DomainError, match="sampling failed"):
                poincare._sample_xyz(params_i, m, 0)
            assert seen[0] == 100 * m + 1000
        seen[0] = 0
        assert xyz_hexes(poincare._sample_xyz(params_i, 3, 0)) == xyz_hexes(seven[:, :3])
        assert seen[0] == 1203

    def test_refusals_come_first(self, monkeypatch, params_i, params_ii_plus):
        # a refused request evaluates no candidate; a count that is not an integer
        # raises one TypeError in every class
        blocks = counted_candidates(monkeypatch)
        for params in (params_i, params_ii_plus):
            with pytest.raises(ValueError, match=r"m >= 0 points \(got -1\)"):
                poincare._sample_xyz(params, -1, 0)
            for m in (5.0, 2.5):
                with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an "
                                                    "integer$"):
                    sample_level_set(params, m)
        for params, error in [(derive_params(6.0, -0.1), DomainError),
                              (derive_params(1.0, -0.5), DomainError)]:
            with pytest.raises(error):
                poincare._sample_xyz(params, 1, 0)
        assert blocks == []

    def test_signed_zeros_are_two_keys(self, monkeypatch):
        # the checks' kept draw is keyed on repr(params), which tells D = 0.0 and -0.0 apart
        plus, minus = derive_params(0.0, 0.5), derive_params(-0.0, 0.5)
        periods._starts(repr(plus), 0, plus)
        blocks = counted_candidates(monkeypatch)
        periods._starts(repr(minus), 0, minus)
        assert blocks == [periods._N_STARTS]
        periods._starts(repr(minus), 0, minus)
        assert blocks == [periods._N_STARTS]

    def test_other_seeds_draw_afresh(self, monkeypatch, params_i):
        poincare._sample_xyz(params_i, 10, 0)
        blocks = counted_candidates(monkeypatch)
        poincare._sample_xyz(params_i, 5, 1)
        assert blocks == [5]

    @pytest.mark.parametrize("m", [0, 5])
    def test_seed_refusals(self, monkeypatch, params_i, m):
        # a numpy Generator used to be drawn from and go on with its stream
        poincare._sample_xyz(params_i, 10, 0)
        blocks = counted_candidates(monkeypatch)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            poincare._sample_xyz(params_i, m, -1)
        for seed in (0.0, 1.5, None, np.random.default_rng(0), np.random.SeedSequence(0)):
            with pytest.raises(TypeError):
                poincare._sample_xyz(params_i, m, seed)
        assert blocks == []

    def test_points_are_read_only(self, params_i):
        fresh = poincare._sample_xyz(params_i, 10, 0)
        want = xyz_hexes(fresh)
        for points in (fresh, poincare._sample_xyz(params_i, 4, 0)):
            assert not points.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                points[0, 0] = 1.0
        assert xyz_hexes(poincare._sample_xyz(params_i, 10, 0)) == want

    @pytest.mark.parametrize("D,E", [(1.75, -5.0 / 24.0), *ALL_CLASS_FIXTURES])
    def test_poncelet_check_then_empirical_rotation(self, monkeypatch, fresh_samples, D, E):
        # the start of empirical_rotation is the first of poncelet_check's starts: a winding
        # with no check before it gives the bits of one after the check, which evaluates no
        # candidate of its own
        params = derive_params(D, E)
        for seed, n_steps in [(3, 500), (5, 2000), (2**40, 2000)]:
            fresh_samples()
            want = repr(poncelet_check(params, seed))
            fresh_samples()
            want_alpha = empirical_rotation(params, n_steps, seed).hex()
            fresh_samples()
            assert repr(poncelet_check(params, seed)) == want
            with monkeypatch.context() as patch:
                blocks = counted_candidates(patch)
                assert empirical_rotation(params, n_steps, seed).hex() == want_alpha
            assert blocks == []
            assert periods._starts.cache_info()[:2] == (1, 1)  # hits, misses


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, np.uint64(2**64 - 1), np.int64(4),
                2**128 + 1, 2**200 + 12345]  # the last two mix more than four 32-bit words


def doubles(words, k: int) -> list:
    """Generator.random(k) from the next k PCG64 words: the top 53 bits of each."""
    return [(w >> 11) * 2.0**-53 for w in itertools.islice(words, k)]


def assert_same_stream(seed, calls):
    """The words and coins of _pcg64(seed) and default_rng(seed) give the same values for each
    numpy call named in calls: True for random(), False for integers(0, 2), an int k for
    random(k)."""
    (words, coins), numpys = poincare._pcg64(operator.index(seed)), np.random.default_rng(seed)
    for call in calls:
        if call is True:
            got, want = doubles(words, 1)[0], float(numpys.random())
        elif call is False:
            got, want = next(coins), int(numpys.integers(0, 2))
        else:
            got, want = doubles(words, call), numpys.random(call).tolist()
        assert (got, type(got)) == (want, type(want)), (seed, call)


class TestSampleStream:
    """_pcg64 draws np.random.default_rng's stream bit for bit."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS, ids=str)
    def test_random_k(self, seed):
        assert_same_stream(seed, [0, 1, 100, 0, 1])

    @pytest.mark.parametrize("seed", STREAM_SEEDS, ids=str)
    def test_interleaved(self, seed):
        # runs of coins of both parities test the buffered high half-word
        rand = np.random.default_rng(int(seed) % 977)
        assert_same_stream(seed, (rand.random(300) < 0.5).tolist())

    @pytest.mark.parametrize("seed", STREAM_SEEDS, ids=str)
    def test_seeding_kept_per_seed(self, seed):
        # a second generator of the seed takes the mixed state from the cache, and the stream
        # is still default_rng's
        poincare._seeded.cache_clear()
        first = doubles(poincare._pcg64(operator.index(seed))[0], 50)
        assert poincare._seeded.cache_info().misses == 1
        assert doubles(poincare._pcg64(operator.index(seed))[0], 50) == first
        assert poincare._seeded.cache_info().hits == 1
        assert_same_stream(seed, [50, True, False, 3])

    # hypothesis seldom draws more than four words from the first range alone
    @given(st.integers(0, 2**256) | st.integers(2**128, 2**256),
           st.lists(st.booleans() | st.integers(0, 5), max_size=40))
    def test_matches_default_rng(self, seed, calls):
        assert_same_stream(seed, calls)


class TestComponentCurve:
    @pytest.mark.parametrize("D,E", ALL_CLASS_FIXTURES + [(0.3, 0.4), (3.0, 0.3)])
    @pytest.mark.parametrize("n", [0, 2, 3, 129, 257, 1000])
    def test_matches_scalar_loop(self, monkeypatch, D, E, n):
        # the curve at the number of points of the module constant, set to n
        monkeypatch.setattr(poincare, "_CURVE_POINTS", n)
        params = derive_params(D, E)
        for eps in ((0,) if params.cls is RealLocusClass.I else (0, 1)):
            got = component_curve(params, eps)
            assert point_hexes(got) == point_hexes(oracles.scalar_component_curve(params, eps, n))

    def test_skips_poles(self, monkeypatch, params_ii_minus):
        poles_at_positive_x(monkeypatch)
        got = component_curve(params_ii_minus, 1)
        assert 0 < len(got) < 257
        assert point_hexes(got) == point_hexes(oracles.scalar_component_curve(params_ii_minus, 1))

    def test_errors(self, params_i):
        for args in [(params_i, 1), (derive_params(1.0, -0.5), 0)]:
            got = sampled(component_curve, *args)
            assert isinstance(got, tuple) and got == sampled(oracles.scalar_component_curve, *args)
