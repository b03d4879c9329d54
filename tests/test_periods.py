"""Periodicity: prediction from alpha, direct detection, Poncelet locus."""

import logging
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boltzmann_billiard import (
    AngleCoord,
    ConfigPoint,
    DomainError,
    PoleError,
    RealLocusClass,
    derive_params,
    map_t,
    detect_period_direct,
    empirical_rotation,
    find_periodic_locus,
    period3_residual,
    poncelet_check,
    predict_period,
    rotation_number,
    sample_level_set,
    smallest_period,
    uniformize,
)

from boltzmann_billiard import periods, poincare
from boltzmann_billiard.uniformize import theta_array

import oracles


class TestSmallestPeriod:
    def test_rational_rotation(self):
        assert smallest_period(1.0 / 3.0, False) == 3
        assert smallest_period(2.0 / 3.0, False) == 3
        assert smallest_period(0.25, False) == 4
        assert smallest_period(0.4, False) == 5

    def test_component_flip_forces_even(self):
        # alpha = 1/3 closes the angle after 3 steps, but an odd number of
        # steps lands on the other component; the true period doubles
        assert smallest_period(1.0 / 3.0, True) == 6
        assert smallest_period(0.25, True) == 4
        assert smallest_period(0.5, True) == 2

    def test_irrational_rotation(self):
        assert smallest_period(math.sqrt(2.0) - 1.0, False) is None

    def test_tolerance_and_cap(self):
        assert smallest_period(1.0 / 7.0 + 1e-12, False) == 7
        assert smallest_period(1.0 / 61.0, False) is None  # the search stops at 60


def test_predict_period_period3(params_period3):
    assert predict_period(params_period3) == 3
    rot = rotation_number(params_period3)
    # 3 alpha is an integer to full precision
    assert abs(3.0 * rot.alpha - round(3.0 * rot.alpha)) < 1e-9


def test_predict_period_generic(params_i):
    assert predict_period(params_i) is None


def test_detect_period3_direct(params_period3):
    for seed in range(5):
        c0 = sample_level_set(params_period3, 1, seed=seed)[0]
        assert detect_period_direct(c0, params_period3) == 3


def test_detect_generic_none(params_i):
    c0 = sample_level_set(params_i, 1, seed=3)[0]
    assert detect_period_direct(c0, params_i) is None


def test_detect_period_direct_matches_scalar(params_period3, params_i):
    # the one-start call of _first_returns against the map_t loop
    for c0 in sample_level_set(params_period3, 30, seed=9):
        assert detect_period_direct(c0, params_period3) == oracles.scalar_detect_period(
            c0, params_period3) == 3
    for c0 in sample_level_set(params_i, 5, seed=9):
        assert detect_period_direct(c0, params_i) is oracles.scalar_detect_period(c0, params_i) is None
    # A1 = 1: the second wall intersection is at infinity, so the first step raises
    pole = ConfigPoint(0.5, 1.0, 0.2)
    for detect in (detect_period_direct, oracles.scalar_detect_period):
        with pytest.raises(PoleError, match=r"^second wall intersection at infinity \(A1\^2 = 1\)$"):
            detect(pole, params_period3)


def test_poncelet_all_or_nothing(params_period3):
    # every starting point closes after exactly 3 bounces, not just a few
    report = poncelet_check(params_period3, seed=4)
    assert report.predicted == 3
    assert report.detected == 3
    assert report.method_agreement
    assert report.residual < 1e-7
    assert report.alpha == pytest.approx(2.0 / 3.0, abs=1e-9)
    # at the default seed, the winding from the first of the check's starts is alpha to rounding
    report = poncelet_check(params_period3)
    assert report.predicted == report.detected == 3
    assert oracles.wrapped_diff(empirical_rotation(params_period3, seed=0), report.alpha) <= 1e-13


def test_poncelet_generic_agrees_on_none(params_i):
    report = poncelet_check(params_i, seed=5)
    assert report.predicted is None
    assert report.detected is None
    assert report.method_agreement


@pytest.mark.parametrize("cls, D, E", [
    pytest.param(cls, D, E, id=cls) for cls, D, E in [
        ("DegenerateTangent", 1.0, -0.5),
        ("NodalD", 2.0, -0.3),
        ("NodalR", 2.5, -0.25),
        ("Empty", 6.0, -0.1),
        ("NegativeAngularMomentumSide", 1.5, -2.0),
    ]])
@pytest.mark.parametrize("call", [
    lambda params: sample_level_set(params, 1),
    lambda params: empirical_rotation(params, 10),
    poncelet_check,
    rotation_number,
    poincare.component_curve,
    lambda params: uniformize(AngleCoord(0.25, 0), params),
    predict_period,
], ids=["sample_level_set", "empirical_rotation", "poncelet_check", "rotation_number",
        "component_curve", "uniformize", "predict_period"])
def test_one_refusal_for_every_degenerate_class(cls, D, E, call):
    # the empty set is refused as the other degenerate sets are; sampling used to refuse it
    # with an error type of its own
    params = derive_params(D, E)
    assert params.cls.value == cls
    with pytest.raises(DomainError) as exc:
        call(params)
    assert str(exc.value) == f"operation needs a nondegenerate level set (class {cls})"


class TestPeriod3Locus:
    def test_exact_rational_root(self):
        assert period3_residual(Fraction(7, 4), Fraction(-5, 24)) == 0

    def test_polynomial_values(self):
        # spot values of 4(D^2-4)E^2 + 4D(D^2-3)E + D^4 - 2D^2 - 3
        assert period3_residual(0, 0) == -3
        assert period3_residual(2, 1) == 13  # 8E + 5 at D = 2
        assert period3_residual(2, Fraction(-5, 8)) == 0

    def test_float_root_near_exact(self):
        assert abs(period3_residual(1.75, -5.0 / 24.0)) < 1e-14

    def test_find_locus_contains_exact_root(self):
        roots = find_periodic_locus(-5.0 / 24.0, 3)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.75, abs=1e-8)

    @pytest.mark.parametrize("E", [-0.15, -0.25, -0.3])
    def test_alpha_roots_satisfy_polynomial(self, E):
        # the rotation-number locus and the closed-form polynomial locus
        # are the same curve
        roots = find_periodic_locus(E, 3)
        assert roots
        for D in roots:
            # polynomial residual vanishes at the alpha root
            assert abs(period3_residual(D, E)) < 1e-6
            # and 3 alpha is an integer there
            alpha = rotation_number(derive_params(D, E)).alpha
            assert abs(3.0 * alpha - round(3.0 * alpha)) < 1e-7

    @pytest.mark.parametrize("E", [-0.15, -0.25, -0.3])
    def test_polynomial_roots_are_alpha_roots(self, E):
        # converse direction: solve the quartic-in-D polynomial numerically,
        # keep the roots that classify as nondegenerate sets in (0, 2)
        import numpy as np
        coeffs = [1.0, 4.0 * E, 4.0 * E * E - 2.0, -12.0 * E,
                  -16.0 * E * E - 3.0]
        for D in np.roots(coeffs):
            if abs(D.imag) > 1e-9 or not (0.0 < D.real < 2.0):
                continue
            D = float(D.real)
            p = derive_params(D, E)
            if not p.nondegenerate:
                continue
            alpha = rotation_number(p).alpha
            assert abs(3.0 * alpha - round(3.0 * alpha)) < 1e-6

    @pytest.mark.parametrize("E", [-5.0 / 24.0, -0.15, -0.25, -0.3, -0.1, 0.0, 0.05])
    def test_root_brackets_polynomial_sign_change(self, E):
        # exact arithmetic: the polynomial changes sign within 1e-14 of each alpha root
        roots = find_periodic_locus(E, 3)
        assert roots
        h, e = Fraction(1, 10**14), Fraction(E)
        for D in roots:
            assert period3_residual(Fraction(D) - h, e) * period3_residual(Fraction(D) + h, e) < 0

    def test_low_periods_empty(self):
        # period 1 needs a fixed point of t and period 2 a fixed point of j
        # away from the nodal sets; neither exists
        assert find_periodic_locus(-5.0 / 24.0, 1) == []
        assert find_periodic_locus(-5.0 / 24.0, 2) == []

    def test_period_one_leaves_no_record(self, caplog):
        # the library logs nothing: period-scan writes the p = 1 note
        caplog.set_level(logging.DEBUG)
        assert find_periodic_locus(-0.2, 1) == []
        assert caplog.records == []

    def test_higher_period_root_verified(self):
        # whatever comes out for p = 5 must actually have 5 alpha integral
        roots = find_periodic_locus(-0.2, 5, D_range=(0.2, 1.99))
        assert roots
        for D in roots:
            alpha = rotation_number(derive_params(D, -0.2)).alpha
            assert abs(5.0 * alpha - round(5.0 * alpha)) < 1e-7


@pytest.fixture
def fresh_scans():
    """An empty cache of find_periodic_locus D scans; the fixture's value empties it again."""
    periods._scan.cache_clear()
    yield periods._scan.cache_clear
    periods._scan.cache_clear()


class TestLocusScan:
    @pytest.mark.parametrize("E", [-0.3, -0.2, -0.1, 0.05])
    def test_period4_roots_close(self, E):
        # period 4 sits at s0_inv = 0, where the rotation path crosses s = 0
        roots = find_periodic_locus(E, 4)
        assert roots
        for D in roots:
            params = derive_params(D, E)
            for c0 in sample_level_set(params, 20, seed=0):
                c = c0
                for _ in range(4):
                    c = map_t(c, params)
                assert oracles.config_distance(c, c0) <= 1e-9

    def test_defect_evaluations_per_root(self, monkeypatch):
        # the refinement starts from the scanned bracket ends, so each root
        # costs a few scalar evaluations, and lands on a double-precision zero
        calls = []
        monkeypatch.setattr(periods, "derive_params",
                            lambda D, E: calls.append(D) or derive_params(D, E))
        rng = np.random.default_rng(2024)
        n_roots = 0
        for E, p in zip(rng.uniform(-0.33, 0.3, 100).tolist(), rng.integers(2, 10, 100).tolist()):
            roots = find_periodic_locus(E, p)
            n_roots += len(roots)
            for D in roots:
                alpha = rotation_number(derive_params(D, E)).alpha
                assert abs((p * alpha + 0.5) % 1.0 - 0.5) <= 1e-14
        assert n_roots >= 100
        assert len(calls) <= 8 * n_roots

    @pytest.mark.parametrize("f, root", [
        (lambda x: 1.0 if x < 0.3 else -1.0, 0.3),          # a jump, no zero
        (lambda x: math.atan(1e12 * (x - 0.123)), 0.123),   # steep
        (lambda x: (x - 0.3) ** 9, 0.3),                    # flat
    ], ids=["jump", "steep", "flat"])
    def test_illinois_brackets_without_a_cap(self, f, root):
        for a, b in ((0.0, 1.0), (1.0, 0.0)):
            x, fx = periods._illinois(f, a, f(a), b, f(b))
            assert fx == f(x) and abs(x - root) <= 2e-16

    def test_illinois_stops_at_nan(self):
        f = lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5  # noqa: E731
        assert periods._illinois(f, 0.0, -0.5, 1.0, 0.5) == (0.0, -0.5)

    @pytest.mark.parametrize("D_range", [(0.0, math.inf), (-1e308, 1e308),
                                         (np.float64(-1e308), np.float64(1e308))])
    def test_non_finite_range_raises(self, D_range):
        # a numpy warning from building the scan axis would be an error here
        with pytest.raises(DomainError, match="must be finite"):
            find_periodic_locus(-0.2, 3, D_range)

    def test_range_too_wide_to_scan_raises(self):
        # the width is finite but 400 steps of it are not; rotation_grid used to refuse the
        # overflowed scan axis, naming neither E nor D_range
        with pytest.raises(DomainError, match=r"^E, D_range and its width times the 400 scan "
                                              r"steps must be finite \(got E=-0\.2, D_range="
                                              r"\(0\.0, 1e\+306\)\)$"):
            find_periodic_locus(-0.2, 3, (0.0, 1e306))

    def test_range_direction_gives_the_same_roots(self):
        # the scan and its brackets were built from the first end of D_range, so a root's
        # double depended on the direction: (2.0, 0.0) gave 1.7483638473660001, and 77 of
        # these 200 seeded ranges gave another double read from their high end
        assert find_periodic_locus(-0.2, 3, (2.0, 0.0)) == [1.7483638473660008]
        rng = random.Random(20261020)
        roots = 0
        for _ in range(200):
            E, p, lo = rng.uniform(-0.5, 1.0), rng.randint(2, 9), rng.uniform(-3.0, 2.5)
            hi = lo + rng.uniform(0.2, 4.0)
            up = [D.hex() for D in find_periodic_locus(E, p, (lo, hi))]
            assert [D.hex() for D in find_periodic_locus(E, p, (hi, lo))] == up, (E, p, lo, hi)
            roots += len(up)
        assert roots == 180

    @pytest.mark.parametrize("E, p", [(math.nan, 1), (math.inf, 3), (-math.inf, 1)])
    def test_non_finite_energy_raises(self, E, p):
        # p = 1 used to return [] before any check
        with pytest.raises(DomainError, match=r"must be finite \(got E=-?(nan|inf), "):
            find_periodic_locus(E, p)

    def test_period_through_index(self):
        # p = 3.5 used to return a root of 3.5 alpha in Z, and np.int64(3) np.float64 roots
        for p in (3.5, 3.0):
            with pytest.raises(TypeError):
                find_periodic_locus(-0.2, p)
        roots = find_periodic_locus(-0.2, np.int64(3))
        assert roots and all(type(D) is float for D in roots)
        assert [D.hex() for D in roots] == [D.hex() for D in find_periodic_locus(-0.2, 3)]

    def test_batched_scan_finds_the_scalar_roots(self, monkeypatch, fresh_scans):
        cases = [(E, p) for E in (-0.31, -5.0 / 24.0, -0.12, 0.02, 0.3) for p in range(2, 9)]
        batched = [find_periodic_locus(E, p) for E, p in cases]
        assert sum(map(len, batched)) >= 20
        monkeypatch.setattr(periods, "rotation_grid", oracles.scalar_rotation_grid)
        fresh_scans()  # else the scans cached by the batched run are compared with themselves
        assert [find_periodic_locus(E, p) for E, p in cases] == batched

    def test_brackets_match_interval_loop(self, monkeypatch):
        # the array selection of the brackets against the per-interval loop: the brackets
        # refined and the roots, on seeded cases and on a grid of energies, periods and D
        # ranges (IIplus roots included), then on a scan of exact zeros, NaNs and wrap-arounds
        refined = []
        illinois = periods._illinois
        monkeypatch.setattr(periods, "_illinois",
                            lambda f, *ends: refined.append(ends) or illinois(f, *ends))

        def brackets_and_roots(locus, case):
            refined.clear()
            roots = [r.hex() for r in locus(*case)]
            return [tuple(map(float.hex, ends)) for ends in refined], roots

        rng = random.Random(20261018)
        cases = []
        for _ in range(300):
            E, p, lo = rng.uniform(-0.5, 1.0), rng.randint(2, 9), rng.uniform(-3.0, 2.5)
            cases.append((E, p, (lo, lo + rng.uniform(0.2, 4.0))))
        cases += [(E, p, D_range) for E in (-0.3, -0.2, -0.0436, 0.0136, 0.2427, 0.5)
                  for p in range(2, 10) for D_range in ((-1.99, 3.5), (-6.0, 6.0), (0.0, 2.0))]
        got = [brackets_and_roots(find_periodic_locus, case) for case in cases]
        assert got == [brackets_and_roots(oracles.scalar_find_periodic_locus, case)
                       for case in cases]
        assert sum(len(roots) for _, roots in got) == 565
        # with p = 2 these alphas give the defects 0.2, 0, 0, 0.2, 0.48, -0.48, NaN, -0.4, -0.1,
        # 0, 0, 0.4, -0.4, -0.48, 0.48, 0.2
        alpha = np.array([0.1, 0.0, 0.0, 0.1, 0.24, 0.26, math.nan, 0.3, 0.95, 0.5, 0.5, 0.2,
                          0.3, 0.26, 0.24, 0.1])
        scan = (np.linspace(0.2, 1.8, alpha.size), np.full(alpha.size, RealLocusClass.I), alpha)
        monkeypatch.setattr(periods, "_scan", lambda *key: scan)
        got = brackets_and_roots(find_periodic_locus, (-0.2, 2))
        assert len(got[0]) == 5
        assert got == brackets_and_roots(oracles.scalar_find_periodic_locus, (-0.2, 2))

    def test_scan_reused_across_periods(self, fresh_scans):
        # IIplus cells lie past D = 2: odd p masks them, even p finds roots there
        E, D_range, ps = -0.12, (0.0, 3.5), range(3, 9)
        forward = {p: find_periodic_locus(E, p, D_range) for p in ps}
        assert periods._scan.cache_info()[:2] == (len(ps) - 1, 1)  # hits, misses
        backward = {p: find_periodic_locus(E, p, D_range) for p in reversed(ps)}
        fresh = {}
        for p in ps:
            fresh_scans()
            fresh[p] = find_periodic_locus(E, p, D_range)
        assert forward == backward == fresh
        assert len(forward[4]) > len(find_periodic_locus(E, 4))  # roots on IIplus cells
        Ds, classes, alpha = periods._scan(*(float(v).hex() for v in (E, *D_range)))
        assert (classes == RealLocusClass.II_PLUS).any()
        assert not np.isnan(alpha[classes == RealLocusClass.II_PLUS]).any()
        for a in (Ds, classes, alpha):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[1]

    def test_scan_keys_tell_signed_zeros_apart(self, fresh_scans):
        # one scan is kept, so each call follows the one it must not be served
        find_periodic_locus(0.0, 3)
        find_periodic_locus(-0.0, 3)
        find_periodic_locus(-0.2, 3)
        find_periodic_locus(-0.2, 3, (-0.0, 2.0))
        assert periods._scan.cache_info()[:2] == (0, 4)  # hits, misses


# roots the scan misses (ROADMAP item 10): (E, p, D, a D range that misses it, a narrower
# range that finds it, or None).  A scan step that holds a class edge has no sign change,
# and next to |D| = 2 or R^2 = 0 a root can sit in the sliver between the edge and the
# scan's first alpha.  A finder that brackets the class edges turns these strict xfails
# into passes, and then drops the marks.
SCAN_MISSES = [
    (-0.0436, 6, 2.0019995253451226, (-6.0, 6.0), None),
    (0.0136, 6, 2.001539365967026, (-6.0, 6.0), None),
    (0.2427, 6, 2.0006208702613457, (-6.0, 6.0), None),
    (-0.2, 7, 1.9989335222876623, (0.0, 2.0), (1.9, 2.0)),
    (-0.2, 5, 1.98206115277638, (-6.0, 6.0), (0.0, 2.0)),
    (-0.3514285714285714, 4, 2.120715184050603, (-6.0, 6.0), (2.0, 3.0)),
]
MISS_IDS = [f"E{E}-p{p}" for E, p, *_ in SCAN_MISSES]


def _finds(E, p, D, D_range):
    return any(abs(root - D) <= 1e-9 for root in find_periodic_locus(E, p, D_range))


@pytest.mark.parametrize("E, p, D, missed_on, found_on", SCAN_MISSES, ids=MISS_IDS)
def test_missed_roots_are_roots(E, p, D, missed_on, found_on):
    # each is a root of p alpha = 0 mod 1, and the narrower range finds it where one is known
    a = rotation_number(derive_params(D, E)).alpha
    assert abs(p * a - round(p * a)) < 1e-12
    assert found_on is None or _finds(E, p, D, found_on)


@pytest.mark.parametrize("E, p, D, missed_on, found_on", [
    pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason="the scan misses roots "
                                                "at class edges (ROADMAP item 10)"))
    for case in SCAN_MISSES], ids=MISS_IDS)
def test_scan_finds_edge_roots(E, p, D, missed_on, found_on):
    assert _finds(E, p, D, missed_on)


class TestEmpiricalRotation:
    @pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)])
    def test_matches_analytic(self, D, E):
        params = derive_params(D, E)
        emp = empirical_rotation(params, n_steps=10_000, seed=6)
        assert oracles.wrapped_diff(emp, rotation_number(params).alpha) < 1e-13

    @pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)])
    def test_start_at_the_cut(self, D, E):
        # starts within 1e-15 of theta = 0, on both sides of it: a start read on the wrong
        # side of the cut would move the lift by a whole turn, alpha by 1/n_steps
        params = derive_params(D, E)
        alpha = rotation_number(params).alpha
        top = uniformize(AngleCoord(0.0), params)
        starts = [uniformize(AngleCoord(t), params)
                  for t in (0.0, 1e-16, 4e-16, 1.0 - 2.0**-53, 1.0 - 4e-16)]
        # A1 = 0 at theta = 0; a tiny A1 puts the amplitude an ulp to either side of the cut
        starts += [ConfigPoint(top.x, A1, top.A2) for A1 in (1e-300, -1e-300, 5e-324, -5e-324)]
        theta = theta_array(*np.array([(c.x, c.A1, c.A2) for c in starts]).T, params).tolist()
        assert max(min(t, 1.0 - t) for t in theta) < 1e-15
        assert min(theta) == 0.0 and max(theta) > 0.5
        for n_steps in (1, 2, 1000):
            for c0 in starts:
                emp = empirical_rotation(params, n_steps=n_steps, c0=c0)
                later = empirical_rotation(params, n_steps=n_steps, c0=map_t(c0, params))
                assert oracles.wrapped_diff(emp, later) < 1e-14
                assert oracles.wrapped_diff(emp, alpha) < 1e-14

    def test_start_point_independence(self, params_i):
        vals = []
        for seed in range(4):
            c0 = sample_level_set(params_i, 1, seed=seed)[0]
            vals.append(empirical_rotation(params_i, n_steps=3000, c0=c0))
        spread = max(oracles.wrapped_diff(a, vals[0]) for a in vals)
        assert spread < 1e-8


class TestCheckCache:
    """poncelet_check and empirical_rotation keep their results per level set and arguments."""

    def test_winding_repeat_is_the_fresh_one(self, fresh_samples, params_ii_plus):
        emp = empirical_rotation(params_ii_plus, n_steps=300, seed=3)
        again = empirical_rotation(params_ii_plus, n_steps=300, seed=3)
        assert periods._empirical_rotation.cache_info()[:2] == (1, 1)  # hits, misses
        fresh_samples()
        assert again.hex() == emp.hex()
        assert again.hex() == oracles.scalar_empirical_rotation(params_ii_plus, 300, 3).hex()

    def test_signed_zeros_have_their_own_entries(self):
        plus, minus = derive_params(0.0, 0.5), derive_params(-0.0, 0.5)
        assert plus == minus and repr(plus) != repr(minus)
        for params in (plus, minus, plus, minus):
            poncelet_check(params, seed=1)
            empirical_rotation(params, n_steps=40, seed=1)
        assert periods._poncelet_check.cache_info()[:2] == (2, 2)
        assert periods._empirical_rotation.cache_info()[:2] == (2, 2)

    def test_winding_key(self, params_i):
        cache = periods._empirical_rotation
        emp = empirical_rotation(params_i, n_steps=100, seed=2)
        empirical_rotation(params_i, n_steps=101, seed=2)
        assert cache.cache_info()[:2] == (0, 2)  # n_steps is in the key
        with pytest.raises(TypeError):  # a float n_steps is refused before the cache
            empirical_rotation(params_i, n_steps=100.0, seed=2)
        c = sample_level_set(params_i, 2, seed=2)
        starts = [c[0], c[1], ConfigPoint(c[0].x, 0.0, c[0].A2), ConfigPoint(c[0].x, -0.0, c[0].A2)]
        for c0 in starts * 2:  # the start is in the key, signed zeros apart; the seed is unused
            assert (empirical_rotation(params_i, n_steps=100, seed=5, c0=c0).hex()
                    == empirical_rotation(params_i, n_steps=100, seed=9, c0=c0).hex())
        assert cache.cache_info()[:2] == (12, 6)
        # c0 = the seed's start: the same winding, from its own entry
        assert empirical_rotation(params_i, n_steps=100, c0=c[0]) == emp

    def test_seed_through_index(self, params_period3):
        report = poncelet_check(params_period3, seed=7)
        assert poncelet_check(params_period3, seed=np.int64(7)) is report
        emp = empirical_rotation(params_period3, n_steps=30, seed=7)
        assert empirical_rotation(params_period3, n_steps=30, seed=np.int64(7)) == emp
        assert periods._poncelet_check.cache_info()[:2] == (1, 1)
        assert periods._empirical_rotation.cache_info()[:2] == (1, 1)
        # n_steps through operator.index too: np.int64 gives the int's Python float
        emp = empirical_rotation(params_period3, n_steps=np.int64(100), seed=7)
        assert type(emp) is float and emp == empirical_rotation(params_period3, n_steps=100, seed=7)
        for bad, error in ((7.0, TypeError), (-1, ValueError), (-1, ValueError)):
            with pytest.raises(error):
                poncelet_check(params_period3, seed=bad)
            with pytest.raises(error):
                empirical_rotation(params_period3, n_steps=30, seed=bad)

    def test_scan_checks_each_root_once(self, monkeypatch):
        # 6 alpha is an integer where 3 alpha is, and 8 alpha where 4 alpha is: the scan
        # finds those roots again, as the same doubles, and their checks are kept
        checked = []
        first_returns = periods._first_returns
        monkeypatch.setattr(periods, "_first_returns",
                            lambda *args: checked.append(args[-1]) or first_returns(*args))
        roots = {}
        for p in range(3, 9):
            for D in find_periodic_locus(-0.2, p):
                params = derive_params(D, -0.2)
                found = (D, poncelet_check(params), empirical_rotation(params, n_steps=1000))
                assert found[1].method_agreement, found
                assert oracles.wrapped_diff(found[2], found[1].alpha) <= 1e-9, found
                roots.setdefault(round(D, 6), []).append(found)
        repeated = [found for found in roots.values() if len(found) > 1]
        assert len(repeated) == 2 and sum(map(len, roots.values())) == 11
        for (D, report, emp), *later in repeated:
            assert all(d.hex() == D.hex() and r is report and e == emp for d, r, e in later)
        assert len(checked) == len(roots) == 9
        assert [c.D for c in checked] == [found[0][0] for found in roots.values()]
        assert periods._poncelet_check.cache_info()[:2] == (2, 9)
        assert periods._empirical_rotation.cache_info()[:2] == (2, 9)


def counted_candidates(monkeypatch, poles=0):
    """Record the size of each block of sampling candidates; the first `poles` are poles."""
    kernel, blocks = poincare.uniformize_array, []

    def counted(theta, eps, params):
        first = sum(blocks) + np.arange(len(theta))
        blocks.append(len(theta))
        x, A1, A2, pole = kernel(theta, eps, params)
        return x, A1, A2, pole | (first < poles)

    monkeypatch.setattr(poincare, "uniformize_array", counted)
    return blocks


class TestKeptStarts:
    """periods._starts: the check's draw, kept for the winding that follows it."""

    def test_keeps_no_error(self, monkeypatch, params_i):
        # a failed draw is not kept: it raises again, and the draw kept before stays
        poncelet_check(params_i)
        blocks = counted_candidates(monkeypatch, poles=math.inf)
        for _ in range(2):
            with pytest.raises(DomainError, match="sampling failed"):
                empirical_rotation(params_i, n_steps=100, seed=1)
        assert sum(blocks) == 2 * (100 * periods._N_STARTS + 1000)
        assert periods._starts.cache_info()[1:] == (3, 1, 1)  # misses, maxsize, kept
        empirical_rotation(params_i, n_steps=100)
        assert periods._starts.cache_info()[:2] == (1, 3)

    def test_start_past_a_one_point_limit(self, monkeypatch, params_i):
        # the winding's start is the first of _N_STARTS points, so its draw may try
        # 100 * _N_STARTS + 1000 candidates where a draw of one point gives up at 1100
        blocks = counted_candidates(monkeypatch, poles=1100)
        with pytest.raises(DomainError, match="sampling failed"):
            sample_level_set(params_i, 1)
        blocks.clear()
        got = empirical_rotation(params_i, n_steps=100)
        blocks.clear()
        start = poincare._sample_xyz(params_i, periods._N_STARTS, 0)[:, 0].tolist()
        want = oracles.scalar_empirical_rotation(params_i, 100, c0=ConfigPoint(*start))
        assert got.hex() == want.hex()


def outcome(fn, *args, shown=float.hex, **kwargs):
    """(type, message) of the exception fn raises, or shown(its result): float.hex by default."""
    try:
        return shown(fn(*args, **kwargs))
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


# just off the period-3 locus through (7/4, -5/24): 43 of the 100 starts of seed 2 come
# within _RETURN_TOL at step 3, the other 57 never return
MIXED_RETURNS = (derive_params(1.75 + 3e-9, -5.0 / 24.0), 2)


class TestBatchedMatchesScalar:
    """poncelet_check and empirical_rotation against their point-by-point references."""

    @given(oracles.level_sets(), st.integers(0, 2**16), st.integers(1, 400))
    def test_empirical_rotation_bits(self, params, seed, n_steps):
        got = empirical_rotation(params, n_steps=n_steps, seed=seed)
        assert got.hex() == oracles.scalar_empirical_rotation(params, n_steps, seed).hex()

    @given(oracles.level_sets(), st.integers(0, 2**16), st.integers(1, 200))
    def test_empirical_rotation_explicit_start(self, params, seed, n_steps):
        c0 = sample_level_set(params, 3, seed)[2]
        got = empirical_rotation(params, n_steps=n_steps, c0=c0)
        assert got.hex() == oracles.scalar_empirical_rotation(params, n_steps, c0=c0).hex()

    @given(oracles.level_sets(), st.integers(0, 2**16))
    @example(derive_params(0.0, 1e-8), 1)  # start 20 meets A1^2 = 1 at step 11: a PoleError
    @example(*MIXED_RETURNS)  # some starts return at step 3, the rest never
    def test_poncelet_check_repr(self, params, seed):
        got = outcome(poncelet_check, params, seed=seed, shown=repr)
        assert got == outcome(oracles.scalar_poncelet_check, params, seed=seed, shown=repr)

    def test_mixed_returns_split(self):
        # the example above drops the returned starts on a step where others search on
        params, seed = MIXED_RETURNS
        found, _ = periods._first_returns(*periods._sample_xyz(params, periods._N_STARTS, seed),
                                          params)
        assert Counter(found) == {3: 43, None: 57}

    @pytest.mark.parametrize("fixture,detected", [("params_i", None), ("params_period3", 3),
                                                  ("params_ii_plus", None)])
    def test_poncelet_check_fixtures(self, request, fresh_samples, fixture, detected):
        # params_i is generic: every start runs all 60 steps without returning
        params = request.getfixturevalue(fixture)
        got = poncelet_check(params, seed=2)
        assert got.detected == detected
        again = poncelet_check(params, seed=2)
        assert again is got and periods._poncelet_check.cache_info()[:2] == (1, 1)  # hits, misses
        fresh_samples()  # the kept report is the one the reference computes from a fresh draw
        assert repr(again) == repr(oracles.scalar_poncelet_check(params, seed=2))

    def test_poncelet_check_pole_start(self, monkeypatch, params_period3):
        # a start with A1^2 = 1 has its second wall intersection at infinity
        starts = sample_level_set(params_period3, 5, seed=1)
        starts[3] = ConfigPoint(0.4, 1.0, 0.2)
        monkeypatch.setattr(periods, "_sample_xyz",
                            lambda *args: np.array([(c.x, c.A1, c.A2) for c in starts]).T)
        with pytest.raises(PoleError):
            oracles.scalar_poncelet_check(params_period3)
        for _ in range(2):  # an error is not kept: the second call raises it afresh
            with pytest.raises(PoleError):
                poncelet_check(params_period3)
        assert periods._poncelet_check.cache_info()[:2] == (0, 2)

    @pytest.mark.parametrize("fixture", ["params_i", "params_ii_plus", "params_ii_minus"])
    @pytest.mark.parametrize("start", ["pole", "nan_x", "dn_zero", "no_angle"])
    def test_empirical_rotation_bad_start(self, request, fixture, start):
        # the first error met along the orbit, whether in map_t or in the angle inversion;
        # the dn_zero and no_angle starts fail its checks in class I only, so class II
        # orbits may run on
        params = request.getfixturevalue(fixture)
        c = sample_level_set(params, 1, seed=0)[0]
        c0 = {
            "pole": ConfigPoint(c.x, 1.0, c.A2),            # map_t raises PoleError
            "nan_x": ConfigPoint(math.nan, c.A1, c.A2),     # theta is NaN at c0 or c1
            "dn_zero": ConfigPoint(c.x, c.A1, 2.0 * params.E - params.R),
            "no_angle": ConfigPoint(0.0, 0.0, c.A2),        # s = cn = 0 in class I
        }[start]
        want = outcome(oracles.scalar_empirical_rotation, params, 50, c0=c0)
        assert outcome(empirical_rotation, params, 50, c0=c0) == want
        assert outcome(empirical_rotation, params, 50, c0=c0) == want  # kept, or raised again
        if params.cls is RealLocusClass.I or start in ("pole", "nan_x"):
            assert isinstance(want, tuple)
