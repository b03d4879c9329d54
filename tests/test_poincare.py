"""The two involutions, their composition t, and orbit iteration."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import oracles
import boltzmann_billiard
from boltzmann_billiard import poincare
from boltzmann_billiard import (
    ConfigPoint,
    DomainError,
    EmptyLocusError,
    OrbitAbort,
    PoleError,
    RealLocusClass,
    conserved_quantities,
    derive_params,
    i_fixed_point,
    implied_invariants,
    involution_i,
    involution_j,
    iterate_orbit,
    level_set_residual,
    map_t,
    phase_from_config,
    reflect_at_wall,
    component_curve,
    sample_level_set,
)
from boltzmann_billiard.periods import config_distance


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
        incoming = phase_from_config(c, params, outgoing=False)
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
        with pytest.raises(DomainError):
            iterate_orbit(ConfigPoint(0.0, 0.1, 0.2), params, 3)

    def test_renormalized_orbit_stays_tight(self, params_i):
        c0 = sample_level_set(params_i, 1, seed=12)[0]
        orbit = iterate_orbit(c0, params_i, 300, renormalize=True)
        assert max(orbit.residuals) < 1e-11

    def test_negative_steps_raise(self, params_i):
        c0 = sample_level_set(params_i, 1, seed=8)[0]
        with pytest.raises(ValueError, match="n >= 0"):
            iterate_orbit(c0, params_i, -2)


def orbit_bits(orbit):
    """Points and residuals of an orbit as float hex strings (NaN-safe)."""
    return ([tuple(v.hex() for v in (c.x, c.A1, c.A2)) for c in orbit.points],
            [r.hex() for r in orbit.residuals])


def orbit_outcome(fn, *args, **kwargs):
    """The orbit's bits, or the abort's type, message, step and prefix bits."""
    try:
        return orbit_bits(fn(*args, **kwargs))
    except OrbitAbort as exc:
        return type(exc), str(exc), exc.step, orbit_bits(exc.orbit)


def assert_matches_scalar(c0, params, n, **kwargs):
    got = orbit_outcome(iterate_orbit, c0, params, n, **kwargs)
    assert got == orbit_outcome(oracles.scalar_iterate_orbit, c0, params, n, **kwargs)
    return got


def residual_records(params, seed, n):
    """Steps whose residual exceeds that of every earlier step past the start."""
    c0 = sample_level_set(params, 1, seed)[0]
    res = oracles.scalar_iterate_orbit(c0, params, n, residual_ceiling=1.0).residuals
    records, top = [], -1.0
    for step in range(1, n + 1):
        if res[step] > top:
            records.append(step)
            top = res[step]
    return c0, res, records


class TestColumnarMatchesScalar:
    """iterate_orbit against the step-by-step loop in oracles, bit for bit."""

    @given(oracles.level_sets(), st.integers(0, 2**16), st.integers(0, 3000), st.booleans())
    def test_points_and_residuals(self, params, seed, n, renormalize):
        c0 = sample_level_set(params, 1, seed)[0]
        assert_matches_scalar(c0, params, n, renormalize=renormalize)

    def test_abort_abscissa(self):
        params = derive_params(0.3, 0.4)
        c0 = sample_level_set(params, 1, seed=1)[0]
        got = assert_matches_scalar(c0, params, 500, abort_abscissa=50.0)
        assert got[0] is OrbitAbort and "(residual inf)" in got[1]

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
        c0, res, records = residual_records(params, 5, 10_000)
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
        # A1^2 = 1 puts the second wall intersection at infinity at step 1
        got = assert_matches_scalar(ConfigPoint(0.3, 1.0, 0.2), params_i, 10)
        assert got[:3] == (OrbitAbort, "step 1: second wall intersection at infinity (A1^2 = 1)", 1)

    @pytest.mark.parametrize("block", [1, 2, 4096])
    def test_nan_start(self, monkeypatch, params_i, block):
        # step 1 is all NaN and step 2 meets a pole; the non-finite step 1 wins
        monkeypatch.setattr(poincare, "_CHECK_BLOCK", block)
        got = assert_matches_scalar(ConfigPoint(math.nan, 0.1, 0.2), params_i, 10)
        assert got[:3] == (OrbitAbort, "step 1: orbit left the level set (residual inf)", 1)

    def test_nan_conic_start(self, params_i):
        got = assert_matches_scalar(ConfigPoint(0.3, math.nan, 0.2), params_i, 10)
        assert got[0] is OrbitAbort and got[2] == 1

    @given(st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 3),
           st.sampled_from([1e-6, math.inf]), st.sampled_from([1e12, math.inf]),
           st.integers(0, 50))
    def test_arbitrary_starts(self, params_ii_plus, start, ceiling, abscissa, n):
        # starts off the level set, huge or not finite: overflowing and NaN
        # residuals (a NaN passes the ceiling test), poles, non-finite steps
        assert_matches_scalar(ConfigPoint(*start), params_ii_plus, n,
                              residual_ceiling=ceiling, abort_abscissa=abscissa)


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
        with pytest.raises(EmptyLocusError):
            sample_level_set(derive_params(6.0, -0.1), 1)

    def test_degenerate_raises(self):
        with pytest.raises(DomainError):
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
    """Make uniformize_array and uniformize treat every point with x > 0 as a pole."""
    kernel, scalar = poincare.uniformize_array, boltzmann_billiard.uniformize

    def batched(theta, eps, params):
        x, A1, A2, pole = kernel(theta, eps, params)
        return x, A1, A2, pole | (x > 0.0)

    def one(a, params):
        c = scalar(a, params)
        if c.x > 0.0:
            raise PoleError("rejected")
        return c

    monkeypatch.setattr(poincare, "uniformize_array", batched)
    monkeypatch.setattr(boltzmann_billiard, "uniformize", one)


class TestBlockSampling:
    """The angle route in blocks against the one-candidate-at-a-time loop."""

    @given(oracles.level_sets(), st.integers(0, 2**32 - 1), st.integers(-2, 300))
    def test_matches_scalar_loop(self, params, seed, m):
        got = sampled(sample_level_set, params, m, seed)
        assert got == sampled(oracles.scalar_sample_level_set, params, m, seed)

    @pytest.mark.parametrize("residual", [None, math.inf, math.nan])
    @pytest.mark.parametrize("D,E", ALL_CLASS_FIXTURES)
    def test_rejections(self, monkeypatch, D, E, residual):
        # no candidate is rejected on these sets, so make those with x > 0 poles
        # or give them this residual on both paths; a rejection leaves a block
        # short and more blocks follow, a NaN residual is accepted as in the loop
        params = derive_params(D, E)
        if residual is None:
            poles_at_positive_x(monkeypatch)
        else:
            kernel, scalar = poincare.level_set_residual_array, boltzmann_billiard.level_set_residual
            monkeypatch.setattr(poincare, "level_set_residual_array", lambda x, A1, A2, params:
                                np.where(x > 0.0, residual, kernel(x, A1, A2, params)))
            monkeypatch.setattr(boltzmann_billiard, "level_set_residual", lambda c, params:
                                residual if c.x > 0.0 else scalar(c, params))
        for seed in range(3):
            got = sample_level_set(params, 57, seed)
            assert len(got) == 57
            nan_kept = residual is not None and math.isnan(residual)
            assert any(c.x > 0.0 for c in got) == nan_kept
            assert point_hexes(got) == point_hexes(oracles.scalar_sample_level_set(params, 57, seed))

    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1)])
    def test_guard_exhausted(self, monkeypatch, D, E, m):
        # every candidate a pole: both paths try 100 m + 1000 of them, then raise
        params = derive_params(D, E)
        kernel, scalar = poincare.uniformize_array, boltzmann_billiard.uniformize
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
        monkeypatch.setattr(boltzmann_billiard, "uniformize", one)
        with pytest.raises(DomainError) as want:
            oracles.scalar_sample_level_set(params, m, seed=3)
        assert sum(tried) == 100 * m + 1000
        assert str(got.value) == str(want.value) == (
            "sampling failed to find real points (locus nearly degenerate?)")

    def test_non_positive_count_checks_nothing(self, params_i, monkeypatch):
        # as in the loop, no candidate is drawn
        def boom(*args):
            raise AssertionError("a candidate was evaluated")

        monkeypatch.setattr(poincare, "uniformize_array", boom)
        assert sample_level_set(params_i, 0) == []
        assert sample_level_set(params_i, -2) == []


class TestComponentCurve:
    @pytest.mark.parametrize("D,E", ALL_CLASS_FIXTURES + [(0.3, 0.4), (3.0, 0.3)])
    @pytest.mark.parametrize("n", [0, 2, 3, 129, 257, 1000])
    def test_matches_scalar_loop(self, D, E, n):
        params = derive_params(D, E)
        for eps in ((0,) if params.cls is RealLocusClass.I else (0, 1)):
            got = component_curve(params, eps, n)
            assert point_hexes(got) == point_hexes(oracles.scalar_component_curve(params, eps, n))

    def test_skips_poles(self, monkeypatch, params_ii_minus):
        poles_at_positive_x(monkeypatch)
        got = component_curve(params_ii_minus, 1, 65)
        assert 0 < len(got) < 65
        assert point_hexes(got) == point_hexes(oracles.scalar_component_curve(params_ii_minus, 1, 65))

    def test_errors(self, params_i):
        for args in [(params_i, 0, 1), (params_i, 1, 5), (derive_params(1.0, -0.5), 0, 5)]:
            got = sampled(component_curve, *args)
            assert isinstance(got, tuple) and got == sampled(oracles.scalar_component_curve, *args)

    def test_no_points_checks_nothing(self, params_i):
        # with n <= 0 the old loop made no uniformize call, so bad input passed
        for args in [(derive_params(1.0, -0.5), 0, 0), (derive_params(1.0, -0.5), 1, -3),
                     (params_i, 1, 0)]:
            assert component_curve(*args) == oracles.scalar_component_curve(*args) == []
