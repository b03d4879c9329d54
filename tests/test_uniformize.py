"""Angle coordinates on the level set and the rotation number of t."""

import dataclasses
import itertools
import math
import random
from collections import Counter

import mpmath
import numpy as np
import pytest

from boltzmann_billiard import (
    AngleCoord,
    DomainError,
    NearDegenerateError,
    RealLocusClass,
    angle_of,
    component_curve,
    derive_params,
    empirical_rotation,
    i_fixed_point,
    involution_i,
    involution_j,
    level_set_residual,
    map_t,
    rotation_number,
    sample_level_set,
    uniformize,
)
from boltzmann_billiard.levelset import _reflect
from boltzmann_billiard.poincare import _sample_xyz, map_t_array
from boltzmann_billiard.uniformize import (_ALPHA_SIGN, _ENDPOINT_GUARD, _amplitudes, _lift,
                                             _near_branch_i, _near_branch_ii, _wrap, theta_array)

import oracles
from oracles import config_distance


# analytic rotation numbers frozen after anchoring against long empirical
# windings (10^4 steps agree to ~1e-14 at each of these points)
ALPHA_FIXTURES = [
    (1.5, -0.2, 0.707115615675),
    (0.5, -0.2, 0.911514927197),
    (2.5, -0.1, 0.339505868735),
    (3.2, -0.05, 0.388312007016),
    (-2.5, 1.5, 0.770188789586),
    (-3.0, 1.8, 0.728656418908),
    (0.3, 0.4, 0.779174676606),
]


def test_theta_zero_lands_on_circle_top(params_i):
    p = params_i
    c = uniformize(AngleCoord(0.0), p)
    assert c.A1 == pytest.approx(0.0, abs=1e-12)
    assert c.A2 == pytest.approx(2.0 * p.E + p.R, abs=1e-12)


@pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)])
def test_uniformize_lands_on_level_set(D, E):
    params = derive_params(D, E)
    rng = np.random.default_rng(21)
    for theta in rng.uniform(0.0, 1.0, size=60):
        for eps in ((0, 1) if params.cls is not RealLocusClass.I else (0,)):
            c = uniformize(AngleCoord(float(theta), eps), params)
            assert level_set_residual(c, params) < 1e-10


def test_components_differ_by_momentum_sign(params_ii_plus):
    p = params_ii_plus
    for theta in (0.05, 0.3, 0.62):
        c0 = uniformize(AngleCoord(theta, 0), p)
        c1 = uniformize(AngleCoord(theta, 1), p)
        assert c0.z(p) > 0.0 > c1.z(p)


def test_real_route_matches_complex_oracle():
    for D, E in [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)]:
        params = derive_params(D, E)
        for theta in (0.07, 0.23, 0.41, 0.77, 0.93):
            for eps in ((0, 1) if params.cls is not RealLocusClass.I else (0,)):
                a = AngleCoord(theta, eps)
                real = uniformize(a, params)
                orac = oracles.uniformize_complex_oracle(a, params)
                assert config_distance(real, orac) < 1e-10


@pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)])
def test_angle_roundtrip(D, E):
    params = derive_params(D, E)
    pts = sample_level_set(params, 1000, seed=22)
    worst = 0.0
    for c in pts:
        a = angle_of(c, params)
        back = uniformize(a, params)
        worst = max(worst, config_distance(back, c))
    assert worst < 1e-8


@pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)])
def test_theta_against_mpmath(D, E):
    # theta to within 1e-15 of a 40-digit inversion, also next to phi = pi/2 (and 3 pi/2 in
    # class I), where |cos phi| < 1e-8 and 1 - sin(phi)^2 would cancel
    params = derive_params(D, E)
    one = params.cls is RealLocusClass.I
    near = [AngleCoord(t + d, eps) for t in ((0.25, 0.75) if one else (0.5,))
            for d in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9) for eps in ((0,) if one else (0, 1))]
    pts = sample_level_set(params, 400, seed=26) + [uniformize(a, params) for a in near]
    theta = theta_array(*np.array([(c.x, c.A1, c.A2) for c in pts]).T, params)
    ref = [oracles.mp_angle(c, params) for c in pts]
    assert max(oracles.wrapped_diff(t, r) for t, (r, _) in zip(theta.tolist(), ref)) < 1e-15
    assert min(abs(math.cos(phi)) for _, phi in ref) < 1e-8


@pytest.mark.parametrize("D,E,alpha", ALPHA_FIXTURES)
def test_rotation_number_frozen_values(D, E, alpha):
    rot = rotation_number(derive_params(D, E))
    assert rot.alpha == pytest.approx(alpha, abs=1e-9)


@pytest.mark.parametrize("cls", ["I", "IIplus", "IIminus"])
def test_alpha_within_eight_units_of_40_digits(cls):
    # the seeded sample of oracles.alpha_sample, nodal-line points included: K from its
    # complementary parameter, k2 as (D - 2)(D + 2)/den^2 and the class II segment in
    # Carlson form leave alpha a few units of 2^-53 from alpha(D, E) itself
    points = oracles.alpha_sample()[cls]
    assert len(points) >= 1500
    errors = [oracles.alpha_error_units(rotation_number(derive_params(D, E)).alpha,
                                        oracles.mp_alpha(D, E)) for D, E in points]
    worst = max(range(len(points)), key=errors.__getitem__)
    assert errors[worst] <= 8.0, (points[worst], errors[worst])


def test_rotation_flips_component_flag():
    assert rotation_number(derive_params(2.5, -0.1)).flips_component is True
    assert rotation_number(derive_params(1.5, -0.2)).flips_component is False
    assert rotation_number(derive_params(-2.5, 1.5)).flips_component is False


def test_rotation_from_segment_integrals(params_i, params_ii_plus, params_ii_minus):
    # the closed forms, rebuilt here from quadrature on the normal forms
    p = params_i
    seg = oracles.seg_case_i_quad(p.s0_inv, p.k2)
    alpha = (-seg / (4.0 * oracles.Kpp_quad(p.k2))) % 1.0
    assert rotation_number(p).alpha == pytest.approx(alpha, abs=1e-10)

    p = params_ii_plus
    seg = oracles.seg_case_ii_quad(p.s0, p.k2)
    alpha = (seg / (2.0 * oracles.Kp_quad(p.k2))) % 1.0
    assert rotation_number(p).alpha == pytest.approx(alpha, abs=1e-10)

    p = params_ii_minus
    seg = oracles.seg_case_ii_quad(-p.s0, p.k2)
    alpha = (-seg / (2.0 * oracles.Kp_quad(p.k2))) % 1.0
    assert rotation_number(p).alpha == pytest.approx(alpha, abs=1e-10)


@pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5), (0.3, 0.4)])
def test_single_step_conjugacy(D, E):
    # t acts on the angle as a rigid rotation by alpha (plus the component
    # swap on II+), uniformly over the set
    params = derive_params(D, E)
    rot = rotation_number(params)
    rng = np.random.default_rng(23)
    for _ in range(50):
        theta = float(rng.random())
        eps = int(rng.integers(0, 2)) if params.cls is not RealLocusClass.I else 0
        c = uniformize(AngleCoord(theta, eps), params)
        a_next = angle_of(map_t(c, params), params)
        d_theta = abs((a_next.theta - theta - rot.alpha + 0.5) % 1.0 - 0.5)
        assert d_theta < 1e-7
        if params.cls is not RealLocusClass.I:
            expected_eps = (eps + 1) % 2 if rot.flips_component else eps
            assert a_next.eps == expected_eps


# the sampled (D, E) where theta(t c) - theta(c) - alpha misses 1e-12, both by the float
# rounding of the step, which theta amplifies: at the first a start's image lies 4.6e5 out
# along the wall, where 1 - A1^2 cancels; the second is in IIminus next to D = -2
LAW_BREAKS = {(1.524873287205999, 0.10518444534189131), (-2.00015914644669, 1.0504038791622308)}


def test_translation_and_j_laws_per_point():
    # the proof's mechanism at single points: t translates theta by alpha, and j reflects
    # it, theta(c) + theta(j c) = alpha - a with a = 1/2 in class I and 0 in classes II;
    # a wrong _ALPHA_SIGN breaks both laws
    rng = random.Random(20261019)
    counts, breaks = Counter(), set()
    for seed in itertools.count():  # one (D, E) per draw, and the seed of its starts
        if counts.total() == 2000:
            break
        D, E = rng.uniform(-6.0, 6.0), rng.uniform(-0.5, 3.0)
        params = derive_params(D, E)
        if not params.nondegenerate:
            continue
        counts[params.cls] += 1
        alpha = rotation_number(params).alpha
        a = 0.5 if params.cls is RealLocusClass.I else 0.0
        x, A1, A2 = _sample_xyz(params, 20, seed)
        theta = theta_array(x, A1, A2, params)
        t_law = theta_array(*map_t_array(x, A1, A2, params), params) - theta - alpha
        j_law = theta + theta_array(x, *_reflect(x, A1, A2, E), params) + a - alpha
        assert np.abs((j_law + 0.5) % 1.0 - 0.5).max() <= 1e-12, (D, E)
        if np.abs((t_law + 0.5) % 1.0 - 0.5).max() > 1e-12:
            breaks.add((D, E))
    assert breaks == LAW_BREAKS
    assert set(counts) == {RealLocusClass.I, RealLocusClass.II_PLUS, RealLocusClass.II_MINUS}
    assert min(counts.values()) >= 250, counts


def cayley_alpha(D: float, E: float) -> tuple:
    """The orientation sign and the rotation number from Cayley's cubic, at 30 digits.

    g(t) = (t + 1)(R^2 t^2 - (D s - 2) t + 1), s = D + 2E, is the cubic of the
    circle C of the level set and the unit circle K (ROADMAP item 2).  The
    real curve w^2 = g(t) is a bounded oval [e1, e2] and an unbounded branch
    [e3, inf) (only the branch when g has one real root), and P0, over t = 0,
    lies on one of them.  On the oval, which does not hold the point at
    infinity, alpha = +int_e1^0 / (2 int_e1^e2) of dt / sqrt(g); on the branch,
    alpha = 1 - int_0^inf / (2 int_e3^inf).  So the sign is +1 on the oval
    and -1 on the branch.  mp.quad leaves an imaginary residue of about
    1e-16 next to the roots, so the integrand is its real part.
    """
    with mpmath.workdps(30):
        D, E = mpmath.mpf(D), mpmath.mpf(E)
        R2, b = 1 + 2 * D * E + 4 * E * E, D * (D + 2 * E) - 2
        disc = b * b - 4 * R2
        roots = sorted([mpmath.mpf(-1)] + ([(b + r * mpmath.sqrt(disc)) / (2 * R2) for r in (-1, 1)]
                                           if disc > 0 else []))

        def quad(lo, hi):
            return mpmath.quad(lambda t: mpmath.re(1 / mpmath.sqrt((t + 1) * (R2 * t * t - b * t + 1))),
                               [lo, hi])

        if len(roots) == 3 and roots[1] >= 0:  # P0 on the oval
            return 1, quad(roots[0], 0) / (2 * quad(roots[0], roots[1]))
        return -1, 1 - quad(0, mpmath.inf) / (2 * quad(roots[-1], mpmath.inf))


@pytest.mark.parametrize("cls", list(_ALPHA_SIGN), ids=lambda cls: cls.value)
def test_alpha_sign_from_cayleys_cubic(cls):
    # the oval of P0 gives _ALPHA_SIGN (-1, +1, -1 for I, IIplus, IIminus), and the cubic's
    # integrals give rotation_number's alpha, at seeded points of each class
    rng = random.Random(20261021)
    (dlo, dhi), (elo, ehi) = oracles._class_boxes()[cls]
    points = []
    while len(points) < 4:
        D, E = rng.uniform(dlo, dhi), rng.uniform(elo, ehi)
        if derive_params(D, E).cls is cls:
            points.append((D, E))
    for D, E in points:
        sign, alpha = cayley_alpha(D, E)
        assert sign == _ALPHA_SIGN[cls], (D, E)
        assert oracles.wrapped_diff(float(alpha), rotation_number(derive_params(D, E)).alpha) <= 1e-12


@pytest.mark.parametrize("D,E", [(1.5, -0.2), (0.5, -0.2), (0.3, 0.4), (-1.9, 1.2)])
def test_i_fixed_points_at_quarter_turns(D, E):
    # class I: i is theta -> 1/2 - theta, so it fixes theta = 1/4 and 3/4, the radial conics
    params = derive_params(D, E)
    assert params.cls is RealLocusClass.I
    for theta, fixed in ((0.25, True), (0.75, True), (0.0, False), (0.5, False), (0.1, False)):
        assert i_fixed_point(uniformize(AngleCoord(theta), params), params) is fixed


@pytest.mark.parametrize("D,E,i_swaps,j_swaps", [
    (2.5, -0.1, True, False), (3.2, 0.4, True, False),    # II+
    (-2.5, 1.5, True, True), (-3.0, 2.0, True, True),     # II-
])
def test_flips_component_is_i_xor_j(D, E, i_swaps, j_swaps):
    # classes II: the component is the sign of z; i and j swap it at every start or at none, as
    # the table in the uniformize docstring says, and t = j o i swaps it when exactly one does
    params = derive_params(D, E)
    starts = sample_level_set(params, 50, seed=0)

    def swaps(f):
        return {(f(c, params).z(params) > 0.0) != (c.z(params) > 0.0) for c in starts}

    assert (swaps(involution_i), swaps(involution_j)) == ({i_swaps}, {j_swaps})
    assert swaps(map_t) == {rotation_number(params).flips_component} == {i_swaps != j_swaps}


@pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)])
def test_analytic_equals_empirical(D, E):
    params = derive_params(D, E)
    alpha = rotation_number(params).alpha
    emp = empirical_rotation(params, n_steps=4000, seed=24)
    assert oracles.wrapped_diff(alpha, emp) < 1e-6


def test_alpha_vanishes_at_tangent_boundary():
    # D + 2E -> 0+ squeezes the wall chord to a point; t degenerates to the
    # identity and alpha goes to 0 mod 1
    E = -0.2
    gaps = [1e-2, 1e-4, 1e-6]
    alphas = [rotation_number(derive_params(-2.0 * E + g, E)).alpha for g in gaps]
    dists = [min(a % 1.0, 1.0 - a % 1.0) for a in alphas]
    assert dists[0] < 0.1
    assert dists[1] < dists[0] and dists[2] < dists[1]
    assert dists[2] < 1e-3


def test_alpha_never_half():
    # period 2 is impossible: j has no fixed points off the nodal sets, so
    # alpha stays clear of 1/2 on every nondegenerate class
    for D, E in [(d, -0.2) for d in np.linspace(0.45, 1.95, 12)]:
        assert abs(rotation_number(derive_params(D, E)).alpha - 0.5) > 1e-3
    for D, E in [(d, -0.1) for d in np.linspace(2.05, 3.95, 12)]:
        assert abs(rotation_number(derive_params(D, E)).alpha - 0.5) > 1e-3


def test_degenerate_rejected():
    with pytest.raises(DomainError):
        rotation_number(derive_params(1.0, -0.5))


def test_near_degenerate_guard(params_i):
    # synthetic parameters hard against the branch point trip the guard
    p = dataclasses.replace(params_i, s0_inv=1.0 - 1e-12, s0=1.0 / (1.0 - 1e-12))
    with pytest.raises(NearDegenerateError):
        rotation_number(p)


def _straddle(x, gap):
    """The two adjacent doubles about x whose gap is just below and just above the guard."""
    for a, b in ((math.nextafter(x, -math.inf), x), (x, math.nextafter(x, math.inf))):
        if (gap(a) < _ENDPOINT_GUARD) != (gap(b) < _ENDPOINT_GUARD):
            return (a, b) if gap(a) < _ENDPOINT_GUARD else (b, a)
    raise AssertionError(f"no guard crossing next to {x!r}")


class TestEndpointGuards:
    # the segment end x is 1/s0 in class I and |s0| in classes II; rotation_number and the
    # grid's _alpha read the guard through these two helpers only.  No double gap equals the
    # guard (1e-10 is not a multiple of the ulp of a number next to 1 or 1/k), so the gap of
    # exactly the guard is made at 40 digits, where the helpers' arithmetic is exact
    K = 0.25  # sqrt(k2) of a class II segment [1, 4]

    def test_class_i_helper(self):
        for sign in (1.0, -1.0):
            near, far = _straddle(sign * (1.0 - _ENDPOINT_GUARD), lambda x: 1.0 - abs(x))
            assert 1.0 - abs(near) < _ENDPOINT_GUARD < 1.0 - abs(far)
            assert _near_branch_i(near) and not _near_branch_i(far)
            assert _near_branch_i(np.array([near, far, 0.5 * sign])).tolist() == [True, False, False]
        with mpmath.workdps(40):
            end = 1 - mpmath.mpf(_ENDPOINT_GUARD)
            assert not _near_branch_i(end) and not _near_branch_i(-end)

    @pytest.mark.parametrize("side", ["one", "inverse_k"])
    def test_class_ii_helper(self, side):
        gap = (lambda x: x - 1.0) if side == "one" else (lambda x: 1.0 / self.K - x)
        end = 1.0 + _ENDPOINT_GUARD if side == "one" else 1.0 / self.K - _ENDPOINT_GUARD
        near, far = _straddle(end, gap)
        assert gap(near) < _ENDPOINT_GUARD < gap(far)
        assert _near_branch_ii(near, self.K) and not _near_branch_ii(far, self.K)
        got = _near_branch_ii(np.array([near, far, 2.0]), np.full(3, self.K))
        assert got.tolist() == [True, False, False]
        with mpmath.workdps(40):
            g, k = mpmath.mpf(_ENDPOINT_GUARD), mpmath.mpf(self.K)
            assert not _near_branch_ii(1 + g if side == "one" else 1 / k - g, k)

    # rotation_number refuses inside each guard and answers just outside it.  The sets are
    # built by hand: no derive_params input reaches the class I guard, which the |s| and
    # ||D| - 2| bands of the class table shadow.  Next to the tangent line 1 - |1/s0| is
    # about 2s, and next to |D| = 2 - delta about 2 sqrt(delta); the smallest gap over about
    # 10^5 class I points, band edges included, was 2.0e-9.  The class table's exact-sign
    # rework (ROADMAP item 18) removes these bands.
    @pytest.mark.parametrize("fixture, end", [
        ("params_i", "one"),  # class I's branch points are -1 and 1, both tried
        ("params_ii_plus", "one"), ("params_ii_plus", "inverse_k"),
        ("params_ii_minus", "one"), ("params_ii_minus", "inverse_k"),
    ])
    def test_rotation_number_refuses_inside(self, request, fixture, end):
        params = request.getfixturevalue(fixture)
        one = params.cls is RealLocusClass.I
        branch = 1.0 if end == "one" else 1.0 / math.sqrt(params.k2)
        for gap, refused in ((0.5 * _ENDPOINT_GUARD, True), (2.0 * _ENDPOINT_GUARD, False)):
            # the end moves into the segment: below 1 in class I, above 1 or below 1/k in II
            x = branch - gap if one or end == "inverse_k" else branch + gap
            for sign in ((1.0, -1.0) if one else (math.copysign(1.0, params.s0),)):
                p = (dataclasses.replace(params, s0_inv=sign * x, s0=sign / x) if one
                     else dataclasses.replace(params, s0=sign * x, s0_inv=sign / x))
                if refused:
                    with pytest.raises(NearDegenerateError):
                        rotation_number(p)
                else:
                    assert 0.0 <= rotation_number(p).alpha < 1.0


class TestAlphaDerivative:
    # frozen central-difference values at the three class fixtures
    FIXTURES = [
        (1.5, -0.2, -0.153047),
        (2.5, -0.1, +0.107327),
        (-2.5, 1.5, -0.066702),
    ]

    @pytest.mark.parametrize("D,E,slope", FIXTURES)
    def test_frozen_values(self, D, E, slope):
        got = oracles.alpha_slope(D, E)
        assert got == pytest.approx(slope, abs=5e-5)
        assert abs(got) > 1e-6  # alpha moves with D: the map is a twist


def test_component_curve_on_set(params_i, params_ii_plus):
    for params, eps_list in ((params_i, (0,)), (params_ii_plus, (0, 1))):
        for eps in eps_list:
            pts = component_curve(params, eps=eps)
            assert len(pts) >= 120
            assert all(level_set_residual(c, params) < 1e-9 for c in pts)


def test_angle_of_stable_under_drift(params_i):
    # the inversion normalizes the Jacobi pair by its length, so a slightly off-set point
    # (as produced by long unrenormalized orbits) maps to a nearby angle
    from boltzmann_billiard import ConfigPoint
    c = sample_level_set(params_i, 1, seed=25)[0]
    a = angle_of(c, params_i)
    rough = ConfigPoint(c.x + 1e-9, c.A1 - 1e-9, c.A2 + 1e-9)
    b = angle_of(rough, params_i)
    assert abs((a.theta - b.theta + 0.5) % 1.0 - 0.5) < 1e-7


class TestWrap:
    """_wrap, x - floor(x), against numpy's x % 1.0 double for double (oracles.remainder_wrap)."""

    def test_edge_values(self):
        one = [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
        tiny = [0.0, 1e-320, 5e-324, 1e-20]
        big = [0.5, 2.0**52 - 0.5, 2.0**52, 2.0**52 + 1.0, 2.0**53, 2.0**60, 1e300]
        edge = np.array([s * v for v in one + tiny + big for s in (1.0, -1.0)]
                        + [math.nan, -math.nan, math.inf, -math.inf])
        with np.errstate(invalid="ignore"):  # the infinities: NaN from both
            want = oracles.remainder_wrap(edge)
            got = _wrap(edge)
        assert oracles.doubles(got) == oracles.doubles(want)
        # +0.0 at every integer, -0.0 and -1 among them; 1.0 from a negative x just below 0
        assert oracles.doubles(_wrap(np.array([-0.0, -1.0, 3.0]))) == [("0x0.0p+0", False)] * 3
        assert _wrap(np.array([-1e-20]))[0] == 1.0

    @pytest.mark.parametrize("lo, hi, n", [(-3.0, 5.0, 10**6), (0.0, 2.0**60, 10**5)],
                             ids=["unit", "huge"])
    def test_seeded_doubles(self, lo, hi, n):
        x = np.random.default_rng(20261020).uniform(lo, hi, n)
        for v in (x, -x):
            assert oracles.same_doubles(_wrap(v), oracles.remainder_wrap(v))

    def test_theta_array(self, params_i, params_ii_plus, params_ii_minus):
        # rotation_grid's and the period scan's wraps are pinned by their scalar twins,
        # which wrap by Python's float %, numpy's algorithm
        for params in (params_i, params_ii_plus, params_ii_minus):
            xyz = _sample_xyz(params, 400, 3)
            lifted = _lift(*_amplitudes(*xyz, params))
            assert oracles.doubles(theta_array(*xyz, params)) == oracles.doubles(lifted % 1.0)
