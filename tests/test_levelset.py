"""Classification of (D, E) level sets and the derived curve data."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from boltzmann_billiard import (
    BOUNDARY_TOL,
    AngleCoord,
    ConfigPoint,
    DomainError,
    RealLocusClass,
    complete_Kp,
    complete_Kpp,
    derive_params,
    implied_invariants,
    level_set_residual,
    other_wall_root,
    project_onto_level_set,
    sample_level_set,
    uniformize,
)
from boltzmann_billiard import elliptic, levelset
from boltzmann_billiard.levelset import NONDEGENERATE
from boltzmann_billiard.poincare import _sample_xyz

import oracles


CLASS_FIXTURES = [
    (1.5, -0.2, RealLocusClass.I),
    (0.5, -0.2, RealLocusClass.I),
    (0.3, 0.4, RealLocusClass.I),          # positive energy, still one oval
    (2.5, -0.1, RealLocusClass.II_PLUS),
    (3.2, -0.05, RealLocusClass.II_PLUS),
    (-2.5, 1.5, RealLocusClass.II_MINUS),
    (-3.0, 1.8, RealLocusClass.II_MINUS),
    (1.0, -0.5, RealLocusClass.DEGENERATE_TANGENT),
    (-3.0, 1.5, RealLocusClass.DEGENERATE_TANGENT),
    (2.0, -0.3, RealLocusClass.NODAL_D),
    (-2.0, 1.3, RealLocusClass.NODAL_D),
    (2.05, -0.4, RealLocusClass.NODAL_R),  # circle radius collapses to zero
    (1.5, -2.0, RealLocusClass.NEGATIVE_SIDE),
    (-2.5, -0.1, RealLocusClass.NEGATIVE_SIDE),
    (6.0, -0.1, RealLocusClass.EMPTY),     # imaginary circle radius
    (6.0, -2.95, RealLocusClass.EMPTY),    # real circle, no wall intersection
]


@pytest.mark.parametrize("D,E,cls", CLASS_FIXTURES)
def test_classification(D, E, cls):
    assert derive_params(D, E).cls is cls


def test_nondegenerate_mask():
    # the array class table's mask, by class code and on a grid of all eight classes
    for code, cls in enumerate(RealLocusClass):
        assert levelset._NONDEGENERATE[code] == (cls in NONDEGENERATE), cls
    Ds, Es = (sorted({pt[i] for pt in CLASS_FIXTURES}) for i in (0, 1))
    D, E = (a.ravel() for a in np.meshgrid(Ds, Es))
    with np.errstate(invalid="ignore"):  # R is NaN where R^2 < 0
        code, nondegenerate, *_ = levelset._classify(D, E)
    assert sorted(set(code.tolist())) == list(range(len(RealLocusClass)))
    assert nondegenerate.tolist() == [derive_params(*pt).nondegenerate
                                      for pt in zip(D.tolist(), E.tolist())]


def test_boundary_band_width():
    # the nodal band |D| = 2 is detected within the absolute tolerance
    assert derive_params(2.0 + 0.5 * BOUNDARY_TOL, -0.3).cls is RealLocusClass.NODAL_D
    assert derive_params(2.0 + 10.0 * BOUNDARY_TOL, -0.3).cls is RealLocusClass.II_PLUS
    assert derive_params(2.0 - 10.0 * BOUNDARY_TOL, -0.3).cls is RealLocusClass.I
    # likewise the tangent band D + 2E = 0
    assert derive_params(1.0 - 0.5 * BOUNDARY_TOL, -0.5).cls is RealLocusClass.DEGENERATE_TANGENT
    assert derive_params(1.0 + 10.0 * BOUNDARY_TOL, -0.5).cls is RealLocusClass.I


def test_exact_rational_curve_data(params_period3):
    # at (7/4, -5/24) every derived quantity is rational or a square root of
    # one; check them against exact arithmetic
    D, E = Fraction(7, 4), Fraction(-5, 24)
    R2 = 1 + 2 * D * E + 4 * E * E
    R = Fraction(2, 3)
    assert R * R == R2
    k2 = (D + 4 * E - 2 * R) / (D + 4 * E + 2 * R)
    s0 = (D + 2 * E + R) / (D + 2 * E - R)
    C2 = (D + 2 * E) * (D + 4 * E + 2 * R)
    assert k2 == Fraction(-5, 27)
    assert s0 == 3
    assert C2 == 3
    p = params_period3
    assert p.cls is RealLocusClass.I
    assert p.R == pytest.approx(float(R), abs=1e-15)
    assert p.k2 == pytest.approx(float(k2), abs=1e-15)
    assert p.s0 == pytest.approx(float(s0), abs=1e-14)
    assert p.s0_inv == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert p.C2 == pytest.approx(3.0, abs=1e-14)
    assert p.C == pytest.approx(math.sqrt(3.0), abs=1e-14)


def test_radius_formula():
    for D, E in [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)]:
        p = derive_params(D, E)
        assert p.R * p.R == pytest.approx(1.0 + 2.0 * D * E + 4.0 * E * E, abs=1e-13)


def test_modulus_regimes(params_i, params_ii_plus, params_ii_minus):
    assert params_i.k2 < 0.0
    assert 0.0 < params_ii_plus.k2 < 1.0
    assert 0.0 < params_ii_minus.k2 < 1.0
    for p in (params_i, params_ii_plus, params_ii_minus):
        assert p.C2 > 0.0
    assert complete_Kpp(params_i.k2) > 0.0
    assert complete_Kp(params_ii_plus.k2) > 0.0
    assert complete_Kp(params_ii_minus.k2) > 0.0


def test_s0_ranges(params_i, params_ii_plus, params_ii_minus):
    assert abs(params_i.s0) > 1.0
    k = math.sqrt(params_ii_plus.k2)
    assert 1.0 < params_ii_plus.s0 < 1.0 / k
    k = math.sqrt(params_ii_minus.k2)
    assert -1.0 / k < params_ii_minus.s0 < -1.0


@given(st.floats(-5.0, 5.0), st.floats(-3.0, 3.0))
def test_s0_ranges_property(D, E):
    p = derive_params(D, E)
    assume(p.nondegenerate)
    if p.cls is RealLocusClass.I:
        assert abs(p.s0) > 1.0 - 1e-12
    else:
        k = math.sqrt(p.k2)
        assert 1.0 - 1e-12 < abs(p.s0) < 1.0 / k + 1e-12
        assert (p.s0 > 0) == (p.cls is RealLocusClass.II_PLUS)


def test_negative_side_mirror():
    # D + 2E < 0 is the sign-mapped image of the level set at (-D, -E)
    assert derive_params(1.5, -2.0).cls is RealLocusClass.NEGATIVE_SIDE
    assert derive_params(-1.5, 2.0).cls is RealLocusClass.I
    assert derive_params(-2.5, -0.1).cls is RealLocusClass.NEGATIVE_SIDE
    assert derive_params(2.5, 0.1).cls is RealLocusClass.II_PLUS


def circle_position(D: float, E: float) -> str:
    """Where Poncelet's circle C (centre (0, 2E), radius R) lies against K (unit, centre (0, -D)).

    The distance between the centres is d = |D + 2E|.
    """
    s, R2 = D + 2.0 * E, 1.0 + 2.0 * D * E + 4.0 * E * E
    if s < 0.0:
        return "negative side"
    if R2 < 0.0:
        return "C imaginary"
    R, d = math.sqrt(R2), abs(s)
    return ("C inside K" if d < 1.0 - R else "K inside C" if d < R - 1.0
            else "disjoint" if d > R + 1.0 else "intersecting")


CIRCLE_CLASSES = {
    "intersecting": RealLocusClass.I, "disjoint": RealLocusClass.II_PLUS,
    "K inside C": RealLocusClass.II_MINUS, "C inside K": RealLocusClass.EMPTY,
    "C imaginary": RealLocusClass.EMPTY, "negative side": RealLocusClass.NEGATIVE_SIDE,
}


def test_class_is_circle_position():
    # the README's class table: the class is the relative position of C and K,
    # at every seeded point of [-6, 6] x [-3, 3] outside the BOUNDARY_TOL bands
    rng = np.random.default_rng(2020)
    D, E = rng.uniform(-6.0, 6.0, 25_000), rng.uniform(-3.0, 3.0, 25_000)
    with np.errstate(invalid="ignore"):  # R is NaN where R^2 < 0
        s, R2, _, den = levelset._curve_terms(D, E)
    off_bands = ~((np.abs(s) < BOUNDARY_TOL) | (np.abs(R2) < BOUNDARY_TOL)
                  | (np.abs(np.abs(D) - 2.0) < BOUNDARY_TOL) | (np.abs(den) < BOUNDARY_TOL))
    seen = set()
    for D_, E_ in zip(D[off_bands].tolist(), E[off_bands].tolist()):
        where = circle_position(D_, E_)
        assert derive_params(D_, E_).cls is CIRCLE_CLASSES[where], (D_, E_, where)
        seen.add(where)
    assert seen == set(CIRCLE_CLASSES) and off_bands.sum() >= 20_000


def test_nonempty_predicate():
    # the class is the one emptiness predicate: Empty where R^2 < 0 or D + 4E + 2R < 0
    assert derive_params(1.5, -0.2).nondegenerate
    assert derive_params(-2.5, 1.5).nondegenerate
    # real circle radius but no wall intersection
    p = derive_params(6.0, -2.95)
    assert p.R > 0.0 and p.D + 4.0 * p.E + 2.0 * p.R < 0.0
    assert p.cls is RealLocusClass.EMPTY
    # imaginary radius
    assert derive_params(6.0, -0.1).cls is RealLocusClass.EMPTY


@given(st.floats(-1.99, 1.99), st.floats(-3.0, 3.0))
def test_small_D_never_empty(D, E):
    # |D| < 2: the wall always meets the conic family
    p = derive_params(D, E)
    if p.cls is RealLocusClass.NEGATIVE_SIDE:
        p = derive_params(-D, -E)
    assert p.cls is not RealLocusClass.EMPTY


def test_nan_rejected():
    with pytest.raises(DomainError):
        derive_params(math.nan, 0.1)
    with pytest.raises(DomainError):
        derive_params(1.0, math.inf)


def forbid_integrals(monkeypatch):
    """Make every complete integral of elliptic raise when called."""
    def no_integral(m):
        raise AssertionError(f"complete integral called at m={m!r}")

    for name in ("complete_K", "complete_Kp", "complete_Kpp", "_complete_K"):
        monkeypatch.setattr(elliptic, name, no_integral)


@pytest.mark.parametrize("D, E", [(1e200, 1e200), (-1e200, 1e200), (1e300, 1e-300)])
def test_overflowing_curve_data_rejected(monkeypatch, D, E):
    # R^2 = 1 + 2DE + 4E^2 or C^2 = (D + 2E)(D + 4E + 2R) overflows; the
    # error names the curve data, and no complete integral is tried
    forbid_integrals(monkeypatch)
    with pytest.raises(DomainError, match="curve data are not finite"):
        derive_params(D, E)


# points next to a divergent complete integral: the floor of complete_Kp (k2 ~ 3e-13),
# kappa^2 = 1/(1 - k2) rounding to 1 in class I (K(kappa^2) still has a value there, from the
# complement -k2 kappa^2), and the class II sliver 1 - k2 < 1e-12
SLIVER_POINTS = [
    (2.000000002, 20.0, RealLocusClass.II_PLUS),
    (-1.8, 1e7, RealLocusClass.I),
    (382690741.9356395, -1.3065380068237316e-09, RealLocusClass.II_PLUS),
]


@pytest.mark.parametrize("D, E, cls", CLASS_FIXTURES + SLIVER_POINTS)
def test_derive_params_computes_no_integral(monkeypatch, D, E, cls):
    forbid_integrals(monkeypatch)
    assert derive_params(D, E).cls is cls


@pytest.mark.parametrize("D, E, R", [
    (1.0, -0.5, math.nan),                    # DegenerateTangent
    (1.5, -2.0, math.nan),                    # NegativeAngularMomentumSide
    (2.05, -0.4, 0.0),                        # NodalR
    (6.0, -0.1, math.nan),                    # Empty, R^2 < 0
    (2.0, -0.3, 0.4),                         # NodalD
    (6.0, -2.95, math.sqrt(0.41)),            # Empty, D + 4E + 2R < 0
])
def test_degenerate_radius(D, E, R):
    p = derive_params(D, E)
    assert not p.nondegenerate
    assert p.R == pytest.approx(R, abs=1e-12, nan_ok=True)
    assert all(math.isnan(v) for v in (p.k2, p.s0, p.s0_inv, p.C2, p.C))


class TestPointGeometry:
    def test_z_square_identity(self, params_i):
        for c in sample_level_set(params_i, 20, seed=1):
            z = c.z(params_i)
            rhs = c.A1 ** 2 + (c.A2 + params_i.D) ** 2 - 1.0
            assert z * z == pytest.approx(rhs, abs=1e-11)

    def test_z_is_scaled_momentum(self, params_i):
        from boltzmann_billiard import phase_from_config
        scale = math.sqrt(params_i.D + 2.0 * params_i.E)
        for c in sample_level_set(params_i, 10, seed=2):
            s = phase_from_config(c, params_i)
            L = s.x1 * s.p2 - s.x2 * s.p1
            assert c.L(params_i) == pytest.approx(L, abs=1e-11)
            assert c.z(params_i) == pytest.approx(scale * L, abs=1e-10)

    def test_other_wall_root(self, params_i, params_ii_plus):
        for params in (params_i, params_ii_plus):
            for c in sample_level_set(params, 15, seed=3):
                xp = other_wall_root(c.x, c.A1, c.A2, params.D)
                cp = ConfigPoint(xp, c.A1, c.A2)
                assert oracles.scalar_wall_residual(c, params) < 1e-10
                assert oracles.scalar_wall_residual(cp, params) < 1e-10
                # applying it twice returns the original root
                assert other_wall_root(xp, c.A1, c.A2, params.D) == pytest.approx(
                    c.x, rel=1e-9, abs=1e-9)

    def test_other_root_symmetric_conic(self, params_i):
        A2 = 2.0 * params_i.E + params_i.R
        x = math.sqrt((A2 + params_i.D) ** 2 - 1.0)
        assert other_wall_root(x, 0.0, A2, params_i.D) == pytest.approx(-x, abs=1e-12)

    def test_residual_decomposition(self, params_i):
        c = sample_level_set(params_i, 1, seed=5)[0]
        assert level_set_residual(c, params_i) == pytest.approx(
            max(oracles.scalar_circle_residual(c, params_i),
                oracles.scalar_wall_residual(c, params_i)), abs=0.0)

    def test_projection(self, params_i):
        c = sample_level_set(params_i, 1, seed=6)[0]
        rough = ConfigPoint(c.x + 3e-7, c.A1 - 2e-7, c.A2 + 1e-7)
        assert level_set_residual(rough, params_i) > 1e-8
        fixed = project_onto_level_set(rough, params_i)
        assert level_set_residual(fixed, params_i) < 1e-12

    def test_implied_invariants(self, params_i, params_ii_minus):
        for params in (params_i, params_ii_minus):
            for c in sample_level_set(params, 15, seed=7):
                D_impl, E_impl = implied_invariants(c, params)
                assert D_impl == pytest.approx(params.D, abs=1e-10)
                assert E_impl == pytest.approx(params.E, abs=1e-10)

    def test_implied_invariants_detect_drift(self, params_i):
        c = sample_level_set(params_i, 1, seed=8)[0]
        off = ConfigPoint(c.x, c.A1 + 1e-4, c.A2)
        D_impl, _ = implied_invariants(off, params_i)
        assert abs(D_impl - params_i.D) > 1e-6

    def test_implied_invariants_match_scalar(self, params_i, params_ii_plus, params_ii_minus):
        # the one-point call of implied_invariants_array, bit for bit its scalar reference
        def hexes(pair):
            return [v.hex() for v in pair]

        for params in (params_i, params_ii_plus, params_ii_minus):
            for c in sample_level_set(params, 20, seed=3):
                assert hexes(implied_invariants(c, params)) == hexes(
                    oracles.scalar_implied_invariants(c, params))
        # theta = 1/4 is a radial conic: D + 2 A2 = 0 exactly, so E is NaN
        radial = uniformize(AngleCoord(0.25), params_i)
        assert params_i.D + 2.0 * radial.A2 == 0.0
        got = implied_invariants(radial, params_i)
        assert hexes(got) == hexes(oracles.scalar_implied_invariants(radial, params_i))
        assert math.isnan(got[1]) and abs(got[0] - params_i.D) < 1e-12


def seeded_points(params, rng, n: int) -> np.ndarray:
    """Rows x, A1, A2: n level-set points, n of them moved off the set, and far, zero,
    NaN and infinite coordinates; |x| reaches 1e12 and beyond."""
    on = _sample_xyz(params, n, 11)
    off = on * (1.0 + rng.normal(0.0, 1e-6, on.shape))
    far = rng.choice([-1.0, 1.0], (3, n)) * 10.0 ** rng.uniform(-3.0, 12.0, (3, n))
    special = np.array([0.0, -0.0, 1.0, -1.0, 1e12, -1e12, 1e200, math.nan, math.inf, -math.inf])
    odd = rng.choice(special, (3, 4 * n))
    mixed = np.where(rng.random((3, n)) < 0.3, rng.choice(special, (3, n)), on)
    return np.concatenate([on, off, far, odd, mixed], axis=1)


class TestSameDoubleRewrites:
    """The residual's np.fmax scales and _reflect's nsi against their old expressions
    (oracles.max_scale_residual_array, oracles.reflect_sin): NaN where NaN, else the same bits."""

    @pytest.mark.parametrize("D, E", [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5), (0.3, 0.4),
                                      (-1.8, 1e7)])
    def test_residual_scales(self, D, E):
        params = derive_params(D, E)
        xyz = seeded_points(params, np.random.default_rng(351), 500)
        assert oracles.doubles(levelset.level_set_residual_array(*xyz, params)) == \
            oracles.doubles(oracles.max_scale_residual_array(*xyz, params))

    @pytest.mark.parametrize("D, E", [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5), (0.3, 0.4)])
    def test_reflect(self, D, E):
        params = derive_params(D, E)
        xyz = seeded_points(params, np.random.default_rng(352), 500)
        with np.errstate(all="ignore"):
            got, want = levelset._reflect(*xyz, E), oracles.reflect_sin(*xyz, E)
        assert [oracles.doubles(v) for v in got] == [oracles.doubles(v) for v in want]
        # and on Python floats, the path of involution_j
        for x, A1, A2 in xyz[:, ::7].T.tolist():
            assert oracles.doubles(levelset._reflect(x, A1, A2, E)) == oracles.doubles(
                oracles.reflect_sin(x, A1, A2, E))
