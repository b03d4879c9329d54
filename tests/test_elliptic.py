"""Elliptic integrals and Jacobi functions against independent oracles."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from boltzmann_billiard import (
    DomainError,
    EndpointSingularityError,
    PoleError,
    carlson_rf,
    complete_K,
    complete_Kp,
    complete_Kpp,
    legendre_F,
    smallest_period,
)
from boltzmann_billiard import elliptic
from boltzmann_billiard.elliptic import legendre_F_phi, seg_case_i, seg_case_ii_plus

import oracles
from oracles import jacobi_sn_cn_dn


# frozen reference values, cross-checked against quadrature and mpmath
K_HALF = 1.8540746773013719      # K(m = 1/2)
KPP_ONE = 1.3110287771460598     # K'' at ell = 1, i.e. m = -1


class TestCompleteIntegrals:
    def test_K_matches_quadrature(self):
        worst = 0.0
        for m in oracles.sample_m_grid(40):
            ref = oracles.K_quad(float(m))
            worst = max(worst, abs(complete_K(float(m)) - ref) / ref)
        assert worst < 1e-12

    def test_agm_converges_before_cap(self, monkeypatch):
        # each AGM step takes one square root; count them per call
        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def sqrt(self, v):
                self.steps += 1
                return math.sqrt(v)

        counting = CountingMath()
        monkeypatch.setattr(elliptic, "math", counting)
        for m in [*oracles.sample_m_grid(40).tolist(), -1e3, -1e-6, 1.0 - 1e-9]:
            b = math.sqrt(1.0 - m)
            counting.steps = 0
            elliptic._agm(1.0, b)
            assert counting.steps < elliptic._AGM_MAX_STEPS, m

    def test_K_special_values(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert complete_K(0.5) == pytest.approx(K_HALF, abs=1e-14)

    def test_K_diverges_at_one(self):
        with pytest.raises(DomainError):
            complete_K(1.0)
        with pytest.raises(DomainError):
            complete_K(1.0 - 1e-15)

    def test_Kp_matches_quadrature(self):
        for m in np.linspace(0.01, 0.99, 25):
            ref = oracles.Kp_quad(float(m))
            assert complete_Kp(float(m)) == pytest.approx(ref, rel=1e-12)

    def test_Kp_domain(self):
        with pytest.raises(DomainError):
            complete_Kp(-0.5)
        with pytest.raises(DomainError):
            complete_Kp(0.0)
        with pytest.raises(DomainError):
            complete_Kp(1.0)

    def test_Kp_domain_mask_is_where_Kp_returns(self):
        # the mask of the grid's class II cells at the edges of complete_Kp's domain
        for m in (math.nan, 0.0, -0.0, math.nextafter(1e-12, 0.0), 1e-12,
                  math.nextafter(1e-12, 1.0), 1.0 - 2.0 ** -53, 1.0):
            try:
                returns = math.isfinite(complete_Kp(m))
            except DomainError:
                returns = False
            assert elliptic._Kp_domain(np.array([m])).tolist() == [returns], m

    def test_Kpp_domain_mask_is_where_Kpp_returns(self):
        # the mask of the grid's class I cells at the edges of complete_Kpp's domain, -inf
        # among them; sqrt(-m) of a positive m is NaN, which the mask's comparisons fail
        for m in (-math.inf, -1e308, -1e-20, -1e-24, -1e-25, -0.0, 0.0, math.nan, 0.5):
            try:
                returns = math.isfinite(complete_Kpp(m))
            except DomainError:
                returns = False
            with np.errstate(invalid="ignore"):
                assert elliptic._Kpp_domain(np.array([m])).tolist() == [returns], m

    def test_Kpp_matches_quadrature(self):
        for m in -np.geomspace(1e-3, 50.0, 25):
            ref = oracles.Kpp_quad(float(m))
            assert complete_Kpp(float(m)) == pytest.approx(ref, rel=1e-12)

    def test_Kpp_unit_ell(self):
        assert complete_Kpp(-1.0) == pytest.approx(KPP_ONE, abs=1e-14)

    def test_Kpp_domain(self):
        with pytest.raises(DomainError):
            complete_Kpp(0.2)
        with pytest.raises(DomainError):
            complete_Kpp(0.0)
        # 1/(1 - k2) rounds to 1, but the AGM starts from the complement -k2 kappa^2 > 0
        with mpmath.workdps(40):
            kap2 = 1 / (1 - mpmath.mpf(-1e-17))
            ref = mpmath.sqrt(kap2) * mpmath.ellipk(kap2)
            assert abs(complete_Kpp(-1e-17) - ref) <= 8 * 2.0 ** -53 * ref
        # below the ell floor
        with pytest.raises(DomainError, match="diverges"):
            complete_Kpp(-1e-30)


class TestCarlsonRF:
    def test_against_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            x, y, z = rng.uniform(1e-3, 10.0, size=3)
            ref = oracles.carlson_rf_ref(x, y, z)
            assert carlson_rf(x, y, z) == pytest.approx(ref, rel=1e-14)

    def test_degenerate_and_symmetry(self):
        assert carlson_rf(2.0, 2.0, 2.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        a = carlson_rf(0.5, 2.0, 3.0)
        assert carlson_rf(3.0, 0.5, 2.0) == pytest.approx(a, rel=1e-15)
        # one zero argument is fine (complete integral case)
        assert carlson_rf(0.0, 1.0, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            carlson_rf(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            carlson_rf(0.0, 0.0, 1.0)


class TestIncompleteF:
    def test_matches_quadrature(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for m in oracles.sample_m_grid(16):
            for x in rng.uniform(-1.0, 1.0, size=8):
                ref = oracles.F_quad(float(x), float(m))
                worst = max(worst, abs(legendre_F(float(x), float(m)) - ref))
        assert worst < 1e-12

    def test_endpoints_and_oddness(self):
        assert legendre_F(0.0, 0.3) == 0.0
        for m in (-2.0, 0.0, 0.6):
            assert legendre_F(1.0, m) == pytest.approx(complete_K(m), rel=1e-14)
            assert legendre_F(-0.4, m) == -legendre_F(0.4, m)
        with pytest.raises(EndpointSingularityError):
            legendre_F(1.001, 0.3)

    def test_phi_form_quasi_periodic(self):
        for m in (-1.5, 0.4):
            K = complete_K(m)
            for phi in np.linspace(-2.0, 2.0, 9):
                a = legendre_F_phi(float(phi) + math.pi, m)
                b = legendre_F_phi(float(phi), m) + 2.0 * K
                assert a == pytest.approx(b, abs=1e-12)

    def test_phi_form_against_mpmath(self):
        for m in (-3.0, 0.25, 0.8):
            for phi in np.linspace(-4.0, 7.0, 13):
                ref = oracles.mp_F_phi(float(phi), m)
                assert legendre_F_phi(float(phi), m) == pytest.approx(ref, abs=1e-12)


class TestSegmentIntegrals:
    def test_case_i_matches_quadrature(self):
        worst = 0.0
        for m in (-0.05, -5.0 / 27.0, -1.0, -4.0, -20.0):
            for x in np.linspace(-1.0, 1.0, 17):
                ref = oracles.seg_case_i_quad(float(x), m)
                worst = max(worst, abs(complete_Kpp(m) + seg_case_i(float(x), m) - ref))
        assert worst < 1e-11

    @pytest.mark.parametrize("m", [-0.05, -1.0, -20.0])
    @pytest.mark.parametrize("x", [1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
    def test_case_i_near_zero_matches_mpmath(self, x, m):
        # the one-component path crosses s = 0 where s0_inv changes sign
        ref = oracles.mp_seg_case_i(x, m)
        assert abs(complete_Kpp(m) + seg_case_i(x, m) - ref) <= 1e-14 * ref

    def test_case_i_endpoints(self):
        for m in (-0.5, -3.0):
            assert complete_Kpp(m) + seg_case_i(-1.0, m) == pytest.approx(0.0, abs=1e-15)
            assert complete_Kpp(m) + seg_case_i(1.0, m) == pytest.approx(2.0 * complete_Kpp(m),
                                                                         rel=1e-13)
        with pytest.raises(DomainError):
            seg_case_i(0.5, 0.3)
        with pytest.raises(EndpointSingularityError):
            seg_case_i(1.1, -0.5)

    def test_case_ii_matches_quadrature(self):
        worst = 0.0
        for m in (0.05, 0.17657148808284054, 0.5, 0.9):
            k = math.sqrt(m)
            for t in np.linspace(0.0, 0.98, 15):
                x = 1.0 + t * (1.0 / k - 1.0)
                ref = oracles.seg_case_ii_quad(float(x), m)
                worst = max(worst, abs(seg_case_ii_plus(float(x), m) - ref))
        assert worst < 1e-11

    def test_case_ii_endpoints(self):
        for m in (0.1, 0.6):
            assert seg_case_ii_plus(1.0, m) == 0.0
            # the full path from 1 to 1/k is exactly the complementary period;
            # the endpoint itself is a branch point, hence the loose tolerance
            assert seg_case_ii_plus(1.0 / math.sqrt(m), m) == pytest.approx(
                complete_Kp(m), abs=5e-8)
        with pytest.raises(DomainError):
            seg_case_ii_plus(1.5, -0.3)
        with pytest.raises(EndpointSingularityError):
            seg_case_ii_plus(0.8, 0.3)
        with pytest.raises(EndpointSingularityError):
            seg_case_ii_plus(1.0 / math.sqrt(0.3) + 1e-6, 0.3)


class TestJacobi:
    def test_identities_bulk(self):
        # 10^4 deterministic points across both modulus regimes
        rng = np.random.default_rng(11)
        us = rng.uniform(-20.0, 20.0, size=10_000)
        ms = rng.uniform(-6.0, 0.95, size=10_000)
        worst = 0.0
        for u, m in zip(us, ms):
            s, c, d = jacobi_sn_cn_dn(float(u), float(m))
            s, c, d = s.real, c.real, d.real
            worst = max(worst,
                        abs(s * s + c * c - 1.0),
                        abs(d * d + m * s * s - 1.0))
        assert worst < 1e-11

    def test_against_scipy_positive_m(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            u = float(rng.uniform(-15.0, 15.0))
            m = float(rng.uniform(0.0, 0.99))
            s, c, d = jacobi_sn_cn_dn(u, m)
            rs, rc, rd = oracles.ellipj_ref(u, m)
            assert abs(s.real - rs) < 1e-12
            assert abs(c.real - rc) < 1e-12
            assert abs(d.real - rd) < 1e-12

    def test_against_mpmath_negative_m(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            u = float(rng.uniform(-10.0, 10.0))
            m = float(rng.uniform(-8.0, -0.01))
            s, c, d = jacobi_sn_cn_dn(u, m)
            rs, rc, rd = oracles.ellipj_ref(u, m)
            assert abs(s.real - rs) < 1e-12
            assert abs(c.real - rc) < 1e-12
            assert abs(d.real - rd) < 1e-12

    def test_special_arguments(self):
        for m in (-2.0, 0.0, 0.7):
            s, c, d = jacobi_sn_cn_dn(0.0, m)
            assert (s, c, d) == (0.0, 1.0, 1.0)
            K = complete_K(m)
            s, c, d = jacobi_sn_cn_dn(K, m)
            assert s.real == pytest.approx(1.0, abs=1e-12)
            assert c.real == pytest.approx(0.0, abs=1e-12)
            assert d.real == pytest.approx(math.sqrt(1.0 - m), abs=1e-12)

    def test_periodicity(self):
        for m in (-1.5, 0.4):
            K = complete_K(m)
            for u in np.linspace(-3.0, 3.0, 7):
                s0, c0, d0 = jacobi_sn_cn_dn(float(u), m)
                s4, c4, d4 = jacobi_sn_cn_dn(float(u) + 4.0 * K, m)
                assert abs(s4 - s0) < 1e-10 and abs(c4 - c0) < 1e-10
                _, _, d2 = jacobi_sn_cn_dn(float(u) + 2.0 * K, m)
                assert abs(d2 - d0) < 1e-10

    def test_inversion_oracle(self):
        # sn recovered by root-finding the quadrature integral
        for m in (-5.0 / 27.0, 0.3):
            K = complete_K(m)
            for t in np.linspace(0.05, 0.95, 7):
                u = float(t) * K
                s, _, _ = jacobi_sn_cn_dn(u, m)
                assert s.real == pytest.approx(oracles.sn_by_inversion(u, m), abs=1e-10)

    def test_derivative_of_sn(self):
        h = 1e-5
        for m in (-2.0, 0.5):
            for u in (0.3, 1.1, 2.7):
                s_p, _, _ = jacobi_sn_cn_dn(u + h, m)
                s_m, _, _ = jacobi_sn_cn_dn(u - h, m)
                num = (s_p.real - s_m.real) / (2.0 * h)
                _, c, d = jacobi_sn_cn_dn(u, m)
                assert num == pytest.approx(c.real * d.real, rel=1e-6)

    # the complex lines are evaluated by oracles.jacobi_sn_cn_dn_complex,
    # which serves oracles.uniformize_complex_oracle; checked here against mpmath

    def test_imaginary_axis(self):
        for m in (-1.2, 0.4):
            for v in (0.2, 0.9):
                s, c, d = oracles.jacobi_sn_cn_dn_complex(complex(0.0, v), m)
                rs, rc, rd = oracles.ellipj_imag_ref(v, m)
                assert abs(s - rs) < 1e-11
                assert abs(c - rc) < 1e-11
                assert abs(d - rd) < 1e-11

    def test_shifted_imaginary_line(self):
        m = 0.4
        K = complete_K(m)
        for v in (0.3, 0.8):
            got = oracles.jacobi_sn_cn_dn_complex(complex(2.0 * K, v), m)
            with_mp = oracles.ellipj_imag_ref(v, m)
            # the 2K shift negates sn and cn and keeps dn
            assert abs(got[0] + with_mp[0]) < 1e-10
            assert abs(got[1] + with_mp[1]) < 1e-10
            assert abs(got[2] - with_mp[2]) < 1e-10

    def test_pole_and_off_line(self):
        m = 0.4
        with pytest.raises(PoleError):
            oracles.jacobi_sn_cn_dn_complex(complex(0.0, complete_Kp(m)), m)
        with pytest.raises(DomainError):
            oracles.jacobi_sn_cn_dn_complex(complex(0.7, 0.7), m)

    def test_real_axis_domain(self):
        # m = 1, where only the complex lines use the tanh limit, is refused too
        for m in (1.2, 1.0, math.nan):
            with pytest.raises(DomainError):
                jacobi_sn_cn_dn(0.5, m)
        assert jacobi_sn_cn_dn(0.5, np.float64(0.3)) == jacobi_sn_cn_dn(0.5, 0.3)

    @given(st.floats(-12.0, 12.0), st.floats(-5.0, 0.9))
    def test_identities_property(self, u, m):
        s, c, d = jacobi_sn_cn_dn(u, m)
        assert abs(s.real ** 2 + c.real ** 2 - 1.0) < 1e-11
        assert abs(d.real ** 2 + m * s.real ** 2 - 1.0) < 1e-11


@pytest.mark.parametrize("fn, args", [
    (complete_K, (1.0,)),
    (complete_Kp, (1e-13,)),
    (complete_Kp, (1.5,)),
    (complete_Kpp, (-1e-30,)),
    (legendre_F, (0.5, 1.5)),
    (jacobi_sn_cn_dn, (0.5, 1.2)),
])
def test_numpy_scalar_modulus_shown_as_float(fn, args):
    # a numpy scalar modulus is reported as the plain float, not as np.float64(...)
    *head, m = args
    with pytest.raises(DomainError) as want:
        fn(*head, m)
    with pytest.raises(DomainError) as got:
        fn(*head, np.float64(m))
    assert str(got.value) == str(want.value)
    assert repr(m) in str(got.value)


@pytest.mark.parametrize("fn, args, error", [
    (seg_case_i, (math.nan, -0.5), EndpointSingularityError),  # the clamp used to give 2 K''
    (seg_case_ii_plus, (math.nan, 0.5), EndpointSingularityError),  # and here K'
    (complete_Kpp, (math.nan,), DomainError),  # used to run all of the AGM's steps
    (carlson_rf, (math.nan, 1.0, 1.0), DomainError),
    (legendre_F, (math.nan, 0.5), EndpointSingularityError),
    (legendre_F_phi, (math.nan, 0.5), DomainError),  # round(phi / pi) raised ValueError
    (legendre_F_phi, (math.inf, 0.5), DomainError),  # and OverflowError here
    (legendre_F_phi, (-math.inf, 0.5), DomainError),
    # an infinite argument, and a mean of the R_F arguments that overflows, used to give NaN
    (complete_Kpp, (-math.inf,), DomainError),
    (carlson_rf, (math.inf, 1.0, 1.0), DomainError),
    (carlson_rf, (math.inf, 0.0, 1.0), DomainError),
    (carlson_rf, (1e308, 1e308, 1e308), DomainError),
    (legendre_F, (0.5, -math.inf), DomainError),
    (legendre_F_phi, (1.0, -math.inf), DomainError),
    (seg_case_i, (0.5, -math.inf), DomainError),
    (seg_case_i, (0.5, -1e308), DomainError),  # K''(-1e308) = 1.57e-154 is finite
    (smallest_period, (math.nan, False), DomainError),  # round raised ValueError
    (smallest_period, (math.inf, True), DomainError),  # and OverflowError here
], ids=lambda v: getattr(v, "__name__", None))
def test_nan_argument_refused(fn, args, error):
    # each range test is a comparison that NaN fails, so NaN gets the typed refusal
    with pytest.raises(error):
        fn(*args)


def hexes(values):
    return [float(v).hex() for v in values]


class TestArrayTwins:
    """Each array kernel against its scalar twin, element by element and bit for bit."""

    def test_agm(self):
        rng = np.random.default_rng(5)
        m = np.concatenate([oracles.sample_m_grid(40), [-1e3, -1e-6, 0.0, 1.0 - 1e-9],
                            1.0 - 10.0 ** rng.uniform(-11, 3, 200)])
        b = np.sqrt(1.0 - m)
        assert hexes(elliptic._agm_array(np.ones_like(b), b)) == hexes(
            elliptic._agm(1.0, v) for v in b.tolist())
        mc = 1.0 - m  # the kernels take the complementary parameter
        assert hexes(elliptic._complete_K_array(mc)) == hexes(map(elliptic._complete_K, mc.tolist()))

    def test_carlson_rf(self):
        # spreads of the arguments up to 1e12, and one zero argument in each place
        rng = np.random.default_rng(6)
        x, y, z = 10.0 ** rng.uniform(-6.0, 6.0, size=(3, 600))
        x[:50], y[50:100], z[100:150] = 0.0, 0.0, 0.0
        x[150:160], y[150:160], z[150:160] = 1e-6, 1e6, 1.0
        got = elliptic._carlson_rf_array(x, y, z)
        assert hexes(got) == hexes(map(carlson_rf, x.tolist(), y.tolist(), z.tolist()))

    @pytest.mark.parametrize("emc", [1.0, 1.0 - 1e-12, 0.5, 1e-6, 1e-12,
                                     *np.random.default_rng(8).uniform(0.0, 1.0, 3).tolist()])
    def test_sncndn(self, emc):
        # both sides of the |u| < 1e-8 series branch, its edge and zeros of both signs
        rng = np.random.default_rng(7)
        tiny = 1e-8 * rng.uniform(-1.0, 1.0, 40)
        u = np.concatenate([rng.uniform(-20.0, 20.0, 300), tiny, 1e-8 + np.abs(tiny),
                            [0.0, -0.0, 5e-324, 1e-8, -1e-8, math.nextafter(1e-8, 0.0)],
                            [1e6, -1e6, 1e15, -1e15, 1e22, -1e22]])
        got = list(zip(*map(hexes, elliptic._sncndn_array(u, emc))))
        assert got == [tuple(hexes(oracles._sncndn_core(v, emc))) for v in u.tolist()]
        assert [v.shape for v in elliptic._sncndn_array(np.empty(0), emc)] == [(0,)] * 3

    def test_rect_rounds_as_math(self):
        # _sncndn_array reads cos v and sin v from cmath.rect(1, v): bit for bit
        # math.cos and math.sin, from |v| = 5e-324 to 1e300, signed zeros and
        # subnormals included
        rng = np.random.default_rng(10)
        mags = np.concatenate([rng.uniform(0.0, 20.0, 2000), 10.0 ** rng.uniform(-323.5, 300.0, 6000),
                               [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, math.pi, 1e22, 1e300]])
        v = np.concatenate([mags, -mags])
        z = elliptic._rect(v)
        assert hexes(z.real) == hexes(map(math.cos, v.tolist()))
        assert hexes(z.imag) == hexes(map(math.sin, v.tolist()))
        assert hexes(elliptic._rect(np.array([0.0, -0.0])).imag) == hexes([0.0, -0.0])
        for bad in (math.inf, -math.inf):
            for fn in (math.cos, math.sin, lambda v: cmath.rect(1.0, v)):
                with pytest.raises(ValueError, match="math domain error"):
                    fn(bad)
        z = cmath.rect(1.0, math.nan)
        assert math.isnan(z.real) and math.isnan(z.imag)
        assert math.isnan(math.cos(math.nan)) and math.isnan(math.sin(math.nan))

    @pytest.mark.parametrize("emc", [0.5, 1e-12])
    def test_sncndn_small_u_exact(self, emc):
        # m = 0.5 and m = 1 - 1e-12: below |u| = 1e-8, sn, cn, dn are u, 1, 1
        # correctly rounded, by 40-digit values where u is not near 0 (there
        # mpmath's own error, about 1e-47, is larger than u)
        rng = np.random.default_rng(9)
        edge = math.nextafter(1e-8, 0.0)
        u = np.concatenate([1e-8 * rng.uniform(-1.0, 1.0, 200),
                            [0.0, -0.0, 5e-324, -5e-324, 1e-300, edge, -edge]])
        sn, cn, dn = elliptic._sncndn_array(u, emc)
        assert hexes(sn) == hexes(u)
        assert hexes(cn) == hexes(dn) == hexes(np.ones_like(u))
        with mpmath.workdps(40):
            m = 1 - mpmath.mpf(emc)
            for v in u[:200:10].tolist() + [edge, -edge]:
                want = [float(mpmath.ellipfun(kind, v, m)) for kind in ("sn", "cn", "dn")]
                assert hexes(want) == hexes([v, 1.0, 1.0])
