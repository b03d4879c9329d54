"""Phase-space constants, wall reflection and arc reconstruction."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from boltzmann_billiard import (
    ArcUnsupportedError,
    ConfigPoint,
    DomainError,
    PhaseState,
    conserved_quantities,
    derive_params,
    level_set_residual,
    other_wall_root,
    phase_from_config,
    reflect_at_wall,
    sample_level_set,
    trajectory_arc,
)


def test_circular_orbit_constants():
    # unit circular orbit: zero eccentricity vector, E = -1/2, L = 1
    q = conserved_quantities(PhaseState(1.0, 0.0, 0.0, 1.0))
    assert q.E == pytest.approx(-0.5, abs=1e-15)
    assert q.L == pytest.approx(1.0, abs=1e-15)
    assert q.A1 == pytest.approx(0.0, abs=1e-15)
    assert q.A2 == pytest.approx(0.0, abs=1e-15)
    assert q.D == pytest.approx(1.0, abs=1e-15)


def test_origin_rejected():
    with pytest.raises(DomainError):
        conserved_quantities(PhaseState(0.0, 0.0, 1.0, 0.0))


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_eccentricity_circle_identity(x1, x2, p1, p2):
    # 2 E L^2 = A1^2 + A2^2 - 1 for every phase state off the centre
    assume(math.hypot(x1, x2) > 1e-3)
    q = conserved_quantities(PhaseState(x1, x2, p1, p2))
    lhs = 2.0 * q.E * q.L * q.L
    rhs = q.A1 * q.A1 + q.A2 * q.A2 - 1.0
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1.0 + abs(lhs)))


@given(st.floats(-4.0, 4.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_reflection_involution_and_invariants(x, p1, p2):
    assume(abs(p2) > 1e-6)
    s = PhaseState(x, 1.0, p1, p2)
    r = reflect_at_wall(s)
    assert r.p2 == -s.p2 and r.p1 == s.p1 and r.x1 == s.x1
    rr = reflect_at_wall(r)
    assert rr == s
    qs, qr = conserved_quantities(s), conserved_quantities(r)
    assert qr.E == pytest.approx(qs.E, abs=1e-13)
    assert qr.D == pytest.approx(qs.D, abs=1e-12)
    # the L and A2 jumps across the wall
    assert qr.L == pytest.approx(-qs.L - 2.0 * s.p1, abs=1e-12)
    assert qr.A2 == pytest.approx(qs.A2 + 2.0 * s.p1 * qs.L + 2.0 * s.p1 * s.p1, abs=1e-12)


def test_reflection_requires_wall():
    with pytest.raises(DomainError):
        reflect_at_wall(PhaseState(0.3, 1.2, 0.1, -0.5))


@pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)])
def test_phase_roundtrip(D, E):
    params = derive_params(D, E)
    tested = 0
    for c in sample_level_set(params, 60, seed=2):
        if c.A2 + D - c.A1 * c.x <= 0.0:
            continue  # curve point on the far branch, no wall state there
        tested += 1
        s = phase_from_config(c, params)
        assert s.x2 == 1.0
        assert s.p2 >= 0.0  # outgoing branch moves into the half plane
        q = conserved_quantities(s)
        assert q.E == pytest.approx(E, abs=1e-10)
        assert q.D == pytest.approx(D, abs=1e-10)
        assert q.A1 == pytest.approx(c.A1, abs=1e-10)
        assert q.A2 == pytest.approx(c.A2, abs=1e-10)
    assert tested >= 10


def test_far_branch_rejected(params_ii_minus):
    # hyperbolic level set: the curve also carries wall intersections of the
    # branch around the repelling focus, where no real momenta exist
    params = params_ii_minus
    far = [c for c in sample_level_set(params, 60, seed=2)
           if c.A2 + params.D - c.A1 * c.x < 0.0]
    assert far, "expected far-branch points on a positive-energy set"
    for c in far:
        with pytest.raises(DomainError):
            phase_from_config(c, params)


def test_radial_conic_rejected(params_i):
    c = ConfigPoint(0.5, 0.1, -params_i.D / 2.0)
    with pytest.raises(DomainError):
        phase_from_config(c, params_i)


def test_symmetric_conic_momenta(params_i):
    # A1 = 0: the conic is symmetric about the x2 axis, so the two wall
    # points carry opposite horizontal momenta and equal vertical ones
    p = params_i
    A2 = 2.0 * p.E + p.R
    w = A2 + p.D
    assert w * w > 1.0
    x = math.sqrt(w * w - 1.0)
    c_r, c_l = ConfigPoint(x, 0.0, A2), ConfigPoint(-x, 0.0, A2)
    assert level_set_residual(c_r, p) < 1e-12
    s_r, s_l = phase_from_config(c_r, p), phase_from_config(c_l, p)
    assert s_r.p1 == pytest.approx(-s_l.p1, abs=1e-13)
    assert s_r.p2 == pytest.approx(s_l.p2, abs=1e-13)


class TestTrajectoryArc:
    def test_endpoints_and_conic_residual(self, params_i):
        for c in sample_level_set(params_i, 10, seed=5):
            pts = trajectory_arc(c, params_i)
            assert len(pts) == 64
            x1, x2 = pts[0]
            assert x1 == pytest.approx(c.x, abs=1e-12) and x2 == pytest.approx(1.0, abs=1e-12)
            xe, ye = pts[-1]
            assert xe == pytest.approx(other_wall_root(c.x, c.A1, c.A2, params_i.D), abs=1e-9)
            assert ye == pytest.approx(1.0, abs=1e-12)
            # every sample satisfies the conic equation r = L^2 - A.x
            L2 = params_i.D + 2.0 * c.A2
            for (u, v) in pts:
                r = math.hypot(u, v)
                assert abs(r - (L2 - c.A1 * u - c.A2 * v)) < 1e-9
                assert v >= 1.0 - 1e-9

    def test_wall_stays_below(self, params_ii_plus):
        for c in sample_level_set(params_ii_plus, 8, seed=7):
            for (_, v) in trajectory_arc(c, params_ii_plus):
                assert v >= 1.0 - 1e-9

    def test_unbound_arc_through_infinity_raises(self):
        # at positive energy some bounces only reconnect through infinity
        params = derive_params(0.3, 0.4)
        hits = 0
        for c in sample_level_set(params, 50, seed=8):
            try:
                trajectory_arc(c, params)
            except ArcUnsupportedError:
                hits += 1
        assert hits > 0

    def test_degenerate_class_rejected(self):
        params = derive_params(1.0, -0.5)  # tangent level set
        with pytest.raises(DomainError, match=r"^operation needs a nondegenerate level set \(class DegenerateTangent\)$"):
            trajectory_arc(ConfigPoint(0.0, 0.1, 0.2), params)
