"""The batched kernels against the scalar functions and references they repeat."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import config_distance
from boltzmann_billiard import (
    BOUNDARY_TOL,
    AngleCoord,
    ConfigPoint,
    DomainError,
    PoleError,
    RealLocusClass,
    angle_of,
    complete_K,
    derive_params,
    level_set_residual,
    map_t,
    project_onto_level_set,
    rotation_grid,
    sample_level_set,
    uniformize,
)
from boltzmann_billiard.levelset import (
    _AT_INFINITY,
    NONDEGENERATE,
    level_set_residual_array,
    project_onto_level_set_array,
)
from boltzmann_billiard.poincare import config_distance_array, map_t_array, orbit_drift_columns
from boltzmann_billiard.uniformize import theta_array, uniformize_array


def assert_matches_scalar(D, E):
    """Same class and the same %.17g alpha in every cell."""
    classes, alpha = rotation_grid(D, E)
    want_cls, want_alpha = oracles.scalar_rotation_grid(D, E)
    assert classes.shape == alpha.shape == want_alpha.shape
    for idx in np.ndindex(alpha.shape):
        if want_cls[idx] is None:
            # derive_params raised (for the cell or its mirror): the batched
            # path keeps the class and blanks alpha
            assert classes[idx] in NONDEGENERATE | {RealLocusClass.NEGATIVE_SIDE}
        else:
            assert classes[idx] is want_cls[idx], (idx, D, E)
        assert "%.17g" % alpha[idx] == "%.17g" % want_alpha[idx], (idx, D, E)


windows = st.tuples(
    st.floats(-6.0, 6.0), st.floats(1e-3, 8.0),   # Dmin, D width
    st.floats(-3.0, 3.0), st.floats(1e-3, 5.0),   # Emin, E height
    st.integers(2, 9),
)


@given(windows)
def test_random_windows(window):
    Dmin, dw, Emin, eh, n = window
    steps = np.arange(n, dtype=float)
    Ds = Dmin + dw * steps / (n - 1)
    Es = Emin + eh * steps / (n - 1)
    assert_matches_scalar(Ds[:, None], Es)


offsets = st.floats(1e-11, 1e-8).flatmap(lambda t: st.sampled_from([t, -t]))


@given(st.floats(-4.0, 4.0), offsets)
def test_tangent_band(D, t):
    # |D + 2E| about t, on both sides of BOUNDARY_TOL
    assert_matches_scalar(D, (t - D) / 2.0)


@given(st.sampled_from([-1.0, 1.0]), offsets, st.floats(-1.5, 2.5))
def test_nodal_D_band(sign, t, E):
    # ||D| - 2| about t
    assert_matches_scalar(sign * (2.0 + t), E)


@given(st.floats(2.0, 5.0), st.sampled_from([-1.0, 1.0]), offsets, st.booleans())
def test_radius_band(Dabs, sign, t, far_root):
    # R^2 = 1 + 2DE + 4E^2 about t: roots of 4E^2 + 2DE + 1 - t = 0
    D = sign * Dabs
    disc = D * D - 4.0 * (1.0 - t)
    if disc < 0.0:
        return
    root = math.sqrt(disc)
    E = (-D - root) / 4.0 if far_root else (-D + root) / 4.0
    assert_matches_scalar(D, E)


@given(st.floats(0.0, 1e-6), st.sampled_from([-1.0, 1.0]), offsets)
def test_den_band(delta, sign, t):
    # den = D + 4E + 2R about t; with u = D + 4E, den = u + sqrt(4 - D^2 + u^2)
    D = sign * (2.0 - delta)
    u = (t * t - 4.0 + D * D) / (2.0 * t)
    assert_matches_scalar(D, (u - D) / 4.0)


@given(st.floats(1e6, 1e7), st.floats(1e-11, 1e-9))
def test_branch_point_band(D, q):
    # class II with 1 - |s0_inv| = 2R/(s+R) about q: R^2 = T with T = (q D / 2)^2,
    # E the small root of 4E^2 + 2DE + 1 - T = 0.  Here s0 and 1/k coalesce,
    # so the branch-point guards blank these cells in both paths (class I
    # cannot come this close to |s0_inv| = 1 outside the boundary bands)
    T = (0.5 * q * D) ** 2
    E = -2.0 * (1.0 - T) / (2.0 * D + math.sqrt(4.0 * D * D - 16.0 * (1.0 - T)))
    assert_matches_scalar(D, E)


def test_fixture_points():
    D = np.array([1.5, 2.5, -2.5, 1.0, 2.0, 1.5, 0.0, 2.0 + 0.5 * BOUNDARY_TOL])
    E = np.array([-0.2, -0.1, 1.5, -0.5, -0.3, -2.0, 10.0, -0.5])
    classes, alpha = rotation_grid(D, E)
    assert {c.value for c in classes} >= {"I", "IIplus", "IIminus", "DegenerateTangent",
                                          "NodalD", "NegativeAngularMomentumSide"}
    assert_matches_scalar(D, E)
    # the seeded points of the alpha accuracy test, nodal-line points included
    D, E = np.array([pt for pts in oracles.alpha_sample().values() for pt in pts]).T
    assert_matches_scalar(D, E)


# Each edge of the class table as (D, E) of an offset q from it, with the
# quantity that measures q and the README class at q = -2, -0.5, 0.5 and 2
# BOUNDARY_TOL.  The den = D + 4E + 2R edge is reached with s > 0 only on the
# |D| = 2 band (den * (D + 4E - 2R) = D^2 - 4), so its band classifies NodalD.
I, IIP, IIM = RealLocusClass.I, RealLocusClass.II_PLUS, RealLocusClass.II_MINUS
TAN, NEG = RealLocusClass.DEGENERATE_TANGENT, RealLocusClass.NEGATIVE_SIDE
NR, ND, EMPTY = RealLocusClass.NODAL_R, RealLocusClass.NODAL_D, RealLocusClass.EMPTY


def _s(D, E):
    return D + 2.0 * E


def _R2(D, E):
    return 1.0 + 2.0 * D * E + 4.0 * E * E


def _den(D, E):
    return D + 4.0 * E + 2.0 * math.sqrt(_R2(D, E))


CLASS_EDGES = [
    # D + 2E = q: tests 1 and 2
    (lambda q: (1.5, (q - 1.5) / 2.0), _s, (NEG, TAN, TAN, I)),
    (lambda q: (-3.0, (q + 3.0) / 2.0), _s, (NEG, TAN, TAN, IIM)),
    (lambda q: (3.0, (q - 3.0) / 2.0), _s, (NEG, TAN, TAN, EMPTY)),
    # R^2 = q on both roots in E: tests 3 and 4, then test 7 on the far root
    (lambda q: (3.0, (-3.0 + math.sqrt(5.0 + 4.0 * q)) / 4.0), _R2, (EMPTY, NR, NR, IIP)),
    (lambda q: (3.0, (-3.0 - math.sqrt(5.0 + 4.0 * q)) / 4.0), _R2, (EMPTY, NR, NR, EMPTY)),
    # |D| - 2 = q: tests 5, 8 and 9, and the fallback II_MINUS
    (lambda q: (2.0 + q, -0.3), lambda D, E: abs(D) - 2.0, (I, ND, ND, IIP)),
    (lambda q: (-2.0 - q, 1.3), lambda D, E: abs(D) - 2.0, (I, ND, ND, IIM)),
    # den = q to first order: tests 6 and 7
    (lambda q: (2.0 - 0.75 * q, -0.875), _den, (EMPTY, ND, ND, I)),
]


@pytest.mark.parametrize("edge, measure, want", CLASS_EDGES)
def test_class_table_edges(edge, measure, want):
    offsets = [-2.0 * BOUNDARY_TOL, -0.5 * BOUNDARY_TOL, 0.5 * BOUNDARY_TOL, 2.0 * BOUNDARY_TOL]
    points = [edge(q) for q in offsets]
    for (D, E), q in zip(points, offsets):
        assert measure(D, E) == pytest.approx(q, rel=0.01)
    D, E = (np.array(v) for v in zip(*points))
    classes, _ = rotation_grid(D, E)
    assert [derive_params(*pt).cls for pt in points] == list(classes) == list(want)
    assert_matches_scalar(D, E)


def test_blank_where_complete_Kp_raises():
    # k2 ~ 3e-13 is inside the floor of complete_Kp: rotation_number raises there
    classes, alpha = rotation_grid(2.0 + 2e-9, 20.0)
    assert classes[()] is RealLocusClass.II_PLUS
    assert math.isnan(alpha)
    cls, want = oracles.scalar_rotation_cell(2.0 + 2e-9, 20.0)
    assert cls is RealLocusClass.II_PLUS and math.isnan(want)


def test_alpha_where_kappa_rounds_to_one():
    # class I with k2 ~ -1.2e-16: kappa^2 = 1/(1 - k2) rounds to 1, but K(kappa^2) is
    # the AGM at the complement -k2 kappa^2, so the cell has its alpha, to a few units
    # of 2^-53 from the curve data.  Those carry the cancellation of s - R at E = 1e7
    # (1/s0 is 1.3e-9 relative off), which moves alpha by 1.5e-11
    classes, alpha = rotation_grid(-1.8, 1e7)
    assert classes[()] is RealLocusClass.I
    params = derive_params(-1.8, 1e7)
    ref = oracles.mp_alpha_of_curve(params.D, params.k2, params.s0_inv)
    assert oracles.alpha_error_units(float(alpha), ref) <= 8.0
    assert oracles.alpha_error_units(float(alpha), oracles.mp_alpha(-1.8, 1e7)) < 2e5
    cls, want = oracles.scalar_rotation_cell(-1.8, 1e7)
    assert cls is RealLocusClass.I and float(alpha).hex() == want.hex()


def test_broadcast_shapes():
    classes, alpha = rotation_grid(np.linspace(-3, 3, 4)[:, None], np.linspace(-0.5, 1.5, 5))
    assert classes.shape == alpha.shape == (4, 5)
    classes, alpha = rotation_grid(1.5, -0.2)
    assert classes.shape == alpha.shape == ()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_raises(bad):
    with pytest.raises(DomainError):
        rotation_grid([1.0, bad], 0.1)


def as_arrays(pts):
    return tuple(np.array(v) for v in zip(*((c.x, c.A1, c.A2) for c in pts)))


def orbit_points(params, seed, n):
    """Points of the level set: seeded samples and the orbit of the first one."""
    pts = sample_level_set(params, n, seed)
    for _ in range(n):
        pts.append(map_t(pts[-1], params))
    return pts


@given(oracles.level_sets(), st.integers(0, 2**16))
def test_point_kernels_match_scalar(params, seed):
    pts = orbit_points(params, seed, 40)
    x, A1, A2 = as_arrays(pts)
    theta = theta_array(x, A1, A2, params)
    assert theta.tolist() == [oracles.scalar_angle_of(c, params).theta for c in pts]
    stepped = map_t_array(x, A1, A2, params)
    assert list(zip(*(v.tolist() for v in stepped))) == [
        (c.x, c.A1, c.A2) for c in (map_t(c, params) for c in pts)]
    dist = config_distance_array(*stepped, x, A1, A2)
    assert dist.tolist() == [config_distance(map_t(c, params), c) for c in pts]


def test_distance_takes_max_as_python_does():
    # Python's max keeps a later number over an earlier NaN only when it is
    # compared against a number: max(nan, 1, 2) is nan, max(1, nan, 2) is 2
    a = ConfigPoint(0.0, 0.0, 0.0)
    pts = [ConfigPoint(math.nan, 1.0, 2.0), ConfigPoint(1.0, math.nan, 2.0),
           ConfigPoint(1.0, 2.0, math.nan), ConfigPoint(math.inf, 0.5, -0.5)]
    want = [config_distance(c, a) for c in pts]
    got = config_distance_array(*as_arrays(pts), *as_arrays([a] * len(pts)))
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def hexes(values):
    return [float(v).hex() for v in values]


def drift_points(params):
    """Points where D + 2 A2 is 0, below 1e-15 or just above it, and a NaN point."""
    A2 = -params.D / 2.0
    return [ConfigPoint(0.3, 0.2, A2), ConfigPoint(-1.7, 0.4, A2 + 4e-16),
            ConfigPoint(0.9, -0.1, A2 + 1e-15), ConfigPoint(0.5, 0.1, A2 - 3e-16),
            ConfigPoint(math.nan, 0.1, 0.2), ConfigPoint(1e200, 0.1, 0.2)]


@given(oracles.level_sets(), st.integers(0, 2**16))
def test_orbit_kernels_match_scalar(params, seed):
    pts = orbit_points(params, seed, 40) + drift_points(params)
    x, A1, A2 = as_arrays(pts)
    L, D_impl, E_impl = orbit_drift_columns(x, A1, A2, params)
    assert hexes(L) == hexes(c.L(params) for c in pts)
    want = [oracles.scalar_implied_invariants(c, params) for c in pts]
    assert hexes(D_impl) == hexes(d for d, _ in want)
    assert hexes(E_impl) == hexes(e for _, e in want)
    residual = level_set_residual_array(x, A1, A2, params)
    assert hexes(residual) == hexes(oracles.scalar_level_set_residual(c, params) for c in pts)


def test_drift_columns_blank_e(params_i):
    _, _, E_impl = orbit_drift_columns(*as_arrays(drift_points(params_i)[:4]), params_i)
    assert [math.isnan(v) for v in E_impl.tolist()] == [True, True, False, True]
    # at D = 0, A2 = 5e-16 gives D + 2 A2 = 1e-15 exactly, which is not blank
    params = derive_params(0.0, 0.3)
    pts = [ConfigPoint(0.2, 0.1, 5e-16), ConfigPoint(0.2, 0.1, 4.9e-16)]
    _, _, E_impl = orbit_drift_columns(*as_arrays(pts), params)
    assert hexes(E_impl) == hexes(oracles.scalar_implied_invariants(c, params)[1] for c in pts)
    assert not math.isnan(E_impl[0]) and math.isnan(E_impl[1])


def test_residual_takes_max_as_python_does(params_i):
    pts = [ConfigPoint(1e200, 0.1, 0.2), ConfigPoint(0.1, 1e200, 1e200),
           ConfigPoint(math.inf, 0.1, 0.2), ConfigPoint(0.1, math.nan, 0.2),
           ConfigPoint(0.1, 0.2, -math.inf)]
    got = level_set_residual_array(*as_arrays(pts), params_i)
    assert hexes(got) == hexes(oracles.scalar_level_set_residual(c, params_i) for c in pts)


@pytest.mark.parametrize("D,E", [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)])
def test_residual_of_a_point_not_finite_is_inf(D, E):
    # x = +-inf or NaN, or an x whose square overflows, makes the wall defect NaN, and the
    # maximum used to skip it: a sampled point moved to x = inf read 2.2e-16 in class I
    params = derive_params(D, E)
    c = sample_level_set(params, 1, seed=0)[0]
    bad = [ConfigPoint(x, c.A1, c.A2) for x in (math.inf, -math.inf, math.nan, 1e200)]
    bad += [ConfigPoint(c.x, math.nan, c.A2), ConfigPoint(c.x, c.A1, -math.inf)]
    assert level_set_residual(c, params) < 1e-12
    assert [level_set_residual(b, params) for b in bad] == [math.inf] * len(bad)
    assert level_set_residual_array(*as_arrays(bad), params).tolist() == [math.inf] * len(bad)
    assert [oracles.scalar_level_set_residual(b, params) for b in bad] == [math.inf] * len(bad)


# level sets whose real locus meets A1^2 = 1, where uniformize has its poles
POLE_SETS = [(0.3, 0.4), (-2.5, 1.5), (3.0, 0.3)]
FIXTURE_SETS = [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)]


def components(params):
    return (0,) if params.cls is RealLocusClass.I else (0, 1)


def assert_uniformize_matches(thetas, eps, params):
    """uniformize_array against the scalar reference at every angle; returns the pole mask."""
    x, A1, A2, pole = uniformize_array(np.array(thetas, dtype=float), eps, params)
    eps = np.broadcast_to(eps, pole.shape).tolist()
    for i, theta in enumerate(thetas):
        try:
            c = oracles.scalar_uniformize(AngleCoord(theta, eps[i]), params)
        except PoleError:
            assert pole[i] and math.isnan(x[i])
            continue
        assert not pole[i]
        assert hexes((x[i], A1[i], A2[i])) == hexes((c.x, c.A1, c.A2))
    return pole


def theta_scale(params):
    """The factor uniformize multiplies theta by before the Jacobi functions."""
    if params.cls is RealLocusClass.I:
        return 4.0 * complete_K(1.0 / (1.0 - params.k2))
    return 2.0 * complete_K(1.0 - params.k2)


def edge_thetas(params):
    """0, the smallest subnormal, the two sides of the |u| < 1e-8 series, 1/4, 1/2, 1 - ulp."""
    scale = theta_scale(params)
    below = above = 1e-8 / scale
    while not scale * below < 1e-8:
        below = math.nextafter(below, 0.0)
    while scale * above < 1e-8:
        above = math.nextafter(above, 1.0)
    return [0.0, 5e-324, below, above, 0.25, 0.5, math.nextafter(1.0, 0.0)]


@pytest.mark.parametrize("D,E", FIXTURE_SETS + POLE_SETS)
def test_uniformize_array_edge_angles(D, E):
    params = derive_params(D, E)
    thetas = edge_thetas(params)
    assert theta_scale(params) * thetas[2] < 1e-8 <= theta_scale(params) * thetas[3]
    for eps in components(params):
        assert_uniformize_matches(thetas, eps, params)


def pole_thetas(params, eps):
    """Angles on a fine comb around each crossing of A1^2 = 1."""
    grid = np.linspace(0.0, 1.0, 2001)[:-1]
    _, A1, _, _ = uniformize_array(grid, eps, params)
    side = 1.0 - A1 * A1 > 0.0
    out = []
    for i in np.flatnonzero(side[:-1] != side[1:]).tolist():
        lo, hi = grid[i], grid[i + 1]
        while lo < math.nextafter(hi, 0.0):
            mid = 0.5 * (lo + hi)
            _, a, _, _ = uniformize_array([mid], eps, params)
            if (1.0 - a[0] * a[0] > 0.0) == side[i]:
                lo = mid
            else:
                hi = mid
        out += [lo + k * 4e-15 for k in range(-60, 61)]
    return out


@pytest.mark.parametrize("D,E", POLE_SETS)
def test_uniformize_array_marks_the_poles(D, E):
    params = derive_params(D, E)
    for eps in components(params):
        pole = assert_uniformize_matches(pole_thetas(params, eps), eps, params)
        assert pole.any() and not pole.all()


@pytest.mark.parametrize("D,E", POLE_SETS)
def test_uniformize_pole_message(D, E):
    # a single-point uniformize at a pole raises the PoleError of a map step
    params = derive_params(D, E)
    for eps in components(params):
        thetas = np.array(pole_thetas(params, eps))
        poles = thetas[uniformize_array(thetas, eps, params)[3]].tolist()
        assert poles
        for theta in poles:
            with pytest.raises(PoleError) as info:
                uniformize(AngleCoord(theta, eps), params)
            assert str(info.value) == _AT_INFINITY


@given(oracles.level_sets(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
       st.integers(0, 2**16))
def test_uniformize_array_random_angles(params, thetas, seed):
    if params.cls is RealLocusClass.I:
        eps = 0
    else:
        eps = np.random.default_rng(seed).integers(0, 2, len(thetas))
    assert_uniformize_matches(thetas, eps, params)


def test_uniformize_array_rounds_as_math(monkeypatch, params_i, params_ii_plus):
    # numpy's sin and cos may round differently from math's on some builds;
    # the kernel reads math's cos and sin from cmath.rect, and the oracle
    # calls math.sin and math.cos: moving all of them by the same ulp shows
    # the kernel follows math's
    sin, cos, rect = math.sin, math.cos, cmath.rect
    monkeypatch.setattr(math, "sin", lambda v: math.nextafter(sin(v), math.inf))
    monkeypatch.setattr(math, "cos", lambda v: math.nextafter(cos(v), -math.inf))
    monkeypatch.setattr(cmath, "rect", lambda r, v: complex(
        math.nextafter(rect(r, v).real, -math.inf), math.nextafter(rect(r, v).imag, math.inf)))
    thetas = np.linspace(0.0, 1.0, 101)[:-1].tolist()
    for params in (params_i, params_ii_plus):
        for eps in components(params):
            assert_uniformize_matches(thetas, eps, params)


def test_uniformize_array_errors(params_i, params_ii_plus):
    def message(fn, *args):
        with pytest.raises(DomainError) as info:
            fn(*args)
        return str(info.value)

    for params, eps in [(params_i, 1), (params_ii_plus, 2), (derive_params(1.0, -0.5), 0)]:
        assert (message(uniformize_array, [0.3], eps, params)
                == message(oracles.scalar_uniformize, AngleCoord(0.3, eps), params))
    # a non-finite angle: a typed error, not libm's bare ValueError or a NaN point
    for params in (params_i, params_ii_plus):
        for eps in components(params):
            for theta in (math.inf, -math.inf, math.nan):
                assert message(uniformize_array, [0.3, theta], eps, params) == "theta must be finite"
                assert message(uniformize, AngleCoord(theta, eps), params) == "theta must be finite"


@pytest.mark.parametrize("fixture", ["params_i", "params_ii_plus"])
def test_kernels_keep_any_shape(request, fixture):
    # a 0-d, (2, 2) or (3, 1) angle, or point, gives the 1-D results bit for bit, in its
    # own shape; the first failing point of a (2, 2) point array raises as in 1-D
    params = request.getfixturevalue(fixture)
    flat = np.array([0.3, 0.05, 0.71, 0.9])
    eps = 0 if params.cls is RealLocusClass.I else 1
    want = uniformize_array(flat, eps, params)
    want_theta = theta_array(*want[:3], params)
    for shape in [(), (2, 2), (3, 1)]:
        n = math.prod(shape)
        got = uniformize_array(flat[:n].reshape(shape), eps, params)
        for g, w in zip(got, want):
            assert np.shape(g) == shape and np.ravel(g).tolist() == w[:n].tolist()
        theta = theta_array(*(np.reshape(v[:n], shape) for v in want[:3]), params)
        assert np.shape(theta) == shape
        assert list(map(float.hex, np.ravel(theta).tolist())) == list(
            map(float.hex, want_theta[:n].tolist()))
    x, A1, A2 = (np.reshape(v, (2, 2)).copy() for v in want[:3])
    x[1, 0] = math.nan
    assert outcome(theta_array, x, A1, A2, params) == NAN_ANGLE


def projection_points(params, seed):
    """Points on the level set, pushed off it at every scale, and the special cases."""
    rng = np.random.default_rng(seed)
    pts = sample_level_set(params, 10, seed)
    off = [ConfigPoint(*(v + s * rng.standard_normal() for v in (c.x, c.A1, c.A2)))
           for c in pts for s in (1e-14, 1e-9, 1e-4, 1e-1)]
    special = [ConfigPoint(0.0, 0.0, 2.0 * params.E),  # both Jacobian rows lack A1, A2: det == 0
               ConfigPoint(math.nan, 0.1, 0.2), ConfigPoint(math.inf, 0.1, 0.2),
               ConfigPoint(1e200, 0.1, 0.2), ConfigPoint(-0.0, 0.0, -0.0)]
    return pts + off + special


@given(oracles.level_sets(), st.integers(0, 2**16))
def test_projection_matches_scalar(params, seed):
    pts = projection_points(params, seed)
    got = project_onto_level_set_array(*as_arrays(pts), params)
    want = [oracles.scalar_project_onto_level_set(c, params) for c in pts]
    assert list(map(list, zip(*map(hexes, got)))) == [hexes((c.x, c.A1, c.A2)) for c in want]


def outcome(fn, *args):
    """What fn returns (a float, an angle or a point) in hex, or the type and message it raises."""
    try:
        v = fn(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, AngleCoord):
        return v.theta.hex(), v.eps
    return hexes((v.x, v.A1, v.A2))


@pytest.mark.parametrize("D,E", FIXTURE_SETS + POLE_SETS + [(1.0, -0.5)])
def test_single_point_functions_match_references(D, E):
    # uniformize, angle_of, level_set_residual and project_onto_level_set are
    # one-point calls of the kernels: same values and same errors as the references
    params = derive_params(D, E)
    if params.nondegenerate:
        pts = projection_points(params, 3)
        angles = [AngleCoord(theta, eps) for eps in components(params)
                  for theta in edge_thetas(params)
                  + (pole_thetas(params, eps)[::10] if (D, E) in POLE_SETS else [])]
    else:
        pts, angles = [ConfigPoint(0.3, 0.1, 0.2)], [AngleCoord(0.3, 0)]
    for fn, ref in [(level_set_residual, oracles.scalar_level_set_residual),
                    (project_onto_level_set, oracles.scalar_project_onto_level_set),
                    (angle_of, oracles.scalar_angle_of)]:
        assert [outcome(fn, c, params) for c in pts] == [outcome(ref, c, params) for c in pts]
    got = [outcome(uniformize, a, params) for a in angles]
    assert got == [outcome(oracles.scalar_uniformize, a, params) for a in angles]
    if (D, E) in POLE_SETS:
        assert (PoleError, "second wall intersection at infinity (A1^2 = 1)") in got


NAN_ANGLE = (DomainError, "angle inversion gives NaN (point not finite?)")


@pytest.mark.parametrize("D,E", FIXTURE_SETS)
def test_nan_point_has_no_angle(D, E):
    params = derive_params(D, E)
    c = sample_level_set(params, 1, seed=0)[0]
    nan = ConfigPoint(math.nan, math.nan, math.nan)
    assert outcome(angle_of, nan, params) == NAN_ANGLE
    assert outcome(theta_array, *as_arrays([c, nan, c]), params) == NAN_ANGLE
    # a point with x not finite and A1, A2 finite, in every class; with A1 = 0 the sine
    # of the amplitude is a finite zero
    for bad in (ConfigPoint(x, A1, 0.2) for x in (math.nan, math.inf, -math.inf)
                for A1 in (0.1, 0.0)):
        assert outcome(angle_of, bad, params) == NAN_ANGLE
        assert outcome(oracles.scalar_angle_of, bad, params) == NAN_ANGLE
        assert outcome(theta_array, *as_arrays([c, bad, c]), params) == NAN_ANGLE
    if params.cls is RealLocusClass.I:
        # the first failing point raises, with the first check it fails
        dn_zero = ConfigPoint(c.x, c.A1, 2.0 * params.E - params.R)
        off_locus = (DomainError, "point is off the real locus (dn = 0)")
        assert outcome(theta_array, *as_arrays([c, dn_zero, nan]), params) == off_locus
        assert outcome(theta_array, *as_arrays([c, nan, dn_zero]), params) == NAN_ANGLE
