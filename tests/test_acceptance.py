"""Acceptance gate: one test per advertised guarantee.

Each test is self-contained and prints a PASS line, so `pytest -v` reads as
a checklist of the package's headline claims.
"""

import csv
import io
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from boltzmann_billiard import (
    AngleCoord,
    RealLocusClass,
    angle_of,
    complete_K,
    complete_Kp,
    complete_Kpp,
    derive_params,
    empirical_rotation,
    find_periodic_locus,
    implied_invariants,
    involution_i,
    involution_j,
    iterate_orbit,
    map_t,
    period3_residual,
    rotation_number,
    sample_level_set,
    uniformize,
)
from boltzmann_billiard.cli import main

import oracles
from oracles import config_distance, jacobi_sn_cn_dn


CLASS_POINTS = [(1.5, -0.2), (2.5, -0.1), (-2.5, 1.5)]


def test_criterion_1_involution_laws():
    """i and j are involutions on 1000+ points across all three classes."""
    t0 = time.perf_counter()
    worst = 0.0
    total = 0
    for D, E in CLASS_POINTS:
        params = derive_params(D, E)
        for c in sample_level_set(params, 350, seed=101):
            total += 1
            worst = max(worst,
                        config_distance(involution_i(involution_i(c, params), params), c),
                        config_distance(involution_j(involution_j(c, params), params), c))
    elapsed = time.perf_counter() - t0
    assert total >= 1000
    assert worst < 1e-9, f"worst involution defect {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 1 involution laws: PASS ({total} points, worst {worst:.2e})")


def test_criterion_2_conservation_along_orbits():
    """1000 unrenormalized steps keep D and E to 1e-8 in every class."""
    worst_D = worst_E = 0.0
    for D, E in CLASS_POINTS:
        params = derive_params(D, E)
        c0 = sample_level_set(params, 1, seed=102)[0]
        orbit = iterate_orbit(c0, params, 1000)
        for c in orbit.points:
            D_impl, E_impl = implied_invariants(c, params)
            worst_D = max(worst_D, abs(D_impl - D))
            worst_E = max(worst_E, abs(E_impl - E))
    assert worst_D < 1e-8, f"worst D drift {worst_D:.3e}"
    assert worst_E < 1e-8, f"worst E drift {worst_E:.3e}"
    print(f"criterion 2 conservation: PASS (D drift {worst_D:.2e}, E drift {worst_E:.2e})")


def test_criterion_3_period3_all_or_nothing():
    """At the exact rational point every start closes after 3 bounces."""
    t0 = time.perf_counter()
    D, E = 1.75, -5.0 / 24.0
    assert period3_residual(Fraction(7, 4), Fraction(-5, 24)) == 0
    params = derive_params(D, E)
    rot = rotation_number(params)
    assert abs(3.0 * rot.alpha - round(3.0 * rot.alpha)) < 1e-9
    worst = 0.0
    starts = sample_level_set(params, 100, seed=103)
    for c in starts:
        c3 = map_t(map_t(map_t(c, params), params), params)
        worst = max(worst, config_distance(c3, c))
    elapsed = time.perf_counter() - t0
    assert len(starts) >= 100
    assert worst < 1e-8, f"worst t^3 defect {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 3 period-3 closure: PASS (100 starts, worst {worst:.2e})")


def test_criterion_4_period3_locus_cross_validation():
    """Rotation-number roots and polynomial roots agree both ways in D."""
    for E in (-5.0 / 24.0, -0.15, -0.25, -0.3):
        alpha_roots = find_periodic_locus(E, 3, D_range=(0.0, 2.0))
        assert alpha_roots, f"no alpha root found at E={E}"
        # polynomial in D at fixed E: D^4 + 4E D^3 + (4E^2-2) D^2 - 12E D - 16E^2 - 3
        poly_roots = [float(r.real) for r in
                      np.roots([1.0, 4.0 * E, 4.0 * E * E - 2.0, -12.0 * E,
                                -16.0 * E * E - 3.0])
                      if abs(r.imag) < 1e-9 and 0.0 < r.real < 2.0
                      and derive_params(float(r.real), E).nondegenerate]
        assert len(poly_roots) == len(alpha_roots)
        for a in alpha_roots:
            assert min(abs(a - p) / max(1.0, abs(p)) for p in poly_roots) < 1e-6
        for p in poly_roots:
            assert min(abs(a - p) / max(1.0, abs(p)) for a in alpha_roots) < 1e-6
    exact = find_periodic_locus(-5.0 / 24.0, 3)
    assert exact[0] == pytest.approx(1.75, abs=1e-8)
    print("criterion 4 period-3 locus: PASS (4 energies, both directions)")


def test_criterion_5_conjugacy_to_rigid_rotation():
    """Analytic alpha matches the 10^4-step empirical winding on a grid."""
    Ds = [-3.0, -2.4, 0.9, 1.6, 2.6]
    Es = [1.55, 1.8, -0.2, -0.12]
    census = {RealLocusClass.I: 0, RealLocusClass.II_PLUS: 0, RealLocusClass.II_MINUS: 0}
    evaluated = 0
    worst = 0.0
    for D in Ds:
        for E in Es:
            params = derive_params(D, E)
            if not params.nondegenerate:
                continue
            rot = rotation_number(params)
            emp = empirical_rotation(params, n_steps=10_000, seed=105)
            worst = max(worst, oracles.wrapped_diff(rot.alpha, emp))
            census[params.cls] += 1
            evaluated += 1
    assert evaluated >= 12
    assert all(n >= 3 for n in census.values()), census
    assert worst < 1e-6, f"worst analytic/empirical gap {worst:.3e}"
    # component bookkeeping: on a two-component set with flipping t the
    # uniformized eps index must alternate step by step
    params = derive_params(2.6, -0.12)
    assert rotation_number(params).flips_component
    c = uniformize(AngleCoord(0.31, 0), params)
    eps_seq = []
    for _ in range(10):
        c = map_t(c, params)
        eps_seq.append(angle_of(c, params).eps)
    assert eps_seq == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    print(f"criterion 5 conjugacy: PASS ({evaluated} cells, worst gap {worst:.2e})")


def test_criterion_6_classification_fixtures():
    """The (D, E) plane is carved into the documented classes."""
    table = [
        (1.5, -0.2, RealLocusClass.I),
        (0.3, 0.4, RealLocusClass.I),
        (2.5, -0.1, RealLocusClass.II_PLUS),
        (-2.5, 1.5, RealLocusClass.II_MINUS),
        (1.0, -0.5, RealLocusClass.DEGENERATE_TANGENT),
        (2.0, -0.3, RealLocusClass.NODAL_D),
        (2.05, -0.4, RealLocusClass.NODAL_R),
        (1.5, -2.0, RealLocusClass.NEGATIVE_SIDE),
        (6.0, -0.1, RealLocusClass.EMPTY),
    ]
    for D, E, cls in table:
        assert derive_params(D, E).cls is cls, (D, E, cls)
    # exact rational curve data at the period-3 point
    p = derive_params(1.75, -5.0 / 24.0)
    assert p.R == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert p.k2 == pytest.approx(-5.0 / 27.0, abs=1e-15)
    assert p.s0 == pytest.approx(3.0, abs=1e-14)
    assert p.C2 == pytest.approx(3.0, abs=1e-14)
    print("criterion 6 classification: PASS (9 fixtures + exact curve data)")


def test_criterion_7_special_functions_against_oracles():
    """Self-authored elliptic layer agrees with quadrature and identities."""
    worst_K = 0.0
    for m in oracles.sample_m_grid(30):
        m = float(m)
        worst_K = max(worst_K, abs(complete_K(m) - oracles.K_quad(m)) / oracles.K_quad(m))
        if 0.0 < m < 1.0:
            worst_K = max(worst_K, abs(complete_Kp(m) - oracles.Kp_quad(m)) / oracles.Kp_quad(m))
        if m < 0.0:
            worst_K = max(worst_K, abs(complete_Kpp(m) - oracles.Kpp_quad(m)) / oracles.Kpp_quad(m))
    assert worst_K < 1e-12, f"worst complete-integral error {worst_K:.3e}"

    rng = np.random.default_rng(107)
    worst_id = 0.0
    for u, m in zip(rng.uniform(-20.0, 20.0, size=10_000),
                    rng.uniform(-6.0, 0.95, size=10_000)):
        s, c, d = jacobi_sn_cn_dn(float(u), float(m))
        s, c, d = s.real, c.real, d.real
        worst_id = max(worst_id, abs(s * s + c * c - 1.0), abs(d * d + m * s * s - 1.0))
    assert worst_id < 1e-11, f"worst Jacobi identity defect {worst_id:.3e}"

    h = 1e-5
    for m in (-2.0, 0.5):
        for u in (0.4, 1.3):
            sp = jacobi_sn_cn_dn(u + h, m)[0].real
            sm = jacobi_sn_cn_dn(u - h, m)[0].real
            _, c, d = jacobi_sn_cn_dn(u, m)
            assert (sp - sm) / (2.0 * h) == pytest.approx(c.real * d.real, rel=1e-6)
    print(f"criterion 7 special functions: PASS (K err {worst_K:.2e}, "
          f"identity err {worst_id:.2e})")


def test_criterion_8_twist_property():
    """alpha moves with D inside each class: the map is a genuine twist."""
    profiles = [
        (RealLocusClass.I, np.linspace(0.5, 1.9, 10), -0.2),
        (RealLocusClass.II_PLUS, np.linspace(2.1, 3.9, 10), -0.1),
        (RealLocusClass.II_MINUS, np.linspace(-2.9, -2.1, 10), 1.5),
    ]
    for cls, Ds, E in profiles:
        moving = 0
        for D in Ds:
            params = derive_params(float(D), E)
            assert params.cls is cls
            if abs(oracles.alpha_slope(float(D), E)) > 1e-6:
                moving += 1
        assert moving > len(Ds) // 2, f"alpha flat on {cls}: {moving}/10 moving"
    print("criterion 8 twist property: PASS (alpha responds to D in all classes)")


def test_criterion_9_cli_figures(capsys, tmp_path):
    """Orbit and level-set outputs have the promised structure."""
    # closed 3-bounce polygon at the period-3 point
    assert main(["orbit", "--D", "1.75", "--E", repr(-5.0 / 24.0),
                 "--steps", "3"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    for k in (1, 2, 3):
        assert float(rows[3][k]) == pytest.approx(float(rows[0][k]), abs=1e-7)
    # the same orbit as SVG: exactly three arcs
    assert main(["orbit", "--D", "1.75", "--E", repr(-5.0 / 24.0),
                 "--steps", "3", "--format", "svg"]) == 0
    svg = ET.fromstring(capsys.readouterr().out)
    arcs = [el for el in svg.iter() if el.tag.endswith("path")
            and el.get("class") == "arc"]
    assert len(arcs) == 3
    # level-set figures: one closed component for class I, two for D > 2
    assert main(["classify", "--D", "1.5", "--E", "-0.2",
                 "--format", "svg"]) == 0
    one = ET.fromstring(capsys.readouterr().out)
    assert len([el for el in one.iter() if el.get("class") == "component"]) == 1
    assert main(["orbit", "--D", "2.5", "--E", "-0.1", "--steps", "3",
                 "--format", "levelset"]) == 0
    two = ET.fromstring(capsys.readouterr().out)
    assert len([el for el in two.iter() if el.get("class") == "orbit"]) == 4
    assert len([el for el in two.iter() if el.get("class") == "component"]) == 2
    # t alternates between the two components: the momentum column of a
    # II+ orbit flips sign every single step
    assert main(["orbit", "--D", "2.5", "--E", "-0.1", "--steps", "30"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    Ls = [float(r[4]) for r in rows]
    assert all(a * b < 0.0 for a, b in zip(Ls, Ls[1:]))
    print("criterion 9 cli figures: PASS (closure, arc count, components)")
