"""Command line surface: formats, determinism, exit codes."""

import contextlib
import csv
import io
import json
import math
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from boltzmann_billiard import ConfigPoint, OrbitAbort, derive_params, sample_level_set
from boltzmann_billiard import cli
from boltzmann_billiard.cli import main
from boltzmann_billiard.grid import orbit_drift_columns


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestClassify:
    def test_json_fields(self, capsys):
        code, out = run_cli(capsys, "classify", "--D", "1.5", "--E", "-0.2",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "I"
        assert doc["D"] == 1.5 and doc["E"] == -0.2
        assert doc["k2"] < 0.0
        assert doc["nonempty"] is True
        assert doc["alpha"] == pytest.approx(0.707115615675, abs=1e-9)
        assert doc["flips_component"] is False

    def test_two_component_class(self, capsys):
        code, out = run_cli(capsys, "classify", "--D", "2.5", "--E", "-0.1",
                            "--format", "json")
        doc = json.loads(out)
        assert doc["class"] == "IIplus"
        assert doc["flips_component"] is True

    def test_degenerate_yields_nulls(self, capsys):
        code, out = run_cli(capsys, "classify", "--D", "1.0", "--E", "-0.5",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "DegenerateTangent"
        assert doc["alpha"] is None
        assert doc["R"] is None

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "classify", "--D", "1.5", "--E", "-0.2")
        assert code == 0
        assert "class = I" in out

    def test_negative_side_with_failing_mirror(self, capsys):
        # the mirror (-D, -E) cannot be derived (complete_Kpp raises there),
        # but the point itself classifies
        code, out = run_cli(capsys, "classify", "--D", "-1.999999095130935",
                            "--E", "-45242.943014490746", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "NegativeAngularMomentumSide"
        assert doc["alpha"] is None

    def test_invalid_numerics_exit_2(self, capsys):
        code, _ = run_cli(capsys, "classify", "--D", "nan", "--E", "-0.2")
        assert code == 2


class TestOrbit:
    def test_csv_shape_and_conservation(self, capsys):
        code, out = run_cli(capsys, "orbit", "--D", "1.5", "--E", "-0.2",
                            "--steps", "100")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["step", "x", "A1", "A2", "L", "D_resid", "E_check"]
        assert len(rows) == 101
        for row in rows:
            assert abs(float(row[5])) < 1e-8
            assert float(row[6]) == pytest.approx(-0.2, abs=1e-8)

    def test_floats_carry_17_digits(self, capsys):
        _, out = run_cli(capsys, "orbit", "--D", "1.5", "--E", "-0.2",
                         "--steps", "2")
        _, rows = parse_csv(out)
        # full-precision decimal round trip
        for row in rows:
            assert float(row[1]) == float(repr(float(row[1])))
            assert len(row[1].replace("-", "").replace(".", "").split("e")[0]) >= 10

    def test_zero_steps_single_row(self, capsys):
        code, out = run_cli(capsys, "orbit", "--D", "1.5", "--E", "-0.2",
                            "--steps", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0][0] == "0"

    def test_period3_closure(self, capsys):
        _, out = run_cli(capsys, "orbit", "--D", "1.75", "--E",
                         repr(-5.0 / 24.0), "--steps", "3")
        _, rows = parse_csv(out)
        first, last = rows[0], rows[3]
        for k in (1, 2, 3):
            assert float(last[k]) == pytest.approx(float(first[k]), abs=1e-7)

    def test_deterministic_bytes(self, capsys):
        _, a = run_cli(capsys, "orbit", "--D", "2.5", "--E", "-0.1",
                       "--steps", "40", "--seed", "3")
        _, b = run_cli(capsys, "orbit", "--D", "2.5", "--E", "-0.1",
                       "--steps", "40", "--seed", "3")
        assert a == b
        _, c = run_cli(capsys, "orbit", "--D", "2.5", "--E", "-0.1",
                       "--steps", "40", "--seed", "4")
        assert c != a

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "orbit", "--D", "1.5", "--E", "-0.2",
                            "--steps", "5", "--format", "json")
        doc = json.loads(out)
        assert doc["class"] == "I"
        assert len(doc["rows"]) == 6

    def test_divergent_orbit_exit_1(self, capsys):
        # positive-energy one-oval set, conics swing out to large abscissae;
        # a tight ceiling aborts, and the partial orbit is still emitted
        code, out = run_cli(capsys, "orbit", "--D", "0.3", "--E", "0.4",
                            "--steps", "2000", "--abort-abscissa", "50")
        assert code == 1
        _, rows = parse_csv(out)
        assert 1 <= len(rows) < 2001
        assert all(abs(float(r[1])) <= 50.0 for r in rows)

    def test_samples_option_removed(self):
        # the orbit starts from the first sampled point; --samples N used to draw
        # N points and keep that first one, so it never changed the output
        code, out, err = run_quiet(["orbit", "--D", "1.5", "--E", "-0.2", "--samples", "3"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --samples 3" in err

    def test_empty_set_exit_2(self, capsys):
        code, _ = run_cli(capsys, "orbit", "--D", "6.0", "--E", "-0.1",
                          "--steps", "5")
        assert code == 2

    def test_negative_steps_exit_2(self, capsys):
        code = main(["orbit", "--D", "1.5", "--E", "-0.2", "--steps", "-2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "error: orbit iteration needs n >= 0 steps (got -2)" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_aborted_prefix_matches_scalar(self, capsys, fmt):
        argv = ("orbit", "--D", "0.3", "--E", "0.4", "--steps", "2000",
                "--abort-abscissa", "50", "--seed", "1", "--format", fmt)
        code, out = run_cli(capsys, *argv)
        assert (code, out) == scalar_orbit_output(derive_params(0.3, 0.4), 1, 2000, fmt,
                                                  abort_abscissa=50.0)
        assert code == 1

    @pytest.mark.parametrize("block", [cli._ORBIT_BLOCK, 2])
    def test_writer_blanks_nan_fields(self, monkeypatch, params_i, block):
        # E_check is blank where |D + 2 A2| < 1e-15; a NaN anywhere else is
        # blank too, as the per-field writer leaves it
        monkeypatch.setattr(cli, "_ORBIT_BLOCK", block)
        A2 = -params_i.D / 2.0
        pts = [ConfigPoint(0.3, 0.2, A2), ConfigPoint(0.9, -0.1, A2 + 1e-15),
               ConfigPoint(math.nan, 0.1, 0.2), ConfigPoint(-1.7, 0.4, A2 + 4e-16),
               ConfigPoint(0.5, 0.1, 0.2)]
        x, A1, A2 = (np.array([getattr(c, k) for c in pts]) for k in ("x", "A1", "A2"))
        L, D_impl, E_impl = orbit_drift_columns(x, A1, A2, params_i)
        buf = io.StringIO()
        cli._write_orbit(buf, (x, A1, A2, L, D_impl - params_i.D, E_impl))
        assert buf.getvalue() == oracles.scalar_orbit_csv(pts, params_i, params_i.D)
        assert buf.getvalue().splitlines()[1].endswith(",")

    def test_svg_output(self, capsys):
        code, out = run_cli(capsys, "orbit", "--D", "1.5", "--E", "-0.2",
                            "--steps", "7", "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        arcs = [el for el in root.iter() if el.tag.endswith("path")
                and el.get("class") == "arc"]
        assert len(arcs) == 7

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "orbit.csv"
        code, out = run_cli(capsys, "orbit", "--D", "1.5", "--E", "-0.2",
                            "--steps", "3", "--out", str(target))
        assert code == 0 and out == ""
        header, rows = parse_csv(target.read_text())
        assert header[0] == "step" and len(rows) == 4


def scalar_orbit_output(params, seed, steps, fmt, **kwargs):
    """(exit code, stdout) of the orbit command, rebuilt by the scalar references."""
    c0 = sample_level_set(params, 1, seed)[0]
    code = 0
    try:
        orbit = oracles.scalar_iterate_orbit(c0, params, steps, **kwargs)
    except OrbitAbort as exc:
        orbit, code = exc.orbit, 1
    if fmt == "csv":
        return code, oracles.scalar_orbit_csv(orbit.points, params, params.D)
    rows = oracles.scalar_orbit_rows(orbit.points, params, params.D)
    return code, cli._json({"D": params.D, "E": params.E, "class": params.cls.value,
                            "rows": rows})


@settings(max_examples=30)
@given(oracles.level_sets(), st.integers(0, 2**16), st.integers(0, 3000),
       st.sampled_from(["csv", "json"]))
def test_orbit_output_matches_scalar(params, seed, steps, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(["orbit", f"--D={params.D!r}", f"--E={params.E!r}", "--seed", str(seed),
                     "--steps", str(steps), "--format", fmt])
    assert (code, buf.getvalue()) == scalar_orbit_output(params, seed, steps, fmt)


class TestRotation:
    def test_single_point_json(self, capsys):
        code, out = run_cli(capsys, "rotation", "--D", "2.5", "--E", "-0.1",
                            "--steps", "3000", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_analytic"] == pytest.approx(0.339505868735, abs=1e-9)
        assert doc["difference"] < 1e-6
        assert doc["flips_component"] is True

    @pytest.mark.parametrize("D,E", [("1.5", "-0.2"), ("2.5", "-0.1"), ("-2.5", "1.5"),
                                     ("1.75", "-0.20833333333333334")])
    def test_single_point_matches_scalar_winding(self, capsys, monkeypatch, D, E):
        argv = ("rotation", "--D", D, "--E", E, "--steps", "700", "--seed", "3")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(cli, "empirical_rotation", oracles.scalar_empirical_rotation)
        assert run_cli(capsys, *argv) == (0, out)

    def test_grid_csv(self, capsys):
        code, out = run_cli(capsys, "rotation", "--grid", "0.5:3.5:-0.4:-0.1:5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["D", "E", "class", "alpha"]
        assert len(rows) == 25
        by_class = {}
        for row in rows:
            by_class.setdefault(row[2], []).append(row)
            if row[2] in ("I", "IIplus", "IIminus"):
                assert 0.0 <= float(row[3]) < 1.0
            else:
                # degenerate cells carry an empty alpha field
                assert row[3] == ""
        assert "I" in by_class and "IIplus" in by_class

    @pytest.mark.parametrize("block", [cli._GRID_BLOCK, 130])
    def test_grid_matches_scalar_loop(self, capsys, monkeypatch, block):
        # one rotation_grid call per block of D rows; 130 cells is two rows of 60
        monkeypatch.setattr(cli, "_GRID_BLOCK", block)
        code, out = run_cli(capsys, "rotation", "--grid", "0.5:3.5:-0.4:-0.1:60")
        assert code == 0
        lines = ["D,E,class,alpha"]
        for i in range(60):
            D = 0.5 + (3.5 - 0.5) * i / 59
            for j in range(60):
                E = -0.4 + (-0.1 + 0.4) * j / 59
                cls, alpha = oracles.scalar_rotation_cell(D, E)
                shown = "" if alpha != alpha else "%.17g" % alpha
                lines.append(f"{D:.17g},{E:.17g},{cls.value},{shown}")
        assert out == "\n".join(lines) + "\n"

    def test_grid_blank_where_curve_data_fails(self, capsys):
        # at D = 2 + 2e-9, E = 20 the squared modulus falls below the floor
        # of complete_Kp; the cell is written blank instead of failing the grid
        code, out = run_cli(capsys, "rotation", "--grid", "2.000000002:2.5:20:21:2")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][2:] == ["IIplus", ""]
        assert all(row[3] for row in rows[2:])

    def test_grid_non_finite_exit_2(self, capsys):
        code, out = run_cli(capsys, "rotation", "--grid", "0:inf:0:1:3")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_non_positive_steps_exit_2(self, capsys, steps):
        code = main(["rotation", "--D", "1.5", "--E", "-0.2", "--steps", steps])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"error: empirical rotation needs n_steps >= 1 (got {steps})" in err

    def test_missing_args_exit_2(self, capsys):
        code, _ = run_cli(capsys, "rotation", "--D", "1.5")
        assert code == 2

    def test_bad_grid_exit_2(self, capsys):
        code, _ = run_cli(capsys, "rotation", "--grid", "1:2:3")
        assert code == 2

    @pytest.mark.parametrize("spec", ["0:inf:0:1:3", "-inf:inf:0:1:3", "-1e308:1e308:0:1:3"])
    def test_grid_non_finite_warns_nothing(self, spec):
        # the numpy warnings of an infinite or overflowing axis are errors here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_quiet(["rotation", f"--grid={spec}"])
        assert (code, out) == (2, "")
        assert err.endswith("error: grid bounds must give finite D and E\n")
        assert "Warning" not in err

    def test_grid_json_exit_2(self):
        # the grid is CSV only; --format json used to be accepted and ignored
        code, out, err = run_quiet(["rotation", "--grid", "0.5:3.5:-0.4:-0.1:5", "--format", "json"])
        assert (code, out, err) == (2, "", "rotation --grid writes CSV only (got --format json)\n")
        assert run_quiet(["rotation", "--grid", "0.5:3.5:-0.4:-0.1:5", "--format", "csv"])[0] == 0


class TestPeriodScan:
    def test_finds_exact_root(self, capsys):
        code, out = run_cli(capsys, "period-scan", "--E", repr(-5.0 / 24.0))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["E", "p", "D_root", "period3_residual"]
        assert len(rows) == 1
        assert float(rows[0][2]) == pytest.approx(1.75, abs=1e-8)
        assert abs(float(rows[0][3])) < 1e-10

    def test_low_periods_yield_nothing(self, capsys):
        code, out = run_cli(capsys, "period-scan", "--E", "-0.2",
                            "--p-list", "1,2")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == []

    def test_format_option_removed(self):
        # period-scan writes CSV only; --format json used to be accepted and ignored
        code, out, err = run_quiet(["period-scan", "--E", "-0.2", "--format", "json"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --format json" in err

    def test_multiple_periods(self, capsys):
        code, out = run_cli(capsys, "period-scan", "--E", "-0.2",
                            "--p-list", "3,5", "--D-range", "0.2", "1.99")
        assert code == 0
        _, rows = parse_csv(out)
        ps = {row[1] for row in rows}
        assert "3" in ps and "5" in ps
        # polynomial residual only vanishes on the p = 3 rows
        for row in rows:
            if row[1] == "3":
                assert abs(float(row[3])) < 1e-8


class TestRender:
    def test_orbit_style(self, capsys):
        code, out = run_cli(capsys, "render", "--D", "1.5", "--E", "-0.2",
                            "--steps", "5")
        assert code == 0
        root = ET.fromstring(out)
        arcs = [el for el in root.iter() if el.tag.endswith("path")
                and el.get("class") == "arc"]
        assert len(arcs) == 5

    def test_levelset_style_components(self, capsys):
        code, out = run_cli(capsys, "render", "--D", "2.5", "--E", "-0.1",
                            "--style", "levelset")
        assert code == 0
        root = ET.fromstring(out)
        comps = [el for el in root.iter() if el.get("class") == "component"]
        assert len(comps) == 2
        code, out = run_cli(capsys, "render", "--D", "1.5", "--E", "-0.2",
                            "--style", "levelset")
        root = ET.fromstring(out)
        comps = [el for el in root.iter() if el.get("class") == "component"]
        assert len(comps) == 1


class TestSelftest:
    def test_passes(self, capsys):
        code, out = run_cli(capsys, "selftest")
        assert code == 0
        assert "all checks passed" in out
        assert out.count("ok") >= 7

    def test_forced_failure(self, capsys):
        code, out = run_cli(capsys, "selftest", "--force-fail")
        assert code == 1
        assert "FAIL" in out


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_no_command_exit_2():
    assert main([]) == 2


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "classify" in capsys.readouterr().out


def run_quiet(argv):
    """(exit code, stdout, stderr) of the command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestNegativeValues:
    """Option values argparse would take for options: negative floats with an exponent."""

    def test_orbit_exponent_value(self):
        got = run_quiet(["orbit", "--D", "1.5", "--E", "-2e-1", "--steps", "1"])
        assert got[0] == 0
        assert got == run_quiet(["orbit", "--D", "1.5", "--E=-2e-1", "--steps", "1"])

    @given(st.floats(max_value=-0.0, allow_nan=False))
    def test_every_negative_float_repr(self, E):
        value = repr(E)
        got = run_quiet(["classify", "--D", "1.5", "--E", value, "--format", "json"])
        assert got == run_quiet(["classify", "--D", "1.5", f"--E={value}", "--format", "json"])
        assert "expected one argument" not in got[2]

    def test_infinite_value_reaches_the_domain_check(self):
        code, _, err = run_quiet(["classify", "--D", "1.5", "--E", "-inf"])
        assert code == 2 and "must be finite" in err

    def test_pair_value(self):
        got = run_quiet(["period-scan", "--E", "-2.1e-1", "--D-range", "-1e-1", "2e0"])
        assert got[0] == 0 and got[1].count("\n") == 2
        assert got == run_quiet(["period-scan", "--E=-0.21", "--D-range", "-0.1", "2"])

    def test_options_still_read_as_options(self):
        code, _, err = run_quiet(["orbit", "--D", "1.5", "--E", "--steps", "1"])
        assert code == 2 and "argument --E: expected one argument" in err
