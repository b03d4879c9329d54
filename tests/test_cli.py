"""Command line surface: formats, determinism, exit codes."""

import argparse
import contextlib
import csv
import errno
import hashlib
import io
import json
import logging
import math
import os
import pathlib
import platform
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from boltzmann_billiard import (
    AngleCoord,
    ArcUnsupportedError,
    ConfigPoint,
    DomainError,
    OrbitAbort,
    PoleError,
    angle_of,
    derive_params,
    iterate_orbit,
    map_t,
    rotation_number,
    sample_level_set,
    trajectory_arc,
    uniformize,
)
from boltzmann_billiard import cli, csvtext, periods, poincare, selftest, svgplot
from boltzmann_billiard.cli import main
from boltzmann_billiard.poincare import orbit_drift_columns

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def assert_same_text(got: str, want: str) -> None:
    """got == want, reported at the first line that differs.

    pytest's own diff of two whole grid texts runs for minutes.
    """
    if got != want:
        g, w = got.splitlines(), want.splitlines()
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"texts differ first at line {i}: {g[i:i + 1]} != {w[i:i + 1]} "
                    f"({len(g)} vs {len(w)} lines)")


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
        assert run_cli(capsys, "classify", "--D", "1.5", "--E", "-0.2",
                       "--format", "text") == (0, out)

    def test_negative_side_with_failing_mirror(self, capsys):
        # the mirror (-D, -E) has no rotation number (complete_Kpp raises
        # there), but the point itself classifies
        code, out = run_cli(capsys, "classify", "--D", "-1.999999095130935",
                            "--E", "-45242.943014490746", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "NegativeAngularMomentumSide"
        assert doc["alpha"] is None

    def test_invalid_numerics_exit_2(self, capsys):
        code, _ = run_cli(capsys, "classify", "--D", "nan", "--E", "-0.2")
        assert code == 2

    def test_overflowing_curve_data_exit_2(self):
        # R^2 = 1 + 2DE + 4E^2 overflows; the message used to blame complete_K (k2=nan)
        code, out, err = run_quiet(["classify", "--D", "1e200", "--E", "1e200"])
        assert (code, out) == (2, "")
        assert err.endswith("error: curve data are not finite at D=1e+200, E=1e+200 "
                            "(R^2=inf, k2=nan, C^2=inf)\n")

    @pytest.mark.parametrize("extra, message", [
        (["--seed", "3"], "unrecognized arguments: --seed 3"),
        (["--format", "levelset"], "argument --format: invalid choice: 'levelset'"),
        (["--format", "csv"], "argument --format: invalid choice: 'csv'"),
    ])
    def test_unread_options_removed(self, extra, message):
        # classify draws nothing at random and draws no orbit; --format csv used to
        # write the text report
        code, out, err = run_quiet(["classify", "--D", "1.5", "--E", "-0.2", *extra])
        assert (code, out) == (2, "")
        assert message in err


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

    @pytest.mark.parametrize("block", [poincare._CHECK_BLOCK, 2])
    def test_writer_blanks_nan_fields(self, params_i, block):
        # E_check is blank where |D + 2 A2| < 1e-15; a NaN anywhere else is
        # blank too, as the per-field writer leaves it.  +-inf and |v| = 1e250
        # go to the kernel's "%.17g" fallback, -0.0 is its own case
        A2 = -params_i.D / 2.0
        pts = [ConfigPoint(0.3, 0.2, A2), ConfigPoint(0.9, -0.1, A2 + 1e-15),
               ConfigPoint(math.nan, 0.1, 0.2), ConfigPoint(-1.7, 0.4, A2 + 4e-16),
               ConfigPoint(0.5, 0.1, 0.2), ConfigPoint(math.inf, 0.1, 0.2),
               ConfigPoint(-math.inf, 0.1, 0.2), ConfigPoint(-0.0, 0.1, 0.2),
               ConfigPoint(1e250, 0.1, 0.2), ConfigPoint(0.5, -1e250, 0.2),
               ConfigPoint(0.5, 0.0, -0.0)]
        xyz = np.array([[getattr(c, k) for c in pts] for k in ("x", "A1", "A2")])
        blocks = ((lo, xyz[:, lo:lo + block], None, (0.0, 0)) for lo in range(0, len(pts), block))
        buf = io.StringIO()
        assert cli._write_orbit(buf, blocks, params_i) == 0
        assert buf.getvalue() == oracles.scalar_orbit_csv(pts, params_i, params_i.D)
        lines = buf.getvalue().splitlines()
        assert lines[1].endswith(",") and lines[6].startswith("5,inf,")
        assert lines[8].startswith("7,-0,") and lines[9].startswith("8,9.9999999999999992e+249,")

    @pytest.mark.parametrize("n", [1, cli._ORBIT_SLICE - 1, cli._ORBIT_SLICE,
                                   cli._ORBIT_SLICE + 1, 4 * cli._ORBIT_SLICE])
    def test_writer_slice_edges(self, params_ii_plus, n):
        # one block of n rows, written cli._ORBIT_SLICE rows per csv_rows call
        orbit = iterate_orbit(sample_level_set(params_ii_plus, 1, 4)[0], params_ii_plus, n - 1)
        buf = io.StringIO()
        block = (0, np.array([orbit.x, orbit.A1, orbit.A2]), None, (0.0, 0))
        assert cli._write_orbit(buf, [block], params_ii_plus) == 0
        assert_same_text(buf.getvalue(),
                         oracles.scalar_orbit_csv(orbit.points, params_ii_plus, params_ii_plus.D))

    def test_svg_output(self, capsys):
        code, out = run_cli(capsys, "orbit", "--D", "1.5", "--E", "-0.2",
                            "--steps", "7", "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        arcs = [el for el in root.iter() if el.tag.endswith("path")
                and el.get("class") == "arc"]
        assert len(arcs) == 7

    def test_svg_skips_arcs_through_infinity(self):
        # class I at positive energy: most arcs run off to infinity, every bounce is marked
        code, out, err = run_quiet(["orbit", "--D", "0.3", "--E", "0.4", "--steps", "20",
                                    "--format", "svg"])
        assert (code, err) == (0, "")
        params = derive_params(0.3, 0.4)
        orbit = iterate_orbit(sample_level_set(params, 1, 0)[0], params, 20)
        drawn = 0
        for c in orbit.points[:-1]:
            with contextlib.suppress(ArcUnsupportedError):
                trajectory_arc(c, params)
                drawn += 1
        assert 0 < drawn < 20
        assert out.count('class="orbit"') == 21
        assert out.count("<path") == drawn
        assert run_quiet(["orbit", "--D", "-2.5", "--E", "1.5", "--format", "svg"])[0] == 0

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
        orbit = oracles.scalar_translated_orbit(c0, params, steps, **kwargs)
    except OrbitAbort as exc:
        orbit, code = exc.orbit, 1
    if fmt == "csv":
        return code, oracles.scalar_orbit_csv(orbit.points, params, params.D)
    rows = oracles.scalar_orbit_rows(orbit.points, params, params.D)
    return code, cli._json({"D": params.D, "E": params.E, "class": params.cls.value,
                            "rows": rows, "one_step_law_max": orbit.one_step_law_max,
                            "one_step_law_step": orbit.one_step_law_step})


@settings(max_examples=30)
@given(oracles.level_sets(), st.integers(0, 2**16), st.integers(0, 3000),
       st.sampled_from(["csv", "json"]))
def test_orbit_output_matches_scalar(params, seed, steps, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(["orbit", f"--D={params.D!r}", f"--E={params.E!r}", "--seed", str(seed),
                     "--steps", str(steps), "--format", fmt])
    assert (code, buf.getvalue()) == scalar_orbit_output(params, seed, steps, fmt)


def scalar_abort(params, seed, steps, **kwargs):
    """The step and message of the scalar references' OrbitAbort, or None."""
    c0 = sample_level_set(params, 1, seed)[0]
    try:
        oracles.scalar_translated_orbit(c0, params, steps, **kwargs)
    except OrbitAbort as exc:
        return exc.step, str(exc)
    return None


def assert_streamed_csv(capsys, tmp_path, D, E, seed, steps, *extra, **kwargs):
    """orbit CSV to stdout and to --out against the scalar references, abort line included."""
    params = derive_params(D, E)
    want = scalar_orbit_output(params, seed, steps, "csv", **kwargs)
    abort = scalar_abort(params, seed, steps, **kwargs)
    argv = ["orbit", f"--D={D!r}", f"--E={E!r}", "--seed", str(seed), "--steps", str(steps),
            *extra]
    target = tmp_path / "orbit.csv"
    for out in (None, target):
        code = main(argv + (["--out", str(out)] if out else []))
        stdout, stderr = capsys.readouterr()
        got = (code, target.read_text() if out else stdout)
        assert got == want and stdout == ("" if out else got[1])
        assert stderr == (f"orbit aborted: {abort[1]}\n" if abort else "")
    return abort


class TestStreamedOrbitCsv:
    """The orbit CSV is written one checked block of the orbit at a time."""

    B = poincare._CHECK_BLOCK

    @pytest.mark.parametrize("steps, D, E", [
        (B - 1, 1.5, -0.2), (B, 2.5, -0.1), (B + 1, -2.5, 1.5), (2 * B, 1.5, -0.2)])
    def test_block_edges_match_scalar(self, capsys, tmp_path, steps, D, E):
        assert assert_streamed_csv(capsys, tmp_path, D, E, 3, steps) is None

    @staticmethod
    def place(monkeypatch, step, where):
        """Set the block size so that the failing step falls where asked."""
        block = {"first block": step + 1, "block start": step - 1,
                 "mid-block": (step + 1) // 2}[where]
        assert where != "mid-block" or (step > block and (step - 1) % block)
        monkeypatch.setattr(poincare, "_CHECK_BLOCK", block)

    @pytest.mark.parametrize("where", ["first block", "block start", "mid-block"])
    def test_abscissa_abort(self, capsys, tmp_path, monkeypatch, where):
        limit = {"abort_abscissa": 50.0}
        step, _ = scalar_abort(derive_params(0.3, 0.4), 1, 200, **limit)
        self.place(monkeypatch, step, where)
        got = assert_streamed_csv(capsys, tmp_path, 0.3, 0.4, 1, 200,
                                  "--abort-abscissa", "50", **limit)
        assert got[0] == step and "(residual inf)" in got[1]

    @pytest.mark.parametrize("where", ["first block", "block start", "mid-block"])
    def test_residual_ceiling_abort(self, capsys, tmp_path, monkeypatch, where):
        params = derive_params(2.5, -0.1)
        c0 = sample_level_set(params, 1, 6)[0]
        res = oracles.scalar_translated_orbit(c0, params, 400, residual_ceiling=1.0).residuals
        step = next(j for j in range(30, 401) if res[j] > max(res[1:j]))  # a record
        limit = {"residual_ceiling": max(res[1:step])}
        self.place(monkeypatch, step, where)
        got = assert_streamed_csv(capsys, tmp_path, 2.5, -0.1, 6, 400,
                                  f"--residual-ceiling={limit['residual_ceiling']!r}", **limit)
        assert got[0] == step and "left the level set" in got[1]

    @pytest.mark.parametrize("where", ["first block", "block start", "mid-block"])
    def test_pole_abort(self, capsys, tmp_path, monkeypatch, where):
        # the point of step 36 is put at infinity through its angle: for the scalar
        # references in scalar_uniformize, for the CLI in uniformize_array
        params = derive_params(1.5, -0.2)
        c0 = sample_level_set(params, 1, 2)[0]
        pole_theta = oracles.translated_angle(angle_of(c0, params).theta,
                                              rotation_number(params).alpha, 36)
        scalar_uniformize, uniformize_array = oracles.scalar_uniformize, poincare.uniformize_array

        def scalar_pole(a, params):
            if a.theta == pole_theta:
                raise PoleError("wall abscissa at infinity (test)")
            return scalar_uniformize(a, params)

        def columnar_pole(theta, eps, params):
            x, A1, A2, pole = uniformize_array(theta, eps, params)
            pole = pole | (np.asarray(theta) == pole_theta)
            return np.where(pole, np.nan, x), A1, A2, pole

        monkeypatch.setattr(oracles, "scalar_uniformize", scalar_pole)
        monkeypatch.setattr(poincare, "uniformize_array", columnar_pole)
        self.place(monkeypatch, 36, where)
        got = assert_streamed_csv(capsys, tmp_path, 1.5, -0.2, 2, 100)
        assert got == (36, "step 36: second wall intersection at infinity (A1^2 = 1)")

    def test_blocks_bound_the_columns(self, capsys, monkeypatch):
        # three blocks of map steps: no drift column spans more than one block,
        # and the whole-orbit arrays of iterate_orbit are never built
        sizes = []

        def drift_columns(x, A1, A2, params):
            sizes.append(len(x))
            return orbit_drift_columns(x, A1, A2, params)

        def whole_orbit(*args, **kwargs):
            raise AssertionError("the CSV path iterates the orbit a block at a time")

        monkeypatch.setattr(cli, "orbit_drift_columns", drift_columns)
        monkeypatch.setattr(cli, "iterate_orbit", whole_orbit)
        code, out = run_cli(capsys, "orbit", "--D", "2.5", "--E", "-0.1",
                            "--steps", str(3 * self.B))
        assert code == 0 and out.count("\n") == 3 * self.B + 2
        assert sizes == [1, self.B, self.B, self.B]

    @pytest.mark.parametrize("argv, message", [
        (["--D", "1.5", "--E", "-0.2", "--steps", "-2"], "n >= 0 steps (got -2)"),
        (["--D", "1.0", "--E", "-0.5"], "needs a nondegenerate level set"),
    ])
    def test_refused_orbit_writes_no_file(self, tmp_path, argv, message):
        target = tmp_path / "orbit.csv"
        code, out, err = run_quiet(["orbit", *argv, "--out", str(target)])
        assert (code, out) == (2, "") and message in err
        assert not target.exists()

    def test_memory_error_exit_2(self, monkeypatch):
        # an orbit too long for memory is a usage error, not an aborted orbit
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.18 TiB for an array")

        monkeypatch.setattr(cli, "iterate_orbit", no_memory)
        code, out, err = run_quiet(["orbit", "--D", "1.5", "--E", "-0.2", "--steps",
                                    "100000000000", "--format", "json"])
        assert (code, out) == (2, "")
        assert err == "error: Unable to allocate 2.18 TiB for an array\n"


class TestLawOnlyWhenLogged:
    """The orbit CSV reads the one-step law only for its DEBUG line, so it computes it only then."""

    B = poincare._CHECK_BLOCK

    @staticmethod
    def step_sizes(monkeypatch) -> list:
        """The number of points of each map_t_array call, as the calls are made."""
        sizes, step = [], poincare.map_t_array

        def counted(x, A1, A2, params):
            sizes.append(len(x))
            return step(x, A1, A2, params)

        monkeypatch.setattr(poincare, "map_t_array", counted)
        return sizes

    def test_one_map_step_unless_logged(self, capsys, caplog, monkeypatch):
        # logging off, the start alone is stepped; under DEBUG every point is, one call per block
        sizes = self.step_sizes(monkeypatch)
        argv = ("orbit", "--D", "2.5", "--E", "-0.1", "--steps", str(3 * self.B))
        caplog.set_level(logging.WARNING, logger=cli.log.name)
        off = run_cli(capsys, *argv)
        assert off[0] == 0 and sizes == [1] and caplog.records == []
        sizes.clear()
        caplog.set_level(logging.DEBUG, logger=cli.log.name)
        assert run_cli(capsys, *argv) == off  # the same bytes
        assert sizes == [self.B] * 3
        assert caplog.records[-1].getMessage().startswith("one-step law: max ")

    @pytest.mark.parametrize("level", ["WARNING", "DEBUG"])
    def test_aborts_keep_their_step(self, capsys, caplog, tmp_path, level):
        # the abscissa and residual-ceiling aborts, as the scalar references make them
        caplog.set_level(level, logger=cli.log.name)
        got = assert_streamed_csv(capsys, tmp_path, 0.3, 0.4, 1, 200, "--abort-abscissa", "50",
                                  abort_abscissa=50.0)
        assert got is not None and "(residual inf)" in got[1]
        params = derive_params(2.5, -0.1)
        c0 = sample_level_set(params, 1, 6)[0]
        res = oracles.scalar_translated_orbit(c0, params, 400, residual_ceiling=1.0).residuals
        step = next(j for j in range(30, 401) if res[j] > max(res[1:j]))  # a record
        ceiling = max(res[1:step])
        got = assert_streamed_csv(capsys, tmp_path, 2.5, -0.1, 6, 400,
                                  f"--residual-ceiling={ceiling!r}", residual_ceiling=ceiling)
        assert got[0] == step and "left the level set" in got[1]

    @pytest.mark.parametrize("level", ["WARNING", "DEBUG"])
    @pytest.mark.parametrize("dA2, law_sizes", [(0.0, []), (1e-9, [10])])
    def test_pole_start_aborts_at_step_1(self, capsys, caplog, monkeypatch, level, dA2, law_sizes):
        # on the level set (dA2 = 0) the point of step 1 is a pole of uniformize_array and no
        # step is taken; 1e-9 off it that point is finite, and the start's own step meets the pole
        params = derive_params(0.3, 0.4)
        pole = oracles.on_set_pole_start(params)
        c0 = ConfigPoint(pole.x, pole.A1, pole.A2 + dA2)
        sizes = self.step_sizes(monkeypatch)
        monkeypatch.setattr(cli, "sample_level_set", lambda params, m, seed: [c0])
        caplog.set_level(level, logger=cli.log.name)
        code = main(["orbit", "--D", "0.3", "--E", "0.4", "--steps", "10"])
        out, err = capsys.readouterr()
        assert sizes == (law_sizes if level == "DEBUG" else [1] * len(law_sizes))
        with pytest.raises(OrbitAbort) as exc:
            iterate_orbit(c0, params, 10)
        assert (exc.value.step, str(exc.value)) == (
            1, "step 1: second wall intersection at infinity (A1^2 = 1)")
        assert (code, out) == (1, oracles.scalar_orbit_csv([c0], params, params.D))
        assert err == f"orbit aborted: {exc.value}\n"


def process_env() -> dict:
    """The environment of a fresh interpreter that imports the package from src/ and
    turns every warning into an error."""
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


SAMPLING_IMPORTS = """
import contextlib, io, sys
import numpy
loaded = 'numpy.random' in sys.modules
from boltzmann_billiard import derive_params, empirical_rotation, poncelet_check
from boltzmann_billiard.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["orbit", "--D", "1.5", "--E", "-0.2", "--steps", "10"],
                 ["orbit", "--D", "1.5", "--E", "-0.2", "--steps", "10", "--format", "svg"],
                 ["rotation", "--D", "1.5", "--E", "-0.2", "--steps", "10"],
                 ["selftest"]):
        assert main(argv) == 0, argv
params = derive_params(1.75, -5 / 24)
poncelet_check(params)
empirical_rotation(params)
print(loaded, 'numpy.random' in sys.modules)
"""


def test_sampling_imports_no_numpy_random():
    # default_rng imported numpy.random (hashlib, secrets, OpenSSL) at the first draw
    done = subprocess.run([sys.executable, "-c", SAMPLING_IMPORTS], env=process_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    after_numpy, after_commands = done.stdout.split()
    assert after_commands == after_numpy


class TestProcessStderr:
    """Each error is one stderr line of a real process.

    In-process runs miss a second copy: a logging handler writes to the stderr
    it found when logging was first configured, not to the one the test swaps in.
    """

    @staticmethod
    def run(*argv, **env):
        return subprocess.run([sys.executable, "-m", "boltzmann_billiard.cli", *argv],
                              env={**process_env(), **env}, capture_output=True, text=True,
                              timeout=60)

    def test_error_line(self):
        # it used to follow an "ERROR boltzmann_billiard: ..." copy of itself
        done = self.run("classify", "--D", "1e400", "--E", "0")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: D and E must be finite (got D=inf, E=0.0)\n"

    def test_abort_line(self, tmp_path):
        # it used to be logged as "ERROR ...: orbit aborted at step 29: step 29: ..."
        target = tmp_path / "orbit.csv"
        done = self.run("orbit", "--D", "0.3", "--E", "0.4", "--steps", "2000",
                        "--abort-abscissa", "50", "--out", str(target))
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "orbit aborted: step 29: orbit left the level set (residual inf)\n"
        assert len(target.read_text().splitlines()) == 30

    @staticmethod
    def law_line(D, E, steps, **limits) -> str:
        """The DEBUG line of the one-step law of iterate_orbit from the seed-0 start."""
        params = derive_params(D, E)
        try:
            orbit = iterate_orbit(sample_level_set(params, 1, 0)[0], params, steps, **limits)
        except OrbitAbort as exc:
            orbit = exc.orbit
        return (f"DEBUG boltzmann_billiard.cli: one-step law: max {orbit.one_step_law_max!r} "
                f"at step {orbit.one_step_law_step}")

    def test_debug_lines_name_the_cli(self):
        # under -m the module's __name__ is __main__; the logger keeps the package name
        done = self.run("orbit", "--D", "1.5", "--E", "-0.2", "--steps", "10", BOLTZMANN_LOG="debug")
        assert done.returncode == 0
        first, *_, last = done.stderr.splitlines()
        assert first.startswith(
            "DEBUG boltzmann_billiard.cli: mallopt(M_TOP_PAD, 16777216) returned ")
        assert first.endswith(" returned 1") or not ON_GLIBC  # glibc sets the pad
        assert last == self.law_line(1.5, -0.2, 10)

    @pytest.mark.parametrize("D, E, steps, abscissa", [
        (1.5, -0.2, 5000, 1e12), (2.5, -0.1, 5000, 1e12), (-2.5, 1.5, 5000, 1e12),
        (0.3, 0.4, 2000, 50.0)])
    def test_debug_law_is_iterate_orbits(self, D, E, steps, abscissa):
        # the CSV's law, logged over two blocks or up to an abort, is the JSON report's
        done = self.run("orbit", f"--D={D!r}", f"--E={E!r}", "--steps", str(steps),
                        "--abort-abscissa", repr(abscissa), BOLTZMANN_LOG="debug")
        assert done.returncode == (1 if abscissa == 50.0 else 0)
        assert done.stderr.splitlines()[-1] == self.law_line(D, E, steps, abort_abscissa=abscissa)

    @staticmethod
    def period_scan(p_list, **env):
        base = {k: v for k, v in process_env().items() if k != "BOLTZMANN_LOG"}
        return subprocess.run([sys.executable, "-m", "boltzmann_billiard.cli", "period-scan",
                               "--E", "-0.2", "--p-list", p_list],
                              env={**base, **env}, capture_output=True, text=True, timeout=60)

    def test_period_one_note_names_the_cli(self):
        # find_periodic_locus(E, 1) returns [] and logs nothing; the command writes the note,
        # once, and the rows of the other periods as without the 1
        done = self.period_scan("1,3", BOLTZMANN_LOG="info")
        assert done.returncode == 0
        assert done.stderr == ("INFO boltzmann_billiard.cli: period 1 only occurs on the tangent "
                               "boundary D + 2E = 0; nothing to scan\n")
        without = self.period_scan("3", BOLTZMANN_LOG="info")
        assert (without.returncode, without.stderr) == (0, "")
        assert done.stdout == without.stdout
        assert len(done.stdout.splitlines()) > 1

    def test_period_one_note_off_by_default(self):
        done = self.period_scan("1,3")
        assert (done.returncode, done.stderr) == (0, "")


ORBIT_PEAK_RSS = """
import sys
from boltzmann_billiard.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(code, next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


def powers_of_ten(lo: int, hi: int) -> list:
    """The double nearest 10**k, for k in [lo, hi]."""
    return [float(10 ** k) if k >= 0 else 1 / 10 ** -k for k in range(lo, hi + 1)]


def neighbours(values, steps: int = 1) -> list:
    """Each value, the `steps` doubles on either side of it, and their negatives."""
    out = []
    for v in values:
        below = above = v
        out.append(v)
        for _ in range(steps):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            out += [float(below), float(above)]
    return out + [-v for v in out]


class TestCsvRows:
    """csvtext.csv_rows: each field is the "%.17g" of its value, a NaN is empty."""

    @staticmethod
    def assert_rows(values, k: int = 7):
        vals = np.asarray(values, dtype=float)
        vals = np.concatenate([vals, np.full(-len(vals) % k, 0.5)]).reshape(-1, k)
        for lo in range(0, len(vals), cli._ORBIT_SLICE):
            block = vals[lo:lo + cli._ORBIT_SLICE]
            assert_same_text(csvtext.csv_rows(block), oracles.scalar_csv_rows(block))

    def test_random_bit_patterns(self):
        # every sign, exponent and mantissa: NaN payloads, subnormals, both sides of the range
        bits = np.random.default_rng(20261019).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
        self.assert_rows(bits.view(np.float64))

    def test_powers_of_ten(self):
        # the exponent correction next to 10**k, over the kernel's range and past both ends
        k = round(math.log10(csvtext._RANGE))
        self.assert_rows(neighbours(powers_of_ten(-k - 2, k + 2)))

    @pytest.mark.parametrize("bias", [-1e-9, 1e-9])
    def test_exponent_from_a_rough_log10(self, monkeypatch, bias):
        # floor(log10 |v|) is corrected by one either way, for a numpy whose log10 errs
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + bias)
        self.assert_rows(neighbours(powers_of_ten(-229, 229), steps=2))

    def test_power_table_build(self):
        # hi the double nearest 10**k, lo the double nearest the rest, and the least double >= 10**k
        ks = range(csvtext._K_LO, csvtext._K_HI + 1)
        hi, lo, ceiling = (column.tolist() for column in csvtext._powers_of_ten())
        assert len(hi) == len(lo) == len(ceiling) == len(ks)
        for k, h, l, c in zip(ks, hi, lo, ceiling):
            p = Fraction(10) ** k
            assert (h, l) == (float(p), float(p - Fraction(h))), k
            assert Fraction(math.nextafter(c, -math.inf)) < p <= Fraction(c), k

    def test_digit_split(self):
        # the three words spell "%017d"; nsig counts up to the last nonzero digit, 1 for zero
        edges = [0, 9999, 10 ** 4, 10 ** 8 - 1, 10 ** 8, 10 ** 16 - 1, 10 ** 16, 10 ** 17 - 1]
        seeded = np.random.default_rng(20261020).integers(10 ** 16, 10 ** 17, 10 ** 5)
        n = np.concatenate([np.array(edges, np.int64), seeded])
        words, nsig = csvtext._ascii17(n)
        text = np.stack(words, axis=1).astype("<u8").view("S24").ravel()  # NULs past byte 16
        want = [b"%017d" % i for i in n.tolist()]
        assert text.tolist() == want
        assert nsig.tolist() == [max(1, len(t.rstrip(b"0"))) for t in want]

    def test_notation_switches_and_carries(self):
        # fixed below 1e17 and from 1e-4 on, and digits that round up to the next power
        switches = [1e-5, 1e-4, 1e16, 1e17, 1e-200, 9.9999999999999995e-5, 9.9999999999999999e-5,
                    99999999999999999.0, 9999999999999999.0, 0.00099999999999999999, 0.5, 1.0]
        self.assert_rows(neighbours(switches, steps=8))

    def test_special_values(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
        subnormals = [5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0)]
        powers_of_two = [2.0 ** k for k in range(-1074, 1024)]
        values = [0.0, -0.0, np.inf, -np.inf, *nans, *neighbours(subnormals), *powers_of_two,
                  *(-p for p in powers_of_two)]
        self.assert_rows(values)
        text = csvtext.csv_rows(np.array([[0.0, -0.0, np.inf, -np.inf, *nans]]))
        assert text == "0,-0,inf,-inf,,,,\n"
        assert csvtext.csv_rows(np.empty((0, 1))) == ""  # the grid's block with no alpha

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40), st.integers(1, 7))
    def test_matches_percent_g(self, values, k):
        self.assert_rows(values, k)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_orbit_csv_memory_does_not_grow_with_steps(tmp_path):
    """Peak RSS of orbit CSV at 1 000 and 100 000 steps, each in a fresh interpreter."""
    env = process_env()
    peak_kb = []
    for steps in (1000, 100_000):
        done = subprocess.run(
            [sys.executable, "-c", ORBIT_PEAK_RSS, "orbit", "--D", "2.5", "--E", "-0.1",
             "--steps", str(steps), "--out", str(tmp_path / "orbit.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        code, kb = map(int, done.stdout.split())
        assert code == 0, done.stderr
        peak_kb.append(kb)
    assert peak_kb[1] - peak_kb[0] < 6 * 1024, peak_kb


SECOND_CALL_FAULTS = """
import resource, sys
from boltzmann_billiard.cli import main
assert main(sys.argv[1:]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
ON_GLIBC = platform.libc_ver()[0] == "glibc"
KEPT_HEAP_FAULTS = 300  # SECOND_CALL_FAULTS of a 20 000-step orbit: 2 600-2 900 unpadded, 32 padded


class TestKeptHeap:
    """main keeps the heap it frees (glibc's M_TOP_PAD), and skips that where it cannot."""

    RUNS = [["orbit", "--D", "1.5", "--E", "-0.2", "--steps", "5000"],
            ["rotation", "--grid", "0.5:3.5:-0.4:-0.1:60"]]

    @pytest.mark.skipif(not ON_GLIBC, reason="the top pad is a glibc malloc setting")
    def test_second_orbit_does_not_refault(self, tmp_path):
        # without the pad glibc trimmed each 1024-row CSV slice's temporaries off the heap,
        # and the next slice faulted them in again
        done = subprocess.run(
            [sys.executable, "-c", SECOND_CALL_FAULTS, "orbit", "--D", "1.5", "--E", "-0.2",
             "--steps", "20000", "--out", str(tmp_path / "orbit.csv")],
            env=process_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < KEPT_HEAP_FAULTS

    @pytest.mark.skipif(not ON_GLIBC, reason="the top pad is a glibc malloc setting")
    def test_pad_set_on_glibc(self, caplog):
        caplog.set_level(logging.DEBUG, logger=cli.__name__)
        assert main(["classify", "--D", "1.5", "--E", "-0.2", "--out", os.devnull]) == 0
        assert f"mallopt(M_TOP_PAD, {16 << 20}) returned 1" in caplog.text

    @pytest.mark.parametrize("argv", RUNS, ids=["orbit", "grid"])
    @pytest.mark.parametrize("guard", ["darwin", "no_mallopt"])
    def test_guard_writes_same_bytes(self, monkeypatch, caplog, tmp_path, argv, guard):
        assert main([*argv, "--out", str(tmp_path / "want")]) == 0
        loaded = []
        with monkeypatch.context() as m:
            if guard == "darwin":
                m.setattr(sys, "platform", "darwin")
                m.setattr(cli.ctypes, "CDLL", lambda name: loaded.append(name))
            else:
                m.setattr(cli.ctypes, "CDLL", lambda name: loaded.append(name) or object())
            caplog.set_level(logging.DEBUG, logger=cli.__name__)
            assert main([*argv, "--out", str(tmp_path / "got")]) == 0
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
        assert loaded == ([] if guard == "darwin" else [None])  # darwin never loads libc
        assert f"mallopt(M_TOP_PAD, {16 << 20}) returned None" in caplog.text


class TestRotation:
    def test_single_point_json(self, capsys):
        code, out = run_cli(capsys, "rotation", "--D", "2.5", "--E", "-0.1",
                            "--steps", "3000", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_analytic"] == pytest.approx(0.339505868735, abs=1e-9)
        assert doc["difference"] < 1e-6
        assert doc["flips_component"] is True
        # at the defaults (6 steps, seed 0) the class I winding is alpha to rounding
        code, out = run_cli(capsys, "rotation", "--D", "1.5", "--E", "-0.2", "--format", "json")
        assert code == 0
        assert json.loads(out)["difference"] <= 1e-13

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
        assert_same_text(out, "\n".join(lines) + "\n")
        assert_same_text(out, oracles.scalar_grid_csv(*cli._parse_grid("0.5:3.5:-0.4:-0.1:60")))

    @pytest.mark.parametrize("spec, block", [
        ("2.000000002:2.5:20:21:2", cli._GRID_BLOCK),  # one blank alpha among full cells
        ("-0.0:0.0:-0.0:1:3", cli._GRID_BLOCK),
        ("0.5:3.5:-0.4:-0.1:60", 59),  # below n: each block holds one row
        ("-3.5:3.5:-0.5:1.5:9", 1),
        ("1.0:1.5:-0.3:-0.2:4", cli._GRID_BLOCK),  # every alpha formatted
        ("-3.5:-3:0.5:1:3", cli._GRID_BLOCK),  # every alpha blank: no alpha formatted
        ("0.5:3.5:-0.4:-0.1:60", 120),  # blocks of two rows, some with no blank alpha
    ])
    def test_grid_matches_cell_writer(self, monkeypatch, spec, block):
        monkeypatch.setattr(cli, "_GRID_BLOCK", block)
        code, out, err = run_quiet(["rotation", f"--grid={spec}"])
        assert (code, err) == (0, "")
        assert_same_text(out, oracles.scalar_grid_csv(*cli._parse_grid(spec)))

    def test_grid_writer_signed_zeros(self):
        # the parsed axes never hold -0.0 (-0.0 + 0.0 is 0.0), so the writer is called directly
        Ds, Es = np.array([-0.0, 0.0, 1.5]), np.array([-0.0, -0.2])
        fh = io.StringIO()
        cli._write_grid(fh, Ds, Es)
        assert_same_text(fh.getvalue(), oracles.scalar_grid_csv(Ds, Es))
        assert fh.getvalue().splitlines()[1] == "-0,-0,DegenerateTangent,"

    @settings(max_examples=40)
    @given(st.floats(-6.0, 6.0), st.floats(0.0, 8.0), st.floats(-3.0, 3.0), st.floats(0.0, 5.0),
           st.integers(2, 40), st.integers(1, 2000))
    def test_grid_random_windows_match_cell_writer(self, Dmin, dw, Emin, eh, n, block):
        spec = f"{Dmin!r}:{Dmin + dw!r}:{Emin!r}:{Emin + eh!r}:{n}"
        with mock.patch.object(cli, "_GRID_BLOCK", block):
            code, out, err = run_quiet(["rotation", f"--grid={spec}"])
        assert (code, err) == (0, "")
        assert_same_text(out, oracles.scalar_grid_csv(*cli._parse_grid(spec)))

    def test_grid_overflowing_cells_blank(self):
        # R^2 = 1 + 2DE + 4E^2 overflows in every cell: each is classified and
        # its alpha is blank, with no numpy warning (an error here)
        spec = "1e308:1.5e308:1e308:1.5e308:2"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_quiet(["rotation", f"--grid={spec}"])
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [row[2:] for row in rows] == [["IIplus", ""]] * 4
        assert_same_text(out, oracles.scalar_grid_csv(*cli._parse_grid(spec)))

    @pytest.mark.parametrize("extra", [["--D", "5"], ["--E", "-0.2"], ["--D", "1.5", "--E", "-0.2"]])
    def test_grid_with_point_exit_2(self, extra):
        # --D and --E next to --grid used to be ignored without a word
        code, out, err = run_quiet(["rotation", "--grid", "0:1:0:1:2", *extra])
        assert (code, out, err) == (2, "", "error: rotation --grid takes no --D or --E "
                                           "(the grid spec sets both)\n")

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
        assert (code, out, err) == (2, "", "error: rotation --grid writes CSV only (got --format json)\n")
        assert run_quiet(["rotation", "--grid", "0.5:3.5:-0.4:-0.1:5", "--format", "text"])[0] == 0

    def test_single_point_csv_exit_2(self):
        # the single-point report is text; --format csv used to write it as well
        code, out, err = run_quiet(["rotation", "--D", "1.5", "--E", "-0.2", "--format", "csv"])
        assert (code, out) == (2, "")
        assert "argument --format: invalid choice: 'csv'" in err

    def test_single_point_text_format(self):
        argv = ["rotation", "--D", "1.5", "--E", "-0.2", "--steps", "300"]
        code, out, err = run_quiet(argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[2] == "class = I"
        assert run_quiet(argv + ["--format", "text"]) == (code, out, err)

    @pytest.mark.parametrize("extra", [["--steps", "5"], ["--seed", "3"], ["--steps", "5", "--seed", "0"]])
    def test_grid_refuses_winding_options(self, extra):
        # both options used to be accepted and ignored by the grid
        code, out, err = run_quiet(["rotation", "--grid", "0:1:0:1:2", *extra])
        assert (code, out, err) == (2, "", "error: rotation --grid takes no --steps or --seed "
                                           "(it runs no orbit)\n")

    def test_single_point_defaults(self):
        argv = ["rotation", "--D", "2.5", "--E", "-0.1"]
        got = run_quiet(argv)
        assert got[0] == 0
        assert got == run_quiet(argv + ["--steps", "10000", "--seed", "0"])

    @pytest.mark.parametrize("spec, message", [
        (spec, f"--grid must be Dmin:Dmax:Emin:Emax:n, integer n (got {spec!r})")
        for spec in ("0:1:0:1:2.5", "0:1:0:1", "0:x:0:1:3", "1:2:3:4:5:6")
    ] + [("0:1:0:1:1", "--grid needs n >= 2")])
    def test_malformed_grid_names_option(self, spec, message):
        # the messages used to be int()'s or float()'s, or began "grid", naming no option
        code, out, err = run_quiet(["rotation", f"--grid={spec}"])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")


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

    @pytest.mark.parametrize("p_list", ["", " "])
    def test_empty_p_list_exit_2(self, p_list):
        # an empty list used to read as "not given" and scan p = 3
        code, out, err = run_quiet(["period-scan", "--E", "-0.2", "--p-list", p_list])
        assert (code, out) == (2, "")
        assert err.endswith("error: --p-list needs at least one period\n")

    @pytest.mark.parametrize("p_list", ["3,,4", "3,x", "3.5", "3,"])
    def test_malformed_p_list_exit_2(self, p_list):
        # the message used to be int()'s, naming no option
        code, out, err = run_quiet(["period-scan", "--E", "-0.2", "--p-list", p_list])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: --p-list must be comma-separated integers (got {p_list!r})\n")

    @pytest.mark.parametrize("p_list", ["0", "-3", "3,0"])
    def test_non_positive_period_names_option(self, p_list):
        # the message used to be find_periodic_locus's "period must be positive"
        code, out, err = run_quiet(["period-scan", "--E", "-0.2", f"--p-list={p_list}"])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: --p-list periods must be positive (got {p_list!r})\n")

    @pytest.mark.parametrize("p_list", ["9007199254740993", "3,18446744073709551616"])
    def test_period_above_2_53_names_option(self, p_list):
        # the p field is written as a float, exact only up to 2**53; such a period used to
        # exit 0 with the header and no rows
        code, out, err = run_quiet(["period-scan", "--E", "-0.2", f"--p-list={p_list}"])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: --p-list periods must be at most 2**53 (got {p_list!r})\n")

    def test_period_2_53_is_accepted(self, capsys):
        assert run_cli(capsys, "period-scan", "--E", "-0.2", f"--p-list={2**53}") == (
            0, oracles.scalar_period_scan_csv(-0.2, [2**53], (0.0, 2.0)))

    @pytest.mark.parametrize("D_range", [(0.0, 2.0), (-6.0, 6.0), (2.0, -2.0), (1.99, 2.01)])
    @pytest.mark.parametrize("p_list", ["3", "3,4,5,6,7,8"])
    @pytest.mark.parametrize("E", [-5.0 / 24.0, -0.2, -0.0, 0.3, 1e300])
    def test_matches_field_writer(self, capsys, E, p_list, D_range):
        # the rows come from csv_rows, the period p as a float; the oracle writes p by str
        code, out = run_cli(capsys, "period-scan", f"--E={E!r}", "--p-list", p_list,
                            "--D-range", *map(repr, D_range))
        assert code == 0
        want = oracles.scalar_period_scan_csv(E, [int(p) for p in p_list.split(",")], D_range)
        assert_same_text(out, want)

    def test_overflowing_energy_warns_nothing(self):
        # R^2 overflows at every scan point: no alpha, so no root, and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_quiet(["period-scan", "--E", "1e300", "--p-list", "3"])
        assert (code, out, err) == (0, "E,p,D_root,period3_residual\n", "")
        _, classes, alpha = periods._scan(*(float.hex(v) for v in (1e300, 0.0, 2.0)))
        assert np.isnan(alpha).all() and classes[0] is not None

    def test_tol_option_removed(self):
        code, out, err = run_quiet(["period-scan", "--E", "-0.2", "--tol", "1e-6"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --tol 1e-6" in err

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


class TestFigures:
    """The SVG figures: classify --format svg, orbit --format svg and orbit --format levelset."""

    def test_orbit_arcs(self, capsys):
        # one trajectory arc per step of the orbit figure
        code, out = run_cli(capsys, "orbit", "--D", "1.5", "--E", "-0.2",
                            "--steps", "5", "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        arcs = [el for el in root.iter() if el.tag.endswith("path")
                and el.get("class") == "arc"]
        assert len(arcs) == 5

    def test_levelset_components(self, capsys):
        # one closed component for class I, two for D > 2; the orbit figure adds its points
        for D, E, n in (("2.5", "-0.1", 2), ("1.5", "-0.2", 1)):
            for argv, marks in ((["classify", "--format", "svg"], 0),
                                (["orbit", "--steps", "4", "--format", "levelset"], 5)):
                code, out = run_cli(capsys, *argv, "--D", D, "--E", E)
                classes = [el.get("class") for el in ET.fromstring(out).iter()]
                assert (code, classes.count("component"), classes.count("orbit")) == (0, n, marks)

    def test_levelset_abort_draws_prefix(self):
        # as every orbit format: the valid prefix is drawn, the abort line written, exit 1
        params = derive_params(0.3, 0.4)
        c0 = sample_level_set(params, 1, 0)[0]
        with pytest.raises(OrbitAbort) as info:
            iterate_orbit(c0, params, 2000, abort_abscissa=50.0)
        code, out, err = run_quiet(["orbit", "--D", "0.3", "--E", "0.4", "--steps", "2000",
                                    "--abort-abscissa", "50", "--format", "levelset"])
        assert (code, err) == (1, f"orbit aborted: {info.value}\n")
        assert out == svgplot.level_set_figure(params, info.value.orbit.points)
        assert out.count('class="orbit"') == info.value.step

    def test_radial_arc_left_out(self):
        # at step 672 of this orbit D + 2 A2 = 8.8e-13: trajectory_arc refuses the radial
        # conic with DomainError, and the figure leaves that arc out as it does the others
        code, out, err = run_quiet(["orbit", "--D", "1.5", "--E", "-0.2", "--steps", "2000",
                                    "--seed", "173", "--format", "svg"])
        assert (code, err) == (0, "")
        assert out.count("<path") == 1999 and out.count('class="orbit"') == 2001
        params = derive_params(1.5, -0.2)
        radial = uniformize(AngleCoord(0.25), params)  # D + 2 A2 = 0.0 exactly
        with pytest.raises(DomainError, match="^radial conic"):
            trajectory_arc(radial, params)
        after = map_t(radial, params)
        assert svgplot.orbit_figure([radial, after], params).count("<path") == 0
        assert svgplot.orbit_figure([after, radial], params).count("<path") == 1

    @pytest.mark.parametrize("fmt", ["svg", "levelset"])
    def test_negative_steps_exit_2(self, fmt):
        code, out, err = run_quiet(["orbit", "--D", "1.5", "--E", "-0.2", "--format", fmt,
                                    "--steps", "-3"])
        assert (code, out) == (2, "")
        assert err == "error: orbit iteration needs n >= 0 steps (got -3)\n"

    @pytest.mark.parametrize("D, E, cls", [
        ("1.5", "-2.0", "NegativeAngularMomentumSide"),
        ("-4.410195721657075", "2.2050978608255876", "DegenerateTangent"),  # D + 2E < 0
    ])
    def test_degenerate_class(self, D, E, cls):
        # the class is checked before sqrt(D + 2E), which used to fail first; the orbit
        # figure used to word it "sampling needs ..."
        for argv in (["classify", "--format", "svg"], ["orbit", "--format", "levelset"]):
            code, out, err = run_quiet([*argv, f"--D={D}", f"--E={E}"])
            assert (code, out) == (2, "")
            assert err == f"error: operation needs a nondegenerate level set (class {cls})\n"

    def test_render_command_removed(self):
        # its figures are formats of classify and orbit
        code, out, err = run_quiet(["render", "--D", "1.5", "--E", "-0.2", "--style", "levelset"])
        assert (code, out) == (2, "")
        assert "argument command: invalid choice: 'render'" in err


@pytest.mark.parametrize("argv, sha256", [
    ("orbit --D 1.5 --E -0.2 --steps 7 --format svg",
     "11827d8164cd515134e88522d2eb692103e6396d7165fbb195d22a4398b8091e"),
    # most arcs of this orbit pass through infinity and are left out
    ("orbit --D 0.3 --E 0.4 --steps 20 --format svg",
     "c2081552daa9c00b21bf6cedd982786c9292acf8c2c7e0cd800691c51ea9f675"),
    ("orbit --D 1.5 --E -0.2 --steps 0 --format svg",
     "7f6c38e1c2688e183f9996a188a2a2dcf46e375fdf094d728ee9f0bbc578335d"),
    ("orbit --D -2.5 --E 1.5 --steps 9 --seed 4 --format svg",
     "523f003097d3cba02d84d75ec428259d453b30f1752d130f6bf5b37d179d53c9"),
    ("orbit --D 2.5 --E -0.1 --steps 5 --format svg",
     "32e4195a38629991ab10a1bedc324ed3598ea9f5bc3257a2ad87effeed78828d"),
    ("classify --D 1.5 --E -0.2 --format svg",
     "641cec61d15a24496e88f0f1c61979bb5e6a867c49ab19e6a82b327c96b6458e"),
    ("orbit --D 1.5 --E -0.2 --steps 5 --format levelset",
     "7578b0b3c14bb3fdf046bcd3d69a3ba56ed5022a1be8d604298c8e5f30a1aef1"),
    ("classify --D 2.5 --E -0.1 --format svg",
     "50f63beb866e9b35036b6f43225df62dd4e18c0e4b9bba4f5839c9968bfa98d7"),
    ("orbit --D 2.5 --E -0.1 --steps 12 --seed 3 --format levelset",
     "4e58b87a0bac0c7e97b36f7a39906c0521db9e5b1b51a36c50c3bf885d964328"),
    ("orbit --D -2.5 --E 1.5 --steps 7 --format levelset",
     "465dbac705040ba96d6afe35ff7904720be612fd69aea51d1d066a0d2e41a39f"),
])
def test_svg_bytes_pinned(argv, sha256):
    # whole-file digests of the figures, so any change to the SVG writer shows
    code, out, err = run_quiet(argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv, sha256", [
    # the class fixtures' orbits and a 60 x 60 grid: a one-ulp change of any point or alpha shows
    ("orbit --D 1.5 --E -0.2 --steps 2000 --seed 3",
     "bb7b443fd8b7fcd8c3622fa7e467f0493ea0af3fbbbce3f95b4f6f04991a736e"),
    ("orbit --D 2.5 --E -0.1 --steps 2000 --seed 3",
     "63915eb2fad3244cd9af70d5ff72c21550d85cbfb859d3ef99bbaf9623d407b7"),
    ("orbit --D -2.5 --E 1.5 --steps 2000 --seed 3",
     "bd4cd79a401d72f613948bf55aaf2fa15c369f0a5a72cd891e7026753caeddb8"),
    ("rotation --grid 0.5:3.5:-0.4:-0.1:60",
     "d301d1d69501aeaaf642d2b03f3da1185251c565b99ae6ab9a83e995ff109f91"),
])
def test_csv_bytes_pinned(argv, sha256):
    code, out, err = run_quiet(argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestSelftest:
    def test_passes(self, capsys):
        code, out = run_cli(capsys, "selftest")
        assert code == 0
        assert "all checks passed" in out
        assert out.count("ok") >= 7

    def test_output_pinned(self):
        # the whole report, residual lines included, so a changed worst residual shows
        code, out, err = run_quiet(["selftest"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "741dcf6e44e129b1a77ea195b1c53d1278037532455b3b0aaa050008b8a0690e")

    def test_forced_failure(self, capsys, monkeypatch):
        def always_fails():
            return selftest.CheckResult("forced-failure", False, "always fails")

        monkeypatch.setattr(selftest, "ALL_CHECKS", (*selftest.ALL_CHECKS, always_fails))
        code, out = run_cli(capsys, "selftest")
        assert code == 1
        assert "forced-failure           FAIL always fails\n" in out
        assert out.endswith("FAILURES present\n")

    @staticmethod
    def run_one(check):
        """(exit code, stdout) of selftest running the one check."""
        with mock.patch.object(selftest, "ALL_CHECKS", (check,)):
            code, out, _ = run_quiet(["selftest"])
        return code, out

    def test_special_functions_reach_the_modulus_floor(self, monkeypatch):
        # class I sets next to |D| = 2 pass complements mc down to 1e-12 to the Jacobi
        # kernel, so a kernel wrong only there must fail the check
        sncndn = selftest._sncndn_array
        monkeypatch.setattr(selftest, "_sncndn_array", lambda u, mc: sncndn(u, max(mc, 1e-6)))
        code, out = self.run_one(selftest.check_special_functions)
        assert code == 1
        assert out.startswith("special-functions        FAIL worst residual ")

    def test_uniformize_fails_with_every_angle_a_pole(self, monkeypatch):
        # the check used to skip each angle whose uniformize call raised, and pass
        uniformize_array = selftest.uniformize_array

        def poles_only(theta, eps, params):
            x, A1, A2, pole = uniformize_array(theta, eps, params)
            return np.full_like(x, np.nan), A1, A2, np.ones_like(pole)

        monkeypatch.setattr(selftest, "uniformize_array", poles_only)
        assert self.run_one(selftest.check_uniformize_roundtrip) == (
            1, "uniformize               FAIL no angle gave a point\nFAILURES present\n")

    def test_period3_fails_with_no_detected_period(self, monkeypatch):
        def no_period(params, seed):
            return periods.PeriodReport(3, None, 1.0 / 3.0, False, math.nan)

        monkeypatch.setattr(selftest, "poncelet_check", no_period)
        assert self.run_one(selftest.check_period3) == (
            1, "period-3                 FAIL poncelet_check predicted 3, detected None\n"
               "FAILURES present\n")

    def test_grid_fails_with_no_alpha_to_compare(self, monkeypatch):
        # every cell blank on both sides: the classes agree, and no alpha is compared
        rotation_grid = selftest.rotation_grid

        def blank_grid(Ds, Es):
            classes, alphas = rotation_grid(Ds, Es)
            return classes, np.full_like(alphas, np.nan)

        monkeypatch.setattr(selftest, "rotation_grid", blank_grid)
        monkeypatch.setattr(selftest, "rotation_number",
                            mock.Mock(side_effect=selftest.BilliardError("no alpha")))
        assert self.run_one(selftest.check_grid_matches_scalar) == (
            1, "grid-matches-scalar      FAIL no cell of 144 has an alpha on both sides\n"
               "FAILURES present\n")

    def test_force_fail_option_removed(self):
        code, out, err = run_quiet(["selftest", "--force-fail"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --force-fail" in err


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


@pytest.mark.parametrize("argv", [
    ["orbit", "--D", "1.5", "--E", "-0.2"],
    ["rotation", "--D", "1.5", "--E", "-0.2", "--steps", "10"],
    ["orbit", "--D", "1.5", "--E", "-0.2", "--format", "levelset"],
])
def test_negative_seed_names_option(argv):
    # numpy's default_rng used to refuse it with "expected non-negative integer"
    assert run_quiet(argv + ["--seed", "-5"]) == (2, "", "error: --seed must be >= 0 (got -5)\n")


def _argparse_choice_message() -> str:
    """argparse's own refusal of --format csv among text, json, svg; its wording varies by Python."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("--format", choices=("text", "json", "svg"))
    with pytest.raises(argparse.ArgumentError) as refused:
        parser.parse_args(["--format", "csv"])
    return str(refused.value)


@pytest.mark.parametrize("argv, message", [
    # refused by argparse, which used to print a usage block and "<prog>: error: ..."
    (["orbit", "--D", "1.5", "--E", "-0.2", "--samples", "3"], "unrecognized arguments: --samples 3"),
    (["orbit", "--D", "1.5"], "the following arguments are required: --E"),
    (["classify", "--D", "x", "--E", "-0.2"], "argument --D: invalid float value: 'x'"),
    (["classify", "--D", "1.5", "--E", "-0.2", "--format", "csv"], None),  # argparse's wording
    ([], "the following arguments are required: command"),
    # refused by main, which used to write the bare message
    (["orbit", "--D", "1.5", "--E", "-0.2", "--seed", "-5"], "--seed must be >= 0 (got -5)"),
    (["rotation", "--grid", "0:1:0:1:2", "--format", "json"],
     "rotation --grid writes CSV only (got --format json)"),
    (["rotation", "--grid", "0:1:0:1:2", "--D", "5"],
     "rotation --grid takes no --D or --E (the grid spec sets both)"),
    (["rotation", "--grid", "0:1:0:1:2", "--steps", "5"],
     "rotation --grid takes no --steps or --seed (it runs no orbit)"),
    (["rotation", "--D", "1.5"], "rotation needs --D and --E or --grid"),
    # refused by a command
    (["rotation", "--D", "1.5", "--E", "-0.2", "--steps", "0"],
     "empirical rotation needs n_steps >= 1 (got 0)"),
    (["rotation", "--grid", "1:2:3"], "--grid must be Dmin:Dmax:Emin:Emax:n, integer n (got '1:2:3')"),
    (["period-scan", "--E", "-0.2", "--p-list", "0"], "--p-list periods must be positive (got '0')"),
    (["orbit", "--D", "1.0", "--E", "-0.5"],
     "operation needs a nondegenerate level set (class DegenerateTangent)"),
    # refused by main with the option named; a command used to refuse these naming none
    (["rotation", "--D", "1.5", "--E", "-0.2", "--steps", "100000000000000000000"],
     f"--steps must be at most {sys.maxsize} (got 100000000000000000000)"),
    (["orbit", "--D", "1.5", "--E", "-0.2", "--steps", str(sys.maxsize + 1)],
     f"--steps must be at most {sys.maxsize} (got {sys.maxsize + 1})"),
    (["period-scan", "--E", "-0.2", "--D-range", "nan", "2"],
     "--D-range needs finite DMIN, DMAX and DMAX - DMIN (got nan 2.0)"),
    (["period-scan", "--E", "-0.2", "--D-range", "-1e308", "1e308"],
     "--D-range needs finite DMIN, DMAX and DMAX - DMIN (got -1e+308 1e+308)"),
    # an --out that cannot be opened, which used to end in a traceback and exit 1
    (["classify", "--D", "1.5", "--E", "-0.2", "--out", "/nonexistent/x.txt"],
     f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '/nonexistent/x.txt'"),
    (["orbit", "--D", "1.5", "--E", "-0.2", "--out", "."],
     f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '.'"),
    # a non-finite energy: p = 1 used to exit 0 with an empty CSV, p = 3 to name no option
    (["period-scan", "--E", "nan", "--p-list", "1"], "--E must be finite (got nan)"),
    (["period-scan", "--E", "inf", "--p-list", "3"], "--E must be finite (got inf)"),
    # a bare MemoryError() used to print "error: " with no reason; CPython refuses the list
    # size before allocating it
    (["rotation", "--D", "1.5", "--E", "-0.2", "--steps", "9223372036854775807"], "MemoryError"),
    # the empty set is refused as every degenerate set is; it used to name no class
    (["orbit", "--D", "6", "--E", "-0.1"],
     "operation needs a nondegenerate level set (class Empty)"),
])
def test_every_refusal_is_one_error_line(argv, message):
    message = _argparse_choice_message() if message is None else message
    assert run_quiet(argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["", "classify", "orbit", "rotation", "period-scan", "selftest"])
def test_help_is_not_a_refusal(command):
    code, out, err = run_quiet([*command.split(), "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: boltzmann-billiard {command}".rstrip() + " [-h]")


@pytest.mark.parametrize("option, value", [
    ("--residual-ceiling", "nan"), ("--residual-ceiling", "-1"),
    ("--abort-abscissa", "nan"), ("--abort-abscissa", "-1e-9"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_orbit_threshold_refused(option, value, fmt):
    # nan used to switch the residual check off or abort at step 1; a negative value aborted
    code, out, err = run_quiet(["orbit", "--D", "1.5", "--E", "-0.2", "--steps", "3",
                                "--format", fmt, option, value])
    keyword = option[2:].replace("-", "_")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {keyword} must be >= 0 (got {float(value)!r})\n")


def test_orbit_infinite_thresholds_accepted():
    argv = ["orbit", "--D", "1.5", "--E", "-0.2", "--steps", "3"]
    got = run_quiet(argv + ["--residual-ceiling", "inf", "--abort-abscissa", "inf"])
    assert got == run_quiet(argv)
    assert got[0] == 0


SLIVER_K_ERRORS = [
    # (D, E, message of classify and rotation, message of the orbit and the figures); in class II
    # the uniformization takes its quarter period from complete_Kp, as rotation_number does
    ("2.000000002", "20", "complete_Kp diverges logarithmically as k2 -> 0 "
     "(got k2=2.9744202355508183e-13)", "complete_Kp diverges logarithmically as k2 -> 0 "
     "(got k2=2.9744202355508183e-13)"),
]


@pytest.mark.parametrize("D, E, point_msg, orbit_msg", SLIVER_K_ERRORS)
def test_diverging_integral_outcomes(D, E, point_msg, orbit_msg):
    # derive_params computes no integral, so the classes are known here; the
    # integral that diverges fails the command that needs it
    for argv, msg in ((["classify"], point_msg), (["rotation", "--steps", "10"], point_msg),
                      (["orbit"], orbit_msg), (["classify", "--format", "svg"], orbit_msg),
                      (["orbit", "--format", "levelset"], orbit_msg)):
        code, out, err = run_quiet([*argv, "--D", D, f"--E={E}"])
        assert (code, out) == (2, ""), argv
        assert err.endswith(f"error: {msg}\n"), argv


def test_kappa_rounding_to_one_outcomes():
    # class I with k2 ~ -1.2e-16: kappa^2 = 1/(1 - k2) rounds to 1, but K(kappa^2) is the AGM
    # at the complement -k2 kappa^2, so the point commands give alpha, to a few units of 2^-53
    # from the curve data, and the figures draw the level set and the orbit.  The orbit runs:
    # the circle defect is relative to its terms, which are of size 1e15 at E = 1e7
    point = ["--D", "-1.8", "--E=1e7"]
    params = derive_params(-1.8, 1e7)
    ref = oracles.mp_alpha_of_curve(params.D, params.k2, params.s0_inv)
    for argv, key in ((["classify"], "alpha"), (["rotation", "--steps", "10"], "alpha_analytic")):
        code, out, err = run_quiet([*argv, *point])
        assert (code, err) == (0, ""), argv
        alpha = float(dict(line.split(" = ") for line in out.splitlines())[key])
        assert oracles.alpha_error_units(alpha, ref) <= 8.0, argv
    for argv in (["classify", "--format", "svg"], ["orbit", "--format", "levelset"]):
        code, out, err = run_quiet([*argv, *point])
        assert (code, err) == (0, "") and out.startswith("<svg"), argv
    code, out, err = run_quiet(["orbit", *point])
    assert (code, err) == (0, "") and len(out.splitlines()) == 1 + 7, out


def test_large_energy_orbit_runs():
    # at E = 1e7 the circle's terms are of size 1e15, and its defect is read relative to them,
    # so the orbit runs.  D_resid stays within the rounding of the points: uniformize's
    # A2 = 2E - R + 2R dn^2 sums terms of size 4E, so A2 is a few ulps of 4E off, and
    # 112 of the 2001 rows exceed 1e-9 max(1, |x|) (worst 9.2 ulps of 4E times max(1, |x|))
    E = 1e7
    code, out, err = run_quiet(["orbit", "--D", "-1.8", f"--E={E!r}", "--steps", "2000"])
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    assert header[1] == "x" and header[5] == "D_resid" and len(rows) == 2001
    bound = 32.0 * math.ulp(4.0 * E)
    bad = [r for r in rows if not abs(float(r[5])) <= bound * max(1.0, abs(float(r[1])))]
    assert not bad, bad[:3]


def test_class_ii_sliver_outcomes():
    # 1 - k2 < 1e-12 in class IIplus: K(k2) is not needed, so the point and rotation
    # commands meet the branch-point guard, and so does the orbit, whose points need alpha
    point = ["--D", "382690741.9356395", "--E=-1.3065380068237316e-09"]
    for argv in (["classify"], ["rotation"], ["orbit", "--steps", "4"]):
        code, out, err = run_quiet([*argv, *point])
        assert (code, out) == (2, ""), argv
        assert err.endswith("error: s0 within guard of a branch point (near-degenerate set)\n")


def test_class_ii_k2_rounding_to_one():
    # on the same sliver k2 can round to 1: complete_Kp refuses it before the guards, and
    # before the sampling of the orbit (which used to abort at step 1) and its figures
    for argv in (["classify"], ["rotation"], ["orbit"], ["classify", "--format", "svg"],
                 ["orbit", "--format", "levelset"]):
        code, out, err = run_quiet([*argv, "--D", "16124111189373.742", "--E=-3.100945909862638e-14"])
        assert (code, out) == (2, "")
        assert err.endswith("error: complete_Kp needs k2 < 1 (got k2=1.0)\n")


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

    def test_grid_spec_value(self):
        spec = "-3.5:3.5:-0.5:1.5:3"
        got = run_quiet(["rotation", "--grid", spec])
        assert got[0] == 0 and got[1].count("\n") == 10
        assert got == run_quiet(["rotation", f"--grid={spec}"])

    def test_options_still_read_as_options(self):
        code, _, err = run_quiet(["orbit", "--D", "1.5", "--E", "--steps", "1"])
        assert code == 2 and "argument --E: expected one argument" in err
