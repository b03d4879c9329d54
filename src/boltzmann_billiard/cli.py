"""Command-line front end.

Subcommands: classify, orbit, rotation, period-scan, selftest.  Each SVG
figure is a format of the command whose data it draws: classify --format
svg is the level-set curve, orbit --format svg the Kepler arcs and orbit
--format levelset the orbit on the level-set curve.  Output is
deterministic for a fixed seed.  CSV floats are written with 17
significant digits (%.17g); JSON and the text reports print Python's
shortest round-trip repr.  Either form reads back as the same float.

Exit codes: 0 success, 1 check failure or aborted orbit, 2 usage or
numeric error.  Each error is one line on stderr: "error: ..." for exit
2 and "orbit aborted: step k: ..." for an aborted orbit.  The parser's
refusals raise ValueError (_Parser.error), as main's own checks and the
commands do, so all of them leave main through one handler; --help prints
the usage and exits 0.

main keeps the heap it frees (glibc's top pad, _TOP_PAD_BYTES), so each CSV
block reuses the pages of the last; importing the package leaves malloc alone.
Only glibc honours the pad: elsewhere the call is skipped, with the same bytes.

The library logs nothing; the CLI logs as boltzmann_billiard.cli, under
python -m too, at the level BOLTZMANN_LOG names (warning for any other
value), which main sets on the root logger at every call.  Its lines:
mallopt's return value at every start (DEBUG; 1 when the pad is set,
None when skipped), each orbit's one-step law maximum and its step
(DEBUG, every format), and period-scan's note that period 1 occurs only
on the tangent boundary D + 2E = 0 (INFO).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import logging
import math
import os
import re
import sys

import numpy as np

from .csvtext import csv_rows
from .errors import BilliardError, OrbitAbort
from .levelset import RealLocusClass, derive_params
from .periods import find_periodic_locus, period3_residual, empirical_rotation
from .poincare import _checked_blocks, iterate_orbit, orbit_drift_columns, sample_level_set
from .svgplot import level_set_figure, orbit_figure
from .selftest import run_selftest
from .uniformize import _grid_codes, rotation_number

_GRID_BLOCK = 4096  # cells per block of grid rows, so grid memory does not grow with n^2
# orbit rows per csv_rows call; 2048 and 4096 ran no faster and peaked higher (CHANGES.md:
# "Orbit CSV from an exact, vectorised %.17g kernel" and "Fewer passes in the %.17g kernel")
_ORBIT_SLICE = 1024
_CLASS_FIELDS = np.array([cls.value + "," for cls in RealLocusClass], dtype=object)  # by class code
# glibc gives freed top-of-heap memory beyond M_TOP_PAD (128 KiB) back to the system, so each CSV
# block would fault the last one's temporaries in again; 16 MiB keeps them (64 MiB ran no faster)
_M_TOP_PAD, _TOP_PAD_BYTES = -2, 16 << 20  # mallopt's parameter number (<malloc.h>) and value
log = logging.getLogger("boltzmann_billiard.cli")  # not __name__, which is __main__ under -m


def _open_out(out_path: str | None):
    if out_path:
        return open(out_path, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _emit(text: str, out_path: str | None) -> None:
    with _open_out(out_path) as fh:
        fh.write(text)


def _sanitize(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _json(obj) -> str:
    # non-finite floats become null so the output is strict JSON
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _report(report: dict, args: argparse.Namespace) -> int:
    """Write a report as JSON or, for --format text, as one `key = value` line per field."""
    if args.format == "json":
        _emit(_json(report), args.out)
    else:
        _emit("".join(f"{k} = {v}\n" for k, v in report.items()), args.out)
    return 0


def _classify_report(D: float, E: float) -> dict:
    params = derive_params(D, E)
    report = {
        "D": D,
        "E": E,
        "class": params.cls.value,
        "R": params.R,
        "k2": params.k2,
        "s0": params.s0,
        "C2": params.C2,
        "nonempty": params.nondegenerate,
    }
    if params.nondegenerate:
        rot = rotation_number(params)
        report["alpha"] = rot.alpha
        report["flips_component"] = rot.flips_component
    else:
        report["alpha"] = None
    return report


def cmd_classify(args: argparse.Namespace) -> int:
    if args.format == "svg":
        _emit(level_set_figure(derive_params(args.D, args.E)), args.out)
        return 0
    return _report(_classify_report(args.D, args.E), args)


def _aborted(exc: OrbitAbort) -> int:
    sys.stderr.write(f"orbit aborted: {exc}\n")  # the message starts "step k: "
    return 1


def _log_law(law_max: float, step: int) -> None:
    log.debug("one-step law: max %r at step %d", law_max, step)


def _write_orbit(fh, blocks, params) -> int:
    """CSV rows step,x,A1,A2,L,D_resid,E_check of the orbit blocks (lo, xyz, res, law).

    Each block is written as it arrives, _ORBIT_SLICE rows per csv_rows
    call, so no row or column outlives its block.  csv_rows writes every
    field as "%.17g" does (the step as a float: exact below 2**53) and a
    NaN as an empty field.  The last block's law is logged, unless the
    blocks carry none (cmd_orbit asks for it only when DEBUG is logged).
    Returns the exit code: 1 after an OrbitAbort, whose good rows are
    written first.
    """
    fh.write("step,x,A1,A2,L,D_resid,E_check\n")
    law, code = None, 0
    try:
        for lo, xyz, _, law in blocks:
            L, D_impl, E_impl = orbit_drift_columns(*xyz, params)
            rows = np.column_stack((np.arange(lo, lo + len(L)), *xyz, L, D_impl - params.D, E_impl))
            for i in range(0, len(rows), _ORBIT_SLICE):
                fh.write(csv_rows(rows[i:i + _ORBIT_SLICE]))
    except OrbitAbort as exc:
        code = _aborted(exc)
    if law is not None:
        _log_law(*law)
    return code


def cmd_orbit(args: argparse.Namespace) -> int:
    params = derive_params(args.D, args.E)
    c0 = sample_level_set(params, 1, args.seed)[0]
    limits = {"residual_ceiling": args.residual_ceiling, "abort_abscissa": args.abort_abscissa}
    if args.format == "csv":  # the CSV reads the one-step law only for its DEBUG line
        blocks = _checked_blocks(c0, params, args.steps, with_law=log.isEnabledFor(logging.DEBUG),
                                 **limits)
        with _open_out(args.out) as fh:
            return _write_orbit(fh, blocks, params)
    code = 0
    try:
        orbit = iterate_orbit(c0, params, args.steps, **limits)
    except OrbitAbort as exc:
        orbit, code = exc.orbit, _aborted(exc)
    _log_law(orbit.one_step_law_max, orbit.one_step_law_step)
    if args.format == "svg":
        _emit(orbit_figure(orbit.points, params), args.out)
        return code
    if args.format == "levelset":
        _emit(level_set_figure(params, orbit.points), args.out)
        return code
    L, D_impl, E_impl = orbit_drift_columns(orbit.x, orbit.A1, orbit.A2, params)
    cols = (orbit.x, orbit.A1, orbit.A2, L, D_impl - args.D, E_impl)
    rows = list(zip(range(len(L)), *(c.tolist() for c in cols)))
    _emit(_json({"D": args.D, "E": args.E, "class": params.cls.value, "rows": rows,
                 "one_step_law_max": orbit.one_step_law_max,
                 "one_step_law_step": orbit.one_step_law_step}), args.out)
    return code


def _parse_grid(spec: str):
    """D and E axes of a Dmin:Dmax:Emin:Emax:n window, endpoints included."""
    *bounds, n = spec.split(":")
    try:
        Dmin, Dmax, Emin, Emax, n = *map(float, bounds), int(n)
    except ValueError:
        raise ValueError(f"--grid must be Dmin:Dmax:Emin:Emax:n, integer n (got {spec!r})") from None
    if n < 2:
        raise ValueError("--grid needs n >= 2")
    steps = np.arange(n, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite axes are refused below
        Ds = Dmin + (Dmax - Dmin) * steps / (n - 1)
        Es = Emin + (Emax - Emin) * steps / (n - 1)
    if not (np.isfinite(Ds).all() and np.isfinite(Es).all()):
        raise ValueError("grid bounds must give finite D and E")
    return Ds, Es


def _write_grid(fh, Ds, Es) -> None:
    """CSV rows D,E,class,alpha, computed and written a block of D rows at a time.

    Each cell's line is four fields of an object array: "D", ",E,",
    "class," and "alpha\n".  csv_rows writes the numbers, each D once per
    row and each E once per column, and of the alphas only those that are
    not NaN: a NaN alpha is the empty field "\n", as csv_rows would write
    it.  The class field is looked up by class code, and one join makes
    the block's text.
    """
    fh.write("D,E,class,alpha\n")
    e_fields = np.array(["," + E + "," for E in csv_rows(Es[:, None]).splitlines()], dtype=object)
    per_block = max(1, _GRID_BLOCK // len(Es))
    for lo in range(0, len(Ds), per_block):
        block = Ds[lo:lo + per_block]
        codes, alpha = _grid_codes(block[:, None], Es)
        fields = np.empty(alpha.shape + (4,), dtype=object)
        fields[..., 0] = np.array(csv_rows(block[:, None]).splitlines(), dtype=object)[:, None]
        fields[..., 1] = e_fields
        fields[..., 2] = _CLASS_FIELDS[codes]
        known = ~np.isnan(alpha)
        fields[..., 3] = "\n"
        alpha_lines = csv_rows(alpha[known].reshape(-1, 1)).splitlines(keepends=True)
        fields[..., 3][known] = np.array(alpha_lines, dtype=object)
        fh.write("".join(fields.ravel().tolist()))


def cmd_rotation(args: argparse.Namespace) -> int:
    if args.grid:
        Ds, Es = _parse_grid(args.grid)
        with _open_out(args.out) as fh:
            _write_grid(fh, Ds, Es)
        return 0
    params = derive_params(args.D, args.E)
    rot = rotation_number(params)
    emp = empirical_rotation(params, n_steps=10_000 if args.steps is None else args.steps,
                             seed=0 if args.seed is None else args.seed)
    diff = abs(rot.alpha - emp)
    diff = min(diff, 1.0 - diff)
    return _report({
        "D": args.D,
        "E": args.E,
        "class": params.cls.value,
        "alpha_analytic": rot.alpha,
        "alpha_empirical": emp,
        "difference": diff,
        "flips_component": rot.flips_component,
    }, args)


def cmd_period_scan(args: argparse.Namespace) -> int:
    if not args.p_list.strip():
        raise ValueError("--p-list needs at least one period")
    try:
        p_list = [int(p) for p in args.p_list.split(",")]
    except ValueError:
        raise ValueError(f"--p-list must be comma-separated integers (got {args.p_list!r})") from None
    if min(p_list) < 1:
        raise ValueError(f"--p-list periods must be positive (got {args.p_list!r})")
    if max(p_list) > 2**53:
        raise ValueError(f"--p-list periods must be at most 2**53 (got {args.p_list!r})")
    if 1 in p_list:  # find_periodic_locus returns [] for p = 1 and logs nothing
        log.info("period 1 only occurs on the tangent boundary D + 2E = 0; nothing to scan")
    rows = np.array([[args.E, p, D_root, period3_residual(D_root, args.E)]
                     for p in p_list for D_root in find_periodic_locus(args.E, p, args.D_range)],
                    dtype=float).reshape(-1, 4)  # p as a float: exact up to 2**53
    _emit("E,p,D_root,period3_residual\n" + csv_rows(rows), args.out)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest()
    lines = []
    ok = True
    for res in results:
        status = "ok" if res.passed else "FAIL"
        ok = ok and res.passed
        lines.append(f"{res.name:<24s} {status:<4s} {res.detail}")
    lines.append("all checks passed" if ok else "FAILURES present")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes every negative float literal as an option value
    and raises its refusals.

    argparse treats only -<digits> and -<digits>.<digits> as negative
    numbers, so a value that repr() of a float prints, such as -2e-05 or
    -inf, would otherwise read as an option, and so would a grid spec of
    colon-separated literals such as -3.5:3.5:-0.5:1.5:50.  Subparsers
    inherit the class.  The override sets argparse's private
    _negative_number_matcher (checked on Python 3.11); if argparse stops
    reading that attribute, the override does nothing, and
    tests/test_cli.py::TestNegativeValues fails.

    error, argparse's documented hook for a refusal, raises ValueError in
    place of printing the usage and exiting, so main writes it as every other
    exit-2 error: one "error: ..." line.
    """

    _FLOAT = r"((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)"
    _NEGATIVE_FLOAT = re.compile(rf"^-{_FLOAT}(:[-+]?{_FLOAT})*$", re.IGNORECASE)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_FLOAT

    def error(self, message: str):
        raise ValueError(message)


def _add_common(p: argparse.ArgumentParser, *, seed: bool, formats: tuple) -> None:
    """--D, --E, --out, --seed if asked, and a --format with these choices (the first is the default)."""
    p.add_argument("--D", type=float, required=True, help="second integral D")
    p.add_argument("--E", type=float, required=True, help="energy E")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=formats, default=formats[0],
                   help=f"output format (default {formats[0]})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boltzmann-billiard",
        description="Collision map of a Kepler particle bouncing on a flat wall: "
                    "classification, orbits, rotation numbers, periodic loci.",
        epilog="CSV columns: orbit -> step,x,A1,A2,L,D_resid,E_check; "
               "rotation grid -> D,E,class,alpha; "
               "period-scan -> E,p,D_root,period3_residual. "
               "SVG figures: classify --format svg -> the level-set curve; "
               "orbit --format svg -> the Kepler arcs; orbit --format levelset -> "
               "the orbit on the level-set curve. "
               "Set BOLTZMANN_LOG=debug|info|warning for verbosity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify the level set at (D, E)")
    _add_common(p, seed=False, formats=("text", "json", "svg"))
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("orbit", help="iterate the collision map and dump the orbit")
    _add_common(p, seed=True, formats=("csv", "json", "svg", "levelset"))
    p.add_argument("--steps", type=int, default=6, help="number of map steps (default 6)")
    p.add_argument("--residual-ceiling", type=float, default=1e-6,
                   help="abort when the level-set residual exceeds this")
    p.add_argument("--abort-abscissa", type=float, default=1e12,
                   help="abort when |x| exceeds this")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("rotation", help="analytic vs empirical rotation number")
    p.add_argument("--D", type=float, help="second integral D")
    p.add_argument("--E", type=float, help="energy E")
    p.add_argument("--steps", type=int, default=None,
                   help="empirical winding length (default 10000)")
    p.add_argument("--grid", type=str, default=None,
                   help="Dmin:Dmax:Emin:Emax:n CSV heatmap over a parameter window")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="format of the single-point report (default text); --grid writes CSV only")
    p.set_defaults(func=cmd_rotation)

    p = sub.add_parser("period-scan", help="roots of p*alpha integral in D, fixed E")
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--p-list", dest="p_list", type=str, default="3",
                   help="comma-separated periods to scan (default 3)")
    p.add_argument("--D-range", dest="D_range", type=float, nargs=2,
                   default=(0.0, 2.0), metavar=("DMIN", "DMAX"))
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_period_scan)

    p = sub.add_parser("selftest", help="run the built-in consistency checks")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = getattr(logging, os.environ.get("BOLTZMANN_LOG", "warning").upper(), None)
    # basicConfig adds the handler once; the level is set on every call. logging's upper-case
    # names include non-levels (BASIC_FORMAT), which setLevel rejects
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(level if isinstance(level, int) else logging.WARNING)
    pad_set = None  # mallopt's return value, 1 on success; None where there is no mallopt
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform.startswith("linux") else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        pad_set = mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)
    log.debug("mallopt(M_TOP_PAD, %d) returned %s", _TOP_PAD_BYTES, pad_set)
    try:
        args = build_parser().parse_args(argv)
        if args.command == "rotation":
            if args.grid and args.format == "json":
                raise ValueError("rotation --grid writes CSV only (got --format json)")
            if args.grid and (args.D is not None or args.E is not None):
                raise ValueError("rotation --grid takes no --D or --E (the grid spec sets both)")
            if args.grid and (args.steps is not None or args.seed is not None):
                raise ValueError("rotation --grid takes no --steps or --seed (it runs no orbit)")
            if not args.grid and (args.D is None or args.E is None):
                raise ValueError("rotation needs --D and --E or --grid")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0 (got {args.seed})")
        if getattr(args, "steps", None) is not None and args.steps > sys.maxsize:
            raise ValueError(f"--steps must be at most {sys.maxsize} (got {args.steps})")
        if args.command == "period-scan" and not math.isfinite(args.E):
            raise ValueError(f"--E must be finite (got {args.E!r})")
        if args.command == "period-scan" and not math.isfinite(args.D_range[1] - args.D_range[0]):
            raise ValueError("--D-range needs finite DMIN, DMAX and DMAX - DMIN "
                             f"(got {args.D_range[0]!r} {args.D_range[1]!r})")
        return args.func(args)
    except SystemExit as exc:  # --help; argparse's refusals raise ValueError (_Parser.error)
        return 0 if exc.code in (0, None) else 2
    except (BilliardError, ValueError, ZeroDivisionError, OverflowError, MemoryError,
            OSError) as exc:  # OSError: an --out that cannot be opened
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")  # a bare MemoryError()
        return 2


if __name__ == "__main__":
    sys.exit(main())
