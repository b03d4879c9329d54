"""Command-line front end.

Subcommands: classify, orbit, rotation, period-scan, render, selftest.
Output is deterministic for a fixed seed; floats in CSV/JSON are written
with 17 significant digits so fixtures round-trip losslessly.

Exit codes: 0 success, 1 check failure or aborted orbit, 2 usage or
numeric error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import re
import sys

import numpy as np

from .errors import BilliardError, OrbitAbort
from .grid import orbit_drift_columns, rotation_grid
from .levelset import derive_params
from .periods import find_periodic_locus, period3_residual, empirical_rotation
from .poincare import iterate_orbit, sample_level_set
from .svgplot import level_set_figure, orbit_figure
from .selftest import run_selftest
from .uniformize import rotation_number

log = logging.getLogger("boltzmann_billiard")

_F = "%.17g"
_GRID_BLOCK = 4096  # cells per rotation_grid call, so grid memory does not grow with n^2
_ORBIT_BLOCK = 4096  # orbit CSV rows formatted per write
_ORBIT_ROW = "%d" + ",%.17g" * 6 + "\n"  # an orbit CSV row without NaN


def _fnum(v: float) -> str:
    if v != v:
        return ""
    return _F % v


def _open_out(out_path: str | None):
    if out_path:
        return open(out_path, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _emit(text: str, out_path: str | None) -> None:
    with _open_out(out_path) as fh:
        fh.write(text)


def _csv_row(row) -> str:
    return ",".join(_fnum(v) if isinstance(v, float) else str(v) for v in row) + "\n"


def _csv(rows: list[list], header: list[str]) -> str:
    return ",".join(header) + "\n" + "".join(map(_csv_row, rows))


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
    report = _classify_report(args.D, args.E)
    if args.format == "json":
        _emit(_json(report), args.out)
    else:
        lines = [f"{k} = {v}" for k, v in report.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _write_orbit(fh, cols) -> None:
    """CSV rows step,x,A1,A2,L,D_resid,E_check of the column arrays, a block at a time.

    A NaN is written as an empty field, as _csv writes it.
    """
    fh.write("step,x,A1,A2,L,D_resid,E_check\n")
    for lo in range(0, len(cols[0]), _ORBIT_BLOCK):
        block = [c[lo:lo + _ORBIT_BLOCK] for c in cols]
        has_nan = np.isnan(block).any(axis=0).tolist()
        rows = zip(range(lo, lo + len(has_nan)), *(c.tolist() for c in block))
        fh.write("".join([_csv_row(row) if nan else _ORBIT_ROW % row
                          for row, nan in zip(rows, has_nan)]))


def cmd_orbit(args: argparse.Namespace) -> int:
    params = derive_params(args.D, args.E)
    code = 0
    c0 = sample_level_set(params, 1, args.seed)[0]
    try:
        orbit = iterate_orbit(c0, params, args.steps,
                              residual_ceiling=args.residual_ceiling,
                              abort_abscissa=args.abort_abscissa)
    except OrbitAbort as exc:
        log.error("orbit aborted at step %s: %s", exc.step, exc)
        orbit = exc.orbit
        code = 1
    if args.format == "svg":
        _emit(orbit_figure(orbit.points, params), args.out)
        return code
    L, D_impl, E_impl = orbit_drift_columns(orbit.x, orbit.A1, orbit.A2, params)
    cols = (orbit.x, orbit.A1, orbit.A2, L, D_impl - args.D, E_impl)
    if args.format == "json":
        rows = list(zip(range(len(L)), *(c.tolist() for c in cols)))
        _emit(_json({"D": args.D, "E": args.E, "class": params.cls.value,
                     "rows": rows}), args.out)
    else:
        with _open_out(args.out) as fh:
            _write_orbit(fh, cols)
    return code


def _parse_grid(spec: str):
    """D and E axes of a Dmin:Dmax:Emin:Emax:n window, endpoints included."""
    parts = spec.split(":")
    if len(parts) != 5:
        raise ValueError("grid must be Dmin:Dmax:Emin:Emax:n")
    Dmin, Dmax, Emin, Emax = map(float, parts[:4])
    n = int(parts[4])
    if n < 2:
        raise ValueError("grid needs n >= 2")
    steps = np.arange(n, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite axes are refused below
        Ds = Dmin + (Dmax - Dmin) * steps / (n - 1)
        Es = Emin + (Emax - Emin) * steps / (n - 1)
    if not (np.isfinite(Ds).all() and np.isfinite(Es).all()):
        raise ValueError("grid bounds must give finite D and E")
    return Ds, Es


def _write_grid(fh, Ds, Es) -> None:
    """CSV rows D,E,class,alpha, computed and written a block of D rows at a time."""
    fh.write("D,E,class,alpha\n")
    e_cols = [_F % E for E in Es.tolist()]
    per_block = max(1, _GRID_BLOCK // len(Es))
    for lo in range(0, len(Ds), per_block):
        block = Ds[lo:lo + per_block]
        classes, alpha = rotation_grid(block[:, None], Es)
        lines = []
        for D, cls_row, alpha_row in zip(block.tolist(), classes, alpha.tolist()):
            d = _F % D
            lines.extend(f"{d},{e},{cls.value},{_fnum(a)}\n"
                         for e, cls, a in zip(e_cols, cls_row, alpha_row))
        fh.write("".join(lines))


def cmd_rotation(args: argparse.Namespace) -> int:
    if args.grid:
        Ds, Es = _parse_grid(args.grid)
        with _open_out(args.out) as fh:
            _write_grid(fh, Ds, Es)
        return 0
    params = derive_params(args.D, args.E)
    rot = rotation_number(params)
    emp = empirical_rotation(params, n_steps=args.steps, seed=args.seed)
    diff = abs(rot.alpha - emp)
    diff = min(diff, 1.0 - diff)
    report = {
        "D": args.D,
        "E": args.E,
        "class": params.cls.value,
        "alpha_analytic": rot.alpha,
        "alpha_empirical": emp,
        "difference": diff,
        "flips_component": rot.flips_component,
    }
    if args.format == "json":
        _emit(_json(report), args.out)
    else:
        _emit("\n".join(f"{k} = {v}" for k, v in report.items()) + "\n", args.out)
    return 0


def cmd_period_scan(args: argparse.Namespace) -> int:
    p_list = [int(p) for p in args.p_list.split(",")] if args.p_list else [3]
    lo, hi = args.D_range
    rows = []
    for p in p_list:
        roots = find_periodic_locus(args.E, p, (lo, hi), tol=args.tol)
        for D_root in roots:
            rows.append([args.E, p, D_root, float(period3_residual(D_root, args.E))])
    text = _csv(rows, ["E", "p", "D_root", "period3_residual"])
    _emit(text, args.out)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    params = derive_params(args.D, args.E)
    if args.style == "orbit":
        c0 = sample_level_set(params, 1, args.seed)[0]
        orbit = iterate_orbit(c0, params, args.steps)
        svg = orbit_figure(orbit.points, params)
    else:
        pts = None
        if args.samples > 0:
            c0 = sample_level_set(params, 1, args.seed)[0]
            pts = iterate_orbit(c0, params, args.samples).points
        svg = level_set_figure(params, pts)
    _emit(svg, args.out)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(force_fail=args.force_fail)
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
    """ArgumentParser that takes every negative float literal as an option value.

    argparse treats only -<digits> and -<digits>.<digits> as negative
    numbers, so a value that repr() of a float prints, such as -2e-05 or
    -inf, would otherwise read as an option.  Subparsers inherit the class.
    The override sets argparse's private _negative_number_matcher (checked
    against Python 3.11); if argparse stops reading that attribute, the
    override does nothing, and tests/test_cli.py::TestNegativeValues fails.
    """

    _NEGATIVE_FLOAT = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                                 re.IGNORECASE)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_FLOAT


def _add_common(p: argparse.ArgumentParser, *, D=False, E=False) -> None:
    if D:
        p.add_argument("--D", type=float, required=True, help="second integral D")
    if E:
        p.add_argument("--E", type=float, required=True, help="energy E")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv",
                   help="output format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boltzmann-billiard",
        description="Collision map of a Kepler particle bouncing on a flat wall: "
                    "classification, orbits, rotation numbers, periodic loci.",
        epilog="CSV columns: orbit -> step,x,A1,A2,L,D_resid,E_check; "
               "rotation grid -> D,E,class,alpha; "
               "period-scan -> E,p,D_root,period3_residual. "
               "Set BOLTZMANN_LOG=debug|info|warning for verbosity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify the level set at (D, E)")
    _add_common(p, D=True, E=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("orbit", help="iterate the collision map and dump the orbit")
    _add_common(p, D=True, E=True)
    p.add_argument("--steps", type=int, default=6, help="number of map steps (default 6)")
    p.add_argument("--residual-ceiling", type=float, default=1e-6,
                   help="abort when the level-set residual exceeds this")
    p.add_argument("--abort-abscissa", type=float, default=1e12,
                   help="abort when |x| exceeds this")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("rotation", help="analytic vs empirical rotation number")
    p.add_argument("--D", type=float, help="second integral D")
    p.add_argument("--E", type=float, help="energy E")
    p.add_argument("--steps", type=int, default=10_000,
                   help="empirical winding length (default 10000)")
    p.add_argument("--grid", type=str, default=None,
                   help="Dmin:Dmax:Emin:Emax:n CSV heatmap over a parameter window")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="format of the single-point report; --grid writes CSV only")
    p.set_defaults(func=cmd_rotation)

    p = sub.add_parser("period-scan", help="roots of p*alpha integral in D, fixed E")
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--p-list", dest="p_list", type=str, default="3",
                   help="comma-separated periods to scan (default 3)")
    p.add_argument("--D-range", dest="D_range", type=float, nargs=2,
                   default=(0.0, 2.0), metavar=("DMIN", "DMAX"))
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_period_scan)

    p = sub.add_parser("render", help="SVG figure of an orbit or a level set")
    _add_common(p, D=True, E=True)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--samples", type=int, default=0,
                   help="orbit points overlaid on the level-set figure")
    p.add_argument("--style", choices=("orbit", "levelset"), default="orbit")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("selftest", help="run the built-in consistency checks")
    p.add_argument("--force-fail", action="store_true",
                   help="append an always-failing check (plumbing test)")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("BOLTZMANN_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command == "rotation":
        if args.grid and args.format == "json":
            sys.stderr.write("rotation --grid writes CSV only (got --format json)\n")
            return 2
        if not args.grid and (args.D is None or args.E is None):
            sys.stderr.write("rotation needs --D and --E or --grid\n")
            return 2
    try:
        return args.func(args)
    except (BilliardError, ValueError, ZeroDivisionError, OverflowError) as exc:
        log.error("%s", exc)
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
