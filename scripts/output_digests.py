#!/usr/bin/env python3
"""Print `name sha256` for each pinned output of the package on PYTHONPATH.

A change that must keep every output byte runs this in a checkout of its
parent and in its own, and diffs the two listings.  The outputs are the
commands' files, written through cli.main, and for the library's period
scan the repr of every root, report and winding:

  orbit-FORMAT-POINT    orbit --steps 40000 --format csv|json|svg|levelset
  orbit-law-POINT       the one-step law line that orbit --steps 40000 (CSV) logs at DEBUG
  rotation-POINT        rotation --format json
  alpha-grid-s7         rotation --grid over perfbench's seed-7 alpha_grid window
  rotation-grid-60      rotation --grid 0.5:3.5:-0.4:-0.1:60
  period-scan           period-scan --E -0.2 --p-list 3,4,5,6,7,8 --D-range -6 6
  selftest              selftest
  periodicity-s7        perfbench's seed-7 periodicity scans, in process

POINT is one of the three seed-7 orbit_dump starts of perfbench (s7-I,
s7-IIplus, s7-IIminus) or a class fixture at --seed 3 (fx-I, fx-IIplus,
fx-IIminus).  The seed-7 inputs are made by the workload classes of
perfbench/workloads.py, so they stay the benchmark's.  Arguments are
fnmatch patterns that select entries by name; with none, every entry is
printed.
"""

import argparse
import fnmatch
import hashlib
import logging
import pathlib
import sys
import tempfile

from boltzmann_billiard import cli, derive_params, periods

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import AlphaGrid, OrbitDump, Periodicity  # noqa: E402

# (D, E, seed): perfbench's seed-7 orbit_dump starts, then the class fixtures
POINTS = {f"s7-{cls}": (D, E, seed) for cls, D, E, seed in OrbitDump(7, False).orbits}
POINTS.update({"fx-I": (1.5, -0.2, 3), "fx-IIplus": (2.5, -0.1, 3), "fx-IIminus": (-2.5, 1.5, 3)})
ALPHA_GRID_S7 = AlphaGrid(7, False).spec
# perfbench's seed-7 periodicity energies, each scanned for p = 3..8 with its checks at seed 7
PERIODICITY_S7 = Periodicity(7, False).energies


def command(*argv):
    """The bytes cli.main writes to --out for argv; SystemExit names a failing command."""
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "out"
            if code := cli.main([*argv, "--out", str(out)]):
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            return out.read_bytes()
    return run


class _Lines(logging.Handler):
    """A handler that keeps the message of every record it is given."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def law_line(*argv):
    """The one-step law line cli.main logs for argv, caught at DEBUG by a handler of its own."""
    def run():
        handler, level = _Lines(), cli.log.level
        cli.log.addHandler(handler)
        cli.log.setLevel(logging.DEBUG)
        cli.log.propagate = False  # not to the stderr handler main's basicConfig adds
        try:
            command(*argv)()
        finally:
            cli.log.removeHandler(handler)
            cli.log.setLevel(level)
            cli.log.propagate = True
        return next(line for line in handler.lines if line.startswith("one-step law")).encode()
    return run


def periodicity_s7() -> bytes:
    lines = []
    for E in PERIODICITY_S7:
        for p in range(3, 9):
            for D in periods.find_periodic_locus(E, p):
                params = derive_params(D, E)
                report = periods.poncelet_check(params, seed=7)
                winding = periods.empirical_rotation(params, n_steps=1000, seed=7)
                lines.append(repr((E, p, D, report, winding)))
    return "\n".join(lines).encode()


def entries() -> dict:
    out = {}
    for fmt in ("csv", "json", "svg", "levelset"):
        for name, (D, E, seed) in POINTS.items():
            out[f"orbit-{fmt}-{name}"] = command("orbit", "--D", repr(D), "--E", repr(E),
                                                 "--steps", "40000", "--seed", str(seed),
                                                 "--format", fmt)
    for name, (D, E, seed) in POINTS.items():
        out[f"orbit-law-{name}"] = law_line("orbit", "--D", repr(D), "--E", repr(E),
                                            "--steps", "40000", "--seed", str(seed))
    for name, (D, E, seed) in POINTS.items():
        out[f"rotation-{name}"] = command("rotation", "--D", repr(D), "--E", repr(E),
                                          "--seed", str(seed), "--format", "json")
    out["alpha-grid-s7"] = command("rotation", f"--grid={ALPHA_GRID_S7}")
    out["rotation-grid-60"] = command("rotation", "--grid=0.5:3.5:-0.4:-0.1:60")
    out["period-scan"] = command("period-scan", "--E", "-0.2", "--p-list", "3,4,5,6,7,8",
                                 "--D-range", "-6", "6")
    out["selftest"] = command("selftest")
    out["periodicity-s7"] = periodicity_s7
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("patterns", nargs="*", default=["*"], help="fnmatch patterns of entry names")
    args = ap.parse_args()
    chosen = {name: make for name, make in entries().items()
              if any(fnmatch.fnmatchcase(name, pat) for pat in args.patterns)}
    if not chosen:
        sys.stderr.write(f"error: no entry matches {' '.join(args.patterns)}\n")
        return 2
    for name, make in chosen.items():
        print(name, hashlib.sha256(make()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
