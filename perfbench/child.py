"""One timed repetition in a fresh interpreter.

Usage: python3 child.py MODE TRACE ARGS_JSON, with the package importable
(run.py sets PYTHONPATH to the checkout's src/).  MODE is

  setup  import the CLI and build its parser, then print time.monotonic()
  cli    run cli.main(ARGS) once, timing the call
  scan   run the periodicity scans listed in ARGS, timing each one

cli and scan print one JSON report line on stdout.  Every repetition starts
with an empty _complete_K cache, as each command-line invocation does.
cli and scan run with the speed probe (speed.py): calls_s and span times
are reference-speed seconds, raw_s is the measured sum of the calls.
"""

from __future__ import annotations

import json
import sys
import time

from speed import Probe


def _setup() -> None:
    from boltzmann_billiard import cli

    cli.build_parser()
    print(repr(time.monotonic()))


def _run_cli(argv: list, clock) -> dict:
    from boltzmann_billiard import cli

    t0 = clock()
    rc = cli.main(argv)
    return {"rc": rc, "calls": [(t0, clock())]}


def _run_scans(spec: dict, clock) -> dict:
    import boltzmann_billiard as bb
    from boltzmann_billiard import periods

    calls, results = [], []
    for E in spec["energies"]:
        for p in spec["periods"]:
            t0 = clock()
            roots = periods.find_periodic_locus(E, p)
            found = []
            for D in roots:
                params = bb.derive_params(D, E)
                report = periods.poncelet_check(params, seed=spec["seed"])
                emp = periods.empirical_rotation(params, n_steps=spec["emp_steps"],
                                                 seed=spec["seed"])
                found.append([D, report.alpha, emp])
            calls.append((t0, clock()))
            results.append([E, p, found])
    return {"rc": 0, "calls": calls, "results": results}


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    getrusage's ru_maxrss is not used: Linux carries the spawning parent's
    RSS over into it across exec, so it would measure run.py instead.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode, trace, args = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    if mode == "setup":
        _setup()
        return 0
    probe = Probe()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(probe.clock)
        tracer.install()
    probe.start()
    try:
        report = _run_cli(args, probe.clock) if mode == "cli" else _run_scans(args, probe.clock)
    finally:
        probe.stop()
    from boltzmann_billiard.elliptic import _complete_K

    calls = report.pop("calls")
    report["raw_s"] = sum(t1 - t0 for t0, t1 in calls)
    report["calls_s"] = [probe.scaled(t0, t1) for t0, t1 in calls]
    info = _complete_K.cache_info()
    report["rss_kb"] = peak_rss_kb()
    report["k_cache"] = [info.hits, info.misses]
    if tracer is not None:
        report["trace"] = tracer.dump(probe.factor())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
