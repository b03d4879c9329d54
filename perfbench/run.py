"""Benchmark of the boltzmann_billiard package and CLI.

    python3 perfbench/run.py --workload alpha_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from its src/.
Workloads (see workloads.py): alpha_grid, orbit_dump, periodicity.  A run
first times cold starts of the CLI (setup_s), then repeats the workload in
fresh interpreters, closed loop, until --seconds have passed, then checks
every output against independent oracles.  --trace 1 alternates untraced
and traced repetitions and reports per-layer spans instead of the
end-to-end metrics.  Every time but setup_s is in reference-speed seconds:
measured time scaled by a speed probe run inside it (speed.py), which takes
out the host's speed swings.  The last line of stdout is one JSON object; the lines
before it are the human-readable report.  A record of the run is written
to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_SETUPS = 7
MIN_REPS = 3
CHILD_TIMEOUT_S = 60

# span metrics: "<span>.calls" and "<span>.self_s"; several spans may add up to one name
SPAN_GROUPS = {
    "levelset.derive_params": ["levelset.derive_params"],
    "levelset.residual": ["levelset.residual"],
    "levelset.implied_invariants": ["levelset.implied_invariants"],
    "levelset.ConfigPoint.L": ["levelset.ConfigPoint.L"],
    "elliptic.complete_K": ["elliptic.complete_K", "elliptic.complete_Kp", "elliptic.complete_Kpp"],
    "elliptic.carlson_rf": ["elliptic.carlson_rf"],
    "elliptic.legendre_F": ["elliptic.legendre_F"],
    "elliptic.legendre_F_phi": ["elliptic.legendre_F_phi"],
    "elliptic.seg_case": ["elliptic.seg_case_i", "elliptic.seg_case_ii_plus"],
    "uniformize.rotation_number": ["uniformize.rotation_number"],
    "uniformize.uniformize": ["uniformize.uniformize"],
    "uniformize.angle_of": ["uniformize.angle_of"],
    "poincare.iterate_orbit": ["poincare.iterate_orbit"],
    "poincare.sample_level_set": ["poincare.sample_level_set"],
    "periods.find_periodic_locus": ["periods.find_periodic_locus"],
    "periods.poncelet_check": ["periods.poncelet_check"],
    "periods.empirical_rotation": ["periods.empirical_rotation"],
}
LIBRARY_LAYERS = ["levelset", "elliptic", "uniformize", "poincare", "periods"]
PER_LAYER = (
    ["cli.self_s"]
    + [f"layer.{layer}.self_s" for layer in LIBRARY_LAYERS]
    + [f"{g}.{k}" for g in SPAN_GROUPS for k in ("calls", "self_s")]
    + ["levelset.derive_params.calls_per_op", "elliptic.K_cache.hit_ratio",
       "poincare.map_t.calls", "poincare.sample.accept_ratio",
       "periods.defect_evals_per_root", "trace.overhead_s", "trace.overhead_frac"]
)
END_TO_END = ["setup_s", "wall_s", "ops_per_s", "call_ms_p50", "peak_rss_mb"]
# by metric name, or by the last part of a per-layer name
UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "call_ms_p50": "ms",
         "peak_rss_mb": "MB", "calls": "count", "self_s": "s", "calls_per_op": "count",
         "hit_ratio": "ratio", "accept_ratio": "ratio", "defect_evals_per_root": "count",
         "overhead_s": "s", "overhead_frac": "ratio"}


class Runner:
    """Starts children from the checkout and waits for each to end."""

    def __init__(self) -> None:
        self.env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "BOLTZMANN"))}
        self.env["PYTHONPATH"] = str(SRC)

    def out_path(self, name: str) -> Path:
        return OUT / name

    def _spawn(self, mode: str, trace: bool, args) -> str:
        cmd = [sys.executable, str(HERE / "child.py"), mode, "1" if trace else "0", json.dumps(args)]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"child {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return proc.stdout

    def setup_time(self) -> float:
        """Cold start to a built parser, in measured seconds.

        Mostly process start and file reads, which the speed probe does not
        track: scaled by it, cold starts spread more (0.145 against 0.095
        interquartile over median, 253 starts on a 2-vCPU x86_64 VM).
        """
        t0 = time.monotonic()
        ready = float(self._spawn("setup", False, None).strip().splitlines()[-1])
        return ready - t0

    def child(self, mode: str, trace: bool, args) -> dict:
        return json.loads(self._spawn(mode, trace, args).strip().splitlines()[-1])


def percentile_tail(samples_ms: list):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples_ms)
    nn = (100 * (n - 10)) // n if n > 10 else 0
    if nn < 50:
        return None
    return nn, statistics.quantiles(samples_ms, n=100, method="inclusive")[nn - 1]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(args) -> dict:
    u = platform.uname()
    return {"machine": f"{u.system} {u.release} {u.machine}", "host": u.node,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "git_sha": git_sha(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def measure(workload, runner: Runner, seconds: float, trace: bool):
    """Closed loop of repetitions until `seconds` have passed.

    A timed cold start precedes each repetition, so set-up and work are
    sampled over the same stretch of machine load.
    """
    runner.setup_time()  # first start compiles bytecode; users do not pay that per run
    setup, plain, traced = [], [], []
    start = time.monotonic()
    while True:
        setup.append(runner.setup_time())
        plain.append(workload.rep(runner, False))
        if trace:
            traced.append(workload.rep(runner, True))
        for rep in plain[1:] + traced:
            rep.outputs = None  # only the first is checked; the rest must match its digest
        done = time.monotonic() - start >= seconds
        if done and len(plain) >= MIN_REPS and len(setup) >= MIN_SETUPS:
            return setup, plain, traced


def check_all(workload, reps: list):
    """Check the first repetition; every other one must match it exactly."""
    checked = workload.check(reps[0])
    consistent = all(r.digest == reps[0].digest for r in reps[1:])
    return checked, consistent


def end_to_end(workload, setup: list, reps: list) -> dict:
    """Per-repetition figures, averaged over the run's repetitions.

    Repetitions repeat identical work, and the machine switches between
    speed states that last seconds; the mean over repetitions follows the
    share of time spent in each state, where a median jumps between them.
    """
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(r.wall_s for r in reps),
        "ops_per_s": workload.ops * len(reps) / sum(r.wall_s for r in reps),
        "call_ms_p50": statistics.fmean(statistics.median(r.calls_s) for r in reps) * 1e3,
        "peak_rss_mb": statistics.median(r.rss_kb for r in reps) / 1024.0,
    }


def _fold(traces: list):
    """Spans, per-caller counts and derived counts of one repetition's children."""
    spans, sites, counts = {}, Counter(), Counter()
    for t in traces:
        for name, (calls, _, self_s) in t["spans"].items():
            c, s = spans.get(name, (0, 0.0))
            spans[name] = (c + calls, s + self_s)
        sites.update({(name, consumer): k for name, consumer, k in t["sites"]})
        counts.update(t["counts"])
    return spans, sites, counts


def per_layer(workload, plain: list, traced: list) -> dict:
    folded = [_fold(r.traces) for r in traced]
    spans, sites, counts = folded[0]  # counts repeat exactly; only times vary

    def calls(names):
        return sum(spans.get(n, (0, 0.0))[0] for n in names)

    def self_s(names):
        return statistics.median(sum(sp.get(n, (0, 0.0))[1] for n in names) for sp, _, _ in folded)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"cli.self_s": self_s(["cli.main"])}
    for layer in LIBRARY_LAYERS:
        m[f"layer.{layer}.self_s"] = self_s([n for n in spans if n.startswith(layer + ".")])
    for g, names in SPAN_GROUPS.items():
        m[f"{g}.calls"] = calls(names)
        m[f"{g}.self_s"] = self_s(names)
    m["levelset.derive_params.calls_per_op"] = m["levelset.derive_params.calls"] / workload.ops
    hits, misses = (sum(r.k_cache[i] for r in traced) for i in (0, 1))
    m["elliptic.K_cache.hit_ratio"] = ratio(hits, hits + misses)
    m["poincare.map_t.calls"] = counts["map_t"]
    m["poincare.sample.accept_ratio"] = ratio(counts["sampled"],
                                              sites[("uniformize.uniformize", "poincare")])
    m["periods.defect_evals_per_root"] = ratio(sites[("levelset.derive_params", "periods")],
                                               counts["roots"])
    untraced = statistics.median(r.wall_s for r in plain)
    m["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - untraced
    m["trace.overhead_frac"] = m["trace.overhead_s"] / untraced
    return m


def unit_of(name: str) -> str:
    return UNITS.get(name) or UNITS[name.rsplit(".", 1)[1]]


def run_one(args, runner: Runner) -> dict:
    w = WORKLOADS[args.workload](args.seed, args.smoke)
    record = run_record(args)

    def say(line: str) -> None:
        print(f"{w.name}: {line}", flush=True)

    say("run " + " ".join(f"{k}={v}" for k, v in record.items()))
    say(f"inputs {w.describe()}")
    setup, plain, traced = measure(w, runner, args.seconds, bool(args.trace))
    checked, consistent = check_all(w, plain + traced)
    reps = len(plain) + len(traced)
    # the checked outputs, which every other repetition repeats exactly; counting them
    # once per repetition would make attempted and failed depend on machine speed
    attempted, failed = checked.attempted, checked.failed
    say(f"checks ran: {', '.join(sorted(checked.ran))}; {json.dumps(checked.notes, sort_keys=True)}")
    say(f"checks repetitions_identical={consistent} over {reps} repetitions")
    say(f"fail_frac={failed / attempted:.6g} ({failed} of {attempted} {w.checked_unit} failed a check)")
    if args.trace:
        metrics = per_layer(w, plain, traced)
        say(f"traced {len(traced)} and untraced {len(plain)} repetitions")
    else:
        metrics = end_to_end(w, setup, plain)
        calls_ms = [c * 1e3 for r in plain for c in r.calls_s]
        tail = percentile_tail(calls_ms)
        tail_s = f"call_ms_p{tail[0]}={tail[1]:.6g} ms" if tail else "no tail percentile above p50"
        say(f"setup_s={metrics['setup_s']:.6g} s (median of {len(setup)} cold starts)")
        say(f"wall_s={metrics['wall_s']:.6g} s (mean of {len(plain)} repetitions, {w.ops} {w.unit} each; "
            f"measured before the speed correction: {statistics.fmean(r.raw_s for r in plain):.6g} s)")
        say(f"{w.unit}_per_s={metrics['ops_per_s']:.6g} 1/s")
        say(f"call_ms_p50={metrics['call_ms_p50']:.6g} ms (median call of each repetition, mean over "
            f"repetitions); over all n={len(calls_ms)} calls: p50={statistics.median(calls_ms):.6g} ms, {tail_s}")
        say(f"peak_rss_mb={metrics['peak_rss_mb']:.6g} MB")
    for name, v in metrics.items():
        alias = name.replace("calls_per_op", f"calls_per_{w.unit[:-1]}")
        say(f"metric {alias} = {v:.6g} {unit_of(name)}")
    result = {"correct": consistent and checked.ran == w.checks, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    (OUT / f"record-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "checks": checked.notes, "result": result,
                    "samples": {"setup_s": setup, "rep_calls_s": [r.calls_s for r in plain],
                                "rep_raw_s": [r.raw_s for r in plain],
                                "traced_rep_wall_s": [r.wall_s for r in traced]}}, indent=2))
    return result


def smoke(runner: Runner) -> int:
    """Every workload at tiny size, traced and untraced: names present, checks ran.

    Also checks that the metric names and units match BENCHMARK.json.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = []
    for kind, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        if declared != {n: unit_of(n) for n in names}:
            bad.append(f"{kind} metrics differ from BENCHMARK.json")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        bad.append("workloads differ from BENCHMARK.json")
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0, trace=trace, smoke=True)
            res = run_one(args, runner)
            want = PER_LAYER if trace else END_TO_END
            if sorted(res["metrics"]) != sorted(want) or not res["correct"] or res["attempted"] < 1:
                bad.append(f"{name} trace={trace}: metrics, consistency or attempted count wrong")
    print("smoke " + ("FAILED: " + "; ".join(bad) if bad else "ok: every metric present, every check ran"))
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; assert metrics and checks")
    args = ap.parse_args()
    if not (SRC / "boltzmann_billiard" / "cli.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))  # the periodicity checks call map_t in this process
    OUT.mkdir(exist_ok=True)
    runner = Runner()
    if args.smoke:
        return smoke(runner)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        print(json.dumps(run_one(args, runner)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
