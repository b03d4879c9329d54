"""The three seeded workloads: inputs, one timed repetition, output checks.

Each workload makes its inputs from the seed alone; the package sees only
those inputs.  A repetition runs in fresh interpreters (child.py), and the
checks run afterwards in this process, outside any timed region.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from collections import Counter
from dataclasses import dataclass, field

import oracle

ALPHA_TOL = 1e-10    # |alpha_cli - alpha_oracle| on the circle; double precision gives ~1e-13
D_RESID_TOL = 1e-9   # |D_resid| / max(1, |x|): D_resid cancels terms of size |x|
E_CHECK_TOL = 1e-9   # |E_check - E| * min(1, 2|D + 2 A2|): the circle defect E_check amplifies
CLOSURE_TOL = 1e-9   # t^p distance after p steps; roots are asked for to tol=1e-10 in D
INTEGER_TOL = 1e-9   # distance of p * alpha_oracle from the nearest integer
EMPIRICAL_TOL = 1e-9  # analytic vs empirical alpha on the circle


@dataclass
class Rep:
    """One repetition: timings from the children and what they produced."""

    calls_s: list
    rss_kb: int
    raw_s: float  # sum of calls_s as measured, before the speed correction
    k_cache: list
    rcs: list
    outputs: list | None
    traces: list = field(default_factory=list)
    digest: str = ""

    @property
    def wall_s(self) -> float:
        return sum(self.calls_s)


@dataclass
class Checked:
    """Outcome of the checks on one repetition's outputs."""

    attempted: int
    failed: int
    notes: dict
    ran: set  # names of the checks that ran


def _merge(results: list) -> Rep:
    rep = Rep([], 0, 0.0, [0, 0], [], [])
    for res, output in results:
        rep.calls_s += res["calls_s"]
        rep.raw_s += res["raw_s"]
        rep.rss_kb = max(rep.rss_kb, res["rss_kb"])
        rep.k_cache = [a + b for a, b in zip(rep.k_cache, res["k_cache"])]
        rep.rcs.append(res["rc"])
        rep.outputs.append(output)
        if "trace" in res:
            rep.traces.append(res["trace"])
    rep.digest = hashlib.sha256(repr((rep.rcs, rep.outputs)).encode()).hexdigest()
    return rep


def _rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


class AlphaGrid:
    """CLI `rotation --grid=...`: one fresh interpreter per repetition.

    The window spans 4 in E and 8 in D with steps in ratio 2:1, so the
    tangent line D + 2E = 0 passes exactly through a diagonal of cells
    (class DegenerateTangent); the rest of the window holds the classes
    I, IIplus, IIminus, NegativeAngularMomentumSide and Empty.
    """

    name = "alpha_grid"
    unit = "cells"
    checked_unit = "cells"
    oracle_cells = 300
    checks = {"exit_code_and_rows", "class_table", "no_blank_alpha", "alpha_oracle"}

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.seed = seed
        self.n = 12 if smoke else 280
        h = 4.0
        e0 = -1.5 + 0.1 * rng.random()
        dE = h / (self.n - 1)
        tangent_diag = round(0.8 * (self.n - 1))  # cells with i + j == this sit on D + 2E = 0
        d0 = -2.0 * e0 - 2.0 * dE * tangent_diag
        self.spec = f"{d0!r}:{d0 + 2.0 * h!r}:{e0!r}:{e0 + h!r}:{self.n}"
        self.ops = self.n * self.n

    def describe(self) -> str:
        return f"rotation --grid={self.spec}"

    def rep(self, runner, trace: bool) -> Rep:
        out = runner.out_path(f"{self.name}.csv")
        res = runner.child("cli", trace, ["rotation", f"--grid={self.spec}", "--out", str(out)])
        return _merge([(res, out.read_text())])

    def check(self, rep: Rep) -> Checked:
        notes = {"rc": rep.rcs[0]}
        rows = _rows(rep.outputs[0])
        if rep.rcs[0] != 0 or rows[:1] != [["D", "E", "class", "alpha"]] or len(rows) != self.ops + 1:
            notes["error"] = "bad exit code, header or row count"
            return Checked(self.ops, self.ops, notes, {"exit_code_and_rows"})
        bad = set()
        nondeg = []
        classes = Counter()
        class_miss = blank = 0
        for i, (D, E, cls, alpha) in enumerate(rows[1:]):
            want = oracle.classify(float(D), float(E))
            classes[want] += 1
            if cls != want:
                class_miss += 1
                bad.add(i)
            if want in oracle.NONDEGENERATE:
                if alpha == "":
                    blank += 1
                    bad.add(i)
                else:
                    nondeg.append(i)
        rng = random.Random(f"{self.name}-oracle:{self.seed}")
        sample = rng.sample(nondeg, min(self.oracle_cells, len(nondeg)))
        worst = 0.0
        alpha_miss = 0
        for i in sample:
            D, E, _, alpha = rows[1 + i]
            gap = oracle.circle_gap(float(alpha), oracle.alpha(float(D), float(E)))
            worst = max(worst, gap)
            if gap > ALPHA_TOL:
                alpha_miss += 1
                bad.add(i)
        notes.update(classes=dict(classes), class_mismatch=class_miss, blank_nondegenerate=blank,
                     oracle_cells=len(sample), oracle_miss=alpha_miss,
                     worst_alpha_err=worst)
        ran = {"exit_code_and_rows", "class_table", "no_blank_alpha"} | ({"alpha_oracle"} if sample else set())
        return Checked(self.ops, len(bad), notes, ran)


class OrbitDump:
    """CLI `orbit --steps N`, CSV: one long orbit per nondegenerate class."""

    name = "orbit_dump"
    unit = "steps"
    checked_unit = "steps"
    checks = {"exit_code_and_rows", "D_resid", "E_check"}
    # class -> (D box, E box) the start parameters are drawn from
    BOXES = {
        "I": ((-1.5, 1.5), (0.05, 0.45)),       # positive energy: passes through infinity
        "IIplus": ((2.2, 3.2), (-0.25, -0.02)),
        "IIminus": ((-3.2, -2.2), (1.2, 2.0)),
    }

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.steps = 200 if smoke else 40000
        self.orbits = []
        for cls, ((dlo, dhi), (elo, ehi)) in self.BOXES.items():
            while True:
                D, E = rng.uniform(dlo, dhi), rng.uniform(elo, ehi)
                if oracle.classify(D, E) == cls:
                    break
            self.orbits.append((cls, D, E, rng.randrange(1 << 30)))
        self.ops = len(self.orbits) * self.steps

    def describe(self) -> str:
        return "; ".join(f"orbit --D {D!r} --E {E!r} --seed {s} ({c})"
                         for c, D, E, s in self.orbits) + f"; --steps {self.steps}"

    def rep(self, runner, trace: bool) -> Rep:
        results = []
        for cls, D, E, s in self.orbits:
            out = runner.out_path(f"{self.name}-{cls}.csv")
            argv = ["orbit", "--D", repr(D), "--E", repr(E), "--steps", str(self.steps),
                    "--seed", str(s), "--out", str(out)]
            res = runner.child("cli", trace, argv)
            results.append((res, out.read_text()))
        return _merge(results)

    def check(self, rep: Rep) -> Checked:
        failed = 0
        notes = {}
        ran = {"exit_code_and_rows"}
        for (cls, D, E, _), rc, text in zip(self.orbits, rep.rcs, rep.outputs):
            rows = _rows(text)
            if rc != 0 or rows[:1] != [["step", "x", "A1", "A2", "L", "D_resid", "E_check"]] \
                    or len(rows) != self.steps + 2:
                notes[cls] = {"rc": rc, "rows": len(rows) - 1, "error": "bad exit code or row count"}
                failed += self.steps
                continue
            worst_d = worst_e = worst_e_scaled = 0.0
            bad = unchecked_e = 0
            for _, x, _, A2, _, d_resid, e_check in rows[1:]:
                x, A2, d_resid = float(x), float(A2), float(d_resid)
                ok = abs(d_resid) <= D_RESID_TOL * max(1.0, abs(x))
                worst_d = max(worst_d, abs(d_resid))
                if e_check == "":
                    unchecked_e += 1  # implied_invariants leaves E blank where D + 2 A2 ~ 0
                else:
                    err = abs(float(e_check) - E)
                    scaled = err * min(1.0, 2.0 * abs(D + 2.0 * A2))
                    worst_e = max(worst_e, err)
                    worst_e_scaled = max(worst_e_scaled, scaled)
                    ok = ok and scaled <= E_CHECK_TOL
                bad += not ok
            ran.add("D_resid")
            if unchecked_e < self.steps + 1:
                ran.add("E_check")
            failed += min(bad, self.steps)
            notes[cls] = {"rc": rc, "rows": len(rows) - 1, "bad_rows": bad,
                          "worst_D_resid": worst_d, "worst_E_err": worst_e,
                          "worst_E_err_scaled": worst_e_scaled, "blank_E_check": unchecked_e}
        return Checked(self.ops, failed, notes, ran)


class Periodicity:
    """Library API: find_periodic_locus(E, p) for p = 3..8, checks at each root.

    Energies are stratified over [-0.33, 0.09], where every p has its roots
    inside D in (0, 2).  The period-4 root (and the period-8 root at the
    same D) sits where s0_inv = 0; there seg_case_i is flat to ~1e-8, the
    bisection settles ~1e-8 off the root and closure fails.  Those failures
    are part of the baseline and are counted, not avoided.
    """

    name = "periodicity"
    unit = "scans"
    checked_unit = "roots"
    checks = {"roots_found", "closure", "integer", "empirical"}
    tols = {"closure": CLOSURE_TOL, "integer": INTEGER_TOL, "empirical": EMPIRICAL_TOL}
    E_RANGE = (-0.33, 0.09)
    closure_starts = 20

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        n_e = 1 if smoke else 12
        lo, hi = self.E_RANGE
        width = (hi - lo) / n_e
        self.seed = seed
        self.energies = [lo + (k + rng.random()) * width for k in range(n_e)]
        self.periods = [3, 4] if smoke else [3, 4, 5, 6, 7, 8]
        self.emp_steps = 100 if smoke else 1000
        self.ops = len(self.energies) * len(self.periods)

    def describe(self) -> str:
        es = ", ".join(f"{E:.6f}" for E in self.energies)
        return (f"find_periodic_locus(E, p) for E in [{es}], p in {self.periods}; "
                f"poncelet_check and empirical_rotation(n_steps={self.emp_steps}) at each root")

    def rep(self, runner, trace: bool) -> Rep:
        spec = {"energies": self.energies, "periods": self.periods,
                "seed": self.seed, "emp_steps": self.emp_steps}
        res = runner.child("scan", trace, spec)
        return _merge([(res, res["results"])])

    def check(self, rep: Rep) -> Checked:
        from boltzmann_billiard import derive_params, map_t, sample_level_set

        def chart_gap(a, b) -> float:
            return max(abs(a.x / (1 + abs(a.x)) - b.x / (1 + abs(b.x))),
                       abs(a.A1 - b.A1), abs(a.A2 - b.A2))

        misses = {"closure": 0, "integer": 0, "empirical": 0}
        worst = {"closure": 0.0, "integer": 0.0, "empirical": 0.0}
        by_p: dict = {}
        roots = failed = empty = 0
        for E, p, found in rep.outputs[0]:
            empty += not found  # every seeded (E, p) has a root in D in (0, 2)
            for D, alpha, emp in found:
                roots += 1
                params = derive_params(D, E)
                closure = 0.0
                for c0 in sample_level_set(params, self.closure_starts, self.seed):
                    c = c0
                    for _ in range(p):
                        c = map_t(c, params)
                    closure = max(closure, chart_gap(c, c0))
                v = p * oracle.alpha(D, E)
                gaps = {"closure": closure, "integer": abs(v - round(v)),
                        "empirical": oracle.circle_gap(alpha, emp)}
                miss = False
                for k, g in gaps.items():
                    worst[k] = max(worst[k], g)
                    if not g <= self.tols[k]:
                        misses[k] += 1
                        miss = True
                failed += miss
                by_p.setdefault(p, [0, 0])
                by_p[p][0] += 1
                by_p[p][1] += miss
        notes = {"roots": roots, "scans_without_root": empty, "misses": misses, "worst": worst,
                 "roots_failed_by_p": {str(p): f"{f}/{n}" for p, (n, f) in sorted(by_p.items())}}
        ran = {"roots_found"} | (set(self.tols) if roots else set())
        return Checked(roots + empty, failed + empty, notes, ran)


WORKLOADS = {w.name: w for w in (AlphaGrid, OrbitDump, Periodicity)}
