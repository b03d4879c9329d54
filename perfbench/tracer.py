"""Per-layer spans, installed from outside the package.

Each public function of a layer is replaced, by name, in every package
module whose namespace holds it (its defining module included, so calls
inside a layer are seen too).  A span is one call: its duration, and its
self time, which is the duration minus the time of the spans it encloses.
Spans are folded into per-name totals as they close and held in memory
until the process writes them out.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# layer -> public functions wrapped as spans "<layer>.<function>"
LAYERS = {
    "cli": ("main",),
    "levelset": ("derive_params", "level_set_residual", "implied_invariants"),
    "elliptic": ("complete_K", "complete_Kp", "complete_Kpp", "carlson_rf",
                 "legendre_F", "legendre_F_phi", "seg_case_i", "seg_case_ii_plus"),
    "uniformize": ("rotation_number", "uniformize", "angle_of"),
    "poincare": ("iterate_orbit", "sample_level_set"),
    "periods": ("find_periodic_locus", "poncelet_check", "empirical_rotation"),
}
# short span names where the function name is not the metric name
RENAME = {"level_set_residual": "residual"}
# modules whose namespaces are searched for the functions above
CONSUMERS = ("cli", "levelset", "elliptic", "uniformize", "poincare", "periods",
             "selftest", "svgplot", "kepler")
PACKAGE = "boltzmann_billiard"


class Tracer:
    """Span totals per name, plus call counts per (span, calling module)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.sites: Counter = Counter()   # (name, consumer) -> calls
        self.counts: Counter = Counter()  # derived counts (map_t steps, points)
        self._open: list[float] = []      # child time of each open span

    def wrap(self, fn, name: str, consumer: str, after=None):
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        sites, key, open_ = self.sites, (name, consumer), self._open
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = open_.pop()
                totals[0] += 1
                totals[1] += dt
                totals[2] += dt - inner
                if open_:
                    open_[-1] += dt
                sites[key] += 1
            if after is not None:
                after(out)
            return out

        return span

    def install(self) -> None:
        """Wrap every listed function in every namespace that refers to it."""
        pkg = importlib.import_module(PACKAGE)
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in CONSUMERS}
        after = {
            "iterate_orbit": lambda orbit: self.counts.update(map_t=len(orbit.points) - 1),
            "sample_level_set": lambda pts: self.counts.update(sampled=len(pts)),
            "find_periodic_locus": lambda roots: self.counts.update(roots=len(roots)),
        }
        for layer, names in LAYERS.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                span = f"{layer}.{RENAME.get(fname, fname)}"
                for consumer, mod in [*mods.items(), ("api", pkg)]:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, self.wrap(fn, span, consumer, after.get(fname)))
        # ConfigPoint.L is levelset work done per CSV row of the orbit command
        cp = mods["levelset"].ConfigPoint
        cp.L = self.wrap(cp.L, "levelset.ConfigPoint.L", "cli")

    def dump(self, scale: float = 1.0) -> dict:
        """Totals so far, with times multiplied by `scale`."""
        return {
            "spans": {n: [c, t * scale, s * scale] for n, (c, t, s) in self.spans.items()},
            "sites": [[n, c, k] for (n, c), k in self.sites.items()],
            "counts": dict(self.counts),
        }
