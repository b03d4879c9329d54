"""Host-speed probe, so that times are reported at one reference speed.

The benchmark shares a few cores of a host whose speed swings by about
1.5x over seconds to minutes, which moves every timing with it.  A fixed
piece of pure-Python arithmetic (about 1 ms) is timed right at the start
and end of a timed stretch and, from a timer signal, every INTERVAL_S
inside it, so it samples the speed the work itself ran at.  The probes'
own time is left out of every timing (see Probe.clock), and a timing t is
reported as t * REF_PROBE_S * mean(1 / probe) over the probes taken during
it, the seconds it would take at the speed where one probe takes
REF_PROBE_S.  A change to the program moves that figure; a change of host
speed, which moves the probe as much as the program, does not.  The probe
keeps to a few locals, so the program's own memory use does not slow it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

REF_PROBE_S = 1e-3
INTERVAL_S = 0.05
PROBE_STEPS = 10_000  # about REF_PROBE_S with CPython 3.11 on a 2-vCPU x86_64 VM


def _probe_work() -> float:
    sqrt = math.sqrt
    x = 0.5
    for _ in range(PROBE_STEPS):
        x = sqrt(x * 1.0001 + 0.25) - 0.1  # no allocation, so no garbage collection in the probe
    return x


class Probe:
    """Probe durations, and a clock that excludes the time spent probing."""

    def __init__(self) -> None:
        self.samples: list[tuple] = []  # (clock() at the probe, its duration)
        self.spent = 0.0
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        self.samples.append((t0 - self.spent, t1 - t0))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def clock(self) -> float:
        """perf_counter minus the probe time so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no probe ran between the two reads
                return now - spent

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Reference seconds per measured second between two clock() readings.

        Uses the probes within one interval of [start, end], or all of
        them if the timer found no chance to fire there.
        """
        near = [d for t, d in self.samples if start - INTERVAL_S <= t <= end + INTERVAL_S]
        return REF_PROBE_S * statistics.fmean(1.0 / d for d in near or [d for _, d in self.samples])

    def scaled(self, start: float, end: float) -> float:
        """end - start in reference-speed seconds."""
        return (end - start) * self.factor(start, end)
