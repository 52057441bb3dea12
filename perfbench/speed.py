"""Reference-speed timing.

The machines this benchmark runs on change speed by tens of percent for
minutes at a time, and CPU time drifts with wall time (no time is stolen:
the processor itself runs slower), so neither clock alone gives figures
that two sets of runs agree on.  A probe, a fixed piece of the benchmark's
own code that never calls the package, is timed at intervals during each
phase of a run.  A time measured between two probes is then scaled by
``NOMINAL_S / mean(those two probe times)``: it reads as the time the work
would take on a machine where the probe takes ``NOMINAL_S``.  A change to
the package moves its operations and not the probe, so the scaled figures
move with the package and not with the machine.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Probe time at reference speed, within the 6-12 ms the probe took on the
# 2-core Xeon VM (Python 3.11, numpy 2.4) where the benchmark was defined.
# It sets the scale of every reported time and nothing else.
NOMINAL_S = 0.008

# Wall seconds between probes while a workload measures.
PERIOD_S = 0.3


def probe() -> float:
    """Seconds taken by the fixed reference work: an interpreted loop over
    ints and a dict, then ten thousand small tuples made and sorted.  Of
    the probes tried, this pair tracked the speed of both the certified
    queries and the keystone scans best.  Garbage collection is off while
    it runs, so the probe never collects the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict[int, int] = {}
        h = 1
        for i in range(4500):
            h = (h * 1103515245 + 12345) & 0xFFFFFFF
            k = h % 509
            table[k] = table.get(k, 0) + (i ^ h)
        rows = [(i % 7, i % 11, i % 13) for i in range(10_000)]
        rows.sort(key=lambda r: (r[2], r[1]))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Probe samples per phase of a run, and the scale factor they give."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self._due = 0.0

    def probe(self, phase: str) -> None:
        self.samples.setdefault(phase, []).append(probe())
        self._due = perf_counter() + PERIOD_S

    def tick(self, phase: str) -> None:
        """Probe when ``PERIOD_S`` has passed since the last probe."""
        if perf_counter() >= self._due:
            self.probe(phase)

    def window(self, phase: str) -> int:
        """The index of the window a time measured now falls in: window
        ``k`` lies between probes ``k`` and ``k + 1`` of ``phase``."""
        return len(self.samples.get(phase, ())) - 1

    def window_factors(self, phase: str) -> list[float]:
        """Multiply a time measured in window ``k`` by entry ``k`` to scale
        it to reference speed: the probe's nominal time over the mean of
        the probes on either side."""
        s = self.samples.get(phase, [])
        return [2 * NOMINAL_S / (a + b) for a, b in zip(s, s[1:])]

    def scaled(self, phase: str, seconds: float) -> float:
        """``seconds`` measured since the last probe of ``phase``, scaled to
        reference speed with a probe taken now."""
        window = self.window(phase)
        self.probe(phase)
        return seconds * self.window_factors(phase)[window]

    def factor(self, phase: str) -> float:
        """The mean probe of ``phase`` as a factor, for times that span
        many windows."""
        samples = self.samples.get(phase)
        return NOMINAL_S / statistics.fmean(samples) if samples else 1.0

    def report(self) -> dict:
        return {
            phase: {"probes": len(s), "median_s": statistics.median(s),
                    "factor": self.factor(phase)}
            for phase, s in self.samples.items()
        }
