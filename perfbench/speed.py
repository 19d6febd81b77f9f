"""Reference-loop probes that put timings on a steady scale.

On a small shared VM the CPU speed drifts by 2x and more over tens of
seconds.  Measured on a 2-vCPU Xeon guest: one sweep pass took 4.7 s to
8.3 s within two minutes, and the reference loop below took 1.2 ms to
over 5 ms within one run, drifting in step with the workloads.  A run
cannot outlast that drift, so each timed operation is rescaled by how
fast the reference loop ran around it:

    scaled = raw * NOMINAL_S / (mean of the two probes bracketing it)

A probe is the mean time of PROBE_REPEATS runs of the loop, taken
between operations and never inside one.  NOMINAL_S is the loop's time
at the fast end of that machine's range, so scaled values read as
seconds on an uncontended core.  Raw times are printed and recorded
beside them.
"""

from __future__ import annotations

import bisect
import math
import time

clock = time.perf_counter

LOOP_ITERATIONS = 12_000
PROBE_REPEATS = 3
#: Fast-state time of one reference loop on the machine above.
NOMINAL_S = 1.2e-3
#: Least time between probes; a probe takes about 5 ms.
INTERVAL_S = 0.02


def reference_loop() -> float:
    """Pure-Python float arithmetic and calls, like the solver's step loop."""
    y = 0.0
    for i in range(LOOP_ITERATIONS):
        y = y * 0.5 + math.exp(-i * 1e-4)
    return y


class SpeedProbe:
    """Probes taken between operations; ``scale`` rescales an operation."""

    def __init__(self):
        self._ends: list[float] = []
        self._starts: list[float] = []
        self._seconds: list[float] = []

    def probe(self) -> None:
        start = clock()
        for _ in range(PROBE_REPEATS):
            reference_loop()
        self._starts.append(start)
        self._ends.append(clock())
        self._seconds.append((self._ends[-1] - start) / PROBE_REPEATS)

    def between(self) -> None:
        """Probe if INTERVAL_S has passed since the last probe."""
        if not self._ends or clock() - self._ends[-1] >= INTERVAL_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean of the last probe that ended by
        ``start`` and the first that began at or after ``end``."""
        before = bisect.bisect_right(self._ends, start) - 1
        after = bisect.bisect_left(self._starts, end)
        before = max(before, 0)
        after = min(after, len(self._seconds) - 1)
        return NOMINAL_S / (0.5 * (self._seconds[before] + self._seconds[after]))

    @property
    def samples(self) -> list[float]:
        return self._seconds
