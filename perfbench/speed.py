"""Machine-speed reference for the timed runs.

The benchmark runs on shared machines whose CPU speed drifts by ±20% over
minutes.  On a 2-core VM, 100-trial throughput of unchanged code rose from
67 to 104 trials/s across ten consecutive runs.  Medians within a run do
not remove drift that slow.

So every timed run also times a fixed reference loop, interleaved with its
operations.  The loop mixes interpreted float arithmetic and small-matrix
numpy.  Its median sets the run's speed factor, and the timing metrics are
reported at a nominal speed: ``time x NOMINAL_S / median(reference)``.
Over ten 10 s windows whose raw parse and kinematics timings spread by
0.24-0.27 (quartile distance / median), the normalized ones spread by
0.04-0.07.  Across whole runs it corrects less: when a run's trials were
30% slower, the reference was 12% slower.  The raw figures are in the
report line.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.006  # the reference loop's time on the nominal machine
SAMPLES_PER_S = 4  # reference samples per second of run time

_A = np.linspace(0.0, 1.0, 16 * 32).reshape(16, 32)
_B = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)


def reference_loop() -> float:
    """Fixed work: about 4 ms of interpreted arithmetic, 2 ms of numpy."""
    total = 0.0
    for i in range(20000):
        total += math.sin(i * 1e-3) * (i & 7)
    for _ in range(300):
        total += float(np.maximum(_A @ _B, 0.0)[0, 0])
    return total


class SpeedProbe:
    """Samples the reference loop at a steady rate over a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.started = time.perf_counter()

    def catch_up(self) -> None:
        """Time the reference until the run has SAMPLES_PER_S samples per second so far."""
        due = (time.perf_counter() - self.started) * SAMPLES_PER_S
        while len(self.samples) < due:
            t0 = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Multiply a measured time by this to get the time at nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)
