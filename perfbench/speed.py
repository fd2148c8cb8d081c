"""Host speed probe.

A shared host's speed can drift by tens of percent within a second, which
swamps the differences a benchmark must resolve.  ``Probe`` times a fixed
reference task at the start and end of a piece of work and, from a
SIGALRM handler, every PROBE_S seconds during it.  Dividing the work's
time (less the handler's) by the task's mean time and multiplying by
REFERENCE_S gives the work's time on a host where the task takes
REFERENCE_S.  This module imports nothing that lwsurf imports, so a cold
lwsurf process can run the probe without warming lwsurf's imports.
"""

import math
import signal
from time import perf_counter

# reference_s() on a 2-core Xeon host in its faster state; times are
# reported as seconds on a host where reference_s() takes this long
REFERENCE_S = 6.0e-4
PROBE_S = 0.025


def reference_s() -> float:
    """Best of two runs of a fixed pure-Python float loop plus dict, tuple
    and str churn; the second run finds the caches the work before it
    evicted.  On a shared host the mix slows down about as much as lwsurf
    does; each part alone does not."""
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        total = 0.0
        for i in range(1, 3000):
            total += math.sqrt(i)
        table = {(i, i * 0.5): [i, str(i)] for i in range(600)}
        sum(len(value[1]) for value in table.values())
        best = min(best, perf_counter() - start)
    return best


class Probe:
    """Samples of reference_s() around and, with ``timer``, during a block.

    ``spent`` is the time the samples taken inside the block cost; the
    caller subtracts it from the block's time."""

    def __init__(self, timer: bool = True) -> None:
        self.timer = timer
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_s())
        self.spent += perf_counter() - start

    def __enter__(self) -> "Probe":
        self.samples.append(reference_s())
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_s())

    def scale(self, seconds: float) -> float:
        """``seconds`` at reference speed."""
        mean = math.fsum(self.samples) / len(self.samples)
        return seconds * REFERENCE_S / mean
