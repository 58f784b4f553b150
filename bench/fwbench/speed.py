"""A sampling probe of the CPU's speed, for timings steady across host load.

On a shared 2-vCPU host the same call ran anywhere from 11.5 s to 19.1 s a
few minutes apart, and the time of a fixed Python loop moved by the same
factor, so the swing is the host's speed, not the program's.  The probe
measures it where the program runs: every ``INTERVAL_S`` seconds a SIGALRM
handler runs a small fixed kernel in the main thread and records how long
it took.  The kernel mixes what the library spends its time in: interpreter
arithmetic, ``Fraction`` arithmetic, and LAPACK on stacks of 4x4 blocks, few
and many.  A timing is then reported in reference seconds: the measured
seconds, less the kernel's own time, scaled by ``REFERENCE_KERNEL_S`` over the
kernel's mean duration around the timed interval (the mean, because the
program ran through the fast and the slow stretches alike; the extreme tenth
at either end is trimmed to drop interrupted samples).  Raw seconds stay in
the report beside them.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

import numpy as np

# Kernel time on an unloaded 2-vCPU x86-64 host (Python 3.11, numpy 2.4,
# OpenBLAS, 1 thread): reference seconds are seconds on that host.
REFERENCE_KERNEL_S = 2.5e-3
INTERVAL_S = 0.05  # between kernel runs: about 5 % of the CPU, subtracted
WINDOW_S = 0.25  # kernel runs this close to an interval set its speed

_FEW = np.random.default_rng(0).standard_normal((6, 4, 4))
_MANY = np.random.default_rng(1).standard_normal((256, 4, 4))


def kernel() -> None:
    s = 0
    for i in range(10_000):
        s += i * i
    x = Fraction(0)
    for i in range(400):
        x += Fraction(i % 13 + 1, i % 11 + 2)
    for _ in range(15):
        np.linalg.eigh(_FEW)
    np.linalg.eigh(_MANY)


def _trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class SpeedProbe:
    """Samples kernel durations while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def _between(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.starts, t0),
                     bisect.bisect_left(self.starts, t1))

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds for the interval ``[t0, t1]``."""
        inside = self.durations[self._between(t0, t1)]
        around = self.durations[self._between(t0 - WINDOW_S, t1 + WINDOW_S)]
        speed = REFERENCE_KERNEL_S / _trimmed_mean(around)
        return (t1 - t0 - sum(inside)) * speed

    def speed(self) -> float:
        """Host speed over the whole probe, relative to the reference."""
        return REFERENCE_KERNEL_S / _trimmed_mean(self.durations)

    def kernel_s(self, t0: float, t1: float) -> float:
        """Time the probe itself took inside ``[t0, t1]``."""
        return sum(self.durations[self._between(t0, t1)])
