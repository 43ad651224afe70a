"""Host-speed sampling, to report throughput at a fixed reference speed.

On a shared host the CPU a run gets can halve for stretches of 0.1 to
30 seconds while a neighbour is busy; the process's own CPU time slows
down with it, so neither wall nor CPU time separates the host from the
program.  :class:`HostSpeed` runs a small fixed calibration kernel on a
timer signal (every 50 ms, under 2% of the time) while operations are
measured.  The kernel is the benchmark's own code -- a mix of small NumPy
convolutions and Python dictionary work, like the simulator's fold loop --
and never calls the program, so a change to the program cannot change it.

:meth:`HostSpeed.reference_seconds` turns an operation's wall-clock
interval into seconds at the reference speed: the kernel time sampled
inside the interval is removed, and the rest is scaled by
``REFERENCE_S / mean kernel time`` over the interval.  On a host whose
kernel takes ``REFERENCE_S`` the result equals the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

__all__ = ["HostSpeed", "calibration_kernel"]

_RNG = np.random.default_rng(2020)
_A = _RNG.random(256)
_B = _RNG.random(48)


def calibration_kernel() -> float:
    """Run the fixed calibration kernel once; return its duration in s."""
    start = time.perf_counter()
    total = 0.0
    for i in range(48):
        total += float(np.convolve(_A, _B)[i])
        table = {j: j * 0.5 for j in range(24)}
        total += sum(table.values())
    return time.perf_counter() - start


class HostSpeed:
    """Samples the calibration kernel on ``SIGALRM`` while entered."""

    #: Kernel duration that defines the reference speed: the typical
    #: sampled duration on a 2-core x86-64 cloud VM (Python 3.11, NumPy)
    #: when no neighbour competes for its cores.
    REFERENCE_S = 0.6e-3
    #: Sampling period of the timer, in seconds.
    INTERVAL_S = 0.05

    def __init__(self) -> None:
        #: (start time, kernel duration) of every sample taken.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        self.samples.append((start, calibration_kernel()))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds the interval ``[start, end)`` would take at the
        reference speed, with the sampling itself removed."""
        if not self.samples:
            return end - start
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:  # an interval shorter than one period
            inside = [min(self.samples,
                          key=lambda sample: abs(sample[0] - start))[1]]
            own = 0.0
        else:
            own = sum(inside)
        return (end - start - own) * self.REFERENCE_S / statistics.fmean(inside)

    def mean_kernel_s(self) -> float:
        return statistics.fmean(d for _, d in self.samples)
