"""How fast this host is running right now, sampled while an op runs.

On a shared host the same code can run up to 1.8x slower for tens of seconds
when neighbours load the machine, which no amount of repetition inside a
10 s run averages out.  :class:`SpeedProbe` interrupts the timed op every
``period_s`` (a ``SIGALRM`` handler, so the samples fall inside the op, not
only around it) and times a fixed reference kernel in CPU time.  The ratio
of that time to :data:`REFERENCE_KERNEL_S` is the host's slowdown, and an
op's wall time divided by it is the op's time at reference speed.

The kernel is the benchmark's own code, so a change to the library cannot
move it; the time spent sampling is subtracted from the op's.  Over 7
minutes in which host load moved flight and Monte Carlo op times by 11-12%
(coefficient of variation), this small-array kernel's slowdown correlated
0.97 and 0.93 with op time and left 3.3% and 5.0% after division; a pure
interpreter loop correlated 0.90 and 0.86 and left 5.3% and 7.0%.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import List

import numpy as np

#: CPU seconds :func:`reference_kernel` takes on a quiet 2-vCPU x86_64 VM
#: under Python 3.11 and NumPy 2.4 (its lower quartile over 3000
#: back-to-back calls).
REFERENCE_KERNEL_S = 0.0015

_VECTOR = np.array([0.1, 0.2, 0.3])
_AXIS = np.array([1.0, 0.5, 0.25])
_DAMPING = np.eye(3) * 0.9


def reference_kernel() -> float:
    """Small-array NumPy calls strung together by the interpreter, the
    shape of a simulator step: cross products, a matrix-vector product,
    norms and scalar math on 3-vectors."""
    vector = _VECTOR.copy()
    total = 0.0
    for _ in range(60):
        vector = _DAMPING @ vector + np.cross(vector, _AXIS) * 0.01
        total += math.sqrt(float(vector @ vector)) + math.atan2(vector[1], vector[0])
    return total


class SpeedProbe:
    """Samples :func:`reference_kernel` every ``period_s`` inside a block."""

    def __init__(self, period_s: float = 0.1) -> None:
        self.period_s = period_s
        self.kernel_cpu_s: List[float] = []
        #: CPU seconds spent sampling while the block ran.
        self.handler_s = 0.0

    def _sample(self, signum, frame) -> None:
        began = time.thread_time()
        reference_kernel()
        elapsed = time.thread_time() - began
        self.kernel_cpu_s.append(elapsed)
        self.handler_s += elapsed

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    @property
    def slowdown(self) -> float:
        """Mean kernel time over the reference time.

        The samples are evenly spaced in wall time, so their mean is the
        slowdown averaged over the op, which is what stretched its wall
        time; it tracked op times slightly better than the median did.
        """
        return statistics.fmean(self.kernel_cpu_s) / REFERENCE_KERNEL_S
