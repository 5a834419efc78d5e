"""Host speed, sampled between requests, to express times in reference seconds.

The benchmark was built on a shared virtual machine whose CPU switches
between two speeds a factor of two apart, staying in one for a tenth of
a second to tens of seconds: the same pass over the same requests took
6.5 s at one time and 12 s at another, and ten runs of identical work
spread by a third. A fixed pure-Python kernel, timed on the daemon's CPU
while the daemon waits for the next request, tracks that speed. Every
time metric scales the measured wall time by ``REFERENCE_S / kernel
time``: the time the work would take on a host where the kernel runs in
``REFERENCE_S``.

The client and the daemon are pinned to one CPU (``pin_to_one_cpu``),
so the kernel runs where the daemon runs, and only while the daemon is
idle: the closed loop has no request in flight when the client samples.
"""

from __future__ import annotations

import bisect
import os
import time
from typing import List, Tuple

#: Kernel time on the host the benchmark was built on, in its fast state.
REFERENCE_S = 0.0011
#: At most one sample per this many seconds: short requests share one.
MIN_GAP_S = 0.05
#: Samples this close to a request also count towards its speed: a long
#: request outlasts several switches of the host's speed, which the two
#: samples next to it cannot see.
WINDOW_S = 0.5


def kernel() -> int:
    """Fixed interpreter work: dict updates, list churn, integer arithmetic."""
    counts = {}
    window = []
    for i in range(6000):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + 1
        window.append(key & 255)
        if len(window) > 64:
            window.pop(0)
    return sum(window) + len(counts)


def pin_to_one_cpu() -> int:
    """Pin this process, and the daemons it will start, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedLog:
    """Kernel timings ``(taken_at, seconds)`` in the order they were taken."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []

    def sample(self, force: bool = False) -> None:
        """Time the kernel once, unless a sample was taken just now.

        A first, untimed run warms the caches the daemon's work evicted.
        """
        now = time.perf_counter()
        if not force and self.samples and now - self.samples[-1][0] < MIN_GAP_S:
            return
        kernel()
        started = time.perf_counter()
        kernel()
        self.samples.append((started, time.perf_counter() - started))

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the kernel time around ``[start, end]``.

        The kernel time is the mean of the samples from the last one
        taken before *start* to the first one taken after *end*, widened
        to every sample within ``WINDOW_S`` of the interval.
        """
        times = [taken for taken, _ in self.samples]
        first = min(max(0, bisect.bisect_right(times, start) - 1),
                    bisect.bisect_left(times, start - WINDOW_S))
        last = max(min(len(times) - 1, bisect.bisect_left(times, end)),
                   bisect.bisect_right(times, end + WINDOW_S) - 1)
        window = [seconds for _, seconds in self.samples[first:last + 1]]
        return REFERENCE_S * len(window) / sum(window)

    def median_s(self) -> float:
        ordered = sorted(seconds for _, seconds in self.samples)
        return ordered[len(ordered) // 2]
