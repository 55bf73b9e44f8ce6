"""Host-speed sampler: a separate process that times a frozen reference kernel.

    python3 bench/speed.py          # samples until SIGTERM, then prints them as JSON

On a host shared with other tenants the same Python work runs up to ~1.8x
slower for stretches of a second to tens of seconds (measured on a 2-vCPU
VM: CPU time tracks wall time, so the cause is contention, not preemption,
and the two vCPUs slow down largely independently). Raw times then spread
over runs by more than the benchmark's bounds. The runner pins this
sampler to the CPU its children are pinned to and keeps it going while
they work. It runs in its own process, so the program's heap, allocator
state and Python objects cannot change its timings; only contention for
the CPU's caches and the host can. `Speed` turns its samples into factors
that bring a time measured at some moment to the kernel's nominal speed,
after taking out the time the sampler itself held the CPU. Timestamps are
`perf_counter_ns`, which on Linux reads CLOCK_MONOTONIC and so agrees
across processes.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import sys
import time
from fractions import Fraction
from time import perf_counter_ns

import numpy as np

PERIOD_S = 0.05
WINDOW_NS = 100_000_000  # a latency is scaled by the median sample within +-0.1 s
# Median reference time on an idle 2.1 GHz Xeon vCPU (Python 3.11, numpy 2.4);
# only ratios matter, the constant keeps normalized times near real ones.
REF_NOMINAL_NS = 1_300_000

_POINTS = np.arange(40)


def reference_kernel() -> int:
    """A frozen miniature of the scorer's instruction mix.

    A dense-grid histogram, a set of occupied cells, dictionary counting
    and a little rational arithmetic: under contention from other tenants
    this slows down about as much as the program does, which a pure
    integer loop does not.
    """
    grid = np.zeros((309, 549))
    np.add.at(grid, (_POINTS * 3 % 309, _POINTS * 7 % 549), 1.0)
    active = {(int(r), int(c)) for r, c in np.argwhere(grid > 0.3 * grid.max())}
    counts: dict = {}
    for i in range(1000):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
    total = sum(Fraction(j, 7) ** 2 for j in range(1, 8))
    return len(active) + len(counts) + int(total)


class Speed:
    """Scale factors from the sampler's (start ns, duration ns) samples."""

    def __init__(self, samples: list[tuple[int, int]]):
        if not samples:
            raise ValueError("the speed sampler recorded no samples")
        self.starts = [s for s, _ in samples]
        self.ends = [s + d for s, d in samples]
        self.durations = [d for _, d in samples]

    def sampling_ns(self, start_ns: int, end_ns: int) -> int:
        """Time within [start_ns, end_ns] the sampler ran, and a child on its CPU could not."""
        i = bisect.bisect_left(self.ends, start_ns)
        total = 0
        while i < len(self.starts) and self.starts[i] < end_ns:
            total += max(0, min(end_ns, self.ends[i]) - max(start_ns, self.starts[i]))
            i += 1
        return total

    def _window(self, lo_ns: int, hi_ns: int) -> list[int]:
        lo = bisect.bisect_left(self.starts, lo_ns)
        hi = bisect.bisect_right(self.starts, hi_ns)
        if lo == hi:  # no sample in the window: use the closest one
            mid = (lo_ns + hi_ns) // 2
            i = bisect.bisect_left(self.starts, mid)
            lo = min((j for j in (i - 1, i) if 0 <= j < len(self.starts)),
                     key=lambda j: abs(self.starts[j] - mid))
            hi = lo + 1
        return self.durations[lo:hi]

    def at(self, t_ns: int) -> float:
        """Factor for a short time measured at t_ns."""
        return REF_NOMINAL_NS / statistics.median(self._window(t_ns - WINDOW_NS, t_ns + WINDOW_NS))

    def over(self, start_ns: int, end_ns: int) -> float:
        """Factor for a time spanning [start_ns, end_ns].

        The mean of nominal/sample weights each sampling interval equally,
        which is right when the work runs for the whole span.
        """
        return REF_NOMINAL_NS * statistics.fmean(1.0 / d for d in self._window(start_ns, end_ns))


def main() -> int:
    stop: list[int] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    samples = []
    while not stop:
        start = perf_counter_ns()
        reference_kernel()
        samples.append((start, perf_counter_ns() - start))
        time.sleep(PERIOD_S)
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
