"""Host-speed sampling, so that timings do not swing with a shared host.

On a shared virtual machine the core that runs the benchmark is, by turns,
about twice as slow as usual, for stretches from milliseconds to tens of
seconds (most likely another tenant busy on the same physical core). Seen
from inside the machine the slowdown is not stolen time: the process keeps
its CPU and its CPU time grows with its wall time, so neither clock can
exclude it. A median or mean over a run then follows the share of the run
the core spent slowed down, and that share moves from 0.1 to 0.5 between
runs.

A `Sampler` measures that slowdown alongside the program. A SIGALRM handler
runs every `INTERVAL_S` of wall time, also in the middle of a call, and
times a fixed pure-Python reference loop (dict, set, list, int and float
work, like `minent`'s). The handler's own time is kept out of the call's
time. A timed interval is then reported in *reference seconds*:

    busy wall time x REFERENCE_S / mean loop time sampled within WINDOW_S of it

that is, the time the interval would take on a core that runs the loop in
`REFERENCE_S` (about this benchmark's 2-vCPU Xeon host when its core is not
slowed down). The program and the loop do not slow down by exactly the same
factor, so the correction is partial, but it cuts the run-to-run spread by
a factor of three to four on such a host.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

INTERVAL_S = 0.025
WINDOW_S = 0.1
REFERENCE_S = 2.0e-4
_LOOP_N = 600


def reference_loop(n: int = _LOOP_N) -> float:
    """Fixed interpreter work: about 0.2 ms on an unloaded 2 GHz Xeon core."""
    counts: dict = {}
    seen: set = set()
    rows = []
    x = 0.0
    for i in range(n):
        k = (i * 2654435761) & 1023
        counts[k] = counts.get(k, 0) + 1
        seen.add(k >> 3)
        x += math.log2(1 + (k & 63))
        if i % 40 == 0:
            rows.append(sorted(seen)[:8])
    return len(counts) + len(rows) + x


class Sampler:
    def __init__(self):
        self.times: list = []         # when each sample ended (perf_counter)
        self.loop_s: list = []        # how long its reference loop took
        self.handler_s = 0.0          # total time spent in the handler
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference_loop()           # warm the loop's code and data first
            mid = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
            self.times.append(end)
            self.loop_s.append(end - mid)
            self.handler_s += end - start
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if not self.times:            # a run shorter than one interval
            self._tick(None, None)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean loop time sampled within WINDOW_S of
        [start, end], or over all samples if none fell there."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.loop_s[lo:hi] or self.loop_s
        return REFERENCE_S * len(window) / math.fsum(window)
