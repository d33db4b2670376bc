"""Machine-speed probe: CPU time scaled to a reference speed.

The machine the benchmark runs on shares its processors with others, and
its speed changes under the benchmark: the CPU time of a fixed loop
switches between two levels about 1.7x apart, for seconds at a time, and
the share of time spent at the slow level changes from minute to minute.
Over 30 s windows of identical work the CPU time spread by 25% between
quartiles, so a raw CPU time of a 30 s pass measures the machine as much
as the program.

While a `SpeedProbe` is active, a SIGALRM handler runs a fixed pure-Python
loop (a tick) every INTERVAL_S seconds of wall time and records its CPU
time.  `scaled_cpu(start, end)` takes the CPU time between two readings
of `time.process_time()`, leaves out the ticks, and scales each stretch
between ticks by REF_TICK_S over the median CPU time of the WINDOW ticks
nearest to the stretch's end.  The result is the CPU time the work would
have taken at the speed where a tick takes REF_TICK_S, about the fast
level of the machine the benchmark was written on.  Library code never
runs inside a tick, so a change to the library moves scaled times as it
moves raw ones.

The interval timer is ITIMER_REAL: with a CPU-time interval timer
(ITIMER_PROF or ITIMER_VIRTUAL) armed, Linux reads the process CPU clock
in 4 ms steps.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
REF_TICK_S = 0.0004
WINDOW = 5

def tick() -> int:
    """Fixed work of the kinds the library's inner loops do: small-integer
    arithmetic, multi-word products, dict stores and list appends."""
    s, big = 0, 3**90
    table, items = {}, []
    for i in range(2400):
        s = (s * 31 + i * 7919) % 1000003
        table[i & 63] = s
        if i % 8 == 0:
            items.append((big * s) % 1000000007)
    return s + len(items)


class SpeedProbe:
    """Context manager that times a tick every INTERVAL_S of wall time."""

    def __init__(self):
        self.starts: list[float] = []  # process time at each tick's start
        self.costs: list[float] = []   # each tick's CPU time

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, *_):
        start = time.process_time()
        tick()
        self.costs.append(time.process_time() - start)
        self.starts.append(start)

    def local_tick(self, index: int) -> float:
        """Median CPU time of the WINDOW ticks around tick `index`."""
        lo = min(max(0, index - WINDOW // 2), max(0, len(self.costs) - WINDOW))
        return statistics.median(self.costs[lo:lo + WINDOW])

    def scaled_cpu(self, start: float, end: float) -> float:
        """CPU time between process times `start` and `end`, without the
        ticks, at the reference speed."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        total, since = 0.0, start
        for i in range(first, last):
            total += (self.starts[i] - since) * REF_TICK_S / self.local_tick(i)
            since = self.starts[i] + self.costs[i]
        return total + max(0.0, end - since) * REF_TICK_S / self.local_tick(last)

    def raw_cpu(self, start: float, end: float) -> float:
        """CPU time between `start` and `end`, without the ticks."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        return end - start - sum(self.costs[first:last])
