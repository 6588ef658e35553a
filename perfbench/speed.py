"""Reference-speed clock for a host whose CPU speed changes under the benchmark.

On a shared host the speed of pure-Python code can change by a factor of
1.5 to 1.8 from one tenth of a second to the next, because of load that
the guest can not see (its own CPU time grows by the same factor).  Wall
times alone then measure the neighbours more than the program.

`SpeedProbe` runs a fixed piece of `Fraction` arithmetic, the same kind of
work as the program's, from a SIGALRM handler every `INTERVAL` seconds of
wall time, in the benchmark's own thread: no extra thread or process.  An
interval timed with `mark` and `since` is reported twice:

- net seconds: wall time less the time the probe itself ran in it;
- reference seconds: net seconds times PROBE_REF_S / probe time, averaged
  over the probes in the interval (the last MIN_PROBES ones when it holds
  fewer), i.e. the time the interval would have taken at the speed at
  which one probe takes PROBE_REF_S.

Program code never runs inside the probe, so a change to the program
moves reference seconds exactly as it moves wall seconds at a fixed CPU
speed.  The benchmark pins itself and its child processes to one CPU, so
the probe samples the CPU the measured work runs on.
"""

from __future__ import annotations

import os
import signal
import time
from fractions import Fraction

INTERVAL = 0.005
MIN_PROBES = 3
# one probe's time on an x86-64 host at its faster speed (CPython 3.11); it
# only sets the scale, so that reference and wall times are of one size
PROBE_REF_S = 0.000135

_ROW = [Fraction(i + 1, 2 * i + 3) for i in range(16)]


def _probe() -> list[Fraction]:
    b = [x * y + x - y for x, y in zip(_ROW, _ROW[1:] + _ROW[:1])]
    return [x / (abs(x) + 1) for x in b]


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts) to its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []  # probe start times
        self.durations: list[float] = []  # probe durations, seconds
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        # probes before the first timed interval give `since` its fallback
        while len(self.durations) < MIN_PROBES:
            time.sleep(INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), len(self.durations)

    def rate(self, mark: tuple[float, int]) -> float:
        """Reference seconds per net second over the probes since `mark`."""
        first = min(mark[1], len(self.durations) - MIN_PROBES)
        probes = self.durations[first:]
        return PROBE_REF_S * sum(1 / d for d in probes) / len(probes)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(net seconds, reference seconds) from `mark` to now."""
        end = time.perf_counter()
        net = end - mark[0] - sum(self.durations[mark[1] :])
        return net, net * self.rate(mark)
