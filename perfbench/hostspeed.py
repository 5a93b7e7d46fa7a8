"""Timing in seconds at a fixed host speed, for a host whose speed changes.

On a shared host the speed of one CPU changes by up to 1.8x from one second
to the next: a fixed pure-Python loop takes 0.30 ms in some seconds and
0.55 ms in others.  Repeats do not average that away within a run of a few
seconds, so the wall time of the same run spreads by 25% or more.

`SpeedClock` times a region of code while a timer signal interrupts it every
INTERVAL_S seconds to time `probe`, a fixed loop that allocates nothing.
Each stretch of the region up to a probe counts as its wall time scaled by
NOMINAL_PROBE_S / (that probe's time): the time the stretch would have taken
at the speed at which `probe` takes NOMINAL_PROBE_S.  The probes' own time is
left out.  The scaled total tracks the region's work, not the host's state.

Signal handlers run only on the main thread, between bytecodes; a long call
into C code defers the probe to its return, and the probe then covers the
whole stretch.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
# The probe's time on an unloaded Intel Xeon vCPU at 2.1 GHz; any constant
# serves, since both sides of a comparison use the same one.
NOMINAL_PROBE_S = 1e-4

_DATA = tuple(range(97))


def probe() -> int:
    acc = 0
    for j in range(1000):
        acc += _DATA[j % 97] * j
    return acc


class SpeedClock:
    """Context manager; after exit, `wall_s` is the region's wall time and
    `scaled_s` its time at the nominal speed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.probes = 0

    def _probe(self, signum=None, frame=None) -> None:
        start = self.clock()
        probe()
        end = self.clock()
        self.scaled_s += (start - self._last) * NOMINAL_PROBE_S / (end - start)
        self.probes += 1
        self._last = end

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._start = self._last = self.clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = self.clock() - self._start
        self._probe()  # ends the last stretch
