"""Machine-speed probe: host time expressed at a reference machine speed.

On a small shared virtual machine the same pass can run 40% slower for
seconds to minutes while other tenants are busy, which swamps any change
worth measuring.  While a pass runs, a timer signal every
``INTERVAL_S`` runs a fixed slice of interpreter work (``_work``) in the
same process, on the same core, at that moment.  Its median time over
``REFERENCE_S`` is the pass's *slowdown*; dividing the pass's own time
(probe time subtracted) by it gives *reference seconds*: the time the
pass would have taken on the machine at reference speed.  A program
change still shows in full — the probe's work does not change with the
program — while the machine's mood mostly cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

#: probe period during a timed pass
INTERVAL_S = 0.02
#: the probe's time at reference speed (about its fastest median on an idle
#: 2-vCPU Xeon virtual machine)
REFERENCE_S = 8.0e-5


def _work() -> int:
    """About 0.1 ms of dict, arithmetic and loop work."""
    table = {}
    total = 0
    for i in range(400):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the probe while the ``with`` block runs."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        _work()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        """Median probe time over the reference: 1.3 means 30% slower."""
        return statistics.median(self.samples) / REFERENCE_S if self.samples else 1.0

    def reference_seconds(self, wall_s: float) -> float:
        """``wall_s`` without the probe's own time, at reference speed."""
        return (wall_s - sum(self.samples)) / self.slowdown
