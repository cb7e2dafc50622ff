"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed one core delivers drifts by a third or more
within seconds, with no change to the program.  So while a piece of work is
timed, a timer signal interrupts it every ``INTERVAL_S`` to run a short fixed
loop of plain Python dict, string and regex work (close in kind to the
program's, and independent of it), and once more at each end.  The loops'
own time is taken out of the measured time, and the benchmark reports the
rest scaled to a machine on which the loop takes ``REFERENCE_S``:

    reported = (wall - loop time inside) * REFERENCE_S / mean loop time

A change to the program moves the measured time and leaves the loop alone, so
it shows in full; a drift in machine speed moves both and cancels.  On a
shared 2-core Xeon VM, the spread (IQR over median) of single evaluate passes
was 0.24 as measured, 0.18 scaled by loops at the ends only, and 0.09 scaled
by loops sampled through the pass.
"""

from __future__ import annotations

import re
import signal
import statistics
import time

REFERENCE_S = 0.002
INTERVAL_S = 0.05
_ITERATIONS = 1500
_RX = re.compile(r"(?i).*win\w+\\sys.*")


def loop_s() -> float:
    """Wall seconds of the fixed calibration work."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    total = 0
    for i in range(_ITERATIONS):
        key = "k%d" % (i % 97)
        counts[key] = counts.get(key, 0) + i
        total += len(key.upper())
        if _RX.search("c:\\windows\\system32\\x%d.exe" % i):
            total += 1
    return time.perf_counter() - start


def scale(seconds: float, loop_seconds: float) -> float:
    """``seconds`` as it would read on the reference-speed machine."""
    return seconds * REFERENCE_S / loop_seconds


class Sampler:
    """Context manager timing its body; must run in the main thread.

    After exit, ``wall_s`` is the body's wall time without the calibration
    loops and ``loop_s`` the mean loop time.  ``on_tick(seconds)`` is called
    after each loop inside the body, so a span recorder can take it out too.
    """

    def __init__(self, on_tick=None):
        self.on_tick = on_tick
        self.wall_s = 0.0
        self.loop_s = 0.0
        self._loops: list[float] = []

    def _tick(self, _signum, _frame) -> None:
        seconds = loop_s()
        self._loops.append(seconds)
        if self.on_tick is not None:
            self.on_tick(seconds)

    def __enter__(self) -> "Sampler":
        self._loops = [loop_s()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)  # a pending tick runs before ``end``
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self._start - sum(self._loops[1:])
        self._loops.append(loop_s())
        self.loop_s = statistics.fmean(self._loops)
