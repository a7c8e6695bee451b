"""Machine speed, sampled during the timed work, to put times on one scale.

The VM this benchmark was tuned on (2 vCPUs, shared host) runs the same
pure-Python loop at speeds up to ~1.5x apart, in phases from seconds to
minutes.  CPU time slows exactly as wall time does there (the slowdown
is not steal time), so neither can tell a slower program from a slower
machine.  Instead a :class:`Speedometer` interrupts the work every
``INTERVAL_S`` (``SIGALRM``) and times :func:`reference`, a fixed piece
of dict, string and JSON work owned by the benchmark, so no change to
the program under test can make it faster or slower.

A timed interval is then reported at the reference speed::

    scaled = (wall - time spent sampling) * REFERENCE_S / typical sample

where the typical sample is the mean of the interval's samples without
the slowest and fastest ``TRIM`` of them (a stray slow sample, from a
garbage collection for instance, would move a plain mean; a median
jumps between the fast and slow speed when the interval holds both).

``REFERENCE_S`` is about a typical sample on that VM, so scaled
seconds read like its wall seconds.  The
sampler runs in untraced passes only: its time would otherwise land
inside the traced spans.
"""

from __future__ import annotations

import json
import signal
import statistics
from array import array
from bisect import bisect_left
from time import monotonic
from typing import Tuple

#: Seconds between two samples.
INTERVAL_S = 0.05
#: The nominal duration of one :func:`reference` call: scaled times are
#: in seconds of a machine on which it takes this long.
REFERENCE_S = 0.001
#: Share of samples left out at each end before averaging.
TRIM = 0.1

_WORDS = tuple(f"k{i:03d}.example.com" for i in range(500))


def reference() -> int:
    """The fixed work one sample times (about 1 ms on the VM above)."""
    table = {}
    for i, word in enumerate(_WORDS):
        table[word.split(".")[0] + "=" + str(i * 7919 % 1013)] = i
    ordered = sorted(table, key=len)
    return len(json.dumps(ordered)) + len(json.loads(json.dumps(table)))


class Speedometer:
    """Samples :func:`reference` on a ``SIGALRM`` timer (main thread only).

    Timestamps are ``time.monotonic()``, which on Linux is one clock for
    every process, so a parent can ask about an interval a child timed.
    """

    def __init__(self) -> None:
        self.at = array("d")      # when each sample started
        self.took = array("d")    # how long it took
        self.running = False

    def start(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True
        return self

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False

    def _sample(self, _signum, _frame) -> None:
        start = monotonic()
        reference()
        self.at.append(start)
        self.took.append(monotonic() - start)

    def _window(self, begin: float, end: float) -> Tuple[int, int]:
        return bisect_left(self.at, begin), bisect_left(self.at, end)

    def spent(self, begin: float, end: float) -> float:
        """Seconds spent sampling between ``begin`` and ``end``."""
        lo, hi = self._window(begin, end)
        return sum(self.took[lo:hi])

    def scale(self, begin: float, end: float) -> float:
        """Factor from wall seconds in ``[begin, end)`` to seconds at the
        reference speed; 1.0 when nothing was sampled there (the meter
        was off).  Every interval the full-size workloads time spans
        several ``INTERVAL_S``."""
        lo, hi = self._window(begin, end)
        if hi <= lo:
            return 1.0
        took = sorted(self.took[lo:hi])
        cut = int(len(took) * TRIM)
        return REFERENCE_S / statistics.fmean(took[cut:len(took) - cut])

    def net(self, begin: float, end: float) -> float:
        """Wall seconds of ``[begin, end)`` less the sampling in it."""
        return end - begin - self.spent(begin, end)

    def scaled(self, begin: float, end: float) -> float:
        """:meth:`net` seconds at the reference speed."""
        return self.net(begin, end) * self.scale(begin, end)
