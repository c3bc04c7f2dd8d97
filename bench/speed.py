"""Wall times at a fixed reference machine speed.

On a shared 2-core x86-64 VM the same 0.4 s search instance took anywhere
from 0.37 s to 0.95 s, in phases of seconds to minutes, and a whole 25 s run
could sit in a slow phase; a median over passes does not remove that.  So
every end-to-end time is reported at reference speed.  While the program
runs, a SIGALRM handler times a fixed burst of pure-Python arithmetic
(sharing no code with cijt) every PERIOD_S, and an interval is reported as

    (elapsed - time spent in bursts) * REF_BURST_S / mean burst time

with the mean over the bursts inside the interval, or over the last PRIME
bursts before its end when fewer fell inside.  Bursts come at even steps of
wall time, so their mean weights each speed phase by how long it lasted.
Set-up, timed in a fresh interpreter, is scaled by the bursts that
setup_probe.py takes right after it (bursts before it would load this module
ahead of the timed import).
REF_BURST_S is about the burst's time in a fast phase of that VM under
CPython 3.11, so at full speed a reported value is close to the plain wall
time.  Over 8 runs of the rung-3 theorem-1.1 instance (N = 5168) it cut the
spread (sd/mean) from 0.17 for plain wall time to 0.025.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

from oracle import Surd, floor_mult

PERIOD_S = 0.02
PRIME = 3
REF_BURST_S = 0.00032

_SQRT2 = Surd(Fraction(-1), Fraction(1), 2)


def burst() -> float:
    """Seconds for the fixed burst: surd floors and Fractions, as in the
    engine's certification, then small-integer divmod loops, as in the Betti
    and index sweeps."""
    start = perf_counter()
    for m in range(1, 60):
        floor_mult(_SQRT2, m)
        hash(Fraction(m, 7))
    for r in range(130):
        i = 1
        while i * 4 <= r:
            divmod(r - i * 4, 2)
            i += 1
    return perf_counter() - start


def at_reference(elapsed: float, bursts) -> float:
    return elapsed * REF_BURST_S / statistics.mean(bursts)


class Probe:
    """Bursts every PERIOD_S while active; `mark()` and `reference_s()` turn
    an interval between two marks into seconds at reference speed."""

    def __init__(self):
        self.bursts = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.bursts.append(burst())

    def __enter__(self):
        self.bursts += [burst() for _ in range(PRIME)]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return perf_counter(), len(self.bursts)

    def reference_s(self, start, end) -> tuple[float, float]:
        """(wall seconds without the bursts, the same at reference speed)."""
        (t0, j0), (t1, j1) = start, end
        inside = self.bursts[j0:j1]
        elapsed = t1 - t0 - sum(inside)
        around = inside if len(inside) >= PRIME else self.bursts[max(0, j1 - PRIME):j1]
        return elapsed, at_reference(elapsed, around)
