"""The machine's speed, sampled while the program under test runs.

Other tenants slow this kind of shared machine by up to two times, in
bursts of seconds and in phases of minutes, so a time taken in one run is
not comparable with one taken in another.  A Speedometer runs a fixed
probe from a SIGALRM handler every INTERVAL_S of wall time and records
how long it took.  A unit's time is then scaled by the probe's reference
time over its mean time around the unit: the time the unit would take at
the speed where the probe takes its reference time, which is about this
machine's speed at its fastest.  A slow phase lengthens the unit and the
probes alike and cancels out; a change to the program moves the unit
only.  The probe is benchmark code, so no change to the program moves it.

The mixed probe, Python, small numpy operations and array numpy, is used
around the package's calls.  The python probe is used around an import:
this module imports nothing beyond the standard library's signal, bisect
and time, so that it can be running before the import it measures.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

INTERVAL_S = 0.01
# A unit shorter than this many probe intervals is scaled by the nearest
# MIN_SAMPLES probes in time, those before and after it included.
MIN_SAMPLES = 8
_CELLS = [repr(i * 0.37) for i in range(300)]
_NUMPY = []


def python_probe() -> dict:
    """A fixed mix of parsing, float arithmetic and dict stores."""
    table = {}
    for cell in _CELLS:
        table[cell] = float(cell) * 2.0
    return table


def mixed_probe() -> float:
    """python_probe, then twelve 8x8 numpy products and sorts, then two
    passes of a hinge over a 4096x5 array: the three kinds of work the
    package does.  Imports numpy on first use."""
    if not _NUMPY:
        import numpy

        rows = numpy.arange(4096 * 5, dtype=float).reshape(4096, 5) % 7.0 - 3.0
        _NUMPY[:] = [numpy, numpy.arange(64.0).reshape(8, 8) / 64.0, rows]
    python_probe()
    numpy, matrix, rows = _NUMPY
    total = 0.0
    for _ in range(12):
        product = matrix @ matrix + matrix
        total += float(numpy.log1p(numpy.sort(product, axis=None)).sum())
    weights = numpy.full(5, 0.1)
    for _ in range(2):
        margins = rows @ weights
        total += float(numpy.maximum(0.0, 1.0 - margins).sum())
    return total


# Each probe and its time at the reference speed: about its time in place,
# between the package's calls, when this machine runs at its fastest.
PROBES = {"python": (python_probe, 65_000), "mixed": (mixed_probe, 250_000)}


def waited_ns() -> int:
    """The ns this thread has spent runnable but waiting for a CPU, from
    its schedstat; 0 where there is none."""
    try:
        with open("/proc/thread-self/schedstat", "rb") as handle:
            return int(handle.read().split()[1])
    except OSError:
        return 0


class Speedometer:
    """Times of one of PROBES, taken from a SIGALRM handler while the
    speedometer runs, and the marks that time a unit.

    Time the thread spends waiting for a CPU belongs to the other tenants
    too, so it is taken out of the probes and of the units alike.  Each
    probe is kept as its start, its wall time and the part of that spent
    waiting, all in ns and in time order.
    """

    def __init__(self, probe: str):
        self.probe, self.ref_ns = PROBES[probe]
        self.starts, self.walls, self.waits = [], [], []

    def _sample(self, signum, frame) -> None:
        waited = waited_ns()
        start = perf_counter_ns()
        self.probe()
        self.walls.append(perf_counter_ns() - start)
        self.waits.append(waited_ns() - waited)
        self.starts.append(start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, count: int) -> None:
        """Take count probes now, outside any unit."""
        for _ in range(count):
            self._sample(None, None)

    def begin(self):
        """The mark that starts a unit: (ns, ns waited so far)."""
        waited = waited_ns()
        return perf_counter_ns(), waited

    def end(self):
        """The mark that ends a unit."""
        now = perf_counter_ns()
        return now, waited_ns()

    def scale(self, begin, end):
        """(own_ns, ref_ns) of the unit between two marks: its wall time
        less the probes taken inside it and less its other waiting for a
        CPU, and that scaled to the probe's reference speed."""
        (start_ns, waited_at_start), (end_ns, waited_at_end) = begin, end
        lo = bisect_left(self.starts, start_ns)
        hi = bisect_right(self.starts, end_ns)
        own = (end_ns - start_ns - sum(self.walls[lo:hi])
               - (waited_at_end - waited_at_start - sum(self.waits[lo:hi])))
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            before = start_ns - self.starts[lo - 1] if lo > 0 else None
            after = self.starts[hi] - end_ns if hi < len(self.starts) else None
            if after is None or (before is not None and before <= after):
                lo -= 1
            else:
                hi += 1
        probes = sum(self.walls[lo:hi]) - sum(self.waits[lo:hi])
        return own, own * self.ref_ns * (hi - lo) / probes
