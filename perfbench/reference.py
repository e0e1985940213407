"""A fixed reference work, timed next to the program to factor out host speed.

On a shared host the speed of one vCPU drifts by up to ~1.6x within
minutes, as other tenants come and go, and a workload's raw seconds drift
with it.  The benchmark therefore also times a fixed *probe*
(:func:`reference_work`) in the same process while the program runs, and
reports each unit of program work in *reference seconds*: its wall time
times ``NOMINAL_S / probe time``, i.e. the seconds the unit would take on a
host where the probe takes ``NOMINAL_S``.  A faster program lowers it; a
slower or faster host moves it far less than it moves wall seconds.

:class:`Sampler` runs the probe from a wall-clock timer signal every
``SAMPLE_EVERY_S`` while a pass runs, so a unit's probe time is the median
of the probes taken during the unit and within ``MARGIN_S`` of it, not a
reading from a different moment; the probes' own time is taken out of the
unit's.  (Reading the probe only before and after each unit was tried
first: over a unit of several seconds the host's speed changes, and it
spread the results more than raw wall time did.)

Setup time is scaled the same way, by a sampler inside each freshly
started interpreter (``run.py``).  No probe runs while ``batch``'s worker
processes do: beside them it would read mostly their load, not the
host's.

The probe is pure Python of the two kinds the program spends its time in:
building a random three-input node graph over integer truth tables and
hashing its nodes into a dictionary (as rewriting and mapping do), and
chasing indices through an array larger than the CPU's private caches (as
the SAT solver does through its watch lists and clauses).  A compute-bound
probe alone overreacts to other tenants' load and a memory-bound one
underreacts; the sum of the two tracks the program's own slowdown.  It
never calls into ``repro``, so no change to the program can move it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from array import array

__all__ = ["NOMINAL_S", "Sampler", "reference_work"]

#: a constant: about the seconds one probe takes between units of work on
#: the baseline host (2 vCPUs of an Intel Xeon, Python 3.11), where it
#: read 1.9-3.8 ms as the host's load came and went, so that reference
#: seconds are of the order of wall seconds
NOMINAL_S = 0.0035
GRAPH_NODES = 500
CHASE_SLOTS = 1 << 19
CHASE_STEPS = 5_000
#: the sampler's period, seconds of wall time (the probe costs ~3% of it)
SAMPLE_EVERY_S = 0.1
#: a unit's probe time is the median of the probes within this many
#: seconds of it, so even a unit of a few milliseconds gets ~10 probes
MARGIN_S = 0.5

_chase: array | None = None


def _chase_links() -> array:
    """A full-period LCG over CHASE_SLOTS indices (2 MiB, built once).

    Pure Python, not numpy, so that a starting interpreter can probe
    without importing anything the program imports.
    """
    global _chase
    if _chase is None:
        mask = CHASE_SLOTS - 1
        _chase = array("i", [(i * 1103515245 + 12345) & mask
                             for i in range(CHASE_SLOTS)])
    return _chase


def reference_work() -> int:
    rng = random.Random(1)
    fanins: list[tuple[int, int, int]] = [(0, 0, 0)]
    tables = [0x5555]
    for _ in range(GRAPH_NODES):
        a, b, c = (rng.randrange(len(tables)) for _ in range(3))
        x, y, z = tables[a], tables[b], tables[c]
        fanins.append((a, b, c))
        tables.append((x & y) | (x & z) | (y & z) ^ (a & 0xFFFF))
    counts: dict[tuple[int, int], int] = {}
    for (a, _b, _c), table in zip(fanins, tables):
        key = (table & 0xFF, a & 7)
        counts[key] = counts.get(key, 0) + 1
    links = _chase_links()
    i = total = 0
    for _ in range(CHASE_STEPS):
        i = links[i]
        total += links[i ^ 0x5A5A5]
    return len(counts) + (total & 1)


class Sampler:
    """Times :func:`reference_work` every *every_s* seconds from SIGALRM.

    The handler runs in the main thread between bytecodes, so each probe
    runs inside whatever unit of work was executing when the timer fired.
    """

    def __init__(self, every_s: float = SAMPLE_EVERY_S) -> None:
        self.every_s = every_s
        #: (start, seconds) of every probe, in perf_counter time
        self.samples: list[tuple[float, float]] = []
        _chase_links()

    def probe(self) -> None:
        """Take one probe now."""
        start = time.perf_counter()
        reference_work()
        self.samples.append((start, time.perf_counter() - start))

    def _tick(self, signum, frame) -> None:
        self.probe()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, start: float, end: float) -> float:
        """Seconds the probes that started in [start, end) took."""
        return sum(s for t, s in self.samples if start <= t < end)

    def reading(self, start: float, end: float) -> float:
        """Median probe time within MARGIN_S of [start, end)."""
        times = [s for t, s in self.samples
                 if start - MARGIN_S <= t < end + MARGIN_S]
        if not times:
            raise RuntimeError("no reference probe near the unit")
        return statistics.median(times)
