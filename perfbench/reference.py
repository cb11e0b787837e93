"""Host-speed reference: a fixed piece of interpreter work timed beside the commands.

The shared host this benchmark was built on changes speed by up to 2x, for
a fraction of a second to minutes at a time, and a command's CPU time moves
with its wall time, so no run length averages the drift away.  The
benchmark therefore times ``work()`` (dict, frozenset, set and sorting work,
as the solvers do, and nothing from ``graphgames``) between commands, at
most every ``INTERVAL_S``, and scales each command's latency by
``NOMINAL_S`` over the median of the samples taken around it.  A reported
millisecond is a millisecond of a host on which ``sample()`` takes
``NOMINAL_S``; the unscaled figures are printed beside the scaled ones.  A
library change cannot change ``work()``, so it moves the scaled figures in
the proportion it moves the program's own time, up to the noise of the
reference itself.
"""

from __future__ import annotations

import statistics
import time

# about the median time of one sample() on the 2-core Xeon VM (2.0 GHz, Python
# 3.11) the benchmark was built on, in its usual state
NOMINAL_S = 0.001
# a command is preceded by a sample when this long has gone by since the last
INTERVAL_S = 0.1
# samples on each side of a sample that its scale rests on; the median over
# them ignores a sample that an interrupt lengthened
HALF_WINDOW = 5


def work() -> int:
    table = {}
    for i in range(1500):
        table[(i * 2654435761) % 100003] = (i, i & 7)
    sets = [frozenset(range(i % 11, i % 11 + 6)) for i in range(200)]
    union = set()
    for members in sets:
        union |= members
    order = sorted(table, key=lambda k: table[k][1])
    return len(union) + order[0]


def sample() -> float:
    """Seconds one ``work()`` call takes now: the faster of two calls, so
    that a cold cache after the collector or a command does not count."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def samples(count: int) -> list:
    return [sample() for _ in range(count)]


def scales(refs: list) -> list:
    """Per sample, ``NOMINAL_S`` over the median of its neighbouring samples."""
    out = []
    for i in range(len(refs)):
        window = refs[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1]
        out.append(NOMINAL_S / statistics.median(window))
    return out


class Probe:
    """Reference samples taken between commands, at most one per ``INTERVAL_S``."""

    def __init__(self):
        self.refs = []
        self._last = float("-inf")

    def tick(self) -> int:
        """Take a sample if one is due; return the index of the latest one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.refs.append(sample())
            self._last = time.perf_counter()
        return len(self.refs) - 1
