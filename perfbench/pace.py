"""Host pacing: scale measured times to a fixed host speed.

A shared cloud host does not run a vCPU at one speed. On the 2-core
Xeon VM this benchmark was tuned on, the same Python code ran 1.7-1.9x
slower for stretches of tens of milliseconds to several seconds (CPU
time per request moved with it, so it is the core's speed, not time
slices lost to other guests). A run's raw throughput then depends on
how much of it fell into slow stretches, and ten runs of the same code
spread by 0.2-0.35 of their median.

The closed loops therefore run :func:`pace_slice`, a fixed piece of
work that does not touch the program, before the first window of a
round and after every window. The slices on either side of a window
give its *slowdown*: their mean CPU time over :data:`PACE_REF_S`. A
window's wall time, CPU time and latencies are divided by its slowdown,
which gives the figures the same window would have had on a host where
the slice takes :data:`PACE_REF_S`. The slice mixes interpreter work
(dict and integer operations) with small numpy gathers, reductions and
a matrix-vector product, as a serving request does; on that host the
paced figures of 100 ms stretches spread by 0.03-0.04 (log standard
deviation) where the raw ones spread by 0.12-0.16.

The slice is timed in CPU time of the calling thread, so a program
thread that holds the GIL while the slice runs does not make the slice
look slower (and the program look faster).
"""

from __future__ import annotations

import time

import numpy as np

#: CPU time of one :func:`pace_slice` on the tuning host at its usual
#: (slower) speed: the host speed every paced figure is scaled to.
PACE_REF_S = 250e-6

_rng = np.random.default_rng(0)
_TABLE = _rng.standard_normal((400, 64))
_ROWS = _rng.integers(0, 400, (32, 10))
_QUERY = _rng.standard_normal(64)
_PY_STEPS = 300
_NP_STEPS = 3


def pace_slice() -> float:
    """Run the fixed slice; returns its CPU time on this thread (s)."""
    start = time.thread_time()
    table: dict = {}
    acc = 0
    for i in range(_PY_STEPS):
        table[i & 63] = i
        j = (i * 7) & 63
        acc += table[j] if j in table else 0
    for _ in range(_NP_STEPS):
        memory = _TABLE[_ROWS].sum(axis=1)
        scores = memory @ _QUERY
        weights = np.exp(scores - scores.max())
        acc += int(np.argmax((weights / weights.sum()) @ memory))
    return time.thread_time() - start


class Pacer:
    """The windows of one round and the pace slices around them.

    A slice runs when the pacer is made and after every window
    (:meth:`stop`); ``slice`` is injectable so the arithmetic can be
    checked without timing anything.
    """

    def __init__(self, slice=pace_slice, clock=time.perf_counter):
        self.slice = slice
        self.clock = clock
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.paces = [slice()]
        self._began = self._cpu0 = 0.0

    def start(self) -> None:
        """A window begins."""
        self._began = self.clock()
        self._cpu0 = time.process_time()

    def stop(self) -> None:
        """The window ends: record its wall and process CPU time, then pace."""
        self.walls.append(self.clock() - self._began)
        self.cpus.append(time.process_time() - self._cpu0)
        self.paces.append(self.slice())

    def slowdowns(self) -> np.ndarray:
        """Each window's slowdown: the mean of the slices on either side
        over :data:`PACE_REF_S`."""
        paces = np.asarray(self.paces)
        return (paces[:-1] + paces[1:]) / (2.0 * PACE_REF_S)
