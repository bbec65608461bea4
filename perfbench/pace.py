"""Pace kernels: fixed pieces of work that measure how fast the machine runs now.

The host these figures are taken on is shared, and its CPUs slow down by up
to 1.7x for seconds to minutes at a time when neighbours are busy.  A wall
time alone then says as much about the neighbours as about the library.  So
every timed call in the end-to-end run sits between two calls of a pace
kernel, and the metric is the call's time over the mean kernel time, scaled
by the kernel's time at the reference pace (``REFERENCE_S``).  The result is
still in seconds: the time the call would take on the reference machine when
it is not slowed.

The kernels live here, not in the library, so no change to ``src/`` moves
them.  A kernel tracks a workload only if it does the same kind of work, so
there are two:

* ``float``: scalar float arithmetic, small dicts and lists, one small numpy
  call, like ``index_triple``, the bisections of ``hamiltonian`` and the
  recurrence search.
* ``sets``: an F2 column reduction over Python sets, like ``barcode``.  It
  also paces every child process: in one-minute trials on the CLI runs of
  three workloads, the ``sets``-paced times spread by 10-15% (interquartile
  range over median) and the ``float``-paced ones by 13-17%.

Measured in 8-second windows over a minute, the ratio moved by 2-4%
(interquartile range over median) where the raw median pass time moved by
8-23%.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import numpy as np


def _float_kernel(n: int = 4000) -> float:
    table = {}
    xs = []
    acc = 0.0
    for i in range(n):
        x = (i * 0.618033988749895) % 1.0
        acc += math.floor(x * 7.0) - x * x
        table[i & 255] = acc
        xs.append(x)
    return acc + float(np.sort(np.asarray(xs))[n // 2]) + len(table)


def _columns(n: int = 450, seed: int = 7) -> list:
    rng = random.Random(seed)
    return [frozenset(rng.sample(range(j), min(j, 3))) for j in range(n)]


_COLUMNS = _columns()


def _sets_kernel() -> int:
    columns = [set(c) for c in _COLUMNS]
    low_to_col = {}
    for j, col in enumerate(columns):
        while col:
            other = low_to_col.get(max(col))
            if other is None:
                break
            col ^= columns[other]
        if col:
            low_to_col[max(col)] = j
    return len(low_to_col)


KERNELS = {"float": _float_kernel, "sets": _sets_kernel}

# each kernel's time on an Intel Xeon (2 vCPUs, Python 3.11) at its fast state
REFERENCE_S = {"float": 1.2e-3, "sets": 2.5e-3}


class Pace:
    """Times one kernel; ``scale(seconds, pace_s)`` turns a wall time taken
    next to a kernel call into seconds at the reference pace."""

    def __init__(self, kind: str):
        self.kind = kind
        self._kernel = KERNELS[kind]
        self.samples = []
        for _ in range(5):                        # warm-up
            self._kernel()

    def measure(self, calls: int = 1) -> float:
        """Median time of ``calls`` kernel calls."""
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        pace = statistics.median(times)
        self.samples.append(pace)
        return pace

    def scale(self, seconds: float, pace_s: float) -> float:
        return seconds / pace_s * REFERENCE_S[self.kind]
