"""Operation timings normalized by the host's current speed.

On a shared machine the speed of one core drifts by a third or more over
spans of seconds, and CPU time drifts with it, so raw timings of the same
pass differ more between runs than the changes the benchmark must resolve.
While a Timer is open, an interval timer (SIGALRM, every SAMPLE_S seconds)
runs a fixed reference kernel with garbage collection off, and the timer
integrates a normalized clock: each stretch of time between two samples
counts REFERENCE_S / k normalized seconds per second, where k is the
kernel's time at the start of the stretch.  The samples also land inside
long operations, such as a Fermat rung of several seconds, and the time
spent in the kernel itself is left out.

A normalized second is a second on a host where the kernel takes
REFERENCE_S.  On an idle 2-core x86-64 VM with CPython 3.11 the kernel
takes 0.7 to 1.0 ms, so normalized and raw times are of the same size.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REFERENCE_S = 1e-3
SAMPLE_S = 0.03

_UNSORTED = [(i * 7919) % 5003 for i in range(5003)]


def kernel() -> int:
    """Dict and small-int work, rational arithmetic and a sort: the mix of
    interpreter work the workloads do."""
    table: dict = {}
    acc = 0
    for i in range(1, 500):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i * i // (i % 5 + 1)
        acc += len(str(i)) + len(table)
    q = Fraction(0)
    for i in range(1, 40):
        q += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 4 + 1)
    return acc + q.denominator + sorted(_UNSORTED)[-1]


def kernel_seconds(repeats: int = 3) -> float:
    """Fastest of a few kernel runs, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class Timer:
    """Times operations in normalized seconds while open (a context manager).

    ``start()`` before an operation and ``stop(count)`` after it record one
    sample of the normalized time per operation, `count` operations having
    been timed together (``op_times``, ``op_counts``).
    """

    def __init__(self) -> None:
        self.op_times: list[float] = []
        self.op_counts: list[int] = []
        self.wall_s = 0.0  # normalized
        self.raw_s = 0.0  # as measured, kernel samples included
        self._state = (0.0, 0.0, REFERENCE_S)
        self._mark = (0.0, 0.0)
        self._sampling = False

    def __enter__(self) -> Timer:
        self._state = (0.0, time.perf_counter(), kernel_seconds())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        if self._sampling:
            return
        self._sampling = True
        try:
            begin = time.perf_counter()
            k = kernel_seconds()
            end = time.perf_counter()
            norm, last, last_k = self._state
            # one assignment, so now() never sees a half-updated state
            self._state = (norm + (begin - last) * REFERENCE_S / last_k, end, k)
        finally:
            self._sampling = False

    def now(self) -> float:
        norm, last, last_k = self._state
        return norm + (time.perf_counter() - last) * REFERENCE_S / last_k

    def start(self) -> None:
        self._mark = (self.now(), time.perf_counter())

    def stop(self, count: int = 1) -> None:
        norm0, raw0 = self._mark
        took = self.now() - norm0
        self.raw_s += time.perf_counter() - raw0
        self.wall_s += took
        self.op_times.append(took / count)
        self.op_counts.append(count)
