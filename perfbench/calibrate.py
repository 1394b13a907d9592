"""Machine-speed calibration for the timings the benchmark reports.

The sandbox this benchmark was built on changes speed by up to 1.5x for
tens of seconds at a time (another tenant on the same core), which moved
25-second medians of identical work by 25-30%.  Process CPU time moves the
same way, so the slowdown is the core itself, not descheduling.

A short pure-Python kernel that does what confpara does (restricted-growth
partitions, configuration tuples, frozensets, sorting, small method calls)
slows down with the program.  ``Speedometer`` runs it before and after each
job and, from a SIGALRM handler, every ``INTERVAL_S`` while the job runs.
The handler's own time is subtracted from the job's latency, and the job is
reported in reference seconds:

    (latency - handler time) * REFERENCE_S / mean(kernel times)

REFERENCE_S is the kernel's time on that machine when it is not slowed, so
there reference seconds and wall-clock seconds agree.  The kernel does not
call confpara, so a change to the program cannot move it.  On that machine
the 25-second medians of a 1-second job moved by 0.33 (quartile distance
over median) raw, 0.041 scaled by the kernel times before and after each
job, and 0.015 with the samples taken during the job as well.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 0.003
INTERVAL_S = 0.1


def _partitions(n, m):
    labels = [0] * n

    def rec(i, top):
        if i == n:
            yield tuple(labels)
            return
        for v in range(1, min(top + 1, m) + 1):
            labels[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(0, 0)


class _Walker:
    def __init__(self, k):
        self.k = k

    def step(self, a, b):
        return (a * 31 + b) % self.k

    def back(self, a):
        return (self.k - a) % self.k


def kernel_s():
    """Seconds one run of the calibration kernel takes now."""
    start = time.perf_counter()
    rows = [tuple((x + s) % 7 for x in range(7)) for s in (1, 3)]
    seen = {}
    for labels in _partitions(7, 3):
        configs = frozenset((labels[x], labels[rows[0][x]], labels[rows[1][x]])
                            for x in range(7))
        key = tuple(sorted(configs))
        seen[key] = seen.get(key, 0) + 1
    walker = _Walker(1009)
    a = 1
    for i in range(3000):
        a = walker.step(a, walker.back(i))
    return time.perf_counter() - start


def speed_factor(samples=5):
    """REFERENCE_S over the median of a few kernel runs made now."""
    return REFERENCE_S / statistics.median(kernel_s() for _ in range(samples))


class Speedometer:
    """Times jobs and scales them by the kernel samples taken around and
    during each job.  ``sample_during=False`` keeps only the samples before
    and after, so no handler time lands inside a traced call."""

    def __init__(self, sample_during=True):
        self.sample_during = sample_during
        self._last = kernel_s()
        self._samples = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._samples.append(kernel_s())
        self._spent += time.perf_counter() - start

    def time(self, fn):
        """Runs ``fn()``; returns (result, error, raw seconds, reference seconds)."""
        self._samples = [self._last]
        self._spent = 0.0
        result = error = None
        if self.sample_during:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - the caller reports it
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            if self.sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        latency = elapsed - self._spent
        self._last = kernel_s()
        self._samples.append(self._last)
        return result, error, latency, latency * REFERENCE_S / statistics.mean(self._samples)
