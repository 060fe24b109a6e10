"""Host-speed calibration for the timed metrics.

The benchmark's reference host is a 2-vCPU virtual machine whose speed
drifts with the load of other guests: a fixed call reads up to 1.8x slower
for stretches of seconds to over a minute, CPU time slows with it and steal
time stays near 0. The slowdown is close to uniform across interpreter-bound
and small-array numpy code, so the time of a fixed kernel, run alongside the
operations, tracks it.

Between operations (untimed) the harness runs the kernel whenever
`INTERVAL_S` has passed since the last sample. During an operation an
interval timer runs it every `INTERVAL_S` too, from a SIGALRM handler (which
Python runs between bytecodes of the main thread, so never inside a numpy
or scipy call), and the time spent there is taken off the operation's
latency. Each operation's latency is then divided by the host's local
slowdown, the median kernel time over the samples within `WINDOW_S` of the
operation over `KERNEL_REF_S`, which gives its latency at reference speed.
The kernel is part of the benchmark and does not change with the program,
so comparing two commits compares the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# the kernel's time on the reference host when no other guest slows it
# (2-core Xeon at 2.0 GHz, Python 3.11, numpy 2.4); it only sets the scale
KERNEL_REF_S = 1.5e-4
INTERVAL_S = 0.02
WINDOW_S = 0.5
_REPEATS = 3


def _kernel(a):
    """Small-array numpy calls, dominated by interpreter and dispatch
    overhead like most of the workloads' calls."""
    for _ in range(80):
        a = np.sqrt(a + 1.0)
    return a


class Calibrator:
    """Samples the kernel between operations and turns raw latencies into
    latencies at reference speed."""

    def __init__(self, during_ops=True):
        self.times, self.values = [], []
        self._array = np.arange(256.0)
        self._last = -1e300
        self._during_ops = during_ops and hasattr(signal, "setitimer")
        self._in_op = 0.0

    def __enter__(self):
        if self._during_ops:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        if self._during_ops:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.sample()
        self._in_op += time.perf_counter() - t0

    def start_op(self):
        """Arm the timer for an operation about to start."""
        self._in_op = 0.0
        if self._during_ops:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def end_op(self):
        """Disarm the timer; returns the seconds sampling took inside the
        operation."""
        if self._during_ops:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return self._in_op

    def maybe_sample(self):
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def sample(self):
        """Best of a few kernel runs, so that an interrupt does not count."""
        clock = time.perf_counter
        best = 1e300
        start = clock()
        for _ in range(_REPEATS):
            t0 = clock()
            _kernel(self._array)
            best = min(best, clock() - t0)
        end = clock()
        self.times.append(0.5 * (start + end))
        self.values.append(best)
        self._last = end

    def slowdown(self, start, end):
        """Median kernel time over the reference time, within WINDOW_S of
        [start, end] (half the op's length for longer ops); the nearest
        sample's when none is that close."""
        window = max(WINDOW_S, 0.5 * (end - start))
        lo = bisect.bisect_left(self.times, start - window)
        hi = bisect.bisect_right(self.times, end + window)
        if lo < hi:
            local = statistics.median(self.values[lo:hi])
        else:
            i = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            local = self.values[i]
        return local / KERNEL_REF_S

    def normalize(self, starts, latencies):
        """Latencies (s) at reference speed."""
        return [t / self.slowdown(s, s + t) for s, t in zip(starts, latencies)]
