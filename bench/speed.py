"""CPU speed sampler: scales measured wall times to a fixed reference speed.

On a shared VM the speed of the CPU the benchmark runs on changes by up to 1.7x
for seconds at a time (other tenants, frequency changes), and those phases do
not average out in a run of half a minute. The sampler runs a fixed probe from
a SIGALRM handler every PERIOD_S of wall time, in the same thread as the
workload, and records the probe's speed. A timed interval is then scaled by
the mean speed of the probes inside it:

    scaled = (wall - probe time inside it) * mean(PROBE_NOMINAL_S / probe_cpu_s)

so a scaled time is what the interval would have taken on a CPU that runs the
probe in PROBE_NOMINAL_S. The probe never calls into sdglab, so a change to the
program moves scaled times as it moves wall times.

How the probe is made, and what each choice fixed on the 2-core VM:
- It is a Python loop of small NumPy operations, the kind of work most of
  sdglab does. The time of exact-auto's instances moved with this probe's time
  to the power 1.0 (log-log fit over 60 s), against 1.4 for a pure-Python loop.
- It runs twice and the second run is timed: a probe that started on cold
  caches (the parent of a busy process pool waking from a wait) read about
  20 % slow, a warm one did not.
- It is timed in thread CPU time: in the parent of a busy process pool a third
  of the probes waited about 5 ms for the executor's result thread or a worker,
  which wall time would count as slowness.
- With a process pool (sweep-std) the parent pins its thread to each of its
  CPUs in turn for a probe, then gives it all of them back. Unpinned, the
  parent probed mostly one CPU while the workers ran on both, and its rounds'
  scaled rates spread as widely as their wall-time rates.

The handler runs between bytecodes of the main thread; a long native call
(a large NumPy operation) delays it to the call's end. Forked pool workers
inherit the handler but not the timer, so they are never interrupted.
"""
from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
MIN_WINDOW_S = 0.5  # a shorter interval takes its speed from this much time around it
PROBE_LOOPS = 60
PROBE_NOMINAL_S = 0.0006  # about the probe's time on the 2-core VM at its fast level
_N = 16
_MATRIX = np.arange(_N * _N, dtype=float).reshape(_N, _N) % 7.0
_IDX = np.arange(_N)


def _probe() -> None:
    """Relax one row over the vertices outside a mask, PROBE_LOOPS times."""
    for mask in range(PROBE_LOOPS):
        outside = np.where(((mask >> _IDX) & 1) == 0)[0]
        (_MATRIX[:, None, 0] + _MATRIX[:, outside]).min(axis=0)


class SpeedSampler:
    """Samples CPU speed while started; scales intervals of perf_counter time."""

    def __init__(self, spread_cpus: bool = False) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if spread_cpus else []
        self.times: list[float] = []  # perf_counter at each probe's start
        self.speeds: list[float] = []  # PROBE_NOMINAL_S / probe time
        self.probe_s: list[float] = []  # time in the handler, warm-up included

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[len(self.times) % len(self.cpus)]})  # this thread only
        try:
            _probe()  # warm-up
            cpu = time.thread_time()
            _probe()
            cpu = time.thread_time() - cpu
        finally:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, self.cpus)
        self.times.append(start)
        self.speeds.append(PROBE_NOMINAL_S / cpu)
        self.probe_s.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _scaled(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0 - PERIOD_S)  # a probe is far shorter than the period
        hi = bisect.bisect_right(self.times, t1)
        probes = sum(
            max(0.0, min(t1, start + took) - max(t0, start))
            for start, took in zip(self.times[lo:hi], self.probe_s[lo:hi])
        )
        return (t1 - t0 - probes) * self.speed(t0, t1)

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed of the probes that started in [t0, t1], widened about its
        middle to MIN_WINDOW_S; the probe nearest to the interval if none did;
        1.0 if there are no probes at all."""
        mid = (t0 + t1) / 2
        half = max(t1 - t0, MIN_WINDOW_S) / 2
        lo = bisect.bisect_left(self.times, mid - half)
        hi = bisect.bisect_right(self.times, mid + half)
        if hi > lo:
            return statistics.fmean(self.speeds[lo:hi])
        if not self.times:
            return 1.0
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)), key=lambda i: abs(self.times[i] - mid))
        return self.speeds[near]

    def scaled(self, intervals: list[tuple[float, float]]) -> float:
        """Sum of the intervals' wall times less the probes run inside them,
        each scaled to the reference speed."""
        return sum(self._scaled(t0, t1) for t0, t1 in intervals)
