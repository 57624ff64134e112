"""How fast the host's CPU runs, sampled while the program under test runs.

The benchmark runs on shared hosts.  There, the speed of one vCPU moves by
10-20% from one second to the next and by half over an hour, as other
tenants come and go; `cpu_s` moves with the wall time, so the process
runs slower, it does not wait.  A timing taken at one moment cannot be
compared with one taken at another.

`Speedometer` runs one thread per vCPU it is given, in the benchmark's own
process, each pinned to its vCPU.  Every `PERIOD_S` a thread runs `burst`,
a fixed piece of Python integer and Fraction arithmetic, and records the
CPU time the burst took.  For a serial workload the benchmark pins itself
and the program to one vCPU, so the bursts run on the same vCPU as the
program, interleaved with it, and slow down when it does.  The speed of
the two vCPUs of a host is only loosely correlated, so a workload that
uses both is corrected less well.  `scale` gives, for an interval,
`NOMINAL_BURST_S` over the mean burst cost in it: a timing times that
scale reads as if the host had run at its nominal speed throughout.  The
burst imports nothing from genjacobi, so a change to the program never
changes it.  The bursts take about 2% of each vCPU.
"""
from __future__ import annotations

import os
import threading
import time
from fractions import Fraction

PERIOD_S = 0.02
# CPU seconds one burst takes on a quiet 2-vCPU Xeon VM at 2.1 GHz
# (CPython 3.11): the speed scaled timings are reported at.
NOMINAL_BURST_S = 0.0004
MIN_BURSTS = 20     # an interval with fewer bursts is widened until it has them


def burst() -> int:
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(k % 53 + 1, k % 47 + 2) * Fraction(k % 11 + 1, 3)
    x = 3 ** 200
    for k in range(80):
        x = (x * (k + 7) + k) % (1 << 300)
    return total.numerator + x


class Speedometer:
    """Samples burst costs on each of `cpus` between start and stop."""

    def __init__(self, cpus):
        self.samples = []       # (perf_counter at the end, CPU seconds)
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,), daemon=True)
                         for cpu in sorted(cpus)]

    def _loop(self, cpu):
        os.sched_setaffinity(0, {cpu})      # pins this thread only
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            burst()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_BURST_S over the mean burst cost between t0 and t1.

        The interval is widened on both sides until it holds MIN_BURSTS
        bursts, so a short interval is judged by the bursts around it.
        """
        samples = list(self.samples)
        if len(samples) < MIN_BURSTS:
            raise RuntimeError("the speedometer has too few samples")
        pad = 0.0
        while True:
            costs = [c for t, c in samples if t0 - pad <= t <= t1 + pad]
            if len(costs) >= MIN_BURSTS:
                return NOMINAL_BURST_S * len(costs) / sum(costs)
            pad += PERIOD_S * MIN_BURSTS / 2
