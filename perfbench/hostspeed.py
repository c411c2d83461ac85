"""Host-speed probe: fixed work, timed between the benchmark's operations,
that every timed end-to-end metric is scaled by.

The benchmark gets a few cores of a shared host. The neighbours' load on the
shared caches, memory bus and sibling hyperthreads moves the speed of the
same code by 20-40% from one minute to the next, which moves a raw wall time
from run to run by more than any bound a regression check can use. The probe
runs the same four pieces of work every time, each about 0.4 ms on the
reference host: a 256x256 by 256x128 matrix product (BLAS), one pass
over two 4 MB arrays (memory), a pure-Python loop (the interpreter) and a row
of numpy calls on tiny arrays (per-call overhead). A probe's slowdown is the
mean, over the pieces a workload depends on, of their times over their times
on the reference host (``REFERENCE_S``), so each kind of contention counts
alike. The tiny-call piece swings most with the neighbours' load (by a factor
of up to 1.6 where the others move 1.2), and it follows only work made of
such calls: it is left out for a workload of large array operations, whose
times it would then over-correct.

An operation's time is scaled by the median slowdown of the ``NEAREST``
probes closest to it in time: a metric reads as the time the operation would
take on the reference host. In the timed part, probes run only between
operations, outside every timed interval. A set-up has no such gaps (its
longest calls run for seconds), so a timer signal probes every
``SAMPLE_EVERY_S`` while it runs, the time spent in those probes is taken off
the set-up's time, and the rest is scaled by the median slowdown of the
probes taken during it. The probe imports nothing from ``t2tbio``, so a
change to the program cannot change it.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.1  # at most one probe per this many seconds of timed work
NEAREST = 25  # an operation is scaled by the median of this many nearest probes
SAMPLE_EVERY_S = 0.25  # probe period while a set-up runs
BOUNDARY_PROBES = 3  # probes before and after each set-up repeat
PIECES = ("blas", "memory", "python", "calls")
# median time of each probe piece on the reference host at a quiet moment
# (2 vCPUs of an Intel Xeon, numpy 2.4 with scipy-openblas 0.3.31 on one thread)
REFERENCE_S = (0.00042, 0.00040, 0.00042, 0.00038)

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((256, 256))
_B = _rng.standard_normal((256, 128))
_M = _rng.standard_normal(2**19)
_N = _rng.standard_normal(2**19)
_S = _rng.standard_normal(64)


def probe_pieces() -> tuple[float, float, float, float]:
    """Seconds taken by each of the probe's four pieces."""
    clock = time.perf_counter
    t0 = clock()
    _A @ _B
    t1 = clock()
    np.add(_M, _N, out=_M)
    t2 = clock()
    x = 0
    for i in range(11000):
        x += i
    t3 = clock()
    for _ in range(200):
        (_S * 2.0).sum()
    t4 = clock()
    return t1 - t0, t2 - t1, t3 - t2, t4 - t3


class HostSpeed:
    """Probe samples of one run: when each was taken and its slowdown over
    the ``pieces`` the workload depends on."""

    def __init__(self, pieces: tuple[str, ...] = PIECES):
        self.use = [PIECES.index(p) for p in pieces]
        self.when: list[float] = []
        self.slowdown: list[float] = []
        self.spent = 0.0  # seconds spent probing

    def probe(self) -> None:
        t0 = time.perf_counter()
        pieces = probe_pieces()
        self.when.append(time.perf_counter())
        self.slowdown.append(float(np.mean([pieces[i] / REFERENCE_S[i] for i in self.use])))
        self.spent += time.perf_counter() - t0

    def maybe_probe(self) -> None:
        """Probe if ``PERIOD_S`` has passed since the last probe."""
        if not self.when or time.perf_counter() - self.when[-1] >= PERIOD_S:
            self.probe()

    def slowdown_at(self, t: float) -> float:
        """Median slowdown of the ``NEAREST`` probes closest to time ``t``."""
        when = np.asarray(self.when)
        nearest = np.argsort(np.abs(when - t), kind="stable")[:NEAREST]
        return float(np.median(np.asarray(self.slowdown)[nearest]))

    def scaled(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Durations of ``(start, end)`` intervals at the reference host's speed."""
        return [(b - a) / self.slowdown_at((a + b) / 2) for a, b in intervals]

    def median(self) -> float:
        return float(np.median(self.slowdown))

    def timed_setup(self, build):
        """Run ``build()``; returns (its result, its wall seconds with probe
        time taken off, those seconds at the reference host's speed)."""
        first = len(self.slowdown)
        for _ in range(BOUNDARY_PROBES):
            self.probe()
        t0, spent0 = time.perf_counter(), self.spent
        with self._sampling():
            result = build()
        t1 = time.perf_counter()
        wall = t1 - t0 - (self.spent - spent0)
        for _ in range(BOUNDARY_PROBES):
            self.probe()
        return result, wall, wall / float(np.median(self.slowdown[first:]))

    @contextmanager
    def _sampling(self):
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
