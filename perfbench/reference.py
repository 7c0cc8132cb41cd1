"""A fixed reference computation that measures the speed of the core now.

On a shared host the speed of a core changes by up to 1.7x, as other
tenants come and go, and it switches within fractions of a second: a
reference timed between two operations of several seconds says nothing
about the speed the operations ran at. ``Probe`` therefore times one
reference call from a ``SIGALRM`` handler every ``interval`` seconds while
the operations run, and ``run.py`` reports each operation's time in units
of the mean reference call taken during that operation: a stretch that
slows both by the same factor leaves their ratio unchanged. The handler's
own time is taken out of the operation's time.

How much a slow stretch slows code depends on the code: pure-Python loops
slow by about 1.6x, numpy calls on small arrays by about 1.5x, and numpy
calls on arrays of thousands of elements by about 1.2x. The call mixes the
three in about the proportions in which the pipeline spends its time (split
scans over sorted columns, small dense layers, text formatting), so that
it slows about as much as the pipeline does.

The computation uses numpy only, never ``icsadv``: no change to the package
can change its cost. Changing it changes the unit of every normalised
metric, so it may change only in a change to the benchmark.
"""
from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

_rng = np.random.default_rng(20210)
_X = _rng.random((8000, 6))
_Y = (_rng.random(8000) > 0.5).astype(float)
_W1 = _rng.random((6, 32))
_W2 = _rng.random((32, 2))
_N = np.arange(1, 8001, dtype=float)


def _scan() -> float:
    """Gini-style split scans over sorted columns (large numpy arrays)."""
    acc = 0.0
    for f in range(6):
        order = np.argsort(_X[:, f], kind="stable")
        frac = np.cumsum(_Y[order]) / _N
        acc += float((frac * (1.0 - frac)).min())
    return acc


def _dense() -> float:
    """Forward passes of a small dense layer (small numpy arrays)."""
    acc = 0.0
    for i in range(0, 4800, 16):
        acc += float((np.tanh(_X[i:i + 16] @ _W1) @ _W2).sum())
    return acc


def _text() -> int:
    """Formatting and hashing rows of text (pure Python)."""
    seen: dict[str, int] = {}
    for i in range(2500):
        line = "%.6f,%d" % (i * 0.37, i)
        seen[line[:5]] = seen.get(line[:5], 0) + 1
    return len(seen)


def call() -> float:
    """One reference call: about 12 ms on an uncontended Xeon core, up to
    20 ms on a contended one."""
    return _scan() + _dense() + _scan() + _text()


class Probe:
    """While active, times one reference call every ``interval`` seconds of
    wall time. Samples are taken between Python bytecodes of the main
    thread, so a long C call delays the next one but never overlaps it."""

    def __init__(self, interval: float):
        self.interval = interval
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self._busy = False

    def _sample(self, _signum=None, _frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        c0, t0 = time.process_time(), time.perf_counter()
        call()
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(time.process_time() - c0)
        self._busy = False

    def __enter__(self) -> "Probe":
        for _ in range(3):  # warm-up
            call()
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def mark(self) -> int:
        return len(self.walls)

    def between(self, start: int, end: int) -> tuple[float, float, float, float]:
        """For the samples taken between two marks: their total wall and
        CPU time, and the mean wall and CPU time of one call. With no sample
        in between, the means come from the last sample before ``end``."""
        walls, cpus = self.walls[start:end], self.cpus[start:end]
        spent_wall, spent_cpu = sum(walls), sum(cpus)
        if not walls:
            walls, cpus = self.walls[end - 1:end], self.cpus[end - 1:end]
        return spent_wall, spent_cpu, sum(walls) / len(walls), sum(cpus) / len(cpus)
