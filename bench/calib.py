"""Machine-speed calibration of the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed swings, in
spells of tens of seconds, by up to about 1.9x for the same work, whatever
the benchmark does; a 30-60 s run cannot average such spells out.  So each
phase of a run (the start-ups, the timed loop) also times two fixed kernels
that are the benchmark's own code, a pure-Python loop and a numpy
complex-vector expression (the two kinds of work the workloads do): about
every half second, between operations and outside their timing, in the
same process on the same core.  The phase's timings are then reported at
reference speed: divided by the machine's slowdown over the phase,

    slowdown = sqrt(median(py_ns) / PY_REF_NS * median(np_ns) / NP_REF_NS).

The reference times are constants (medians measured once on a 2-vCPU Xeon
VM), so a timing reads as wall time whenever the machine runs the kernels
at their reference speed, and a change to the program moves it exactly as
it moves wall time; only the host's speed is divided out.  One factor per
phase, from its median kernel times, keeps the kernels' own jitter (their
quartiles lie 15-40% apart) out of the figures.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

PY_REF_NS = 900_000
NP_REF_NS = 1_000_000
INTERVAL_NS = 500_000_000

_T = np.arange(8192) / 2.4e6
_BASE = np.exp(1j * math.pi * 1e9 * _T * _T)
_X = _BASE * np.exp(0.3j)


def _py_kernel() -> int:
    s = 0
    for i in range(12_000):
        s += i * i % 7
    return s


def _np_kernel() -> float:
    s = 0.0
    for d in range(3):
        s += float(np.sum(np.abs(_X - 0.5 * _BASE * np.exp(1j * (2 * math.pi * d * _T + 0.3))) ** 2))
    return s


class Calibration:
    """Kernel samples of one phase of a run."""

    def __init__(self) -> None:
        self.last_ns: int | None = None
        self.py_ns: list[int] = []
        self.np_ns: list[int] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter_ns()
            _py_kernel()
            t1 = time.perf_counter_ns()
            _np_kernel()
            t2 = time.perf_counter_ns()
            self.py_ns.append(t1 - t0)
            self.np_ns.append(t2 - t1)
            self.last_ns = t2

    def due(self) -> None:
        """One sample if none was taken in the last INTERVAL_NS."""
        if self.last_ns is None or time.perf_counter_ns() - self.last_ns >= INTERVAL_NS:
            self.sample()

    def slowdown(self) -> float:
        """The machine's slowdown over the phase against reference speed."""
        return math.sqrt(statistics.median(self.py_ns) / PY_REF_NS
                         * statistics.median(self.np_ns) / NP_REF_NS)
