"""Machine-speed probe: a fixed pure-Python kernel timed throughout a run.

The benchmark machine is shared: for tens of seconds at a time other
tenants can slow this process by a quarter or more, and the slowdown hits
set-up, requests and this kernel alike.  Timing the kernel at regular
intervals during a run and scaling the run's times by ``REFERENCE_S / mean
kernel time`` cancels most of that, so runs made minutes apart compare.
The kernel never calls weilad, so a change to weilad cannot move it.

It mixes what weilad spends its time on: a convolution through a dict of
index pairs, exact Fraction arithmetic, small frozen dataclasses and tuple
keys, and an itertools product.
"""

from __future__ import annotations

import gc
import itertools
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# A round value near the kernel's mean time on a 2-vCPU Xeon with CPython
# 3.11, so reported times stay close to wall times there.
REFERENCE_S = 0.005

_TABLE = {(i, j): ((i + j, 1),) if i + j < 20 else () for i in range(20) for j in range(20)}


@dataclass(frozen=True)
class _Cell:
    key: tuple
    value: float


def kernel():
    """About 5 ms of CPython work: float arithmetic through a dict of index
    pairs, exact Fraction arithmetic, and small frozen objects under tuple
    keys."""
    a = tuple(0.5 + i * 1e-3 for i in range(20))
    b = tuple(1.5 - i * 1e-3 for i in range(20))
    acc = Fraction(0)
    cells = {}
    for rep in range(18):
        out = [0.0] * 20
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                for k, c in _TABLE[(i, j)]:
                    out[k] = out[k] + c * (x * y)
        for n in range(1, 25):
            acc = acc + Fraction(n, n + 1) * Fraction(rep + 1, 3)
        for key in itertools.product(range(4), repeat=3):
            cells[key] = _Cell(key, out[sum(key)])
    return acc, cells


class SpeedProbe:
    """Samples the kernel at most once per ``interval`` seconds."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples = []
        self._last = float("-inf")

    def sample(self) -> None:
        # The collector's cost grows with the heap the workload keeps, so it
        # is paused: the kernel measures the machine, not this process.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= self.interval:
            self.sample()

    def factor(self) -> float:
        """Multiply a measured time by this to express it at reference speed."""
        return REFERENCE_S / statistics.mean(self.samples)
