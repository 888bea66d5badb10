"""Machine-speed reference for the reported times.

The machine the benchmark was built on is a 2-core virtual machine whose
speed drifts by 30-90 % over minutes.  A ten-seed set of runs therefore
spread by up to 0.4 (interquartile range over median) in raw wall time.  Each
run therefore also times a fixed kernel around every operation.  The kernel
lives in the benchmark and never calls the library.  Each operation's time is
scaled to a machine on which the kernel takes its reference time, using the
mean of the kernel runs just before and just after it:

    reported = raw * reference / kernel time

In-process workloads use :func:`kernel`, which mixes exact rational
polynomial algebra with float polynomial sampling, like the library's own
work.  The ``cli`` workload's operations are child processes, whose cost is
mostly interpreter start, dynamic loading and module import: an in-process
kernel does not follow their drift (scaled by it, ten-seed sets of ``cli``
runs still spread by 0.2-0.27).  It uses :func:`child_kernel` instead, a
fresh interpreter that imports numpy and the stdlib modules the CLI uses and
does a little rational arithmetic, without importing the library.

A change to the library moves the raw times but not the kernel, so it still
shows in full.  Raw values are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction as F

import gate
import workloads

REFERENCE_S = 0.007
CHILD_REFERENCE_S = 0.15
CHILD_KERNEL = (
    "import argparse, csv, json, numpy\n"
    "from fractions import Fraction as F\n"
    "sum(F(1, i) for i in range(1, 400))\n"
)


def kernel() -> None:
    a = [F(3 * i + 1, 7 * i + 5) for i in range(24)]
    b = [F(i + 2, 3 * i + 1) for i in range(24)]
    p = gate.p_mul(a, b)
    gate.p_eval(gate.p_deriv(p, 3), F(3, 7))
    gate.p_integral(p, F(1, 3), F(2, 3))
    coeffs = [float(c) for c in p]
    best = float("inf")
    for i in range(1, 1500):
        x = i / 1500
        v = 0.0
        for c in reversed(coeffs):
            v = v * x + c
        best = min(best, v)


def child_kernel() -> None:
    proc = workloads.run_child(["-c", CHILD_KERNEL])
    if proc.returncode != 0:
        raise RuntimeError(f"speed kernel child failed: {proc.stderr.strip()}")


class Speed:
    """Kernel timings, one before the first operation and one after each."""

    def __init__(self, run=kernel, reference_s=REFERENCE_S):
        self.run, self.reference_s = run, reference_s
        self.samples: list[float] = []

    @classmethod
    def for_workload(cls, workload: str) -> "Speed":
        if workload == "cli":
            return cls(child_kernel, CHILD_REFERENCE_S)
        return cls()

    def sample(self) -> float:
        t0 = time.perf_counter()
        self.run()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def scale(self, seconds: float, kernel_s: float) -> float:
        """``seconds`` at the reference speed, given the kernel time around them."""
        return seconds * self.reference_s / kernel_s

    @property
    def factor(self) -> float:
        """Median kernel time over its reference; > 1 means a slow machine."""
        return statistics.median(self.samples) / self.reference_s
