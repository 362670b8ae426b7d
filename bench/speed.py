"""A fixed reference kernel that tracks how fast the machine is running right now.

On a shared host the speed of a core drifts by 20% and more over tens of
seconds, in phases that no median over one run averages out (bench/README.md
has the figures).  The benchmark therefore runs this kernel next to every
operation and reports times at a fixed machine speed:

    reported time = wall time * NOMINAL_MS / (median wall time of the kernel nearby)

The kernel is exact rational arithmetic in plain Python, the same kind of
work ``waveset`` does, and it does not touch ``waveset``, so a change to the
program cannot move it.  NOMINAL_MS is the kernel's median on the reference
machine (2 cores, Python 3.11), so reported figures read as wall times there.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_MS = 1.75


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


def sample_ms() -> float:
    """Wall time of one run of the kernel, in ms."""
    t = perf_counter()
    kernel()
    return 1000 * (perf_counter() - t)


def factor(samples_ms: list[float]) -> float:
    """Multiplier that converts wall times measured next to these samples to the nominal speed."""
    return NOMINAL_MS / statistics.median(samples_ms)
