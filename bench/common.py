"""Pieces shared by the workload modules."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Op:
    """One timed operation: a whole user query on generated inputs.

    ``size`` is the size class (``s1``, ``s2``, or ``base`` for fixed-size
    inputs); per-layer medians are split by it.  ``known_fault`` marks an
    operation that fails on every run because of a named program fault; its
    failure is counted but does not make the run incorrect.
    """

    kind: str
    size: str
    args: dict
    known_fault: bool = False


def rng_for(workload: str, seed: int) -> random.Random:
    """Independent, reproducible stream per (workload, seed)."""
    return random.Random(f"waveset-bench:{workload}:{seed}")


def grid_cuts(rng: random.Random, count: int, lo: Fraction, hi: Fraction, den: int) -> list[Fraction]:
    """``count`` distinct sorted points strictly inside (lo, hi) on the grid 1/den.

    Only numerators coprime to ``den`` are drawn, so every point has the
    reduced denominator ``den`` and the cost of exact arithmetic on the
    generated sets does not depend on the draw.
    """
    a = math.floor(lo * den) + 1
    b = math.ceil(hi * den)
    candidates = [n for n in range(a, b) if math.gcd(n, den) == 1]
    return [Fraction(n, den) for n in sorted(rng.sample(candidates, count))]

