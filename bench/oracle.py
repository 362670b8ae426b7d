"""Brute-force reference computations for the benchmark's answer checks.

Everything here works on plain lists of ``(lo, hi)`` or ``(lo, hi, value)``
tuples of Fractions, with loops and comparisons only.  None of it calls
``waveset``, so agreement between these routines and the program's answers is
evidence, not a tautology.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction

Pair = tuple[Fraction, Fraction]
Piece = tuple[Fraction, Fraction, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)
PRIME_DEN = 10007  # a prime foreign to every endpoint the workloads generate


def pow2(j: int) -> Fraction:
    return Fraction(2) ** j


class Parts:
    """Membership in a finite union of half-open intervals (any order, may overlap)."""

    def __init__(self, parts):
        self.parts = sorted((Fraction(lo), Fraction(hi)) for lo, hi in parts)
        self.los = [lo for lo, _ in self.parts]
        self.max_hi = []
        best = None
        for _, hi in self.parts:
            best = hi if best is None or hi > best else best
            self.max_hi.append(best)

    def __contains__(self, x: Fraction) -> bool:
        idx = bisect_right(self.los, x) - 1
        while idx >= 0 and self.max_hi[idx] > x:
            lo, hi = self.parts[idx]
            if lo <= x < hi:
                return True
            idx -= 1
        return False

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.parts), ZERO)

    def endpoints(self):
        for lo, hi in self.parts:
            yield lo
            yield hi


def disjoint_sorted(parts: list[Pair]) -> bool:
    return all(lo < hi for lo, hi in parts) and all(
        a[1] < b[0] for a, b in zip(parts, parts[1:])
    )


def measure_outside(a_pairs: list[Pair], b_pairs: list[Pair]) -> Fraction:
    """|A \\ B| for sorted disjoint pair lists, by a two-pointer walk."""
    total = ZERO
    j = 0
    for lo, hi in a_pairs:
        cur = lo
        while j < len(b_pairs) and b_pairs[j][1] <= cur:
            j += 1
        jj = j
        while cur < hi:
            if jj >= len(b_pairs) or b_pairs[jj][0] >= hi:
                total += hi - cur
                break
            blo, bhi = b_pairs[jj]
            if blo > cur:
                total += blo - cur
            cur = max(cur, bhi)
            jj += 1
    return total


def midpoints(cuts, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Midpoints of the cells into which ``cuts`` split [lo, hi)."""
    pts = sorted({lo, hi} | {c for c in cuts if lo < c < hi})
    return [(a + b) / 2 for a, b in zip(pts, pts[1:])]


def value_at(pieces: list[Piece], x: Fraction) -> Fraction:
    for lo, hi, v in pieces:
        if lo <= x < hi:
            return v
    return ZERO


def translation_multiplicity_at(s: Parts, xi: Fraction) -> int:
    lo = s.parts[0][0]
    hi = max(h for _, h in s.parts)
    return sum(
        1 for k in range(math.floor(lo - xi) - 1, math.ceil(hi - xi) + 2) if xi + k in s
    )


def translation_cells(s: Parts) -> list[Fraction]:
    """Midpoints of [0, 1) cut at every folded endpoint: the multiplicity is constant on each cell."""
    return midpoints((e - math.floor(e) for e in s.endpoints()), ZERO, ONE)


def dilation_multiplicity_at(s: Parts, xi: Fraction) -> int:
    """Number of j with 2^j xi in S, for S bounded away from 0."""
    d_min = min(lo if lo > 0 else -hi for lo, hi in s.parts)
    d_max = max(hi if lo > 0 else -lo for lo, hi in s.parts)
    j_lo = math.floor(math.log2(d_min / abs(xi))) - 2
    j_hi = math.ceil(math.log2(d_max / abs(xi))) + 2
    return sum(1 for j in range(j_lo, j_hi + 1) if xi * pow2(j) in s)


def octave_cells(s: Parts) -> list[Fraction]:
    """Midpoints of the cells of [1, 2) u [-2, -1) on which the dilation multiplicity is constant."""
    out = []
    for sign in (1, -1):
        cuts = []
        for e in s.endpoints():
            e = sign * e
            if e > 0:
                j = math.floor(math.log2(e))
                while pow2(j) > e:
                    j -= 1
                while pow2(j + 1) <= e:
                    j += 1
                cuts.append(e / pow2(j))
        out += [sign * m for m in midpoints(cuts, ONE, Fraction(2))]
    return out


def sample(rng: random.Random, n: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Random rationals strictly inside (lo, hi) with the prime denominator PRIME_DEN."""
    a = math.floor(lo * PRIME_DEN) + 1
    b = math.ceil(hi * PRIME_DEN) - 1
    return [Fraction(rng.randint(a, b), PRIME_DEN) for _ in range(n)]


def calderon_sum_at(pieces: list[Piece], xi: Fraction, depth: int = 64) -> Fraction:
    return sum((value_at(pieces, xi * pow2(j)) for j in range(-depth, depth + 1)), ZERO)


def dim_sum_at(pieces: list[Piece], xi: Fraction, j_max: int) -> Fraction:
    """sum over 1 <= j <= j_max and k in Z of h(2^j (xi + k))."""
    reach = max(max(abs(lo), abs(hi)) for lo, hi, _ in pieces)
    total = ZERO
    for j in range(1, j_max + 1):
        radius = reach / pow2(j)
        for k in range(math.floor(-xi - radius) - 1, math.ceil(-xi + radius) + 2):
            total += value_at(pieces, pow2(j) * (xi + k))
    return total


def tq_sum_at(pieces: list[Piece], alpha: int, xi: Fraction, m_max: int) -> Fraction:
    return sum(
        (value_at(pieces, pow2(m) * xi) * value_at(pieces, pow2(m) * (xi + alpha))
         for m in range(m_max + 1)),
        ZERO,
    )


def lattice_box_count(a_rows, p_rows, j: int) -> int:
    """Integer points z with |A^-j P z| <= 1, by scanning a box that provably holds them all.

    Works in integers: M = A^-j P is written as N / D with an integer matrix N,
    and the test |N z|^2 <= D^2 is exact.
    """
    def mul(x, y):
        return tuple(
            tuple(sum(x[r][k] * y[k][c] for k in range(2)) for c in range(2)) for r in range(2)
        )

    def inv(x):
        det = x[0][0] * x[1][1] - x[0][1] * x[1][0]
        return ((x[1][1] / det, -x[0][1] / det), (-x[1][0] / det, x[0][0] / det))

    eye = ((ONE, ZERO), (ZERO, ONE))
    a = tuple(tuple(Fraction(v) for v in row) for row in a_rows)
    p = tuple(tuple(Fraction(v) for v in row) for row in p_rows)
    a_inv = inv(a)
    m, m_inv = eye, eye  # m = A^-j P, m_inv = P^-1 A^j
    for _ in range(j):
        m = mul(a_inv, m)
        m_inv = mul(m_inv, a)
    m = mul(m, p)
    m_inv = mul(inv(p), m_inv)
    # z = m_inv w with |w| <= 1, so |z_r| <= |m_inv[r][0]| + |m_inv[r][1]|.
    b1 = math.floor(abs(m_inv[0][0]) + abs(m_inv[0][1]))
    b2 = math.floor(abs(m_inv[1][0]) + abs(m_inv[1][1]))
    den = math.lcm(*(v.denominator for row in m for v in row))
    n = [[int(v * den) for v in row] for row in m]
    d2 = den * den
    count = 0
    for z1 in range(-b1, b1 + 1):
        u0, v0 = n[0][0] * z1, n[1][0] * z1
        for z2 in range(-b2, b2 + 1):
            u = u0 + n[0][1] * z2
            v = v0 + n[1][1] * z2
            if u * u + v * v <= d2:
                count += 1
    return count
