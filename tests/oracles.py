"""Independent brute-force oracles for the exact machinery.

Everything here works on raw endpoint pairs with plain loops and
comparisons, deliberately avoiding the canonical set algebra and the
summation shortcuts of the library, so agreement is meaningful.  The
exceptions are ``truncated_level_by_periodization``, the construction's level
loop in its original form, built on ``periodize_window`` (itself pinned by
hand-checked examples in ``test_torus.py``), ``d4_probe``, the D4 probe
in its original form, on the interval-set algebra, and the planar reference
route (``fraction_wavelet_set_exists``, ``fraction_lattice_form``): both
planar decisions in their original form, on ``Fraction`` matrices and
``QuadScalar`` arithmetic, with signs taken by rational comparisons, and the
first grid scans (``atom_transversal``, ``clipped_translate_levels``,
``change_point_ratio_clash``): the transversal, the overlap sets R_j and the
(F1) ratio test as integer scans on the library's grids, and
``window_by_direct_sweep``, the dimension-function window swept at exactly
the depth asked, with no cut or extension.  ``small_world_sets``
enumerates a complete small world of candidate wavelet sets with plain loops.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from waveset.errors import InputError, PreconditionError
from waveset.intervals import iset, normalize
from waveset.msf2d import ExistenceResult, Mat2, QuadScalar
from waveset.spectral import StepFn, _step_grid, dimension_function
from waveset.torus import DimFnWindow, _grid_sweep, periodize_window

Pair = tuple[Fraction, Fraction]


def contains(parts: list[Pair], x: Fraction) -> bool:
    return any(lo <= x < hi for lo, hi in parts)


def value_at(pieces: list[tuple[Fraction, Fraction, Fraction]], x: Fraction) -> Fraction:
    for lo, hi, v in pieces:
        if lo <= x < hi:
            return v
    return Fraction(0)


def pow2(j: int) -> Fraction:
    return Fraction(2) ** j


def floor_log2(x: Fraction) -> int:
    j = 0
    while pow2(j + 1) <= x:
        j += 1
    while pow2(j) > x:
        j -= 1
    return j


def smallest_shift_at(parts: list[Pair], xi: Fraction, prefer_window: bool) -> int | None:
    """The shift k of the representative xi + k a transversal of the set keeps.

    The smallest k with xi + k in the set, scanned over the set's span; with
    ``prefer_window`` the shift into [-1/2, 1/2) wins when that point is in
    the set.  None when no translate of xi is in the set.
    """
    if prefer_window:
        window_k = 0 if xi < Fraction(1, 2) else -1
        if contains(parts, xi + window_k):
            return window_k
    lo_min = min(lo for lo, _ in parts)
    hi_max = max(hi for _, hi in parts)
    for k in range(math.floor(lo_min - xi) - 1, math.ceil(hi_max - xi) + 2):
        if contains(parts, xi + k):
            return k
    return None


def translation_multiplicity_at(parts: list[Pair], xi: Fraction) -> int:
    lo_min = min(lo for lo, _ in parts)
    hi_max = max(hi for _, hi in parts)
    count = 0
    for k in range(math.floor(lo_min - xi) - 1, math.ceil(hi_max - xi) + 2):
        if contains(parts, xi + k):
            count += 1
    return count


def dilation_multiplicity_at(parts: list[Pair], xi: Fraction) -> int:
    """Counts j with 2^j xi inside the set; set must be bounded away from 0."""
    assert xi != 0
    d_min = min(lo if lo > 0 else -hi for lo, hi in parts)
    d_max = max(hi if lo > 0 else -lo for lo, hi in parts)
    assert d_min > 0
    j_lo = floor_log2(d_min / abs(xi)) - 2
    j_hi = floor_log2(d_max / abs(xi)) + 2
    count = 0
    for j in range(j_lo, j_hi + 1):
        if contains(parts, xi * pow2(j)):
            count += 1
    return count


def calderon_sum_at(pieces, xi: Fraction, depth: int = 64) -> Fraction:
    total = Fraction(0)
    for j in range(-depth, depth + 1):
        total += value_at(pieces, xi * pow2(j))
    return total


def dim_sum_at(pieces, xi: Fraction, j_max: int = 64) -> Fraction:
    reach = max(max(abs(lo), abs(hi)) for lo, hi, _ in pieces)
    total = Fraction(0)
    for j in range(1, j_max + 1):
        radius = reach * pow2(-j)
        for k in range(math.floor(-xi - radius) - 1, math.ceil(-xi + radius) + 2):
            total += value_at(pieces, pow2(j) * (xi + k))
    return total


def window_by_direct_sweep(h: StepFn, depth_L: int) -> DimFnWindow:
    """The depth-L dimension-function window of h from one periodic sweep at exactly that depth:
    levels 1 to L + log2(reach) of the grid of a copy of h, so nothing h holds is read, cut
    or extended.  Its source is h, as ``dimension_function`` sets it."""
    d, vden, pieces = _step_grid(StepFn.build(h.pieces))
    reach = max((max(-lo, hi) for lo, hi, _ in pieces), default=d)
    window = Fraction(1, 2**depth_L), 1 - Fraction(1, 2**depth_L)
    levels = range(1, depth_L + floor_log2(Fraction(reach, d)) + 1)
    grid, = _grid_sweep(d, vden, pieces, levels, True, [window], depth_L)
    return DimFnWindow._from_grid(grid, depth_L, bool(pieces), h)


def tail_depth_by_loops(pieces, skip=None):
    """(L*, the (b, j, k) that gives eps) with plain loops over every k, or (None, None) when the
    support reaches 0: delta the distance from 0 to the support, eps the least
    |b - 2^j k| / 2^j over the breaks b, the j >= 1 with 2^(j-1) <= R and the k != 0 with
    b != 2^j k, and L* the least L >= 2 with 2^-L <= min(delta, eps) / 2.  The triple ``skip``
    is left out of eps."""
    if not pieces or any(lo <= 0 <= hi for lo, hi, _ in pieces):
        return None, None
    delta = min(min(abs(lo), abs(hi)) for lo, hi, _ in pieces)
    reach = max(max(abs(lo), abs(hi)) for lo, hi, _ in pieces)
    breaks = sorted({x for lo, hi, _ in pieces for x in (lo, hi)})
    eps, pair, j = None, None, 1
    while pow2(j - 1) <= reach:
        for b in breaks:
            for k in range(math.floor(-reach / pow2(j)) - 1, math.ceil(reach / pow2(j)) + 2):
                gap = abs(b - pow2(j) * k) / pow2(j)
                if k and gap and (b, j, k) != skip and (eps is None or gap < eps):
                    eps, pair = gap, (b, j, k)
        j += 1
    least = delta if eps is None else min(delta, eps)
    depth = 2
    while pow2(-depth) > least / 2:
        depth += 1
    return depth, pair


def tq_sum_at(pieces, alpha: int, xi: Fraction, m_max: int = 64) -> Fraction:
    total = Fraction(0)
    for m in range(m_max + 1):
        total += value_at(pieces, pow2(m) * xi) * value_at(pieces, pow2(m) * (xi + alpha))
    return total


def d3_probe(breaks, values, depth_L: int):
    """(status, witness pair or None, note) of the D3 residue-class probe.

    Reads the depth-(L + 2) window as plain lists.  An atom [a, b) with value
    >= 1 is ruled out once, at some level l <= min(L, 8), every residue r in
    [0, 2^l) whose class mod 2^(l-1) survived has its image
    [(a + r) / 2^l, (b + r) / 2^l) covered by zero pieces, found by walking
    from piece to piece.
    """
    zeros = [(a, b) for a, b, v in zip(breaks, breaks[1:], values) if v == 0]
    if not zeros:
        return "no_violation", None, f"no certified zeros in the window at depth {depth_L}"

    def covered(lo, hi):
        x = lo
        while x < hi:
            nxt = [b for a, b in zeros if a <= x < b]
            if not nxt:
                return False
            x = nxt[0]
        return True

    class_depth = min(depth_L, 8)
    for a, b, v in zip(breaks, breaks[1:], values):
        if v < 1:
            continue
        alive = {0}
        for level in range(1, class_depth + 1):
            alive = {r for r in range(2**level) if r % 2 ** (level - 1) in alive
                     and not covered((a + r) / 2**level, (b + r) / 2**level)}
            if not alive:
                return "fail", (a, b), (f"covering sum is 0 while the value is {v} (all residue "
                                        f"classes ruled out at class depth {level})")
    return "no_violation", None, f"no violation found at class depth {class_depth}"


def d4_probe(dim, depth_L: int):
    """(status, witness pair or None, note) of the D4 contraction probe as an interval-set chain.

    The probe in its original form: a full window of depth 2L + 2 (the given
    one when it is that deep, else one swept afresh from a copy of the source), its
    zero set as fraction intervals, and the depth-L window intersected with
    each dilate 2^j Z of that set, ceil(L/2) <= j <= L.
    """
    L = depth_L
    if dim.depth_L >= 2 * L + 2:
        deep = dim
    elif dim.source is None:
        return "skipped", None, "no source spectrum attached; deep window unavailable"
    else:
        deep = dimension_function(StepFn.build(dim.source.pieces), 2 * L + 2)  # a fresh sweep
    zeros = normalize((a, b) for a, b, v in zip(deep.breaks, deep.breaks[1:], deep.values) if v == 0)
    t = iset((pow2(-L), 1 - pow2(-L)))
    j_lo = (L + 1) // 2
    for j in range(j_lo, L + 1):
        t = t.intersect(zeros.scale(pow2(j)))
    if t.is_empty:
        return "no_violation", None, f"no violation found at depth {L}"
    return ("fail", (t.parts[0].lo, t.parts[0].hi),
            f"function vanishes at contractions 2^-j x for all {j_lo} <= j <= {L}")


def d2_probe(breaks, values, depth_L: int):
    """(status, witness pair or None, note) of the doubling identity
    D(x) + D(x + 1/2) = D(2x) + 1 on [2^-L, 1/2 - 2^-L).

    Reads the depth-(L + 2) window as plain lists.  All three sides are
    constant between the cuts at the window's breaks, their shifts by -1/2
    and their halves, so one point per cell decides it; each value is found
    by a linear scan.
    """
    half = Fraction(1, 2)
    a0, b0 = pow2(-depth_L), half - pow2(-depth_L)
    pieces = list(zip(breaks, breaks[1:], values))
    cuts = sorted({a0, b0} | {c for x in breaks for c in (x, x - half, x / 2) if a0 < c < b0})
    for a, b in zip(cuts, cuts[1:]):
        lhs = value_at(pieces, a) + value_at(pieces, a + half)
        rhs = value_at(pieces, 2 * a) + 1
        if lhs != rhs:
            return "fail", (a, b), f"{lhs} != {rhs}"
    return "pass", None, f"identity checked exactly on [{a0}, {b0})"


def fraction_tq_sum(pieces, alpha: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Nonzero atoms (a, b, value) of t_a(x) = sum(psi(2^m x) psi(2^m (x + a)), m >= 0).

    psi is given as sorted, disjoint (lo, hi, value) pieces bounded away
    from 0, with reach R.  Term m is nonzero only while 2^m |a| <= 2R; its
    cells are those of psi and of psi shifted by -2^m a, divided by 2^m.
    All terms' cells are cut together, each atom summed by a linear scan,
    and equal neighbours merged before the zero atoms are dropped.
    """
    big = max((max(abs(lo), abs(hi)) for lo, hi, _ in pieces), default=Fraction(0))
    fragments = []
    m = 0
    while pow2(m) * abs(alpha) <= 2 * big:
        t = pow2(m) * alpha
        cuts = sorted({x for lo, hi, _ in pieces for x in (lo, hi, lo - t, hi - t)})
        for a, b in zip(cuts, cuts[1:]):
            v = value_at(pieces, a) * value_at(pieces, a + t)
            if v:
                fragments.append((a / pow2(m), b / pow2(m), v))
        m += 1
    cuts = sorted({x for a, b, _ in fragments for x in (a, b)})
    atoms: list[tuple[Fraction, Fraction, Fraction]] = []
    for a, b in zip(cuts, cuts[1:]):
        level = sum((w for fa, fb, w in fragments if fa <= a and b <= fb), Fraction(0))
        if atoms and atoms[-1][2] == level:
            atoms[-1] = (atoms[-1][0], b, level)
        else:
            atoms.append((a, b, level))
    return [(a, b, v) for a, b, v in atoms if v]


def orbit_limit_is_one(parts: list[Pair], xi: Fraction, depth: int = 64) -> bool:
    """Whether the indicator along the contraction orbit of xi settles at 1."""
    return all(contains(parts, xi * pow2(-j)) for j in range(depth - 8, depth + 1))


def sample_fractions(rng: random.Random, n: int, lo: Fraction, hi: Fraction,
                     denominator: int = 9973) -> list[Fraction]:
    """Random rationals in (lo, hi) with a fixed prime denominator.

    A prime denominator foreign to the endpoints under test means samples can
    never collide with breakpoints of the sets, their integer translates, or
    their dyadic dilates.
    """
    lo_n = math.floor(lo * denominator) + 1
    hi_n = math.ceil(hi * denominator) - 1
    return [Fraction(rng.randint(lo_n, hi_n), denominator) for _ in range(n)]


def brute_lattice_count(rows, j: int, p_rows=((1, 0), (0, 1))) -> int:
    """Count of integer z with |A^-j P z| <= 1 by scanning a generous box.

    P (rows ``p_rows``) is the lattice basis, the identity by default.
    """
    a, b = rows[0]
    c, d = rows[1]
    det = a * d - b * c
    assert det != 0
    inv = ((d / det, -b / det), (-c / det, a / det))
    p = tuple(tuple(Fraction(v) for v in row) for row in p_rows)
    p_det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
    assert p_det != 0
    p_inv = ((p[1][1] / p_det, -p[0][1] / p_det), (-p[1][0] / p_det, p[0][0] / p_det))

    def apply(m, x, y):
        return m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y

    def mul(x, y):
        return tuple(
            tuple(x[r][0] * y[0][col] + x[r][1] * y[1][col] for col in range(2))
            for r in range(2)
        )

    def matpow(m, k):
        out = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        for _ in range(abs(k)):
            out = mul(out, m)
        return out

    # z = P^-1 A^j w with |w| <= 1: the row sums of P^-1 A^j give a crude box radius.
    m = mul(p_inv, matpow(rows if j >= 0 else inv, abs(j)))
    bound = math.ceil(max(
        abs(m[0][0]) + abs(m[0][1]),
        abs(m[1][0]) + abs(m[1][1]),
    )) + 1
    minv = mul(matpow(inv if j >= 0 else rows, abs(j)), p)
    count = 0
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            u, v = apply(minv, Fraction(x), Fraction(y))
            if u * u + v * v <= 1:
                count += 1
    return count


def gauss_circle_count(j: int) -> int:
    """Integer points in the disc of radius 2^j: one column of height 2*isqrt(4^j - x^2) + 1 per x."""
    r = 2**j
    return sum(2 * math.isqrt(r * r - x * x) + 1 for x in range(-r, r + 1))


def trial_division_square_free(d: int) -> bool:
    """d >= 2 with no square factor, by trying every i with i^2 <= d."""
    if d < 2:
        return False
    i = 2
    while i * i <= d:
        if d % (i * i) == 0:
            return False
        i += 1
    return True


def truncated_level_by_periodization(k, n: int, depth_j: int):
    """Level E_n of the construction by periodizing every scale afresh.

    K_n = 2^-n K minus, for each j in n+1..n+depth_j, the translates of
    K_j = 2^-j K clipped to [-m, m) minus K_j, where the half-width m is
    one more than the largest endpoint of K_n in absolute value.
    """
    base = k.scale(pow2(-n))
    span = base.span()
    if span is None:
        return base
    m = max(1, math.ceil(max(abs(span.lo), abs(span.hi))) + 1)
    acc = base
    for j in range(n + 1, n + depth_j + 1):
        kj = k.scale(pow2(-j))
        acc = acc.subtract(periodize_window(kj, m).subtract(kj))
        if acc.is_empty:
            break
    return acc


# ------------------------------------------------- the unit fold on fractions
#
# Plain-loop references for the integer-grid fold, transversal, S1 and
# scaling-spectrum checks: every endpoint stays a Fraction, atoms are found
# by linear scans, and nothing of ``waveset.torus`` is used.


def fraction_unit_fragments(pieces):
    """(a, b, weight, shift) per weighted (lo, hi, v), with 0 <= a < b <= 1.

    The residues of [lo, hi) in [0, 1) and the least shift k with residue + k
    inside [lo, hi); the whole periods become one [0, 1) fragment weighted
    by their number (so it stands for the shifts k, ..., k + number - 1).
    """
    for lo, hi, val in pieces:
        k_lo, k_hi = math.floor(lo), math.floor(hi)
        a, b = lo - k_lo, hi - k_hi
        if k_lo == k_hi:
            yield a, b, val, k_lo
            continue
        if a > 0:
            yield a, Fraction(1), val, k_lo
            k_lo += 1
        if k_hi > k_lo:
            yield Fraction(0), Fraction(1), (k_hi - k_lo) * val, k_lo
        if b > 0:
            yield Fraction(0), b, val, k_hi


def fraction_fold(pieces) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Atoms (a, b, value) of sum(f(x + k), k in Z) on [0, 1), equal neighbours merged."""
    frags = list(fraction_unit_fragments(pieces))
    cuts = sorted({Fraction(0), Fraction(1)} | {x for a, b, _, _ in frags for x in (a, b)})
    atoms: list[tuple[Fraction, Fraction, Fraction]] = []
    for a, b in zip(cuts, cuts[1:]):
        level = sum((w for fa, fb, w, _ in frags if fa <= a and b <= fb), Fraction(0))
        if atoms and atoms[-1][2] == level:
            atoms[-1] = (atoms[-1][0], b, level)
        else:
            atoms.append((a, b, level))
    return atoms


def brute_sweep(fragments, lo, hi) -> list[tuple]:
    """Atoms (a, b, total) of the weighted half-open fragments on [lo, hi): each cell between
    consecutive cuts sums every fragment covering it, then equal neighbours merge."""
    cuts = sorted({lo, hi} | {x for fa, fb, _ in fragments for x in (fa, fb) if lo < x < hi})
    atoms: list[tuple] = []
    for a, b in zip(cuts, cuts[1:]):
        total = sum(w for fa, fb, w in fragments if fa <= a and b <= fb)
        if atoms and atoms[-1][2] == total:
            atoms[-1] = (atoms[-1][0], b, total)
        else:
            atoms.append((a, b, total))
    return atoms


def merge_pairs(pairs: list[Pair]) -> list[Pair]:
    out: list[Pair] = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return out


def intersect_pairs(a: list[Pair], b: list[Pair]) -> list[Pair]:
    """The intersection of two sorted, separated pair lists by a two-pointer walk (the set
    algebra's first ``intersect``), merged by ``merge_pairs``."""
    out: list[Pair] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return merge_pairs(out)


def merge_steps(pieces) -> list[tuple]:
    """Sorted, disjoint (lo, hi, value) pieces in canonical form: zero values dropped first,
    then each piece joined to the last kept one when they touch with equal values."""
    out: list[tuple] = []
    for lo, hi, v in [p for p in pieces if p[2] != 0]:
        if out and out[-1][1] == lo and out[-1][2] == v:
            out[-1] = (out[-1][0], hi, v)
        else:
            out.append((lo, hi, v))
    return out


def first_difference(a: list[Pair], b: list[Pair]) -> Pair | None:
    """The first maximal piece of the sorted, separated pairs a outside those of b."""
    for lo, hi in a:
        cur = lo
        for blo, bhi in b:
            if bhi <= cur or blo >= hi:
                continue
            if blo > cur:
                return cur, blo
            cur = bhi
            if cur >= hi:
                break
        if cur < hi:
            return cur, hi
    return None


def fraction_transversal(parts: list[Pair], prefer_window: bool):
    """(kept pairs, None), or (None, missed residues) when S' does not cover.

    [0, 1) is cut at the residues of every endpoint (and at 1/2 with
    ``prefer_window``); each atom keeps its least shift into the set, or
    the shift into [-1/2, 1/2) when the set holds that copy.  The missed
    residues are the first maximal run of atoms no translate covers.
    """
    frags = list(fraction_unit_fragments((lo, hi, 1) for lo, hi in parts))
    cuts = {Fraction(0), Fraction(1)} | {x for a, b, _, _ in frags for x in (a, b)}
    if prefer_window:
        cuts.add(Fraction(1, 2))
    ordered = sorted(cuts)
    shifts = [min((k for a, b, _, k in frags if a <= u and v <= b), default=None)
              for u, v in zip(ordered, ordered[1:])]
    if None in shifts:
        i = j = shifts.index(None)
        while j < len(shifts) and shifts[j] is None:
            j += 1
        return None, (ordered[i], ordered[j])
    chosen = []
    for u, v, k in zip(ordered, ordered[1:], shifts):
        if prefer_window:
            window_k = 0 if v <= Fraction(1, 2) else -1
            if any(lo <= u + window_k and v + window_k <= hi for lo, hi in parts):
                k = window_k
        chosen.append((u + k, v + k))
    return merge_pairs(chosen), None


def fraction_s1_witness(parts: list[Pair]) -> Pair | None:
    """The first maximal piece of S outside 2S."""
    return first_difference(parts, [(2 * lo, 2 * hi) for lo, hi in parts])


def fraction_scaling_spectrum_verdict(pieces):
    """(condition, witness pair, detail) of the first failed (F3), (F2), (F1)
    check of a nonnegative step function given as sorted, disjoint
    (lo, hi, value) pieces, or None when all pass."""
    atoms = fraction_fold(pieces)
    bad = [(a, b) for a, b, v in atoms if v != 1]
    if bad:
        lo, hi = bad[0]
        for a, b in bad[1:]:
            if a != hi:
                break
            hi = b
        return "F3", (lo, hi), "periodization is not identically 1"
    left_ok = any(v == 1 and lo < 0 <= hi for lo, hi, v in pieces)
    right_ok = any(v == 1 and lo <= 0 < hi for lo, hi, v in pieces)
    if not (left_ok and right_ok):
        eps = min((abs(x) for lo, hi, _ in pieces for x in (lo, hi) if x != 0), default=Fraction(1))
        witness = (Fraction(0), eps) if not right_ok else (-eps, Fraction(0))
        return "F2", witness, "value is not 1 on a punctured neighborhood of 0"
    supp = merge_pairs([(lo, hi) for lo, hi, _ in pieces])
    out = first_difference([(lo / 2, hi / 2) for lo, hi in supp], supp)
    if out is not None:
        return "F1", out, "support is not nested under doubling"
    cuts = sorted({x for lo, hi, _ in pieces for x in (lo, hi, lo / 2, hi / 2)})
    fragments = []  # (a, b, ratio) per residue fragment of a cell where g is nonzero
    for a, b in zip(cuts, cuts[1:]):
        den, num = value_at(pieces, (a + b) / 2), value_at(pieces, a + b)  # g(x), g(2x)
        if den:
            fragments.extend((fa, fb, num / den) for fa, fb, _, _ in
                             fraction_unit_fragments([(a, b, 1)]))
    points = sorted({x for fa, fb, _ in fragments for x in (fa, fb)})
    for a, b in zip(points, points[1:]):
        if len({r for fa, fb, r in fragments if fa <= a and b <= fb}) > 1:
            return "F1", (a, b), "filter ratio is not 1-periodic on the support"
    return None


# ------------------------------------------------- the first grid scans
#
# The transversal's atom scan, the overlap sets R_j built from clipped
# translates and the change-point sweep of the (F1) ratio test, in the form
# they had before each ran on the shared fold kernels: integers over the
# same grids, with plain-loop fragments, merges and differences.


def grid_unit_fragments(pieces, d: int):
    """``fraction_unit_fragments`` on integers over d: (a, b, weight, shift), 0 <= a < b <= d."""
    for lo, hi, val in pieces:
        k_lo, a = divmod(lo, d)
        k_hi, b = divmod(hi, d)
        if k_lo == k_hi:
            yield a, b, val, k_lo
            continue
        if a > 0:
            yield a, d, val, k_lo
            k_lo += 1
        if k_hi > k_lo:
            yield 0, d, (k_hi - k_lo) * val, k_lo
        if b > 0:
            yield 0, b, val, k_hi


def subtract_pairs(a: list[Pair], b: list[Pair]) -> list[Pair]:
    """The pairs of a minus those of b, each sorted and disjoint, every pair of b tried."""
    out: list[Pair] = []
    for lo, hi in a:
        for blo, bhi in b:
            if lo < hi and blo < hi and bhi > lo:
                if blo > lo:
                    out.append((lo, blo))
                lo = bhi
        if lo < hi:
            out.append((lo, hi))
    return out


def atom_transversal(d: int, pairs: list[Pair], prefer_window: bool) -> list[Pair] | None:
    """The kept pairs over d of the transversal of S' (its parts ``pairs`` over d, 1/2 on
    the grid with ``prefer_window``), or None when the translates miss a residue.

    [0, d) is cut at every fragment end (and at d/2); each atom takes the
    least shift of the fragments covering it, or, with ``prefer_window``, the
    shift into [-1/2, 1/2) when a fragment holds it.
    """
    fragments = list(grid_unit_fragments(((lo, hi, 1) for lo, hi in pairs), d))
    cuts = {0, d, d // 2} if prefer_window else {0, d}
    for a, b, _, _ in fragments:
        cuts.update((a, b))
    ordered = sorted(cuts)
    shifts: list[int | None] = [None] * (len(ordered) - 1)
    window = [0 if 2 * v <= d else -1 for v in ordered[1:]]
    for a, b, w, k in fragments:  # a fragment of weight w holds the shifts k, ..., k + w - 1
        for i in range(ordered.index(a), ordered.index(b)):
            if prefer_window and k <= window[i] < k + w:
                shifts[i] = window[i]
            elif shifts[i] is None:
                shifts[i] = k
    if None in shifts:
        return None
    return merge_pairs([(u + k * d, v + k * d) for u, v, k in zip(ordered, ordered[1:], shifts)])


def clipped_translate_levels(d: int, pairs: list[Pair], depth_n: int, depth_j: int):
    """(scale, levels) of the truncated construction for a kernel K with parts ``pairs`` over d.

    Each R_j is the merged integer translates of K_j = 2^-j K that meet the
    runs of unit cells its live levels meet, clipped to those runs, minus K_j.
    """
    t = depth_n + depth_j
    scale = d << t
    kernel = [(a << t, b << t) for a, b in pairs]
    levels = [[(a >> n, b >> n) for a, b in kernel] for n in range(depth_n + 1)]
    reach = -(-max(-kernel[0][0], kernel[-1][1]) // scale)
    near = (reach - 1).bit_length()
    for j in range(1, t + 1):
        live = [n for n in range(max(0, j - depth_j), min(depth_n + 1, j)) if levels[n]]
        if not live:
            continue
        cells = [(a // scale * scale, -(-b // scale) * scale)
                 for n in live if n < near for a, b in levels[n]]
        if live[-1] >= near:
            cells.append((-scale, scale))
        kj = [(a >> j, b >> j) for a, b in kernel]
        copies = [(max(a + i, lo), min(b + i, hi))
                  for lo, hi in merge_pairs(cells)
                  for a, b in kj
                  for i in range(((lo - b) // scale + 1) * scale, hi - a, scale)]
        overlap = subtract_pairs(merge_pairs(copies), kj)
        for n in live:
            levels[n] = subtract_pairs(levels[n], overlap)
    return scale, levels


def change_point_ratio_clash(d: int, pieces) -> Pair | None:
    """The first cell between consecutive residue fragment ends over d where two reduced
    ratios g(2x)/g(x) meet, for g's (lo, hi, value) pieces on 1/d with even ends."""
    half = [(a >> 1, b >> 1, w) for a, b, w in pieces]
    cuts = sorted({x for lo, hi, _ in pieces + half for x in (lo, hi)})
    changes: dict[int, list] = {}
    for a, b in zip(cuts, cuts[1:]):
        den = next((w for lo, hi, w in pieces if lo <= a < hi), 0)
        num = next((w for lo, hi, w in half if lo <= a < hi), 0)
        if den:
            k = math.gcd(num, den)
            for lo, hi, _, _ in grid_unit_fragments([(a, b, 1)], d):
                changes.setdefault(lo, []).append(((num // k, den // k), 1))
                changes.setdefault(hi, []).append(((num // k, den // k), -1))
    points = sorted(changes)
    covering: dict = {}
    for a, b in zip(points, points[1:]):
        for ratio, step in changes[a]:
            covering[ratio] = covering.get(ratio, 0) + step
            if covering[ratio] == 0:
                del covering[ratio]
        if len(covering) > 1:
            return a, b
    return None


# ------------------------------------------- the step-function transforms
#
# Plain versions of x -> f(x / s), x -> f(x - t) and g(x/2) - g(x) on
# (lo, hi, value) pieces with Fraction ends; the library keeps none of them
# on fractions.


def stretch(pieces, s: Fraction):
    """The pieces of x -> f(x / s), s != 0, sorted."""
    return sorted((s * lo, s * hi, v) if s > 0 else (s * hi, s * lo, v) for lo, hi, v in pieces)


def shift(pieces, t: Fraction):
    """The pieces of x -> f(x - t)."""
    return [(lo + t, hi + t, v) for lo, hi, v in pieces]


def fraction_psi_spectrum(pieces):
    """Pieces of h(x) = g(x/2) - g(x): read by ``value_at`` at the midpoint of every cell
    of the cuts lo, hi, 2 lo and 2 hi, zero cells dropped, equal touching cells merged."""
    cuts = sorted({x for lo, hi, _ in pieces for x in (lo, hi, 2 * lo, 2 * hi)})
    out: list[tuple[Fraction, Fraction, Fraction]] = []
    for a, b in zip(cuts, cuts[1:]):
        m = (a + b) / 2
        v = value_at(pieces, m / 2) - value_at(pieces, m)
        if v and out and out[-1][1] == a and out[-1][2] == v:
            out[-1] = (out[-1][0], b, v)
        elif v:
            out.append((a, b, v))
    return out


# ------------------------------------------------- planar reference route

FracRows = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
ZERO, ONE = Fraction(0), Fraction(1)


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if irrational/negative."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def fraction_sign(x: QuadScalar) -> int:
    """Exact sign of a + b*sqrt(d) via rational comparisons only."""
    if x.b == 0:
        return (x.a > 0) - (x.a < 0)
    if x.a == 0:
        return 1 if x.b > 0 else -1
    if x.a > 0 and x.b > 0:
        return 1
    if x.a < 0 and x.b < 0:
        return -1
    lhs, rhs = x.a * x.a, x.b * x.b * x.d
    assert lhs != rhs  # unreachable for square-free d >= 2 with b != 0
    if x.a > 0:  # b < 0: positive iff a^2 > b^2 d
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def quad_sqrt(x: QuadScalar, ambient_d: int | None) -> QuadScalar | None:
    """Square root of x inside Q(sqrt(ambient_d)), or None if there is none there."""
    if fraction_sign(x) < 0:
        return None
    if x.is_rational:
        r = rational_sqrt(x.a)
        if r is not None:
            return QuadScalar(r)
        if ambient_d is not None:
            r = rational_sqrt(x.a / ambient_d)
            if r is not None:
                return QuadScalar(ZERO, r, ambient_d)
        return None
    # (p + q sqrt(d))^2 = x  =>  q = x.b / (2p),  4p^4 - 4 x.a p^2 + d x.b^2 = 0.
    d = x.d
    s = rational_sqrt(x.a * x.a - d * x.b * x.b)
    if s is None:
        return None
    for sign in (1, -1):
        p_sq = (x.a + sign * s) / 2
        p = rational_sqrt(p_sq)
        if p is not None and p != 0:
            q = x.b / (2 * p)
            root = QuadScalar(p, q, d)
            if fraction_sign(root) < 0:
                root = -root
            return root
    return None


def _rmul(x: FracRows, y: FracRows) -> FracRows:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _rinv(x: FracRows) -> FracRows:
    det = x[0][0] * x[1][1] - x[0][1] * x[1][0]
    if det == 0:
        raise InputError("matrix is singular")
    return (
        (x[1][1] / det, -x[0][1] / det),
        (-x[1][0] / det, x[0][0] / det),
    )


def _rpow(x: FracRows, j: int) -> FracRows:
    out: FracRows = ((ONE, ZERO), (ZERO, ONE))
    for _ in range(j):
        out = _rmul(out, x)
    return out


def _rtrans(x: FracRows) -> FracRows:
    return ((x[0][0], x[1][0]), (x[0][1], x[1][1]))


def _primitive_integer(c1: Fraction, c2: Fraction) -> tuple[int, int]:
    l = math.lcm(c1.denominator, c2.denominator)
    z1, z2 = int(c1 * l), int(c2 * l)
    g = math.gcd(abs(z1), abs(z2))
    z1, z2 = z1 // g, z2 // g
    if z1 < 0 or (z1 == 0 and z2 < 0):
        z1, z2 = -z1, -z2
    return z1, z2


def _rational_rows(m: Mat2) -> FracRows:
    return tuple(tuple(e.a for e in row) for row in m.entries)


def fraction_wavelet_set_exists(a: Mat2, p: Mat2) -> ExistenceResult:
    """The existence decision on ``QuadScalar`` arithmetic and ``Fraction`` matrices.

    The eigenvalue is located by the signs of det A, the discriminant and the
    characteristic polynomial at +-1; its eigenvector v is mapped to lattice
    coordinates as P^-1 v, whose rational and sqrt(d) parts are parallel iff
    the eigenline meets the lattice.
    """
    if not p.is_rational:
        return ExistenceResult("unsupported",
                               detail="only rational lattice bases are supported")
    prows = _rational_rows(p)
    if prows[0][0] * prows[1][1] - prows[0][1] * prows[1][0] == 0:
        raise PreconditionError("lattice", "lattice basis must be invertible")
    det = a.det()
    if not (fraction_sign(det - 1) > 0 or fraction_sign(det + 1) < 0):
        raise PreconditionError("determinant", f"|det A| must exceed 1, got {det}")

    tr = a.trace()
    disc = tr * tr - det * 4
    sd = fraction_sign(disc)
    if sd < 0:
        return ExistenceResult(
            "exists",
            detail="complex eigenvalue pair with squared modulus |det A| > 1; "
                   "no contracting eigenspace",
        )
    if sd == 0:
        return ExistenceResult(
            "exists",
            detail="double real eigenvalue with squared value |det A| > 1; "
                   "no contracting eigenspace",
        )
    s1, sm1 = fraction_sign(det - tr + 1), fraction_sign(det + tr + 1)  # char poly at +-1
    if s1 == 0 or sm1 == 0:
        return ExistenceResult(
            "exists", unit_eigenvalue=True,
            detail="an eigenvalue lies exactly on the unit circle; the other has "
                   "modulus |det A| > 1, so no contracting eigenspace (boundary case flagged)",
        )
    if s1 * sm1 > 0:
        return ExistenceResult(
            "exists",
            detail="both real eigenvalues lie outside (-1, 1); no contracting eigenspace",
        )
    root = quad_sqrt(disc, a.field_d)
    if root is None:
        return ExistenceResult(
            "exists",
            detail="the contracting eigenvalue is a quadratic irrational over the "
                   "entry field, so its eigenline has irrational slope in lattice "
                   "coordinates and meets the lattice only at 0",
        )
    lam = (tr - root) / 2 if s1 < 0 else (tr + root) / 2
    (a11, a12), (a21, a22) = a.entries
    if not a12.is_zero:
        v1, v2 = a12, lam - a11
    elif not a21.is_zero:
        v1, v2 = lam - a22, a21
    elif (lam - a11).is_zero:
        v1, v2 = QuadScalar(ONE), QuadScalar(ZERO)
    else:
        v1, v2 = QuadScalar(ZERO), QuadScalar(ONE)
    pinv = _rinv(prows)
    u1 = QuadScalar.of(pinv[0][0]) * v1 + QuadScalar.of(pinv[0][1]) * v2
    u2 = QuadScalar.of(pinv[1][0]) * v1 + QuadScalar.of(pinv[1][1]) * v2
    if u1.a * u2.b == u2.a * u1.b:
        if u1.a != 0 or u2.a != 0:
            witness = _primitive_integer(u1.a, u2.a)
        else:
            witness = _primitive_integer(u1.b, u2.b)
        return ExistenceResult(
            "not_exists", witness=witness,
            detail=f"contracting eigenvalue {lam}; its eigenline meets the lattice "
                   f"at the nonzero point z = {witness}",
        )
    return ExistenceResult(
        "exists",
        detail=f"contracting eigenvalue {lam}, but its eigenline has irrational "
               "slope in lattice coordinates",
    )


def fraction_lattice_form(a: Mat2, p: Mat2, j: int) -> tuple[int, int, int, int]:
    """(a, b, c, L) with |A^-j P z|^2 <= 1 iff a z1^2 + 2b z1 z2 + c z2^2 <= L, from the
    ``Fraction`` matrix A^-j P and the lcm of its Gram matrix's denominators."""
    arows, prows = _rational_rows(a), _rational_rows(p)
    b = _rmul(_rpow(_rinv(arows), j) if j >= 0 else _rpow(arows, -j), prows)
    q = _rmul(_rtrans(b), b)
    q11, q12, q22 = q[0][0], q[0][1], q[1][1]
    l = math.lcm(q11.denominator, q12.denominator, q22.denominator)
    return (q11.numerator * (l // q11.denominator), q12.numerator * (l // q12.denominator),
            q22.numerator * (l // q22.denominator), l)


def small_world_sets(q: int, reach: int, max_parts: int) -> list[list[Pair]]:
    """Every set of at most ``max_parts`` intervals with ends in (1/q)Z inside [-reach, reach],
    of measure 1 and with no part touching 0, as its parts in increasing order.

    Parts are kept apart by a gap, so each set is listed once, in its canonical form; a part
    touches 0 when its closure holds 0.
    """
    ends = range(-q * reach, q * reach + 1)
    found: list[list[Pair]] = []

    def extend(parts: list[tuple[int, int]], start: int, left: int) -> None:
        if left == 0:
            found.append([(Fraction(a, q), Fraction(b, q)) for a, b in parts])
            return
        if len(parts) == max_parts:
            return
        for a in ends:
            for b in range(a + 1, min(a + left, ends[-1]) + 1):
                if a >= start and not a <= 0 <= b:
                    extend(parts + [(a, b)], b + 1, left - (b - a))

    extend([], ends[0], q)
    return found
