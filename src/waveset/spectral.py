"""Exact step-function spectra and their characterizing checks.

Houses compactly supported piecewise-constant spectra (squared moduli of
scaling functions and wavelets, or real-valued wavelet transforms), the
scaling-spectrum conditions (F1)-(F3), the dyadic Calderon sum, the wavelet
dimension function on an exact torus window, the translation-orthogonality
equations, and the band-pair indicator family psi_b.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InconsistentSpectrumError, InputError, Verdict
from .intervals import (Interval, IntervalSet, RationalLike, _beside_zero, _intervals_only, _kept,
                        _merge, _nonempty, _off_zero, _subtract, _Views, rat)
from .torus import (DimFnWindow, _fold, _from_grid, _grid_sweep, _on_grid, _unit_fragments,
                    _within_budget, sweep_weighted)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def pow2(j: int) -> Fraction:
    return Fraction(1 << j) if j >= 0 else Fraction(1, 1 << (-j))


def floor_log2(x: Fraction) -> int:
    """Largest j with 2**j <= x, for rational x > 0: with x = n/d and j the difference of their
    bit lengths, 2^(j-1) < x < 2^(j+1), so one shift and one comparison decide."""
    n, d = x.numerator, x.denominator
    if n <= 0:
        raise InputError("floor_log2 requires a positive argument")
    j = n.bit_length() - d.bit_length()
    return j if (n >= d << j if j >= 0 else n << -j >= d) else j - 1


@dataclass(frozen=True)
class StepFn(_Views):
    """Compactly supported step function with rational breakpoints and values.

    Canonical form: pieces sorted and disjoint, zero values implicit (never
    stored), touching pieces with equal values merged.  Its two views follow
    ``_Views``: ``pieces``, and the integer grid ``_grid`` = (D, V, its pieces
    as (lo, hi, weight) integers over D, weights over V), D and V the lcms of
    its endpoint and value denominators.  A kernel (``_step_from_grid``) makes a
    step function holding the grid alone; a parsed one makes it on first kernel
    read (``_step_grid``).  Both constructors merge by ``_merge_steps``, and
    ``integral`` sums the view held.  A spectrum h with a dilation-periodic
    tail keeps its deepest window, which extends to every depth
    (``_held_window``).
    """

    pieces: tuple[tuple[Interval, Fraction], ...] = field(default_factory=tuple)
    _grid = None
    _window = None
    _FRACTIONS = ("pieces",)

    def __post_init__(self) -> None:
        pieces = tuple((iv, rat(v)) for iv, v in self.pieces)
        _intervals_only((iv for iv, _ in pieces), "StepFn.build()")
        object.__setattr__(self, "pieces", pieces)
        _canonical([(iv.lo, iv.hi, v) for iv, v in pieces])

    def _fractions(self) -> tuple:
        d, vden, pieces = self._grid
        breaks = {e: Fraction(e, d) for a, b, _ in pieces for e in (a, b)}  # each break once
        values = {w: Fraction(w, vden) for _, _, w in pieces}
        return tuple((_kept(Interval, lo=breaks[a], hi=breaks[b]), values[w])
                     for a, b, w in pieces),

    def _held(self) -> tuple[int, int, Sequence[tuple]]:
        """(D, V, pieces (lo, hi, weight)) in the view held: the grid, or the fractions over 1."""
        return self._grid or (1, 1, [(iv.lo, iv.hi, v) for iv, v in self.pieces])

    @classmethod
    def build(cls, raw: Iterable[tuple[Interval | tuple, RationalLike]]) -> "StepFn":
        items: list[tuple[Fraction, Fraction, Fraction]] = []
        for iv, v in raw:
            if not isinstance(iv, Interval):
                lo, hi = rat(iv[0]), rat(iv[1])
                if lo == hi:
                    continue
                iv = Interval(lo, hi)
            v = rat(v)
            if v != 0:
                items.append((iv.lo, iv.hi, v))
        items.sort(key=itemgetter(0))
        for (_, a, _), (b, _, _) in zip(items, items[1:]):
            if a > b:
                raise InputError(f"overlapping step pieces at {b}")
        return cls(tuple((_kept(Interval, lo=a, hi=b), v) for a, b, v in _merge_steps(items)))

    @classmethod
    def indicator(cls, s: IntervalSet) -> "StepFn":
        return cls(tuple((p, ONE) for p in s.parts))

    # ---------------------------------------------------------- queries

    @property
    def is_zero(self) -> bool:
        return not self._held()[2]

    def value_at(self, x: RationalLike) -> Fraction:
        x = rat(x)
        idx = bisect_right(self.pieces, x, key=lambda p: p[0].lo) - 1
        if idx >= 0 and self.pieces[idx][0].hi > x:
            return self.pieces[idx][1]
        return ZERO

    def integral(self) -> Fraction:
        """The integral, summed in the view held: integers over D V, divided once."""
        d, vden, pieces = self._held()
        return Fraction(sum((b - a) * w for a, b, w in pieces), d * vden)

    def negative_witness(self) -> tuple[Interval, Fraction] | None:
        i = next((i for i, (_, _, w) in enumerate(self._held()[2]) if w < 0), None)
        return None if i is None else self.pieces[i]

    # ------------------------------------------------------- transforms

    def square(self) -> "StepFn":
        """f^2 on the grid of f: weights squared over V^2, the lcm of the squared value
        denominators, and touching pieces merged where their squares agree (v beside -v)."""
        d, vden, pieces = _step_grid(self, 2)
        return _step_from_grid(d, vden * vden, [(a, b, w * w) for a, b, w in pieces])

    def combine(self, other: "StepFn", op: Callable[[Fraction, Fraction], Fraction]) -> "StepFn":
        """Pointwise binary operation via common refinement (op(0, 0) must be 0)."""
        return StepFn.build((Interval(a, b), op(x, y)) for a, b, x, y in _walk(
            *([(iv.lo, iv.hi, v) for iv, v in f.pieces] for f in (self, other))))


def _walk(f: Sequence[tuple], g: Sequence[tuple]) -> Iterator[tuple]:
    """(a, b, f value, g value) on each cell of the common refinement of two sorted lists of
    disjoint (lo, hi, value) pieces, 0 off them: one merge-walk, number-type generic like
    ``_merge``.  The scaling-spectrum routines walk integers on g's grid (``_scaling_grid``)."""
    cuts = sorted({x for lo, hi, _ in (*f, *g) for x in (lo, hi)})
    i = j = 0
    for a, b in zip(cuts, cuts[1:]):
        while i < len(f) and f[i][1] <= a:
            i += 1
        while j < len(g) and g[j][1] <= a:
            j += 1
        x = f[i][2] if i < len(f) and f[i][0] <= a else 0
        y = g[j][2] if j < len(g) and g[j][0] <= a else 0
        yield a, b, x, y


def _step_grid(f: StepFn, power: int = 1) -> tuple[int, int, list[tuple[int, int, int]]]:
    """(D, V, read-only pieces): the grid f holds, made by ``_on_grid`` on first read if f was
    parsed.  Every read checks D and V^power, the value lcm of f^power
    (``square`` reads with 2), against the ``_on_grid`` budget, with its refusal text."""
    if f._grid is None:
        object.__setattr__(f, "_grid", _on_grid(f.pieces, power))
    _within_budget(endpoint=f._grid[0], value=f._grid[1] ** power)
    return f._grid


def _canonical(pieces: Sequence[tuple], d: int = 1) -> None:
    """The ``StepFn`` checks on (lo, hi, value) pieces over d, number-type generic: nonempty,
    then neither overlapping nor touching with equal values, then no zero value."""
    _nonempty(pieces, d)
    for (_, a, va), (b, _, vb) in zip(pieces, pieces[1:]):
        if a > b:
            raise InputError("step function pieces overlap; use StepFn.build()")
        if a == b and va == vb:
            raise InputError("equal-valued touching pieces must be merged; use StepFn.build()")
    if any(v == 0 for _, _, v in pieces):
        raise InputError("zero values are implicit in a step function")


def _merge_steps(pieces: Iterable[tuple]) -> list[tuple]:
    """Sorted, disjoint (lo, hi, value) pieces with touching equal values merged and zero
    values dropped: the one merge of ``StepFn.build`` and ``_step_from_grid``, number-type
    generic like ``_merge``."""
    out: list[tuple] = []
    for a, b, w in pieces:
        if out and out[-1][1:] == (a, w):
            out[-1] = (out[-1][0], b, w)
        elif w:
            out.append((a, b, w))
    return out


def _step_from_grid(d: int, vden: int, pieces: Iterable[tuple[int, int, int]]) -> StepFn:
    """Sorted (lo, hi, weight) pieces over d, weights over vden, as a step function holding them
    alone (``_Views``), like ``torus._from_grid``: merged by ``_merge_steps``, checked once on
    the integers (``_canonical``), and divided to the lcm grid."""
    out = _merge_steps(pieces)
    _canonical(out, d)
    gd = math.gcd(d, *(x for a, b, _ in out for x in (a, b)))
    gv = math.gcd(vden, *(w for _, _, w in out))
    if gd > 1 or gv > 1:
        d, vden, out = d // gd, vden // gv, [(a // gd, b // gd, w // gv) for a, b, w in out]
    return _kept(StepFn, _grid=(d, vden, out))


MAX_LEVELS = 4096  # work budget on the levels j of one dilation sum


def _levels(lo: int, hi: int) -> range:
    """Levels lo..hi - 1 of a dilation sum, whose grid numbers carry about as many bits."""
    if hi - lo > MAX_LEVELS:
        raise InputError(f"a dilation sum has at most {MAX_LEVELS} levels (work budget); "
                         f"got {hi - lo}")
    return range(lo, hi)


def _annulus_levels(r: Fraction, big: Fraction) -> range:
    """The j with f(2^j x) able to meet the annulus [-2c, -c) u [c, 2c), f inside [-R, -r] u
    [r, R], r = ``r`` c, R = ``big`` c: floor_log2(r/2c) <= j <= floor_log2(R/c) + 1."""
    return _levels(floor_log2(r / 2), floor_log2(big) + 2)


def _annulus_sums(d: int, vden: int, pieces: Sequence[tuple[int, int, int]], c: Fraction,
                  levels: range) -> Iterator[tuple]:
    """Sum f(2^j x), j in ``levels``, on [-2c, -c), then on [c, 2c): the ``_grid_sweep`` of the
    integer pieces (lo, hi, weight) over d, weights over vden, with c on the grid 1/d."""
    return _grid_sweep(d, vden, pieces, levels, False, ((-2 * c, -c), (c, 2 * c)))


# ----------------------------------------------------------- (F1)-(F3)


@dataclass(frozen=True)
class SpectrumVerdict(Verdict):
    passed: bool
    condition: str | None = None
    witness: Interval | None = None
    detail: str = ""

    @property
    def witnesses(self) -> tuple:
        return () if self.passed else ((f"{self.condition}: {self.detail}", self.witness),)


def _scaling_grid(g: StepFn) -> tuple[int, int, list[tuple[int, int, int]]]:
    """(d, V, pieces): the grid g holds (``_step_grid``, refused over its budget first), moved
    to 1/d, d = 2D.  On 1/d the pieces of g(2 .), g and g(./2) have integer ends: a >> 1, a
    and a << 1 for each end a of g."""
    d, vden, pieces = _step_grid(g)
    return d << 1, vden, [(a << 1, b << 1, w) for a, b, w in pieces]


def validate_scaling_spectrum(g: StepFn) -> SpectrumVerdict:
    """Exact check that g is the squared modulus of a scaling function.

    Verifies, in order: the unit periodization (F3), the unit value on a
    punctured neighborhood of 0 (F2), and the existence of a 1-periodic
    filter (F1: support nesting under doubling plus a periodically
    consistent ratio g(2x)/g(x) on the support).  (F1) runs on g's grid
    (``_scaling_grid``): the nesting is one ``_subtract`` of integer runs, and
    the ratio test one sweep over the residues each reduced ratio takes
    (``_ratio_clash``).
    """
    neg = g.negative_witness()
    if neg is not None:
        raise InputError(f"spectrum must be nonnegative; value {neg[1]} on {neg[0]}")

    # (F3)
    d, vden, pieces = _step_grid(g)
    folded = _fold(d, vden, pieces)
    if not folded.is_constant(1):
        bad = folded.where_not(1)
        return SpectrumVerdict(False, "F3", bad.parts[0],
                               "periodization is not identically 1")

    # (F2)
    left_ok, right_ok = _beside_zero([p for p in pieces if p[2] == vden])
    if not (left_ok and right_ok):
        eps = min((abs(x) for iv, _ in g.pieces for x in (iv.lo, iv.hi) if x != 0),
                  default=ONE)
        witness = Interval(ZERO, eps) if not right_ok else Interval(-eps, ZERO)
        return SpectrumVerdict(False, "F2", witness,
                               "value is not 1 on a punctured neighborhood of 0")

    # (F1): the support of g(2 .) inside the support of g ...
    d, _, pieces = _scaling_grid(g)
    supp = _merge((a, b) for a, b, _ in pieces)
    escape = _subtract([(a >> 1, b >> 1) for a, b in supp], supp)
    if escape:
        return SpectrumVerdict(False, "F1", _from_grid(escape[:1], d).parts[0],
                               "support is not nested under doubling")
    # ... and the forced filter modulus g(2x)/g(x) is consistent mod 1.
    if (clash := _ratio_clash(d, pieces)) is not None:
        return SpectrumVerdict(False, "F1", _from_grid([clash], d).parts[0],
                               "filter ratio is not 1-periodic on the support")
    return SpectrumVerdict(True)


def _ratio_clash(d: int, pieces: Sequence[tuple[int, int, int]]) -> tuple[int, int] | None:
    """The first residue cell over d where two ratios g(2x)/g(x) meet mod 1, or None, for g's
    pieces on 1/d (``_scaling_grid``).  Each reduced ratio takes the merged residues of the
    cells of g's walk against g(2 .) where g is not 0; one ``sweep_weighted`` over those runs
    finds the first residue two take, and the cell ends at the next end of a folded cell."""
    taken: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, b, den, num in _walk(pieces, [(a >> 1, b >> 1, w) for a, b, w in pieces]):
        if den:
            k = math.gcd(num, den)  # g(2x)/g(x) in lowest terms
            taken.setdefault((num // k, den // k), []).extend(
                (lo, hi) for lo, hi, _, _ in _unit_fragments([(a, b, 1)], d))
    runs = [(lo, hi, 1) for residues in taken.values() for lo, hi in _merge(sorted(residues))]
    lo = next((lo for lo, _, n in sweep_weighted(runs, 0, d) if n > 1), None)
    if lo is None:
        return None
    ends = sorted({x for residues in taken.values() for run in residues for x in run})
    return lo, ends[bisect_right(ends, lo)]


def psi_spectrum_from_scaling(g: StepFn) -> StepFn:
    """Squared wavelet spectrum h(x) = g(x/2) - g(x) from a scaling spectrum.

    Callers are expected to have validated g; an exact negativity check still guards
    against inconsistent inputs.  h is walked on g's grid (``_scaling_grid``: over its
    budget g is an InputError before any work), and h holds its own grid alone.
    """
    return _psi_grid(*_scaling_grid(g))


def _psi_grid(d: int, vden: int, pieces: list[tuple]) -> StepFn:
    """h = g(./2) - g, walked on g's grid, holding the lcm grid of its own."""
    fn = _step_from_grid(d, vden, ((a, b, x - y) for a, b, x, y in _walk(
        [(a << 1, b << 1, w) for a, b, w in pieces], pieces)))
    neg = fn.negative_witness()
    if neg is not None:
        raise InconsistentSpectrumError(f"inconsistent spectrum: value {neg[1]} on {neg[0]} "
                                        "(input does not decrease along doubling)", witness=neg[0])
    return fn


# --------------------------------------------------------- Calderon sum


@dataclass(frozen=True)
class CalderonResult(_Views, Verdict):
    """Dyadic dilation sum on the annulus [1,2) u [-2,-1), or a divergence flag.  ``calderon``
    holds each side's ``_grid_sweep`` grid as ``_grid``; ``atoms`` are its ``_Views`` fractions."""

    diverges: bool
    atoms: tuple[tuple[Interval, Fraction], ...] = field(default_factory=tuple)
    min_value: Fraction | None = None
    max_value: Fraction | None = None
    is_one: bool = False
    divergence_witness: Interval | None = None
    _FRACTIONS = ("atoms",)

    def _fractions(self) -> tuple:
        value = {w: Fraction(w, vden) for _, _, vden, ws in self._grid for w in ws}  # each once
        breaks = [[Fraction(e, scale) for e in ends] for scale, ends, _, _ in self._grid]
        return tuple((_kept(Interval, lo=a, hi=b), value[w]) for bs, (*_, ws)
                     in zip(breaks, self._grid) for a, b, w in zip(bs, bs[1:], ws)),

    @property
    def witnesses(self) -> tuple:
        if self.diverges:
            return ("sum diverges: support reaches 0", self.divergence_witness),
        return () if self.is_one else next(
            ((f"sum equals {v} here", iv),) for iv, v in self.atoms if v != 1)


def calderon(h: StepFn) -> CalderonResult:
    """Exact Calderon sum over dyadic dilates, decided on a two-sided annulus.

    The sum is invariant under doubling of the argument, so its values on
    [1,2) u [-2,-1) determine it on all of R minus {0}.  If h is nonzero on a
    piece reaching 0 the sum has infinitely many terms bounded below and
    diverges.
    """
    neg = h.negative_witness()
    if neg is not None:
        raise InputError(f"calderon sum requires a nonnegative input; got {neg[1]} on {neg[0]}")
    sides = [(1, (-2, -1), 1, (0,)), (1, (1, 2), 1, (0,))]  # the sums of h = 0
    if not h.is_zero:
        d, _, held = h._held()
        i, r, big = _off_zero(held)
        if r is None:
            return CalderonResult(True, divergence_witness=h.pieces[i][0])
        levels = _annulus_levels(Fraction(r, d), Fraction(big, d))  # the level budget first
        sides = list(_annulus_sums(*_step_grid(h), ONE, levels))
    vden = sides[0][2]
    lo, hi = min(min(ws) for *_, ws in sides), max(max(ws) for *_, ws in sides)
    return _kept(CalderonResult, diverges=False, min_value=Fraction(lo, vden),
                 max_value=Fraction(hi, vden), is_one=lo == hi == vden, _grid=sides)


# ------------------------------------------------- dimension function

MAX_WINDOW_DEPTH = 2050  # work budget on depth_L: dimfun --depth <= 1024


def dimension_function(h: StepFn, depth_L: int = 20) -> DimFnWindow:
    """Sum of h(2^j (x + k)) over j >= 1, k in Z, exact on the depth-L window.

    Level-j terms live within 2^-j * max-reach of the integers, hence miss
    the window once that radius drops below 2^-L, at j > J.  Levels 1..J are
    one periodic ``_grid_sweep``, which folds all translates k at once, so
    the work follows J (L plus the log of the reach), not the reach.  Below
    2^-L* the function is dilation-periodic (``_tail_depth``), so for h off
    0 one sweep at L* + 1 fixes every window: the window is an exact cut or
    extension of the one h holds.  Any other h is swept at depth_L on each
    read (``_held_window``).  depth_L over MAX_WINDOW_DEPTH is refused first,
    J over MAX_LEVELS next.
    """
    window = _held_window(h, depth_L).restrict(depth_L)
    object.__setattr__(window, "source", h)
    return window


def _held_window(h: StepFn, depth_L: int) -> DimFnWindow:
    """A window of h at least depth_L deep, read off the one h holds, after the refusals of
    depth_L: below 2, over MAX_WINDOW_DEPTH, a negative h, J over MAX_LEVELS, then the grid
    budget.  For h off 0 with L* + 1 in both budgets (``_tail_depth``) the first read sweeps
    once at L* + 1, and a deeper read is the ``_dilation_extend`` of the held window, never a
    sweep; h holds its deepest window so far.  Like ``_grid`` it is no field (copies, pickles,
    equality and hash ignore it), and it has no source: h and it form no cycle.  Any other h
    (zero, reaching 0, or L* + 1 over a budget) is swept at depth_L on every read and holds
    nothing."""
    if depth_L < 2:
        raise InputError("window depth must be at least 2")
    if depth_L > MAX_WINDOW_DEPTH:
        raise InputError(f"window depth is at most {MAX_WINDOW_DEPTH}, so dimfun --depth is at "
                         f"most 1024 (work budget); got window depth {depth_L}")
    held = h._window
    if held is not None and held.depth_L >= depth_L:
        return held
    if held is None:  # a held window's h is nonnegative
        neg = h.negative_witness()
        if neg is not None:
            raise InputError(f"squared spectrum must be nonnegative; got {neg[1]} on {neg[0]}")
    d, _, pieces = h._held()
    log_reach = floor_log2(Fraction(max(-pieces[0][0], pieces[-1][1]), d)) if pieces else 0
    _levels(1, depth_L + log_reach + 1)  # the level budget of the depth asked
    grid = _step_grid(h)
    if held is None:
        tail = _tail_depth(h)
        if tail is None or tail >= min(MAX_WINDOW_DEPTH, MAX_LEVELS - log_reach):
            return _swept_window(grid, depth_L, log_reach)
        held = _swept_window(grid, tail + 1, log_reach)
    if held.depth_L < depth_L:
        held = _dilation_extend(held, depth_L)
    object.__setattr__(h, "_window", held)
    return held


def _swept_window(grid: tuple, depth_L: int, log_reach: int) -> DimFnWindow:
    """The depth-L window swept directly: levels 1..L + log2(reach), while 2^-j reach >= 2^-L,
    in one periodic ``_grid_sweep`` of h's grid, with a boundary note unless h is zero."""
    window, = _grid_sweep(*grid, range(1, depth_L + log_reach + 1), True,
                          [(pow2(-depth_L), 1 - pow2(-depth_L))], depth_L)
    return DimFnWindow._from_grid(window, depth_L, bool(grid[2]))


def _tail_depth(h: StepFn) -> int | None:
    """L*, the least L >= 2 with 2^-L <= min(delta, eps) / 2, read off h's grid; None when h
    is zero or its support reaches 0.

    delta is the distance from 0 to the support of h, which lies inside
    [-R, R], and eps the least |b - 2^j k| / 2^j over the breaks b of h, the
    levels j >= 1 with 2^(j-1) <= R and the k != 0 with b != 2^j k.  Split the dimension
    function D = F + G, F(x) = sum h(2^j x) over j >= 1 its k = 0 terms.
    Then F(x/2) = F(x) + h(x), so F(x/2) = F(x) on 0 < |x| < delta, where h
    vanishes.  For |x| < 1/2 and k != 0, |x + k| >= 1/2, so the term
    h(2^j (x + k)) is nonzero only if 2^(j-1) <= R: G is a finite sum there.
    Each of its terms breaks where 2^j (x + k) is a break b, at
    x = (b - 2^j k) / 2^j, so none breaks on 0 < |x| < eps, and
    G(x/2) = G(x) there.  Hence D(x/2) = D(x) on 0 < |x| < min(delta, eps),
    and, D being 1-periodic, D(1 - y/2) = D(1 - y) there too: the window at
    depth L* + 1 holds the octaves [2^-(L*+1), 2^-L*) and
    [1 - 2^-L*, 1 - 2^-(L*+1)), all inside that range, and their copies by
    2^-m fix D on all of (0, 1) (``_dilation_extend``).

    For each b and j only the two integers k nearest b / 2^j can give the
    least distance, so the cost is O(breaks x levels) with no loop over k.
    Where b / 2^j is an integer the next k lie 1 away, which never moves L*
    (at least 2), and they are skipped.  Every distance is an integer on the
    grid 1/(D 2^J), J the last level.  Ends over D give delta >= 1/D and
    eps >= 1/(2RD), so L* <= log2(RD) + 3.
    """
    d, _, pieces = _step_grid(h)
    if not pieces:
        return None
    _, near, big = _off_zero(pieces)
    if near is None:
        return None
    last = floor_log2(Fraction(big, d)) + 1 if big >= d else 0  # 2^(j-1) <= R iff j <= last
    gap = near << last  # delta on 1/(D 2^last)
    breaks = {e for a, b, _ in pieces for e in (a, b)}
    for j in range(1, last + 1):
        m, up = d << j, last - j
        for b in breaks:
            k, rest = divmod(b, m)
            if rest:  # k and k + 1 are the nearest integers to b / 2^j
                if k:
                    gap = min(gap, rest << up)
                if k + 1:
                    gap = min(gap, (m - rest) << up)
    return max(2, -floor_log2(Fraction(gap, d << (last + 1))))


def _dilation_extend(w: DimFnWindow, depth_L: int) -> DimFnWindow:
    """The depth-L window of a dimension function that is dilation-periodic below 2^-(M-1),
    M = w.depth_L < L (``_tail_depth``): w with the octave [2^-M, 2^-(M-1)) copied to
    x -> 2^-m x and the octave [1 - 2^-(M-1), 1 - 2^-M) to 1 - y -> 1 - 2^-m y, for
    m = 1..L - M, on the grid 1/(scale 2^(L-M)).  Equal neighbours are merged, and
    ``_from_grid`` makes the canonical window, equal to the direct sweep piece for piece."""
    up = depth_L - w.depth_L
    s, ends, weights = w.scale, w.ends, w.weights
    a = ends[0]  # 2^-M on the grid
    t = s << up
    i, j = bisect_left(ends, 2 * a), bisect_right(ends, s - 2 * a) - 1
    low = list(zip(ends[:i], weights[:i]))
    high = [(s - 2 * a, weights[j])] + list(zip(ends[j + 1:-1], weights[j + 1:]))
    cells = [(e << n, v) for n in range(up) for e, v in low]
    cells += [(e << up, v) for e, v in zip(ends, weights)]
    cells += [(t - ((s - e) << n), v) for n in range(up - 1, -1, -1) for e, v in high]
    out_ends, out_weights = [], []
    for e, v in cells:
        if not out_weights or out_weights[-1] != v:
            out_ends.append(e)
            out_weights.append(v)
    out_ends.append(t - a)
    return DimFnWindow._from_grid((t, tuple(out_ends), w.vden, tuple(out_weights)), depth_L,
                                  w.boundary_note)


@dataclass(frozen=True)
class CheckOutcome:
    status: str  # "pass" | "fail" | "no_violation" | "skipped"
    witness: Interval | None = None
    note: str = ""


@dataclass(frozen=True)
class DimConditionsReport:
    d1: CheckOutcome
    d2: CheckOutcome
    d3: CheckOutcome
    d4: CheckOutcome
    depth_L: int


def check_D1_D4(dim: DimFnWindow, depth_L: int) -> DimConditionsReport:
    """Check the four dimension-function conditions at depth L.

    Integrality and the doubling identity are exact pass/fail decisions on
    the window.  The two limit conditions are semi-decided: a violation found
    at the declared depth is a certified FAIL, otherwise the status is
    "no violation found" (they are limit statements and cannot be decided by
    any finite computation).  D3 explores residue classes mod 2^l up to the
    class depth l = min(L, 8).  D1-D3 look at the depth-(L + 2) part of the
    input, D4 at a window 2L deep, the input or else one read off its source,
    with no sweep for a source off 0 (``_held_window``).
    All read the integer grid; only a witness becomes an interval.
    """
    L = depth_L
    if L < 2:
        raise InputError(f"the conditions are checked at a depth of at least 2; got {L}")
    if dim.depth_L < L + 2:
        raise InputError(
            f"dimension window depth {dim.depth_L} is insufficient; need at least {L + 2}"
        )
    if dim.source is not None and dim.depth_L < 2 * L > MAX_WINDOW_DEPTH:
        raise InputError(f"D4 needs a window {2 * L} deep; window depth is at most "
                         f"{MAX_WINDOW_DEPTH} (work budget)")
    deep, dim = dim, dim.restrict(L + 2)

    # (D1): nonnegative-integer values, on the grid: weights over vden.
    d1 = CheckOutcome("pass")
    for i, w in enumerate(dim.weights):
        if w % dim.vden or w < 0:
            d1 = CheckOutcome("fail", dim._interval(i),
                              f"value {Fraction(w, dim.vden)} is not a nonnegative integer")
            break

    # (D2): D(x) + D(x + 1/2) = D(2x) + 1 on [2^-L, 1/2 - 2^-L), on the grid 1/G with G twice
    # the window's scale: 2^-L, each break, its shift by 1/2 and its half are integers.
    g, ends = dim.scale << 1, [e << 1 for e in dim.ends]
    a0, b0 = pow2(-L), HALF - pow2(-L)
    half, lo = g >> 1, g >> L
    hi = half - lo
    points = sorted({lo, hi} | {c for e in ends for c in (e, e - half, e >> 1) if lo < c < hi})

    def value(x: int) -> int:
        return dim.weights[bisect_right(ends, x) - 1]

    d2 = CheckOutcome("pass", note=f"identity checked exactly on [{a0}, {b0})")
    for a, b in zip(points, points[1:]):
        lhs, rhs = value(a) + value(a + half), value(2 * a) + dim.vden
        if lhs != rhs:
            d2 = CheckOutcome("fail", Interval(Fraction(a, g), Fraction(b, g)),
                              f"{Fraction(lhs, dim.vden)} != {Fraction(rhs, dim.vden)}")
            break

    d3 = _check_d3(dim, L, g, ends)
    d4 = _check_d4(deep, L)
    return DimConditionsReport(d1, d2, d3, d4, L)


def _check_d3(dim: DimFnWindow, L: int, g: int, ends: Sequence[int]) -> CheckOutcome:
    """Semi-decide the covering condition via residue classes mod powers of 2.

    The contraction-invariant set is over-approximated by the certified zero
    set of the window: an integer translate x + k is ruled out of it as soon
    as some dyadic contraction of x + k lands entirely on a certified zero of
    the (1-periodic) function.  Contractions by 2^-j depend on k only through
    k mod 2^j, so ruling out every residue class certifies that the covering
    sum is 0; where the window value is >= 1 that is a certified violation.
    An atom lies in (0, 1) and a residue r mod 2^l in [0, 2^l), so the image
    (atom + r) / 2^l lies in [0, 1): a certified zero iff one zero run holds
    it.  With the breaks ``ends`` over g and class depth c, runs and images
    are integer pairs over g 2^c, and one bisection tests each image.
    """
    c = min(L, 8)
    runs = _merge((a << c, b << c) for a, b, w in zip(ends, ends[1:], dim.weights) if w == 0)
    if not runs:
        return CheckOutcome("no_violation", note=f"no certified zeros in the window at depth {L}")
    starts = [lo for lo, _ in runs]

    def zero(lo: int, hi: int) -> bool:
        i = bisect_right(starts, lo) - 1
        return i >= 0 and runs[i][1] >= hi

    for i, w in enumerate(dim.weights):
        if w < dim.vden:
            continue
        a, b = ends[i], ends[i + 1]
        survivors = [0]  # residues mod 2^level
        for level in range(1, c + 1):
            mod, up = 1 << (level - 1), c - level
            survivors = [r for res in survivors for r in (res, res + mod)
                         if not zero((a + r * g) << up, (b + r * g) << up)]
            if not survivors:
                return CheckOutcome(
                    "fail", dim._interval(i),
                    f"covering sum is 0 while the value is {Fraction(w, dim.vden)} (all residue "
                    f"classes ruled out at class depth {level})",
                )
    return CheckOutcome("no_violation", note=f"no violation found at class depth {c}")


def _check_d4(dim: DimFnWindow, L: int) -> CheckOutcome:
    """Semi-decide the contraction liminf from a window at least 2L deep.

    Certified-fail probe at depth L: the function vanishes at every
    contraction 2^-j x, ceil(L/2) <= j <= L, on a nonnull subset T of the
    depth-L window.  Those contractions lie in [2^-2L, 2^-ceil(L/2)), read
    from the given window when it is 2L deep, else from a window at least 2L
    deep read off the source (``_held_window``: a cut or an extension of the
    window it holds, or a sweep at 2L when it holds none).  On the
    grid, T loses 2^j N at each j, N the part of [0, 1) off the zero runs.
    """
    j_lo = (L + 1) // 2
    if dim.depth_L < 2 * L and dim.source is None:
        return CheckOutcome("skipped", note="no source spectrum attached; deep window unavailable")
    deep = dim if dim.depth_L >= 2 * L else _held_window(dim.source, 2 * L)
    scale, ends, weights = deep.scale, deep.ends, deep.weights
    up = max(0, L + 1 - (scale & -scale).bit_length())  # 2^-L on the grid
    cells = zip((0, *ends), (*ends, scale), (1, *weights, 1))  # beside the window counts as nonzero
    rest = _merge((a << up, b << up) for a, b, w in cells if w and a < b and a << j_lo < scale)
    scale <<= up
    t = [(scale >> L, scale - (scale >> L))]
    for j in range(j_lo, L + 1):
        t = _subtract(t, [(a << j, b << j) for a, b in rest])
        if not t:
            return CheckOutcome("no_violation", note=f"no violation found at depth {L}")
    return CheckOutcome(
        "fail", Interval(Fraction(t[0][0], scale), Fraction(t[0][1], scale)),
        f"function vanishes at contractions 2^-j x for all {j_lo} <= j <= {L}",
    )


# --------------------------------------------------------------- MRA test


@dataclass(frozen=True)
class MraVerdict:
    status: str  # "is_mra" | "not_mra"
    witness: Interval | None = None
    note: str = ""
    window: DimFnWindow | None = None


def mra_check(h: StepFn, depth_L: int = 20) -> MraVerdict:
    """Decide MRA membership of a wavelet via its dimension function.

    The window values are exact, so any interior deviation from 1 is a
    certified negative; a window identically 1 yields the positive verdict,
    with the standing note that pieces outside the window (within 2^-L of the
    integers) are not inspected.  A window h holds is restricted, not swept.
    """
    return mra_verdict(dimension_function(h, depth_L))


def mra_verdict(dim: DimFnWindow) -> MraVerdict:
    """The MRA verdict read off an exact dimension-function window."""
    deviations = dim.where_not(1)
    if deviations.is_empty:
        return MraVerdict(
            "is_mra",
            note=f"dimension function is identically 1 on the exact depth-{dim.depth_L} window",
            window=dim,
        )
    return MraVerdict("not_mra", deviations.parts[0],
                      f"dimension function equals {dim.value_at(deviations.parts[0].lo)} there",
                      window=dim)


@dataclass(frozen=True)
class DimensionReport(Verdict):
    window: DimFnWindow
    conditions: DimConditionsReport
    mra: MraVerdict

    @property
    def witnesses(self) -> tuple:
        c = self.conditions
        return tuple((f"D{i}: certified violation", o.witness)
                     for i, o in enumerate((c.d1, c.d2, c.d3, c.d4), 1) if o.status == "fail")


def dimension_report(h: StepFn, depth_L: int) -> DimensionReport:
    """Read the window, D1-D4 and the MRA verdict at depth L off one window deep enough for D4
    (2L + 2); the shallower ones are exact restrictions of it."""
    if depth_L < 2:
        raise InputError(f"dimfun --depth is at least 2; got {depth_L}")
    deep = dimension_function(h, 2 * depth_L + 2)
    window = deep.restrict(depth_L)
    return DimensionReport(window, check_D1_D4(deep, depth_L), mra_verdict(window))


# ------------------------------------------- translation orthogonality


@dataclass(frozen=True)
class TqResult(Verdict):
    fn: StepFn = StepFn()

    @property
    def zero(self) -> bool:
        return self.fn.is_zero

    @property
    def witnesses(self) -> tuple:
        return () if self.zero else (("orthogonality sum is nonzero", self.fn.pieces[0][0]),)


def tq_check(psi: StepFn, alpha: int) -> TqResult:
    """Exact translation-orthogonality sum t_a(x) = sum(psi(2^m x) psi(2^m (x+a)), m >= 0).

    Defined for real-valued spectra with support bounded away from 0 and odd
    integer shifts a; even shifts reduce to odd ones by a dilation change of
    variable and are rejected.  Only finitely many m contribute: both factors
    are nonzero only while 2^m |a| <= 2R, R the support reach, so m <= M.
    Term m is P_m(2^m x), P_m(y) = psi(y) psi(y + 2^m a); more than
    MAX_LEVELS scales are refused before any of them.  On the grid of
    ``_on_grid`` (endpoints over D, values over V), one two-pointer walk over
    the pieces and their shift by 2^m a D gives the cells of P_m, shifted by
    M - m bits onto 1/(D 2^M); one integer sweep sums all scales, and the
    sum holds its grid alone.
    """
    if not isinstance(alpha, int):
        raise InputError("alpha must be an integer")
    if alpha % 2 == 0:
        raise InputError("alpha must be odd; even shifts reduce to odd ones by dilation")
    if psi.is_zero:
        return TqResult()
    if any(_beside_zero(psi._held()[2])):
        raise InputError("support must be bounded away from 0")
    (scale, wden, atoms), = _tq_sweeps(psi, [alpha])  # t_a vanishes outside [-R, R)
    return TqResult(_step_from_grid(scale, wden, atoms))


def _tq_sweeps(psi: StepFn, alphas: Iterable[int]) -> Iterator[tuple[int, int, list[tuple]]]:
    """The walk and sweep of ``tq_check`` for each shift a on one grid of psi: (scale, W,
    the atoms of t_a as integers over 1/scale with values over W)."""
    d, vden, pieces = _step_grid(psi)
    reach = max(-pieces[0][0], pieces[-1][1])  # R D
    n = len(pieces)
    for alpha in alphas:
        # M: the largest m with 2^m |a| <= 2R; for none, m = 0 adds no fragment
        last, fragments = max(0, (2 * reach // (abs(alpha) * d)).bit_length() - 1), []
        for m in _levels(0, last + 1):
            t, up, j = (alpha * d) << m, last - m, 0
            for a, b, x in pieces:  # y = psi(. + 2^m a) on the shifted pieces [c - t, e - t)
                while j < n and pieces[j][1] - t <= a:
                    j += 1
                k = j
                while k < n and pieces[k][0] - t < b:
                    c, e, y = pieces[k]
                    fragments.append((max(a, c - t) << up, min(b, e - t) << up, x * y))
                    k += 1
        yield d << last, vden * vden, sweep_weighted(fragments, -reach << last, reach << last)


@dataclass(frozen=True)
class OrthonormalityReport(Verdict):
    passed: bool
    norm_sq: Fraction
    calderon: CalderonResult
    tq_failures: tuple[tuple[int, Interval], ...]
    alphas_checked: tuple[int, ...]
    notes: tuple[str, ...] = ()

    @property
    def witnesses(self) -> tuple:
        return ((("dilation sum is not identically 1", None),) * (not self.calderon.is_one)
                + tuple((f"orthogonality sum nonzero at shift {a}", iv) for a, iv in self.tq_failures)
                + ((f"squared norm is {self.norm_sq}", None),) * (self.norm_sq != 1))


MAX_SHIFTS = 2048  # work budget on the odd shifts of one orthonormality check


def orthonormality_check(psi: StepFn) -> OrthonormalityReport:
    """Certify orthonormality of a real-valued step-function wavelet spectrum.

    Passes iff the Calderon sum of psi^2 is identically 1, every
    translation-orthogonality sum vanishes (odd shifts up to twice the
    support reach; negative shifts are equivalent by reflection), and the
    squared norm is exactly 1.  More than MAX_SHIFTS shifts, so a reach of
    4097/2 or more, is an InputError, raised before any sum.  Only the first
    nonzero atom of each nonzero t_a becomes an interval.
    """
    if psi.is_zero:
        return OrthonormalityReport(False, ZERO, calderon(psi), (), (),
                                    ("spectrum is identically zero",))
    d, _, pieces = psi._held()
    if any(_beside_zero(pieces)):
        raise InputError("support must be bounded away from 0")
    big = Fraction(max(-pieces[0][0], pieces[-1][1]), d)  # sorted pieces, none reaching 0
    alphas = range(1, math.floor(2 * big) + 1, 2)
    if len(alphas) > MAX_SHIFTS:
        raise InputError(f"orthonormality checks at most {MAX_SHIFTS} odd shifts (work budget); "
                         f"the support reach {big} needs {len(alphas)}")
    sq = psi.square()
    norm_sq = sq.integral()
    cal = calderon(sq)
    failures = []
    for a, (scale, _, atoms) in zip(alphas, _tq_sweeps(psi, alphas)):
        first = next(((lo, hi) for lo, hi, w in atoms if w), None)
        if first:
            failures.append((a, Interval(Fraction(first[0], scale), Fraction(first[1], scale))))
    passed = (not cal.diverges) and cal.is_one and not failures and norm_sq == 1
    notes = ("shifts -a are equivalent to +a by reflection of the sum",)
    return OrthonormalityReport(passed, norm_sq, cal, tuple(failures), tuple(alphas), notes)


# ------------------------------------------------- band-pair family psi_b


def psi_b_spectrum(b: RationalLike) -> StepFn:
    """Indicator spectrum on (-1, -b) u (b, 1)."""
    b = rat(b)
    if not 0 <= b < 1:
        raise InputError("b must lie in [0, 1)")
    return StepFn.build([((Fraction(-1), -b), ONE), ((b, ONE), ONE)])


def _psi_b_row(b: Fraction) -> str:
    if b == 0:
        return "not a frame wavelet"
    if b <= Fraction(1, 8):
        return "frame wavelet (not Riesz)"
    if b <= Fraction(1, 6):
        return "open: frame status unknown"
    if b < Fraction(1, 3):
        return "not a frame wavelet"
    if b < HALF:
        return "biorthogonal Riesz wavelet"
    if b == HALF:
        return "orthonormal wavelet"
    return "not a frame wavelet"


@dataclass(frozen=True)
class PsiBReport(Verdict):
    b: Fraction
    orthonormality: OrthonormalityReport

    @property
    def table_row(self) -> str:
        return _psi_b_row(self.b)

    @property
    def consistent(self) -> bool:
        return self.orthonormality.passed == (self.table_row == "orthonormal wavelet")

    @property
    def notes(self) -> tuple[str, ...]:
        rep, cal, notes = self.orthonormality, self.orthonormality.calderon, []
        if self.b:  # at b = 0 the report that psi_b_report makes carries the notes
            if not cal.is_one:
                notes.append(f"dilation sum ranges over [{cal.min_value}, {cal.max_value}]: "
                             "not a Parseval wavelet")
            if rep.tq_failures:
                notes.append("translation-orthogonality sums are nonzero: not a Parseval wavelet")
            if rep.norm_sq != 1:
                notes.append(f"squared norm is {rep.norm_sq}, not 1")
        if self.table_row == "open: frame status unknown":
            notes.append("frame status in this range is an open question; "
                         "only necessary conditions are certified")
        return tuple(notes) + rep.notes


def psi_b_report(b: RationalLike) -> PsiBReport:
    """Computable diagnostics for the band-pair family member at parameter b.

    Holds the orthonormality report of psi_b (the squared norm, the Calderon
    sum, translation-orthogonality failures and the verdict) and labels
    whether the known classification row for this b is consistent with these
    necessary conditions.  Frame and Riesz claims beyond what the two
    characterizing equations certify are out of scope.  At b = 0 the support
    touches 0, so the orthogonality sums are skipped.
    """
    b = rat(b)
    psi = psi_b_spectrum(b)
    if b == 0:
        h = psi.square()
        return PsiBReport(b, OrthonormalityReport(False, h.integral(), calderon(h), (), (), (
            "support touches 0: dilation sum diverges, so not a Parseval wavelet",
            "orthogonality sums skipped: support touches 0")))
    return PsiBReport(b, orthonormality_check(psi))
