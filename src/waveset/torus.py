"""1-periodization machinery.

Folds interval sets onto the unit torus [0, 1), counts translation
multiplicities exactly, and extracts deterministic transversals (subsets whose
integer translates tile the line with multiplicity one).  Each reduces an
interval to the residue fragments of ``_unit_fragments``: folds and
dimension-function windows sum them in one grid sweep into one periodic-step
type, which holds the sweep's integer grid alone (``intervals._Views``), and a
transversal claims them in order of shift.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import InputError, PreconditionError
from .intervals import (Interval, IntervalSet, _kept, _merge, _separated, _subtract, _Views, iset,
                        normalize, rat)

if TYPE_CHECKING:
    from .spectral import StepFn

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def sweep_weighted(fragments: Iterable[tuple], lo, hi) -> list[tuple]:
    """Sum weighted half-open fragments over the window [lo, hi).

    Returns (atom_lo, atom_hi, total) triples covering the window, equal-valued
    neighbours merged ([] when lo == hi): each fragment, clipped in place, adds
    its weight at its two ends, and one pass over the sorted cuts emits an atom
    where the total changes, the last at hi.  Callers sweep integers on their
    grids: ``_grid_sweep`` (unit fold, dimension function, Calderon sums) and
    ``spectral._tq_sweeps``.
    """
    deltas = {lo: 0, hi: 0}
    get = deltas.get
    for a, b, val in fragments:
        if a < lo:
            a = lo
        if b > hi:
            b = hi
        if a < b:
            deltas[a] = get(a, 0) + val
            deltas[b] = get(b, 0) - val
    out, start, level = [], lo, deltas[lo]
    for x in sorted(deltas)[1:]:  # the cuts in (lo, hi], hi the last
        if (step := deltas[x]) or x == hi:
            out.append((start, x, level))
            start, level = x, level + step
    return out


MAX_GRID_BITS = 8192  # work budget on the bit length of each lcm D of _on_grid


def _on_grid(pieces: Sequence[tuple[Interval, Fraction]],
             power: int = 1) -> tuple[int, int, list[tuple[int, int, int]]]:
    """(D, V, the pieces as (lo, hi, weight) integers over D with weights over V), D and V the
    lcms of the endpoint and value denominators.

    Every grid number carries the bits of D: on distinct prime denominators
    the unit fold beats fractions at 5*10^3 bits and is up to 1.6 times
    slower at 10^4 and 2.7 at 2.1*10^4.  A D or V^power (the value lcm of the
    power-th powers) over MAX_GRID_BITS bits is an InputError, raised first.
    """
    ends = [x for iv, _ in pieces for x in (iv.lo, iv.hi)]
    d = math.lcm(*(x.denominator for x in ends))
    vden = math.lcm(*(v.denominator for _, v in pieces))
    _within_budget(endpoint=d, value=vden ** power)
    ends = [x.numerator * (d // x.denominator) for x in ends]
    return d, vden, [(a, b, v.numerator * (vden // v.denominator))
                     for a, b, (_, v) in zip(ends[::2], ends[1::2], pieces)]


def _within_budget(**dens: int) -> None:
    """Refuse lcms over MAX_GRID_BITS bits: the InputError of ``_on_grid``, naming each group."""
    if max(dens.values()).bit_length() > MAX_GRID_BITS:
        raise InputError(f"the lcms of the {' and '.join(dens)} denominators have at most "
                         f"{MAX_GRID_BITS} bits each (work budget); got "
                         + " and ".join(str(d.bit_length()) for d in dens.values()))


def _grid_sweep(d: int, vden: int, pieces: Sequence[tuple[int, int, int]], levels: Sequence[int],
                periodic: bool, windows: Iterable[tuple], depth: int = 0) -> Iterator[tuple]:
    """Sweep the fragments 2^-j [lo, hi), weighted by w, over each window.

    One fragment per j in ``levels`` and (lo, hi, w) in ``pieces``, integers
    over d with weights over vden (a value's grid, read within the ``_on_grid``
    budget), and windows with rational ends on 1/(d 2^depth).  A ``periodic`` sum
    counts all their integer translates by folding them into [0, 1) with
    ``_unit_fragments`` (windows inside [0, 1]), so its cost follows the
    levels, not the reach.  Yields each window's atoms as integers (scale,
    ends, vden, weights), a ``DimFnWindow`` grid, scale = d 2^T with T the
    larger of ``depth`` and the deepest j; callers convert what they read.
    """
    t = max([depth, *levels])
    scale = d << t
    frags = [(a << (t - j), b << (t - j), w) for j in levels for a, b, w in pieces]
    if periodic:
        frags = [(a, b, w) for a, b, w, _ in _unit_fragments(frags, scale)]
    for lo, hi in windows:
        glo, ghi = lo * scale, hi * scale
        assert glo.denominator == ghi.denominator == 1, "window endpoints must lie on the grid"
        atoms = sweep_weighted(frags, glo.numerator, ghi.numerator)
        yield scale, (glo.numerator, *(b for _, b, _ in atoms)), vden, tuple(w for _, _, w in atoms)


@dataclass(frozen=True)
class DimFnWindow(_Views):
    """1-periodic step function, known exactly on a window of [0, 1).

    ``breaks`` strictly increase inside [0, 1]; piece i carries ``values[i]``
    on [breaks[i], breaks[i + 1]).  Folds are exact on all of [0, 1) and have
    ``depth_L`` 0.  A dimension-function window of depth L covers
    [2^-L, 1 - 2^-L) exactly; pieces may accumulate at 0 and 1 outside it,
    which ``boundary_note`` records.  D4 reads the deeper window that the
    source spectrum, when attached, holds.  Queries and checks read the
    integer grid: piece i is [ends[i], ends[i + 1]) over ``scale`` with value
    weights[i] over ``vden``.  Its two views follow ``_Views``: sweeps and cuts
    (``_from_grid``) make a window holding the grid alone, and a parsed window
    makes the lcm grid of its fractions on first read.
    """

    breaks: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    depth_L: int
    boundary_note: bool
    source: StepFn | None = None
    _FRACTIONS = ("breaks", "values")
    _GRID = ("scale", "ends", "vden", "weights")

    def __post_init__(self) -> None:
        breaks, values = tuple(map(rat, self.breaks)), tuple(map(rat, self.values))
        self.__dict__.update(breaks=breaks, values=values)
        if not values or len(breaks) != len(values) + 1:
            raise InputError("a window needs a value per piece and one breakpoint more than values")
        if breaks[0] < 0 or breaks[-1] > 1:
            raise InputError("window breakpoints must lie inside [0, 1]")
        if any(a >= b for a, b in zip(breaks, breaks[1:])):
            raise InputError("window breakpoints must be strictly increasing")

    @classmethod
    def _from_grid(cls, grid: tuple, depth_L: int, note: bool, source: StepFn | None = None):
        """The window of a sweep or a cut, whose grid (scale, ends, V, weights) is valid by
        construction, holding that grid divided to the lcm grid of its fractions."""
        scale, ends, vden, weights = grid
        g, h = math.gcd(scale, *ends), math.gcd(vden, *weights)
        return _kept(cls, depth_L=depth_L, boundary_note=note, source=source, scale=scale // g,
                     ends=tuple(e // g for e in ends) if g > 1 else ends, vden=vden // h,
                     weights=tuple(w // h for w in weights) if h > 1 else weights)

    def _fractions(self) -> tuple:
        value = {w: Fraction(w, self.vden) for w in set(self.weights)}  # each value made once
        breaks = tuple(Fraction(e, self.scale) for e in self.ends)
        return breaks, tuple(map(value.get, self.weights))

    def _lcm_grid(self) -> tuple:
        scale = math.lcm(*(x.denominator for x in self.breaks))
        vden = math.lcm(*(v.denominator for v in self.values))
        return (scale, tuple(x.numerator * (scale // x.denominator) for x in self.breaks),
                vden, tuple(v.numerator * (vden // v.denominator) for v in self.values))

    def window(self) -> tuple[Fraction, Fraction]:
        return self.breaks[0], self.breaks[-1]

    def pieces(self) -> Iterable[tuple[Fraction, Fraction, Fraction]]:
        return zip(self.breaks, self.breaks[1:], self.values)

    def integral(self) -> Fraction:
        return sum((v * (b - a) for a, b, v in self.pieces()), ZERO)

    def _interval(self, i: int) -> Interval:
        return Interval(Fraction(self.ends[i], self.scale), Fraction(self.ends[i + 1], self.scale))

    def _runs_not(self, c) -> list[tuple[int, int]]:
        """Maximal runs over scale of the pieces whose value is not c."""
        k = rat(c) * self.vden
        k = k.numerator if k.denominator == 1 else None  # the weight of c, if any piece can carry c
        return _merge((a, b) for a, b, w in zip(self.ends, self.ends[1:], self.weights) if w != k)

    def is_constant(self, c) -> bool:
        return not self._runs_not(c)

    def value_at(self, xi) -> Fraction:
        """Value at a point of the window (argument reduced mod 1 first)."""
        xi = rat(xi)
        xi -= math.floor(xi)
        x = math.floor(xi * self.scale)  # the ends are integers: ends[i] <= xi scale iff <= x
        if not self.ends[0] <= x < self.ends[-1]:
            wlo, whi = self.window()
            raise InputError(f"{xi} is outside the computed window [{wlo}, {whi})")
        return Fraction(self.weights[bisect_right(self.ends, x) - 1], self.vden)

    def where_not(self, c) -> IntervalSet:
        """Subset of the window where the value differs from c."""
        return _from_grid(self._runs_not(c), self.scale)

    def restrict(self, depth_L: int) -> "DimFnWindow":
        """The depth-L window [2^-L, 1 - 2^-L) cut out of this deeper one.

        Values are exact wherever a window is, so the cut equals the window
        computed at depth L directly, piece for piece.  It is cut on the grid.
        """
        if depth_L < 2:
            raise InputError("window depth must be at least 2")
        up = max(0, depth_L + 1 - (self.scale & -self.scale).bit_length())
        scale, ends = self.scale << up, tuple(e << up for e in self.ends) if up else self.ends
        lo, hi = scale >> depth_L, scale - (scale >> depth_L)
        if lo < ends[0] or hi > ends[-1]:
            raise InputError(f"the window [{self.breaks[0]}, {self.breaks[-1]}) does not cover "
                             f"the depth-{depth_L} window [{Fraction(lo, scale)}, "
                             f"{Fraction(hi, scale)})")
        i, j = bisect_right(ends, lo) - 1, bisect_left(ends, hi)
        grid = scale, (lo,) + ends[i + 1:j] + (hi,), self.vden, self.weights[i:j]
        return DimFnWindow._from_grid(grid, depth_L, self.boundary_note, self.source)


def _unit_fragments(pieces: Iterable[tuple[int, int, object]], d: int):
    """Reduce weighted intervals [lo/d, hi/d) into [0, 1), all integers over d.

    Yields (a, b, weight, shift), 0 <= a < b <= d, at most three per interval:
    the residues [a/d, b/d) with ``weight`` times the interval's value, and
    the least shift that puts them back inside it.  Whole periods become one
    [0, d) fragment weighted by their number, so the work does not grow with
    the length; fragments come in order of shifts.
    """
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


def _pairs_on_grid(s: IntervalSet, *extra: Fraction, **groups: int) -> tuple[int, list[tuple]]:
    """(D, the parts of S as read-only integer pairs over D): the grid S holds (a parsed set makes
    it on first read), rescaled to D, its lcm with the denominators of ``extra``.  Every read
    checks D, and the lcms ``groups`` name, against the ``_on_grid`` budget with its refusal
    text, before any numerator is made."""
    ends = None if s._grid else [x for p in s.parts for x in (p.lo, p.hi)]
    d = s._grid[0] if s._grid else math.lcm(*(x.denominator for x in ends))
    lcm = math.lcm(d, *(x.denominator for x in extra))
    _within_budget(endpoint=lcm, **groups)
    if ends is not None:
        ends = [x.numerator * (d // x.denominator) for x in ends]
        object.__setattr__(s, "_grid", (d, list(zip(ends[::2], ends[1::2]))))
    up = lcm // d
    return lcm, s._grid[1] if up == 1 else [(a * up, b * up) for a, b in s._grid[1]]


def _from_grid(pairs: Iterable[tuple[int, int]], d: int) -> IntervalSet:
    """Integer pairs over d as a set holding them alone (``_Views``): checked once on the
    integers, with the InputError of the validated constructors (``_separated``), and divided
    by gcd(d, every end) to the lcm grid of its fractions, which ``_on_grid`` would make."""
    pairs = list(pairs)
    _separated(pairs, d)
    g = math.gcd(d, *(x for pair in pairs for x in pair))
    return _kept(IntervalSet, _grid=(d // g, [(a // g, b // g) for a, b in pairs]))


def s1_witness(s: IntervalSet) -> Interval | None:
    """The first part of S minus 2S, or None; ``_subtract`` on the grid of S."""
    d, pairs = _pairs_on_grid(s)
    left_over = _subtract(pairs, [(a << 1, b << 1) for a, b in pairs])
    return _from_grid(left_over[:1], d).parts[0] if left_over else None


def _fold(d: int, vden: int, pieces: Sequence[tuple[int, int, int]]) -> DimFnWindow:
    """The periodic ``_grid_sweep`` at level 0 over [0, 1) of pieces on a grid in the budget."""
    grid, = _grid_sweep(d, vden, pieces, [0], True, [(0, 1)])
    return DimFnWindow._from_grid(grid, 0, False)


def fold_step(pieces: Iterable[tuple[Interval, Fraction]]) -> DimFnWindow:
    """Exact periodization sum(f(xi + k) for k in Z) of a weighted step function: ``_fold``
    on the grid of ``_on_grid`` (endpoints over D, values over V, both in its budget)."""
    return _fold(*_on_grid(list(pieces)))


def fold_multiplicity(s: IntervalSet) -> DimFnWindow:
    """Multiplicity m(xi) = #{k in Z : xi + k in S} on [0, 1): ``_fold`` on the grid of S,
    refused as ``fold_step`` refuses S weighted 1 ("...endpoint and value... got N and 1")."""
    d, pairs = _pairs_on_grid(s, value=1)
    return _fold(d, 1, [(a, b, 1) for a, b in pairs])


def check_S3(s: IntervalSet) -> bool:
    """True iff the integer translates of S tile the line with multiplicity one."""
    return fold_multiplicity(s).is_constant(1)


def uncovered_witness(s: IntervalSet) -> Interval | None:
    """A sub-interval of [0, 1) whose residues S misses, or None if S covers."""
    m = fold_multiplicity(s)
    return next((m._interval(i) for i, w in enumerate(m.weights) if w < m.vden), None)


def periodize_window(e: IntervalSet, m: int) -> IntervalSet:
    """The periodization union(E + k for k in Z) clipped to [-M, M)."""
    if m < 1:
        raise InputError("window half-width M must be a positive integer")
    window = iset((-m, m))
    copies: list[Interval] = []
    for p in e.parts:
        k_lo = math.floor(-m - p.hi) + 1
        k_hi = math.ceil(m - p.lo) - 1
        for k in range(k_lo, k_hi + 1):
            copies.append(Interval(p.lo + k, p.hi + k))
    return normalize(copies).intersect(window)


def extract_transversal(sprime: IntervalSet, prefer_window: bool = False) -> IntervalSet:
    """Pick a deterministic subset of S' whose translates tile with multiplicity one.

    Each residue of [0, 1) keeps its copy in S' of least integer shift; with
    ``prefer_window`` S' meet [-1/2, 1/2) is kept first, so a residue keeps
    its copy there when S' holds one.  On the grid of S' (with 1/2 on it,
    ``_pairs_on_grid``) the window, then each ``_unit_fragments`` fragment of
    S' in order of shift, claims the residues no earlier claim took
    (``_subtract``), and the result holds its grid alone.

    Raises PreconditionError when residues are left unclaimed, i.e. the
    translates of S' fail to cover the line, naming the sub-interval of
    [0, 1) that ``uncovered_witness`` names: the fold runs only then.
    """
    d, pairs = _pairs_on_grid(sprime, *((HALF,) if prefer_window else ()))
    h = d >> 1
    window = [(max(a, -h), min(b, h)) for a, b in pairs if a < h and -h < b] if prefer_window else []
    kept, taken = [], []  # ``taken`` stays merged: [a, b) joins the runs it meets or touches
    # The window claims first.  Parts are sorted and disjoint, so their fragments come in order
    # of their shifts, and the first one holding a residue holds its least shift.
    for a, b, _, k in _unit_fragments(((a, b, 1) for a, b in window + pairs), d):
        kept += [(u + k * d, v + k * d) for u, v in _subtract([(a, b)], taken)]
        i, j = bisect_left(taken, a, key=itemgetter(1)), bisect_right(taken, b, key=itemgetter(0))
        taken[i:j] = [(min(a, taken[i][0]), max(b, taken[j - 1][1])) if i < j else (a, b)]
    if taken != [(0, d)]:
        witness = uncovered_witness(sprime)
        raise PreconditionError("r4", f"translates do not cover the line; residues {witness} "
                                "are missed", witness=witness)
    return _from_grid(_merge(sorted(kept)), d)
