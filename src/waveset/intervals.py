"""Exact algebra of finite unions of half-open rational intervals.

Endpoints are arbitrary-precision rationals (``fractions.Fraction``) and every
operation is exact; there is no rounding anywhere in this module.  Sets are
kept in one canonical form per null-equivalence class: parts sorted by left
endpoint, with touching or overlapping parts merged.  Two values therefore
compare equal iff they describe the same set modulo null sets.

Half-open ``[lo, hi)`` semantics are used throughout: endpoint membership is
a null-set question, and half-open intervals are closed under disjoint tiling.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence, Union

from .errors import InputError

RationalLike = Union[Fraction, int, str]
RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rat(x: RationalLike) -> Fraction:
    """Coerce an int, a "p/q" or "n" string, or a Fraction to an exact rational.

    Strings are an optional sign, digits, and optionally "/" and digits;
    anything else (exponents, decimal points, underscores) is an input error.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        text = x.replace("−", "-").strip()
        if not RATIONAL.fullmatch(text):
            raise InputError(f"malformed rational {x!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise InputError(f"malformed rational {x!r}: zero denominator") from None
        except ValueError:
            raise InputError(f"malformed rational {x!r}") from None
    if isinstance(x, float):
        raise InputError("floating point values are not accepted; pass Fraction, int or 'p/q'")
    raise InputError(f"cannot interpret {x!r} as a rational")


class _Views:
    """The one rule of the value types (``IntervalSet``, ``spectral.StepFn``,
    ``torus.DimFnWindow``, ``spectral.CalderonResult``): a value holds the view it was
    made from, and the other is made on first read.  A parsed value (a validated
    constructor, coercing through ``rat``) holds fractions and makes its integer grid on
    first kernel read: a set's or a step function's ``_grid`` once its lcm passed the grid
    budget (``torus._pairs_on_grid``, ``spectral._step_grid``), a window's ``_GRID`` here.
    A kernel-made value (``_kept``) holds only its canonical grid, the lcm grid of its
    fractions, and makes the ``_FRACTIONS`` here.  Equality, hash, repr and pickle read
    the fractions, so a value made either way equals its twin, byte for byte.
    """

    _GRID: tuple[str, ...] = ()

    def __getattr__(self, name: str):  # runs only while ``name`` is unset
        if name in self._FRACTIONS:
            self.__dict__.update(zip(self._FRACTIONS, self._fractions()))
        elif name in self._GRID:
            self.__dict__.update(zip(self._GRID, self._lcm_grid()))
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _kept(cls: type, **view):
    """A ``cls`` holding ``view`` alone, which its maker checked: no constructor runs."""
    value = object.__new__(cls)
    value.__dict__.update(view)
    return value


def _nonempty(pairs: Iterable[Sequence], d: int = 1) -> None:
    """The ``Interval`` check on (lo, hi, ...) over d, number-type generic like ``_merge``."""
    bad = next((p for p in pairs if p[0] >= p[1]), None)
    if bad is not None:
        raise InputError(f"not a nonempty half-open interval: [{Fraction(bad[0], d)}, "
                         f"{Fraction(bad[1], d)})")


def _intervals_only(ivs: Iterable, maker: str) -> None:
    """The InputError naming the first of ``ivs`` that is not an ``Interval``."""
    bad = next((iv for iv in ivs if not isinstance(iv, Interval)), None)
    if bad is not None:
        raise InputError(f"expected an Interval, got {bad!r}; use {maker}")


def _separated(pairs: Sequence[tuple], d: int = 1) -> None:
    """The ``IntervalSet`` checks on (lo, hi) pairs over d: nonempty, sorted, strictly apart."""
    _nonempty(pairs, d)
    if not all(p[1] < q[0] for p, q in zip(pairs, pairs[1:])):
        raise InputError("parts must be sorted and strictly separated; use normalize()")


@dataclass(frozen=True)
class Interval:
    """Nonempty half-open interval [lo, hi); empty intervals are never stored."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo, hi = rat(self.lo), rat(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo >= hi:
            _nonempty(((lo, hi),))

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi})"


@dataclass(frozen=True)
class IntervalSet(_Views):
    """Canonical finite union of half-open rational intervals.

    Its two views follow ``_Views``: ``parts``, and the integer grid ``_grid``
    = (D, its parts as integer pairs over D), D the lcm of its endpoint
    denominators.  A kernel (``torus._from_grid``) makes a set holding the grid
    alone; a parsed set makes it on first kernel read (``torus._pairs_on_grid``).
    """

    parts: tuple[Interval, ...] = field(default_factory=tuple)
    _grid = None
    _FRACTIONS = ("parts",)

    def __post_init__(self) -> None:
        _intervals_only(self.parts, "normalize()")
        _separated(self._pairs)

    def _fractions(self) -> tuple:
        d, pairs = self._grid
        return tuple(_kept(Interval, lo=Fraction(a, d), hi=Fraction(b, d)) for a, b in pairs),

    # ------------------------------------------------------------- queries

    @property
    def is_empty(self) -> bool:
        return not (self._grid[1] if self._grid else self.parts)

    def measure(self) -> Fraction:
        return sum((p.length for p in self.parts), Fraction(0))

    def span(self) -> Interval | None:
        """Smallest single interval containing the set, or None if empty."""
        if not self.parts:
            return None
        return Interval(self.parts[0].lo, self.parts[-1].hi)

    def contains_point(self, x: RationalLike) -> bool:
        x = rat(x)
        idx = bisect_right(self._pairs, x, key=itemgetter(0)) - 1
        return idx >= 0 and self.parts[idx].hi > x

    def contains_interval(self, iv: Interval) -> bool:
        """True iff [iv.lo, iv.hi) lies inside a single part."""
        idx = bisect_right(self._pairs, iv.lo, key=itemgetter(0)) - 1
        return idx >= 0 and self.parts[idx].hi >= iv.hi

    @cached_property
    def _pairs(self) -> list[tuple[Fraction, Fraction]]:
        return [(p.lo, p.hi) for p in self.parts]

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return " ∪ ".join(str(p) for p in self.parts)

    # ------------------------------------------------ boolean algebra

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return normalize(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return self.subtract(self.subtract(other))

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        # pieces of one part are split by parts of other, so they never touch
        return IntervalSet(tuple(Interval(lo, hi) for lo, hi in _subtract(self._pairs, other._pairs)))

    __or__ = union
    __and__ = intersect
    __sub__ = subtract

    def subset_mod_null(self, other: "IntervalSet") -> bool:
        return self.subtract(other).is_empty

    def sym_diff_measure(self, other: "IntervalSet") -> Fraction:
        return self.subtract(other).measure() + other.subtract(self).measure()

    # ------------------------------------------------ affine images

    def scale(self, s: RationalLike) -> "IntervalSet":
        """Image under x -> s*x; negative s reverses orientation (a null-set change)."""
        s = rat(s)
        if s == 0:
            raise InputError("scale factor must be nonzero")
        if s > 0:
            parts = tuple(Interval(s * p.lo, s * p.hi) for p in self.parts)
        else:
            parts = tuple(Interval(s * p.hi, s * p.lo) for p in reversed(self.parts))
        return IntervalSet(parts)

    def translate(self, t: RationalLike) -> "IntervalSet":
        t = rat(t)
        return IntervalSet(tuple(Interval(p.lo + t, p.hi + t) for p in self.parts))


EMPTY = IntervalSet()


def normalize(raw: Iterable[Interval | tuple[RationalLike, RationalLike]]) -> IntervalSet:
    """Canonicalize an arbitrary collection of intervals.

    Input entries may overlap, touch, or be unsorted; (lo, hi) pairs with
    lo == hi are dropped as empty.  Idempotent.
    """
    items: list[tuple[Fraction, Fraction]] = []
    for entry in raw:
        if isinstance(entry, Interval):
            items.append((entry.lo, entry.hi))
        else:
            lo, hi = rat(entry[0]), rat(entry[1])
            if lo > hi:
                raise InputError(f"inverted interval bounds [{lo}, {hi})")
            if lo < hi:
                items.append((lo, hi))
    items.sort()
    return IntervalSet(tuple(Interval(lo, hi) for lo, hi in _merge(items)))


def _merge(pairs: Iterable[tuple]) -> list[tuple]:
    """Merge (lo, hi) pairs sorted by lo, each with lo < hi: touching or
    overlapping pairs become one, so the result is sorted and strictly separated.

    Exact for any one exact number type: sets merge fractions, and the
    truncated construction merges integers on its grid.
    """
    out: list[tuple] = []
    for lo, hi in pairs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _subtract(a: Sequence[tuple], b: Sequence[tuple]) -> list[tuple]:
    """The pairs of a minus those of b, both sorted and strictly separated.

    The result is sorted and strictly separated too.  Number-type generic,
    like ``_merge``.
    """
    out: list[tuple] = []
    j, nb = 0, len(b)
    if a and b:  # skip the pairs of b below a at once
        j = max(0, bisect_right(b, a[0][0], key=itemgetter(0)) - 1)
    for lo, hi in a:
        while j < nb and b[j][1] <= lo:
            j += 1
        jj = j
        while jj < nb and lo < hi and b[jj][0] < hi:
            blo, bhi = b[jj]
            if blo > lo:
                out.append((lo, blo))
            if bhi > lo:
                lo = bhi
            jj += 1
        if lo < hi:
            out.append((lo, hi))
    return out


def _beside_zero(pairs: Sequence[tuple]) -> tuple[bool, bool]:
    """Whether sorted, disjoint (lo, hi, ...) pairs of one number type hold some (-e, 0), and
    some (0, e), by one bisection: only the first pair reaching 0, or the next, can hold either.
    """
    i = bisect_left(pairs, 0, key=itemgetter(1))
    left = i < len(pairs) and pairs[i][0] < 0
    if i < len(pairs) and pairs[i][1] == 0:
        i += 1
    return left, i < len(pairs) and pairs[i][0] <= 0


def _off_zero(pairs: Sequence[tuple]) -> tuple[int, object, object]:
    """(i, r, R) for sorted, disjoint (lo, hi) pairs of one number type, by one bisection: pair
    i is the first with hi >= 0, r is None if it reaches 0, else all lie in [-R, -r] u [r, R]."""
    i = bisect_left(pairs, 0, key=itemgetter(1))
    if i < len(pairs) and pairs[i][0] <= 0:
        return i, None, None
    r = min(([pairs[i][0]] if i < len(pairs) else []) + ([-pairs[i - 1][1]] if i else []))
    return i, r, max(-pairs[0][0], pairs[-1][1])


def iset(*pairs: tuple[RationalLike, RationalLike]) -> IntervalSet:
    """Shorthand constructor: iset((0, 1), ("3/2", 2))."""
    return normalize(pairs)
