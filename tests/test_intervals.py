"""Canonical interval-set algebra: examples and algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from waveset.errors import InputError
from waveset.intervals import EMPTY, Interval, IntervalSet, _beside_zero, iset, normalize, rat

F = Fraction


def bounded_fractions(bound: int, max_denominator: int):
    """The fractions in [-bound, bound] with denominator at most max_denominator.

    Drawn as a denominator and then a numerator: ``st.fractions`` with these
    bounds generates so slowly that, on a loaded host, the draws trip the
    ``too_slow`` health check.
    """
    return st.integers(1, max_denominator).flatmap(
        lambda d: st.integers(-bound * d, bound * d).map(lambda n: F(n, d)))


rationals = bounded_fractions(8, 64)


@st.composite
def interval_sets(draw, max_parts: int = 6) -> IntervalSet:
    pairs = draw(st.lists(st.tuples(rationals, rationals), max_size=max_parts))
    return normalize((min(a, b), max(a, b)) for a, b in pairs)


def test_normalize_merges_touching():
    assert iset((0, 1), (1, 2)) == iset((0, 2))


def test_normalize_absorbs_subinterval():
    assert iset((0, 3), (1, 2)) == iset((0, 3))


def test_normalize_sorts_and_merges():
    assert iset(("1/3", "1/2"), (0, "1/3")) == iset((0, "1/2"))


def test_normalize_drops_zero_length():
    assert normalize([(1, 1), (2, 3)]) == iset((2, 3))


def test_subtract_shannon_shape():
    assert iset((-1, 1)).subtract(iset(("-1/2", "1/2"))) == iset((-1, "-1/2"), ("1/2", 1))


def test_intersect_disjoint():
    assert iset((0, 1)).intersect(iset((1, 2))) == EMPTY


def test_union_identity():
    s = iset(("-1/3", "2/5"), (1, 2))
    assert EMPTY.union(s) == s


def test_scale_examples():
    assert iset(("-1/2", "1/2")).scale(2) == iset((-1, 1))
    assert iset(("2/7", "1/2")).scale(F(1, 2)) == iset(("1/7", "1/4"))
    assert iset(("1/2", 1)).translate(-1) == iset(("-1/2", 0))


def test_negative_scale_reverses():
    s = iset((1, 2), (3, 4))
    assert s.scale(-1) == iset((-4, -3), (-2, -1))
    assert s.scale(-1).measure() == s.measure()


def test_measure_journe():
    # Four exact lengths: 2/7 + 3/14 + 3/14 + 2/7.
    j = iset(("-16/7", -2), ("-1/2", "-2/7"), ("2/7", "1/2"), (2, "16/7"))
    assert sum(p.length for p in j.parts) == 1
    assert j.measure() == 1


def test_sym_diff_self_is_zero():
    s = iset((0, 1), (2, "5/2"))
    assert s.sym_diff_measure(s) == 0


def test_subset_mod_null():
    assert iset((0, 1)).subset_mod_null(iset((0, 2)))
    assert not iset((0, 2)).subset_mod_null(iset((0, 1)))


def test_contains_point_and_interval():
    s = iset((0, 1), (2, 3))
    assert s.contains_point(F(1, 2))
    assert not s.contains_point(1)
    assert s.contains_interval(Interval(F(2), F(3)))
    assert not s.contains_interval(Interval(F(1, 2), F(5, 2)))


def test_malformed_rational_rejected():
    with pytest.raises(InputError):
        rat("1/0")
    with pytest.raises(InputError):
        rat("abc")
    for text in ("1e100000", "1.5", "1_000", "1/-2", "0x10"):
        with pytest.raises(InputError):
            rat(text)
    with pytest.raises(InputError):
        rat(0.5)


def test_scale_by_zero_rejected():
    with pytest.raises(InputError):
        iset((0, 1)).scale(0)


def test_noncanonical_construction_rejected():
    with pytest.raises(InputError):
        IntervalSet((Interval(F(0), F(2)), Interval(F(1), F(3))))


@given(interval_sets())
def test_normalize_idempotent(s):
    assert normalize(s.parts) == s


@given(interval_sets(), interval_sets())
def test_measure_additivity(a, b):
    assert a.union(b).measure() + a.intersect(b).measure() == a.measure() + b.measure()


@given(interval_sets(), interval_sets(), interval_sets())
def test_subtract_union_law(a, b, c):
    assert a.subtract(b.union(c)) == a.subtract(b).subtract(c)


@given(interval_sets(), interval_sets(), interval_sets())
def test_intersection_distributes(a, b, c):
    assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))


@given(interval_sets(), interval_sets(), bounded_fractions(4, 16).filter(lambda s: s != 0))
def test_scale_homomorphism(a, b, s):
    assert a.union(b).scale(s) == a.scale(s).union(b.scale(s))
    assert a.scale(s).measure() == abs(s) * a.measure()


@given(interval_sets(), interval_sets(), rationals)
def test_translate_commutes_with_ops(a, b, t):
    assert a.union(b).translate(t) == a.translate(t).union(b.translate(t))
    assert a.intersect(b).translate(t) == a.translate(t).intersect(b.translate(t))
    assert a.subtract(b).translate(t) == a.translate(t).subtract(b.translate(t))


@given(interval_sets(), interval_sets())
def test_equality_iff_null_difference(a, b):
    assert (a == b) == (a.sym_diff_measure(b) == 0)


@given(st.lists(rationals, max_size=9), st.booleans(), st.integers(0, 3))
def test_beside_zero_is_the_scan(ends, at_zero, skip):
    # Sorted, disjoint parts that may touch (the pieces of a step function):
    # the bisection answers as the scan does.
    ends = sorted(set(ends) | ({F(0)} if at_zero else set()))
    parts = [Interval(a, b) for i, (a, b) in enumerate(zip(ends, ends[1:])) if i % 4 != skip]
    left = any(p.lo < 0 <= p.hi for p in parts)
    right = any(p.lo <= 0 < p.hi for p in parts)
    assert _beside_zero([(p.lo, p.hi) for p in parts]) == (left, right)
