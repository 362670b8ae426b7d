"""Canonical interval-set algebra: examples and algebraic laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import intersect_pairs
from waveset.errors import InputError
from waveset.intervals import EMPTY, Interval, IntervalSet, _beside_zero, iset, normalize, rat
from waveset.torus import _from_grid

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


def _intersect_case(rng, kind):
    """Two sets of integer pairs over one grid d, both sorted and strictly apart: random,
    one of them empty, b touching a at its ends, or b nested in a (or a in b)."""
    d = rng.choice((1, 2, 3, 8, 12))

    def pairs(n):
        ends = sorted(rng.sample(range(-8 * d, 8 * d), 2 * n))
        return list(zip(ends[::2], ends[1::2]))

    a = pairs(rng.randint(0, 5))
    if kind == "empty":
        b = []
    elif kind == "touching":  # b's parts lie in the gaps of a, each touching a part of a
        b = []
        ends = [-9 * d, *(x for p in a for x in p), 9 * d]
        for i, (lo, hi) in enumerate(a):
            part = ((max(lo - rng.randint(1, d), ends[2 * i]), lo) if rng.random() < 0.5
                    else (hi, min(hi + rng.randint(1, d), ends[2 * i + 3])))
            if part[0] < part[1] and (not b or b[-1][1] < part[0]):
                b.append(part)
    elif kind == "nested":  # each part of b inside a part of a, sometimes all of it
        b = []
        for lo, hi in a:
            u, v = sorted(rng.sample(range(lo, hi + 1), 2))
            b.append((u, v) if rng.random() < 0.8 else (lo, hi))
    else:
        b = pairs(rng.randint(0, 5))
    if rng.random() < 0.5:
        a, b = b, a
    return d, a, b


def test_intersect_matches_the_two_pointer_walk_seeded():
    # intersect is a minus (a minus b); the oracle is the two-pointer walk it replaced,
    # on parsed sets and on sets holding their grid alone.
    rng = random.Random(2030)
    seen = {"random": 0, "empty": 0, "touching": 0, "nested": 0}
    nonempty = 0
    for i in range(2400):
        kind = list(seen)[i % 4]
        d, a, b = _intersect_case(rng, kind)
        fa, fb = ([(F(lo, d), F(hi, d)) for lo, hi in p] for p in (a, b))
        expected = intersect_pairs(fa, fb)
        for x, y in ((normalize(fa), normalize(fb)), (_from_grid(a, d), _from_grid(b, d))):
            got = x.intersect(y)
            assert [(p.lo, p.hi) for p in got.parts] == expected
            assert got == y.intersect(x) and (x & y) == got
        if kind == "touching":
            assert expected == []
        seen[kind] += 1
        nonempty += bool(expected)
    assert min(seen.values()) == 600 and nonempty > 600, (seen, nonempty)


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
