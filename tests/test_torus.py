"""Periodization, multiplicity counting, and transversal extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import sample_fractions, smallest_shift_at, translation_multiplicity_at
from waveset.errors import InputError, PreconditionError
from waveset.intervals import EMPTY, iset, normalize
from waveset.torus import (
    DimFnWindow,
    check_S3,
    check_cover_r4,
    extract_transversal,
    fold_multiplicity,
    periodize_window,
    uncovered_witness,
)

F = Fraction

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=48)


@st.composite
def interval_sets(draw, max_parts: int = 5):
    pairs = draw(st.lists(st.tuples(rationals, rationals), max_size=max_parts))
    return normalize((min(a, b), max(a, b)) for a, b in pairs)


@st.composite
def covering_sets(draw):
    """Sets whose translates cover the line: a unit cell plus random extras."""
    base = draw(interval_sets())
    shift = draw(st.integers(min_value=-3, max_value=3))
    return base.union(iset((shift, shift + 1)))


def test_fold_fundamental_domain():
    assert fold_multiplicity(iset(("-1/2", "1/2"))).is_constant(1)


def test_fold_two_copies():
    assert fold_multiplicity(iset((-1, 1))).is_constant(2)


def test_fold_half_cell():
    m = fold_multiplicity(iset((0, "1/2")))
    assert list(m.pieces()) == [(F(0), F(1, 2), F(1)), (F(1, 2), F(1), F(0))]


@pytest.mark.parametrize("s, pieces", [
    (iset((0, 10**9)), [(F(0), F(1), F(10**9))]),
    (iset(("-1/3", F(10**9) + F(1, 2))),
     [(F(0), F(1, 2), F(10**9 + 1)), (F(1, 2), F(2, 3), F(10**9)), (F(2, 3), F(1), F(10**9 + 1))]),
])
def test_fold_long_intervals(s, pieces):
    # Whole periods fold in one step, so the length of an interval costs nothing.
    m = fold_multiplicity(s)
    assert list(m.pieces()) == pieces
    assert m.integral() == s.measure()


@pytest.mark.parametrize("breaks, values", [
    ((F(1), F(0)), (F(1),)),
    ((F(0), F(1, 2), F(1, 2), F(1)), (F(1), F(2), F(1))),
    ((F(-1, 4), F(1, 2)), (F(1),)),
    ((F(1, 2), F(5, 4)), (F(1),)),
    ((F(0), F(1)), ()),
])
def test_periodic_step_rejects_bad_breaks(breaks, values):
    with pytest.raises(InputError):
        DimFnWindow(breaks, values, 4, True)


def test_s3_and_r4_flags():
    assert check_S3(iset(("-1/2", "1/2")))
    assert not check_S3(iset((-1, 1)))
    assert check_cover_r4(iset((-1, 1)))
    assert not check_S3(iset((0, "1/3")))
    assert not check_cover_r4(iset((0, "1/3")))


def test_periodize_window_examples():
    assert periodize_window(iset((0, "1/4")), 1) == iset((-1, "-3/4"), (0, "1/4"))
    assert periodize_window(EMPTY, 3) == EMPTY
    # Copies at every k meeting [-2, 2), with the k = +-2 copies clipped.
    assert periodize_window(iset(("-1/8", "1/8")), 2) == iset(
        (-2, "-15/8"), ("-9/8", "-7/8"), ("-1/8", "1/8"), ("7/8", "9/8"), ("15/8", 2)
    )


def test_transversal_already_tiling():
    s = iset(("-1/2", "1/2"))
    assert extract_transversal(s) == s


def test_transversal_smallest_k():
    # Two candidate representatives per residue; the smaller shift wins.
    k = extract_transversal(iset((-1, 1)))
    assert k == iset((-1, 0))
    rng = random.Random(7)
    for xi in sample_fractions(rng, 50, F(-3), F(3)):
        assert translation_multiplicity_at([(F(-1), F(0))], xi) == 1


def test_transversal_window_preference():
    assert extract_transversal(iset((-1, 1)), prefer_window=True) == iset(("-1/2", "1/2"))
    # Shifts come in closed form, so the length of the input costs nothing.
    assert extract_transversal(iset(("-1/4", 10**9)), prefer_window=True) == iset(("-1/4", "3/4"))


def test_transversal_of_exact_cover():
    # A shifted unit cell is its own transversal.
    s = iset(("-1/4", "1/2"), ("1/2", "3/4"))
    assert fold_multiplicity(s).is_constant(1)
    assert extract_transversal(s) == s


def test_transversal_uncovered_error():
    with pytest.raises(PreconditionError) as err:
        extract_transversal(iset((0, "1/3")))
    assert err.value.condition == "r4"
    w = err.value.witness
    assert w is not None and F(1, 3) <= w.lo < w.hi <= 1


def test_transversal_r4_witness_is_uncovered_witness():
    # The transversal refuses exactly when the fold misses a residue, and
    # names the fold's witness, with and without the window claim.
    rng = random.Random(20261018)
    failures = 0
    for _ in range(400):
        parts = []
        for _ in range(rng.randint(0, 4)):
            den = rng.choice([2, 3, 4, 5, 8, 12])
            a = F(rng.randint(-3 * den, 3 * den), den)
            parts.append((a, a + F(rng.randint(1, den), den)))
        s = normalize(parts)
        expected = uncovered_witness(s)
        for prefer_window in (False, True):
            if expected is None:
                extract_transversal(s, prefer_window=prefer_window)
                continue
            failures += 1
            with pytest.raises(PreconditionError) as err:
                extract_transversal(s, prefer_window=prefer_window)
            assert err.value.condition == "r4"
            assert err.value.witness == expected
            assert str(err.value) == (f"translates do not cover the line; "
                                      f"residues {expected} are missed")
    assert failures > 200


@given(interval_sets())
def test_fold_integral_equals_measure(s):
    assert fold_multiplicity(s).integral() == s.measure()


@given(interval_sets(), st.integers(min_value=-4, max_value=4))
def test_fold_invariant_under_integer_translation(s, k):
    assert fold_multiplicity(s.translate(k)) == fold_multiplicity(s)


@given(interval_sets(max_parts=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_periodize_window_consistency(e, m1, m2):
    m_small, m_big = sorted((m1, m2))
    window = iset((-m_small, m_small))
    assert periodize_window(e, m_big).intersect(window) == periodize_window(e, m_small)


@given(covering_sets())
def test_transversal_tiles_and_is_contained(s):
    k = extract_transversal(s)
    assert check_S3(k)
    assert k.subset_mod_null(s)


@given(covering_sets())
def test_transversal_window_flag_tiles_too(s):
    k = extract_transversal(s, prefer_window=True)
    assert check_S3(k)
    assert k.subset_mod_null(s)


@given(covering_sets(), st.booleans())
def test_transversal_shift_matches_oracle(s, prefer_window):
    k = extract_transversal(s, prefer_window=prefer_window)
    raw = [(p.lo, p.hi) for p in s.parts]
    kept = [(p.lo, p.hi) for p in k.parts]
    # Atoms: [0, 1) cut at 1/2 and at every folded breakpoint of s.
    cuts = sorted({F(0), F(1, 2), F(1)} | {x - (x // 1) for p in s.parts for x in (p.lo, p.hi)})
    for u, v in zip(cuts, cuts[1:]):
        x = (u + v) / 2
        assert smallest_shift_at(kept, x, False) == smallest_shift_at(raw, x, prefer_window)


@given(interval_sets())
def test_uncovered_witness_honest(s):
    w = uncovered_witness(s)
    if w is None:
        assert check_cover_r4(s)
    else:
        # No translate of s meets the witness residues.
        m = fold_multiplicity(s) if not s.is_empty else None
        assert m is None or m.value_at(w.lo) == 0
