"""The unit fold, the transversal, S1, (F1)-(F3), h = g(./2) - g and the
containment of ``rze_pipeline`` on the integer grid, against plain-loop
fraction references (``oracles``) and the interval-set algebra.

Inputs reach odd lcms (denominators 3, 5, 7 and 1617), endpoints near
+-10^9, parts that end exactly on 1/2 or on an integer, overlapping signed
weights and the empty set.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    fraction_fold,
    fraction_psi_spectrum,
    fraction_s1_witness,
    fraction_scaling_spectrum_verdict,
    fraction_transversal,
)
from waveset import construct
from waveset.construct import rze_pipeline, s1_witness
from waveset.errors import InconsistentSpectrumError, PreconditionError
from waveset.intervals import Interval, normalize
from waveset.spectral import StepFn, psi_spectrum_from_scaling, validate_scaling_spectrum
from waveset.torus import extract_transversal, fold_multiplicity, fold_step

F = Fraction
DENS = (1, 2, 3, 4, 5, 7, 8, 12, 1617)
SPECIAL = (F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2), F(2))


def _point(rng, base):
    if rng.random() < 0.25:
        return base + rng.choice(SPECIAL)
    den = rng.choice(DENS)
    return base + F(rng.randint(-3 * den, 3 * den), den)


def _raw_pairs(rng, max_parts=5):
    """Possibly overlapping pairs, some of them long or near +-10^9."""
    pairs = []
    for _ in range(rng.randint(0, max_parts)):
        base = rng.choice((-10**9, 10**9)) if rng.random() < 0.1 else 0
        a, b = sorted((_point(rng, base), _point(rng, base)))
        if rng.random() < 0.1:
            b += rng.randint(1, 6)
        if a < b:
            pairs.append((a, b))
    return pairs


def _tile(rng):
    """A translation tile: residue atoms of [0, 1), each moved by an integer."""
    den = rng.choice(DENS[1:])
    cuts = sorted({F(0), F(1)} | {F(rng.randint(1, den - 1), den) for _ in range(rng.randint(0, 4))})
    base = rng.choice((-10**9, 10**9)) if rng.random() < 0.1 else 0
    return [(a + k, b + k) for a, b in zip(cuts, cuts[1:]) for k in [base + rng.randint(-3, 3)]]


def _random_set(rng):
    pairs = _raw_pairs(rng)
    if rng.random() < 0.5:
        pairs += _tile(rng)
    return normalize(pairs)


def _weights(rng, n):
    return [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(DENS)) for _ in range(n)]


def _random_spectrum(rng):
    """A nonnegative step function built from a unit fold: value 1 next to 0,
    the other residues split over up to three translates, sometimes off by a factor."""
    den = rng.choice(DENS[1:])
    cuts = sorted({F(0), F(1)} | {F(rng.randint(1, den - 1), den) for _ in range(rng.randint(1, 4))})
    pieces = []
    atoms = list(zip(cuts, cuts[1:]))
    for i, (a, b) in enumerate(atoms):
        near = 0 if 2 * b <= 1 else -1
        if i in (0, len(atoms) - 1):
            shifts, weights = [near], [F(1)]
        else:
            shifts = rng.sample(range(-2, 2), rng.randint(1, 3))
            if rng.random() < 0.5:
                shifts[0] = near if near not in shifts else shifts[0]
            weights = [F(rng.randint(1, 4)) for _ in shifts]
            weights = [w / sum(weights) for w in weights]
        if rng.random() < 0.1:
            weights[0] *= F(rng.randint(1, 3), 2)
        pieces += [((a + k, b + k), w) for k, w in zip(shifts, weights)]
    return StepFn.build(pieces)


def _check_set(s, rng):
    parts = [(p.lo, p.hi) for p in s.parts]
    assert list(fold_multiplicity(s).pieces()) == fraction_fold([(lo, hi, 1) for lo, hi in parts])
    escape = s1_witness(s)
    expected = fraction_s1_witness(parts)
    assert (escape and (escape.lo, escape.hi)) == expected
    outcomes = []
    for prefer_window in (False, True):
        kept, missed = fraction_transversal(parts, prefer_window)
        if missed is None:
            k = extract_transversal(s, prefer_window=prefer_window)
            assert [(p.lo, p.hi) for p in k.parts] == kept
            outcomes.append("tiled")
            continue
        with pytest.raises(PreconditionError) as err:
            extract_transversal(s, prefer_window=prefer_window)
        witness = Interval(*missed)
        assert err.value.condition == "r4" and err.value.witness == witness
        assert str(err.value) == f"translates do not cover the line; residues {witness} are missed"
        outcomes.append("r4")
    raw = _raw_pairs(rng)
    weighted = list(zip(raw, _weights(rng, len(raw))))
    folded = fold_step([(Interval(a, b), w) for (a, b), w in weighted])
    assert list(folded.pieces()) == fraction_fold([(a, b, w) for (a, b), w in weighted])
    return outcomes


def _check_spectrum(g):
    verdict = validate_scaling_spectrum(g)
    expected = fraction_scaling_spectrum_verdict([(iv.lo, iv.hi, v) for iv, v in g.pieces])
    if expected is None:
        assert verdict.passed
        return "pass"
    condition, (lo, hi), detail = expected
    assert not verdict.passed
    assert (verdict.condition, verdict.witness, verdict.detail) == (condition, Interval(lo, hi), detail)
    return detail


def test_grid_fold_matches_fraction_fold_seeded():
    rng = random.Random(20261019)
    outcomes = {"tiled": 0, "r4": 0}
    for _ in range(3000):
        for outcome in _check_set(_random_set(rng), rng):
            outcomes[outcome] += 1
    assert outcomes["tiled"] > 3000 and outcomes["r4"] > 300, outcomes
    verdicts: dict[str, int] = {}
    for _ in range(3000):
        detail = _check_spectrum(_random_spectrum(rng))
        verdicts[detail] = verdicts.get(detail, 0) + 1
    assert len(verdicts) == 5 and min(verdicts.values()) > 20, verdicts  # pass, F3, F2, two F1s


def test_grid_fold_edge_inputs():
    rng = random.Random(7)
    big = 10**9
    for pairs in ([], [(-big, big)], [(F(-1, 2), F(1, 2))], [(F(1, 2), F(3, 2))],
                  [(-big - F(1, 1617), F(-1, 2))], [(F(-1, 3), F(1, 5)), (F(2, 7), F(5, 7))],
                  [(F(-1), F(0)), (F(1, 2), F(1))]):
        _check_set(normalize(pairs), rng)
    assert fold_step([]).breaks == (0, 1) and fold_step([]).values == (0,)


fractions = st.builds(F, st.integers(-60, 60), st.sampled_from(DENS))


@given(st.lists(st.tuples(fractions, fractions, fractions), max_size=6))
def test_grid_fold_step_signed_weights(triples):
    pieces = [(min(a, b), max(a, b), w) for a, b, w in triples if a != b]
    folded = fold_step([(Interval(lo, hi), w) for lo, hi, w in pieces])
    assert list(folded.pieces()) == fraction_fold(pieces)


@given(st.lists(st.tuples(fractions, fractions), max_size=6), st.integers(0, 2**32))
def test_grid_transversal_and_s1_match_fractions(pairs, seed):
    _check_set(normalize((min(a, b), max(a, b)) for a, b in pairs if a != b), random.Random(seed))


@given(st.integers(0, 2**32))
def test_grid_spectrum_checks_match_fractions(seed):
    _check_spectrum(_random_spectrum(random.Random(seed)))


# ------------------------------------------------- the scaling-spectrum route

ROUTE_DENS = (1, 2, 3, 4, 6, 8, 12)
ROUTE_VALUES = (F(0), F(1, 3), F(1, 2), F(1), F(2))


def _cut(rng, lo, hi, n):
    """lo, hi and up to n distinct points between them, multiples of 1/den, den in ROUTE_DENS."""
    inner = set()
    for _ in range(n):
        den = rng.choice(ROUTE_DENS)
        x = F(rng.randint(math.floor(lo * den), math.ceil(hi * den)), den)
        if lo < x < hi:
            inner.add(x)
    return [lo, *sorted(inner), hi]


def _mixed_pieces(rng):
    """Consecutive pieces cut from [-3, 3] with mixed denominators and values; zero values
    leave gaps."""
    cuts = _cut(rng, F(-3), F(3), rng.randint(1, 8))
    return StepFn.build(((a, b), rng.choice(ROUTE_VALUES)) for a, b in zip(cuts, cuts[1:]))


def _three_level(rng):
    """THREE_LEVEL_G stretched and cut: 1 on [-a, a) for a in [1/3, 1/2), and the residues
    [a, 1 - a) cut into pieces carrying t on [c, e) and 1 - t on [c - 1, e - 1).

    It folds to 1 and is 1 near 0; g(2x) vanishes where both copies lie, so
    the filter ratio is 0 on both and the spectrum is valid."""
    den = rng.choice((3, 6, 8, 12))
    a = F(rng.randint(-(-den // 3), (den - 1) // 2), den)
    pieces = [((-a, a), 1)]
    cuts = _cut(rng, a, 1 - a, rng.randint(0, 3))
    for c, e in zip(cuts, cuts[1:]):
        t = rng.choice((F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)))
        pieces += [((c, e), t), ((c - 1, e - 1), 1 - t)]
    return StepFn.build(pieces)


def _f1_failure(rng):
    """The two (F1) failures of ``test_spectral``, moved and cut.

    Support: 1 on [-c, c), and the residues [c, 1 - c) cut, each piece on
    itself or moved down by 1, but one moved up by 1 or 2, where its half
    mostly lies outside the support.  Ratio: 1 on [-c, c), t on [c, 1 - c)
    and 1 - t on [c - 1, -c) for c < 1/3: g(2x)/g(x) is 1 at x in
    [c, (1 - c)/2) and 0 at x - 1."""
    den = rng.choice((4, 6, 8, 12))
    c = F(rng.randint(1, (den - 1) // 3), den)
    if rng.random() < 0.5:
        t = rng.choice((F(1, 3), F(1, 2), F(2, 3)))
        return StepFn.build([((-c, c), 1), ((c, 1 - c), t), ((c - 1, -c), 1 - t)])
    cuts = _cut(rng, c, 1 - c, rng.randint(1, 3))
    far = rng.randrange(len(cuts) - 1)
    pieces = [((-c, c), 1)]
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        k = rng.choice((1, 2)) if i == far else -rng.randint(0, 1)
        pieces.append(((lo + k, hi + k), 1))
    return StepFn.build(pieces)


def _check_psi(g):
    pieces = [(iv.lo, iv.hi, v) for iv, v in g.pieces]
    expected = fraction_psi_spectrum(pieces)
    negative = [(a, b, v) for a, b, v in expected if v < 0]
    if not negative:
        h = psi_spectrum_from_scaling(g)
        assert [(iv.lo, iv.hi, v) for iv, v in h.pieces] == expected
        return "h"
    with pytest.raises(InconsistentSpectrumError) as err:
        psi_spectrum_from_scaling(g)
    lo, hi, v = negative[0]
    assert err.value.witness == Interval(lo, hi)
    assert str(err.value) == (f"inconsistent spectrum: value {v} on [{lo}, {hi}) "
                              "(input does not decrease along doubling)")
    return "negative"


def test_scaling_route_matches_fraction_oracles_seeded():
    rng = random.Random(17)
    counts: dict[str, int] = {}
    for i in range(2400):
        g = (_mixed_pieces, _three_level, _f1_failure, _random_spectrum)[i % 4](rng)
        for outcome in (_check_spectrum(g), _check_psi(g)):
            counts[outcome] = counts.get(outcome, 0) + 1
    assert counts["pass"] > 600 and counts["negative"] > 300 and counts["h"] > 1200, counts
    for detail in ("support is not nested under doubling",
                   "filter ratio is not 1-periodic on the support"):
        assert counts[detail] > 100, counts


def _scaling_set(rng, k):
    """[-1/2, 1/2) with [3/8, 1/2) and its mirror cut into k pieces, every other piece
    moved one period to the far side: an exact scaling set off the fast path."""
    pairs = [(F(-3, 8), F(3, 8))]
    for side in (1, -1):
        cuts = _cut(rng, F(3, 8), F(1, 2), k - 1)
        for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
            lo, hi = (a, b) if side == 1 else (-b, -a)
            pairs.append((lo - side, hi - side) if i % 2 else (lo, hi))
    return normalize(pairs)


def _widened_construction(extra):
    """``lemma_r3_construct`` with ``extra`` added to W and room for it in the coverage
    bound: a truncated run whose W escapes supp h, which the generated inputs never give."""
    real = construct.lemma_r3_construct

    def widened(sprime, depth_n, depth_j):
        res = real(sprime, depth_n, depth_j)
        defects = dataclasses.replace(res.defects, coverage_defect=F(10))
        return dataclasses.replace(res, w=res.w.union(extra), defects=defects, fast_path=False)

    return widened


def test_rze_containment_matches_interval_algebra(monkeypatch):
    rng = random.Random(23)
    inputs = [StepFn.indicator(_scaling_set(rng, rng.randint(1, 5))) for _ in range(8)]
    inputs += [_three_level(rng) for _ in range(4)] + [StepFn.build([((F(-1, 2), F(1, 2)), 1)])]
    # near 0, where g is 1 and h vanishes, and a piece that supp h holds in part
    extra = normalize([(F(-1, 7), F(1, 7)), (F(5, 7), F(6, 7))])
    routes, contained = set(), set()
    for g in inputs:
        support = normalize((iv.lo, iv.hi) for iv, _ in g.pieces)
        h = fraction_psi_spectrum([(iv.lo, iv.hi, v) for iv, v in g.pieces])
        supp_psi = normalize((lo, hi) for lo, hi, _ in h)
        for depth, widen in [(d, False) for d in range(7)] + [(0, True), (3, True)]:
            with monkeypatch.context() as m:
                if widen:
                    m.setattr(construct, "lemma_r3_construct", _widened_construction(extra))
                res = rze_pipeline(g, depth, depth)
            leftover = res.w.subtract(supp_psi)
            assert res.s.subset_mod_null(support)
            assert [(iv.lo, iv.hi, v) for iv, v in res.psi_spectrum.pieces] == h
            assert res.supp_psi == supp_psi
            assert res.contained == leftover.is_empty
            assert res.leftover_measure == leftover.measure()
            routes.add(res.defects.all_zero)
            contained.add(res.contained)
    assert routes == {True, False}  # the fast path and the truncated route
    assert contained == {True, False}
