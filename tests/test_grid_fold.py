"""The unit fold, the transversal, S1 and (F1)-(F3) on the integer grid,
against plain-loop fraction references (``oracles``).

Inputs reach odd lcms (denominators 3, 5, 7 and 1617), endpoints near
+-10^9, parts that end exactly on 1/2 or on an integer, overlapping signed
weights and the empty set.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    fraction_fold,
    fraction_s1_witness,
    fraction_scaling_spectrum_verdict,
    fraction_transversal,
)
from waveset.construct import s1_witness
from waveset.errors import PreconditionError
from waveset.intervals import Interval, normalize
from waveset.spectral import StepFn, validate_scaling_spectrum
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
