"""The one rule of the value types: a value holds the view it was made from.

A set, step function or dimension-function window that a kernel makes
(``torus._from_grid``, ``spectral._step_from_grid``, ``DimFnWindow._from_grid``)
holds only its canonical grid, the lcm grid of its fractions, and makes the
fractions (a Calderon result's atoms) on first read.  A parsed value holds its
fractions and makes its grid on first kernel read.  Equality, hash, repr, pickle and copies read the
fractions, so both agree with a twin made the other way.  Refusals over the grid
budget read the same whichever view a value holds.
"""

import copy
import io
import json
import math
import pickle
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from oracles import merge_steps
from test_grid_fold import _random_set, _random_spectrum, _scaling_set, _three_level
from waveset import cli, construct, spectral, torus
from waveset.construct import _truncated_levels, lemma_r3_construct, rze_pipeline
from waveset.errors import InconsistentSpectrumError, InputError, PreconditionError
from waveset.intervals import Interval, IntervalSet, normalize, rat
from waveset.spectral import (DimFnWindow, StepFn, dimension_function, psi_spectrum_from_scaling,
                              validate_scaling_spectrum)
from waveset.torus import (_from_grid, _pairs_on_grid, extract_transversal, fold_multiplicity,
                           s1_witness)

F = Fraction


def _lcm_grid(bounds):
    """(D, the bounds as integer pairs over D), D the lcm of their denominators: plain loops."""
    d = math.lcm(*(x.denominator for pair in bounds for x in pair))
    return d, [tuple(int(x * d) for x in pair) for pair in bounds]


def _check_kept_set(s):
    bounds = [(p.lo, p.hi) for p in s.parts]
    assert (s._grid[0], list(s._grid[1])) == _lcm_grid(bounds)
    twin = IntervalSet(tuple(Interval(lo, hi) for lo, hi in bounds))
    assert s == twin and hash(s) == hash(twin) and repr(s) == repr(twin)
    assert pickle.dumps(s) == pickle.dumps(twin)
    for other in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert other == s and repr(other) == repr(s) and other._grid is None


def _check_kept_step_fn(fn):
    d, pairs = _lcm_grid([(iv.lo, iv.hi) for iv, _ in fn.pieces])
    vden = math.lcm(*(v.denominator for _, v in fn.pieces))
    weights = [int(v * vden) for _, v in fn.pieces]
    assert fn._grid == (d, vden, [(a, b, w) for (a, b), w in zip(pairs, weights)])
    twin = StepFn(tuple((Interval(iv.lo, iv.hi), v) for iv, v in fn.pieces))
    assert fn == twin and hash(fn) == hash(twin) and repr(fn) == repr(twin)
    assert pickle.dumps(fn) == pickle.dumps(twin)
    for other in (pickle.loads(pickle.dumps(fn)), copy.deepcopy(fn)):
        assert other == fn and repr(other) == repr(fn) and other._grid is None


def _shared_factor_pairs(rng):
    """Sorted, strictly separated integer pairs over d, every end and d sharing a factor f."""
    f = rng.choice((2, 3, 4, 6, 10, 2**40))
    d = f * rng.choice((1, 3, 5, 7, 8, 1617))
    ends = sorted(rng.sample(range(-20 * d, 20 * d), 2 * rng.randint(0, 4)))
    return [(a * f, b * f) for a, b in zip(ends[::2], ends[1::2])], d * f


def test_kept_grid_is_the_lcm_grid_seeded(monkeypatch):
    made_sets, made_fns = [], []

    def recording(real, out):
        def record(*args):
            out.append(real(*args))
            return out[-1]
        return record

    for module in (torus, construct, spectral):
        monkeypatch.setattr(module, "_from_grid", recording(torus._from_grid, made_sets))
    monkeypatch.setattr(spectral, "_step_from_grid",
                        recording(spectral._step_from_grid, made_fns))
    rng = random.Random(2026)
    for i in range(700):
        s = _random_set(rng)
        s1_witness(s)
        fold_multiplicity(s).where_not(1)
        for prefer_window in (False, True):
            try:
                extract_transversal(s, prefer_window=prefer_window)
            except PreconditionError:
                pass
        pairs, d = _shared_factor_pairs(rng)
        torus._from_grid(pairs, d)
        if i % 7 == 0:
            sprime = _scaling_set(rng, rng.randint(1, 4))
            depth = rng.randint(0, 4)
            res = lemma_r3_construct(sprime, depth, depth)
            _truncated_levels(extract_transversal(sprime, prefer_window=True), depth, depth)
            construct.verify_wavelet_set(res.w)
            g = (StepFn.indicator(sprime), _three_level(rng))[i % 2]
            rze_pipeline(g, depth, depth)
        g = _random_spectrum(rng)
        validate_scaling_spectrum(g)
        try:
            psi_spectrum_from_scaling(g).square()
        except InconsistentSpectrumError:
            pass
    assert len(made_sets) > 3000 and len(made_fns) > 600, (len(made_sets), len(made_fns))
    assert any(s._grid[0] > 2**40 for s in made_sets)  # the deep construction grids
    for s in made_sets:
        _check_kept_set(s)
    for fn in made_fns:
        _check_kept_step_fn(fn)


def test_parsed_grid_is_made_once_and_kept():
    s = normalize([(F(-1, 3), F(1, 6)), (F(5, 4), 2)])
    assert s._grid is None
    d, pairs = _pairs_on_grid(s)
    assert (d, pairs) == (12, [(-4, 2), (15, 24)]) and s._grid == (d, pairs)
    assert _pairs_on_grid(s, F(1, 8)) == (24, [(-8, 4), (30, 48)]) and s._grid == (d, pairs)
    g = StepFn.build([((F(-1, 2), F(1, 3)), F(2, 5)), ((1, 2), F(1, 10))])
    assert spectral._step_grid(g) == (6, 10, [(-3, 2, 4), (6, 12, 1)]) == g._grid


@pytest.mark.parametrize("pairs", [
    [(0, 1), (3, 5), (2, 4)],  # unsorted
    [(0, 1), (1, 2)],  # touching
    [(0, 1), (2, 2)],  # empty
    [(3, 1)],  # inverted
    [(0, 2), (1, 3)],  # overlapping
])
def test_from_grid_refuses_as_the_validated_constructors(pairs):
    with pytest.raises(InputError) as expected:
        IntervalSet(tuple(Interval(F(a, 6), F(b, 6)) for a, b in pairs))
    with pytest.raises(InputError) as got:
        _from_grid(pairs, 6)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("pieces", [
    [(0, 2, 1), (1, 3, 2)],  # overlapping
    [(0, 1, 1), (3, 5, 2), (2, 4, 1)],  # unsorted
    [(2, 1, 1)],  # inverted
    [(0, 1, 1), (1, 1, 2)],  # empty
])
def test_step_from_grid_refuses_as_the_validated_constructors(pieces):
    with pytest.raises(InputError) as expected:
        StepFn(tuple((Interval(F(a, 4), F(b, 4)), F(w, 3)) for a, b, w in pieces))
    with pytest.raises(InputError) as got:
        spectral._step_from_grid(4, 3, pieces)
    assert str(got.value) == str(expected.value)


def test_step_from_grid_merges_equal_and_drops_zero_weights():
    fn = spectral._step_from_grid(8, 6, [(0, 2, 3), (2, 4, 3), (4, 6, 0), (6, 8, 3), (8, 12, 6)])
    assert fn == StepFn.build([((0, F(1, 2)), F(1, 2)), ((F(3, 4), 1), F(1, 2)), ((1, F(3, 2)), 1)])
    assert fn._grid == (4, 2, [(0, 2, 1), (3, 4, 1), (4, 6, 2)])


# ------------------------------------------------- the grid budget's refusals


def _prime_pairs():
    """800 distinct primes above 4096 as the denominators of 400 parts, as in CI's step
    "The fold is under the grid budget": an lcm of 10273 bits."""
    ps, c = [], 4096
    while len(ps) < 800:
        c += 1
        if all(c % d for d in range(2, int(c ** 0.5) + 1)):
            ps.append(c)
    return [(F(i * p + 1, p), F(i * q + q // 2, q))
            for i, (p, q) in enumerate(zip(ps[::2], ps[1::2]))]


BUDGET = "the lcms of the {} denominators have at most 8192 bits each (work budget); got {}"


def _report(command, reason):
    return json.dumps({"command": command, "status": "error", "witnesses": [{"reason": reason}],
                       "data": {}}, indent=2) + "\n"


@pytest.mark.parametrize("argv, reason", [
    (["verify", "wavelet-set"], BUDGET.format("endpoint and value", "10273 and 1")),
    (["verify", "scaling-set"], BUDGET.format("endpoint", "10273")),
    (["construct", "scaling-set"], BUDGET.format("endpoint", "10273")),
])
def test_prime_set_refusal_reports_unchanged(tmp_path, argv, reason):
    path = tmp_path / "primes.json"
    path.write_text(json.dumps({"type": "interval_set",
                                "intervals": [[str(a), str(b)] for a, b in _prime_pairs()]}))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run([*argv, str(path)])
    assert code == 2 and out.getvalue() == _report(" ".join(argv), reason)


def test_kept_grid_over_budget_is_refused_as_parsed():
    bounds = _prime_pairs()
    parsed = normalize(bounds)
    d = math.lcm(*(x.denominator for pair in bounds for x in pair))
    kept = _from_grid([(int(a * d), int(b * d)) for a, b in bounds], d)
    assert kept == parsed and kept._grid[0] == d and d.bit_length() == 10273
    runs = [s1_witness, fold_multiplicity, construct.verify_wavelet_set, lemma_r3_construct,
            extract_transversal, lambda s: extract_transversal(s, prefer_window=True)]
    texts = []
    for run in runs:
        for s in (parsed, kept):
            with pytest.raises(InputError) as err:
                run(s)
            texts.append(str(err.value))
    assert texts == [text for text in (
        BUDGET.format("endpoint", "10273"), BUDGET.format("endpoint and value", "10273 and 1"),
        BUDGET.format("endpoint and value", "10273 and 1"), BUDGET.format("endpoint", "10273"),
        BUDGET.format("endpoint", "10273"), BUDGET.format("endpoint", "10274")) for _ in (0, 1)]


def test_square_refusal_names_the_square_lcms():
    # calderon of psi^2 has always named the lcms of psi^2: 9 = 3^2 has 4 bits.
    g = StepFn.build([((a, b), F(1, 3)) for a, b in _prime_pairs()])
    with pytest.raises(InputError, match="got 10273 and 4$"):
        g.square()
    with pytest.raises(InputError, match="got 10273 and 2$"):
        spectral.calderon(g)


# ---------------------------------------------------------- squares on the grid


def _signed_spectrum(rng):
    """Consecutive pieces with values +-v from a few magnitudes, so that v and -v often touch."""
    den = rng.choice((1, 2, 3, 8, 12))
    cuts = sorted({F(rng.randint(-6 * den, 6 * den), den) for _ in range(rng.randint(2, 9))})
    mags = [F(1), F(1, 2), F(2, 3)][:rng.randint(1, 3)]
    return StepFn.build(((a, b), rng.choice((-1, 1)) * rng.choice(mags))
                        for a, b in zip(cuts, cuts[1:]))


def test_square_on_grid_matches_build_seeded():
    rng = random.Random(5)
    merged = 0
    for i in range(1500):
        f = (_random_spectrum, _signed_spectrum)[i % 2](rng)
        sq = f.square()
        # merged by the plain oracle, not by the merge that square() and build() share
        expected = StepFn(tuple((Interval(a, b), w) for a, b, w in merge_steps(
            (iv.lo, iv.hi, v * v) for iv, v in f.pieces)))
        assert sq == expected and repr(sq) == repr(expected)
        _check_kept_step_fn(sq)
        merged += len(sq.pieces) < len(f.pieces)
    assert merged > 300, merged


# ------------------------------------------------------------- windows and constructors


def test_kept_windows_match_their_fraction_twins():
    rng = random.Random(2028)
    windows = []
    for i in range(80):
        h = (_random_spectrum, lambda r: _signed_spectrum(r).square())[i % 2](rng)
        deep = dimension_function(h, rng.randint(4, 12))
        windows += [deep, deep.restrict(rng.randint(2, deep.depth_L)),
                    fold_multiplicity(_random_set(rng))]
    for w in windows:
        assert "breaks" not in w.__dict__ and "values" not in w.__dict__  # the grid alone
        grid = (w.scale, w.ends, w.vden, w.weights)
        twin = DimFnWindow(w.breaks, w.values, w.depth_L, w.boundary_note, w.source)
        assert "scale" not in twin.__dict__  # the fractions alone
        assert (twin.scale, twin.ends, twin.vden, twin.weights) == grid  # the lcm grid
        assert w == twin and hash(w) == hash(twin) and repr(w) == repr(twin)
        assert pickle.dumps(w) == pickle.dumps(twin)
        for other in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w)):
            assert "scale" not in other.__dict__
            assert other == w and hash(other) == hash(w) and repr(other) == repr(w)
            assert (other.scale, other.ends, other.vden, other.weights) == grid


@pytest.mark.parametrize("make", [
    lambda x: StepFn(((Interval(0, 1), x),)),
    lambda x: spectral.calderon(StepFn(((Interval(1, 2), x),))),
    lambda x: DimFnWindow((0, x, 1), (1, 2), 0, False),
    lambda x: DimFnWindow((0, 1), (x,), 0, False),
])
def test_constructors_coerce_values_through_rat(make):
    # What rat takes becomes its Fraction, and the value equals its twin; what it refuses,
    # each constructor refuses with rat's InputError.
    assert make("1/2") == make(F(1, 2)) and hash(make("1/2")) == hash(make(F(1, 2)))
    for bad in (0.5, "1.5", "1/0", None):
        with pytest.raises(InputError) as expected:
            rat(bad)
        with pytest.raises(InputError) as got:
            make(bad)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("make, bad, maker", [
    (lambda: IntervalSet(((0, 1),)), "(0, 1)", "normalize()"),
    (lambda: IntervalSet((Interval(0, 1), (2, 3))), "(2, 3)", "normalize()"),
    (lambda: StepFn((((0, 1), 1),)), "(0, 1)", "StepFn.build()"),
    (lambda: StepFn(((Interval(0, 1), 1), ((2, 3), 1))), "(2, 3)", "StepFn.build()"),
])
def test_constructors_name_a_part_that_is_no_interval(make, bad, maker):
    with pytest.raises(InputError) as refused:
        make()
    assert str(refused.value) == f"expected an Interval, got {bad}; use {maker}"


def _off_zero_spectrum(rng):
    """Nonnegative pieces on a 1/den grid inside [-6, -1/den] u [1/den, 6], so the Calderon sum
    converges; sometimes none at all."""
    den, pieces = rng.choice((1, 2, 3, 8, 12)), []
    for sign in (1, -1):
        cuts = sorted({F(rng.randint(1, 6 * den), den) for _ in range(rng.randint(1, 5))})
        pieces += [((a, b) if sign > 0 else (-b, -a), rng.choice((F(1), F(1, 2), F(2, 3), F(3))))
                   for a, b in zip(cuts, cuts[1:]) if rng.random() < 0.8]
    return StepFn.build(pieces)


def test_kept_calderon_atoms_match_their_eager_twin():
    rng = random.Random(2029)
    for _ in range(60):
        h = _off_zero_spectrum(rng)
        made = [spectral.calderon(h) for _ in range(3)]
        assert not made[0].diverges and all("atoms" not in r.__dict__ for r in made)
        twin = spectral.CalderonResult(False, made[0].atoms, made[0].min_value,
                                       made[0].max_value, made[0].is_one)
        assert made[1] == twin and hash(made[1]) == hash(twin) and repr(made[2]) == repr(twin)
        again = spectral.calderon(h)
        assert pickle.dumps(again) == pickle.dumps(twin)
        for other in (pickle.loads(pickle.dumps(again)), copy.deepcopy(spectral.calderon(h))):
            assert other == twin and repr(other) == repr(twin)
        assert (twin.min_value, twin.max_value) == (min(v for _, v in twin.atoms),
                                                    max(v for _, v in twin.atoms))


def test_integral_reads_the_view_held_seeded():
    # A parsed spectrum sums its fractions; a kernel-made one sums its grid and leaves its
    # pieces unmade.  Both equal the plain fraction sum over the pieces.
    rng = random.Random(2029)
    for i in range(400):
        f = (_random_spectrum, _signed_spectrum)[i % 2](rng)
        d, vden = rng.choice((1, 3, 8, 12)), rng.choice((1, 2, 5))
        cuts = sorted({rng.randint(-9 * d, 9 * d) for _ in range(rng.randint(1, 9))})
        grid = spectral._step_from_grid(d, vden, [(a, b, rng.randint(-4, 4))
                                                  for a, b in zip(cuts, cuts[1:])])
        for h, kernel_made in ((f, False), (StepFn.build(f.pieces), False),
                               (f.square(), True), (grid, True)):
            total = h.integral()
            assert ("pieces" not in h.__dict__) == kernel_made
            assert type(total) is F
            assert total == sum((v * (iv.hi - iv.lo) for iv, v in h.pieces), F(0))


def test_orthonormality_leaves_the_calderon_atoms_unmade():
    for b in ("1/2", "1/4", "1/3", "3/4"):
        for cal in (spectral.orthonormality_check(spectral.psi_b_spectrum(b)).calderon,
                    spectral.psi_b_report(b).orthonormality.calderon):
            assert not cal.diverges and "atoms" not in cal.__dict__
