"""Spectrum validation, Calderon sums, dimension windows, orthogonality sums."""

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    calderon_sum_at,
    d2_probe,
    d3_probe,
    d4_probe,
    dilation_multiplicity_at,
    dim_sum_at,
    fraction_tq_sum,
    sample_fractions,
    shift,
    stretch,
    tq_sum_at,
    value_at,
)
from waveset.construct import verify_wavelet_set
from waveset.errors import InconsistentSpectrumError, InputError
from waveset.intervals import EMPTY, Interval, iset, normalize
from waveset.spectral import (
    MAX_LEVELS,
    MAX_WINDOW_DEPTH,
    DimFnWindow,
    StepFn,
    calderon,
    check_D1_D4,
    dimension_function,
    floor_log2,
    mra_check,
    orthonormality_check,
    pow2,
    psi_b_report,
    psi_b_spectrum,
    psi_spectrum_from_scaling,
    tq_check,
    validate_scaling_spectrum,
)
from waveset.spectral import _check_d4
from waveset.torus import fold_multiplicity, fold_step

F = Fraction

SHANNON_G = StepFn.build([((F(-1, 2), F(1, 2)), 1)])
SHANNON_PSI = StepFn.build([((-1, F(-1, 2)), 1), ((F(1, 2), 1), 1)])
THREE_LEVEL_G = StepFn.build([
    ((F(-3, 8), F(3, 8)), 1),
    ((F(-5, 8), F(-3, 8)), F(1, 2)),
    ((F(3, 8), F(5, 8)), F(1, 2)),
])
JOURNE = iset(("-16/7", -2), ("-1/2", "-2/7"), ("2/7", "1/2"), (2, "16/7"))
JOURNE_H = StepFn.indicator(JOURNE)


def pieces_of(f: StepFn):
    return [(iv.lo, iv.hi, v) for iv, v in f.pieces]


def step(pieces) -> StepFn:
    return StepFn.build(((lo, hi), v) for lo, hi, v in pieces)


# ------------------------------------------------------------ StepFn core


def test_step_fn_canonical_merge():
    f = StepFn.build([((0, 1), 1), ((1, 2), 1), ((2, 3), 2)])
    assert len(f.pieces) == 2
    assert f.value_at(F(3, 2)) == 1
    assert f.value_at(F(5, 2)) == 2
    assert f.value_at(3) == 0


def test_step_fn_overlap_rejected():
    with pytest.raises(InputError):
        StepFn.build([((0, 2), 1), ((1, 3), 2)])


def test_step_fn_arithmetic():
    # The difference is the package's common refinement; stretch and shift
    # are the plain transforms of ``oracles``.
    f = StepFn.build([((0, 2), 2)])
    g = StepFn.build([((1, 3), 1)])
    assert pieces_of(f.combine(g, sub)) == [(F(0), F(1), F(2)), (F(1), F(2), F(1)),
                                            (F(2), F(3), F(-1))]
    assert f.combine(f, sub).is_zero
    assert step(stretch(pieces_of(f), F(2))).integral() == 2 * f.integral()
    assert step(stretch(pieces_of(g), F(-1))) == StepFn.build([((-3, -1), 1)])
    assert step(shift(pieces_of(f), F(5))).value_at(6) == 2


# --------------------------------------------------------------- (F1)-(F3)


def test_validate_shannon():
    assert validate_scaling_spectrum(SHANNON_G).passed


def test_validate_three_level():
    # Hand-checked: folds to 1, equals 1 near 0, support nests, ratio periodic.
    assert validate_scaling_spectrum(THREE_LEVEL_G).passed


def test_validate_f3_failure():
    v = validate_scaling_spectrum(StepFn.build([((-1, 1), 1)]))
    assert not v.passed and v.condition == "F3"


def test_validate_f2_failure():
    # Folds to 1 but lives on [0, 1): no mass left of 0.
    v = validate_scaling_spectrum(StepFn.build([((0, 1), 1)]))
    assert not v.passed and v.condition == "F2"


def test_validate_f1_support_failure():
    # Unit periodization and value 1 around 0, but halving escapes the support.
    g = StepFn.build([
        ((F(-1, 4), F(1, 4)), 1),
        ((F(1, 2), F(3, 4)), 1),
        ((F(-3, 4), F(-1, 2)), 1),
    ])
    v = validate_scaling_spectrum(g)
    assert not v.passed and v.condition == "F1"


def test_validate_f1_ratio_failure():
    # Support nests and folds to 1, but the forced filter ratio differs at
    # integer-translated points of the support (1 at 0.3 vs 0 at -0.7).
    g = StepFn.build([
        ((F(-1, 4), F(1, 4)), 1),
        ((F(1, 4), F(3, 4)), F(1, 3)),
        ((F(-3, 4), F(-1, 4)), F(2, 3)),
    ])
    v = validate_scaling_spectrum(g)
    assert not v.passed and v.condition == "F1"


def test_validate_rejects_negative():
    with pytest.raises(InputError):
        validate_scaling_spectrum(StepFn.build([((0, 1), -1)]))


# ------------------------------------------------------------------- (r1)


def test_psi_spectrum_shannon():
    h = psi_spectrum_from_scaling(SHANNON_G)
    assert h == SHANNON_PSI


def test_psi_spectrum_three_level():
    h = psi_spectrum_from_scaling(THREE_LEVEL_G)
    assert pieces_of(h) == [
        (F(-5, 4), F(-3, 4), F(1, 2)),
        (F(-3, 4), F(-5, 8), F(1)),
        (F(-5, 8), F(-3, 8), F(1, 2)),
        (F(3, 8), F(5, 8), F(1, 2)),
        (F(5, 8), F(3, 4), F(1)),
        (F(3, 4), F(5, 4), F(1, 2)),
    ]
    assert h.integral() == THREE_LEVEL_G.integral() == 1


def test_psi_spectrum_negativity_error():
    # Mass appearing only away from 0 increases along doubling: impossible.
    g = StepFn.build([((F(1, 4), F(1, 2)), 1), ((F(-1, 2), F(-1, 4)), 1)])
    with pytest.raises(InconsistentSpectrumError):
        psi_spectrum_from_scaling(g)


def test_psi_spectrum_conserves_mass():
    # The doubling difference moves mass outward without changing the total.
    asym = StepFn.build([
        ((F(-3, 8), F(3, 8)), 1),
        ((F(3, 8), F(5, 8)), F(3, 4)),
        ((F(-5, 8), F(-3, 8)), F(1, 4)),
    ])
    for g in (SHANNON_G, THREE_LEVEL_G, asym):
        assert validate_scaling_spectrum(g).passed
        assert psi_spectrum_from_scaling(g).integral() == g.integral()


# --------------------------------------------------------------- Calderon


def test_calderon_shannon_is_one():
    res = calderon(SHANNON_PSI)
    assert not res.diverges and res.is_one


def test_calderon_psi_quarter_is_two():
    res = calderon(psi_b_spectrum("1/4").square())
    assert res.min_value == res.max_value == 2
    rng = random.Random(41)
    pieces = pieces_of(psi_b_spectrum("1/4").square())
    for xi in sample_fractions(rng, 200, F(1), F(2)) + sample_fractions(rng, 200, F(-2), F(-1)):
        assert calderon_sum_at(pieces, xi) == 2


def test_calderon_diverges_near_zero():
    res = calderon(StepFn.build([((F(-1, 8), F(1, 8)), 1)]))
    assert res.diverges


def test_calderon_dilation_invariance():
    # Substituting h(2x) only reindexes the dilation sum, so the annulus
    # atoms agree exactly, piece for piece.
    for h in (JOURNE_H, psi_b_spectrum("1/8").square()):
        doubled = step(stretch(pieces_of(h), F(1, 2)))
        assert calderon(doubled).atoms == calderon(h).atoms
    rng = random.Random(5)
    pa = pieces_of(JOURNE_H)
    pb = stretch(pieces_of(JOURNE_H), F(1, 2))
    for xi in sample_fractions(rng, 100, F(1), F(2)):
        assert calderon_sum_at(pa, xi) == calderon_sum_at(pb, xi)


# ----------------------------------------------------- dimension function


def test_dimension_shannon_constant_one():
    dim = dimension_function(SHANNON_PSI, 12)
    assert dim.is_constant(1)
    rng = random.Random(11)
    pieces = pieces_of(SHANNON_PSI)
    for xi in sample_fractions(rng, 100, pow2(-12), 1 - pow2(-12)):
        assert dim_sum_at(pieces, xi) == 1 == dim.value_at(xi)


def test_dimension_journe_values():
    dim = dimension_function(JOURNE_H, 12)
    assert set(dim.values) == {0, 1, 2}
    rng = random.Random(13)
    pieces = pieces_of(JOURNE_H)
    for xi in sample_fractions(rng, 150, pow2(-12), 1 - pow2(-12)):
        assert dim_sum_at(pieces, xi) == dim.value_at(xi)


def test_dimension_zero_spectrum():
    dim = dimension_function(StepFn(), 8)
    assert dim.is_constant(0) and not dim.boundary_note


def test_dimension_window_exactness():
    shallow = dimension_function(JOURNE_H, 10)
    deep = dimension_function(JOURNE_H, 15)
    lo, hi = shallow.window()
    for a, b, v in shallow.pieces():
        assert deep.value_at(a) == v
        mid = (a + b) / 2
        assert deep.value_at(mid) == v
    assert deep.window()[0] < lo


@st.composite
def nonnegative_spectra(draw):
    """Nonnegative step functions with a few pieces inside [-4, 4)."""
    ends = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=24),
                         min_size=2, max_size=8, unique=True))
    ends.sort()
    values = draw(st.lists(st.integers(min_value=0, max_value=3),
                           min_size=len(ends) - 1, max_size=len(ends) - 1))
    return StepFn.build(((a, b), v) for a, b, v in zip(ends, ends[1:], values))


@given(nonnegative_spectra(), st.integers(min_value=2, max_value=6))
def test_dimension_deep_window_restricts_to_shallow(h, depth):
    deep = dimension_function(h, 2 * depth + 2)
    assert deep.restrict(depth) == dimension_function(h, depth)
    assert deep.restrict(depth + 2) == dimension_function(h, depth + 2)


def _ray_dimension_at(reach, xi):
    """Closed form of the dimension function of 1 on [1, reach) at xi in (0, 1).

    Level j counts the integers k with 2^-j <= xi + k < 2^-j reach; none
    once 2^-j reach <= xi.
    """
    total, j = 0, 1
    while pow2(-j) * reach > xi:
        total += math.ceil(pow2(-j) * reach - xi) - math.ceil(pow2(-j) - xi)
        j += 1
    return total


def test_dimension_far_spectrum_is_answered():
    # Every translate of a level folds into [0, 1) at once, so a spectrum
    # reaching 10^9 is summed like a near one.
    rng = random.Random(1009)
    for reach in (10**9, 10**4):
        h = StepFn.build([((1, reach), 1)])
        dim = dimension_function(h, 20)
        assert dim.window() == (pow2(-20), 1 - pow2(-20))
        points = [(a + b) / 2 for a, b, _ in _spread(list(dim.pieces()), 6)]
        points += sample_fractions(rng, 6, *dim.window())
        for xi in points:
            assert dim.value_at(xi) == _ray_dimension_at(reach, xi)
            if reach == 10**4:
                assert dim.value_at(xi) == dim_sum_at(pieces_of(h), xi)


def test_dimension_fragments_do_not_grow_with_reach(monkeypatch):
    # Each level gives a piece at most three folded fragments (the cut ends
    # and the whole periods), so the work follows the levels, about L plus
    # log2 of the reach: 26 levels at 10^2 and 49 at 10^9 at L = 20.
    from waveset import torus

    made = []
    for reach in (10**2, 10**9):
        lengths = []

        def counting_sweep(fragments, lo, hi, real=torus.sweep_weighted):
            fragments = list(fragments)
            lengths.append(len(fragments))
            return real(fragments, lo, hi)

        with monkeypatch.context() as m:
            m.setattr(torus, "sweep_weighted", counting_sweep)
            dimension_function(StepFn.build([((1, reach), 1)]), 20)
        assert sum(lengths) <= 3 * (20 + floor_log2(F(reach)))
        made.append(sum(lengths))
    assert made[1] <= 3 * made[0]


def test_dilation_sums_level_budget(monkeypatch):
    # The levels are counted before any sweep: 20 + 5000 for the window at
    # depth 20 of 1 on [1, 2^5000), -1 to 5001 for its Calderon sum, and
    # -1 to 5000 for the dilation check of a set reaching from 2^-4999 to 1.
    from waveset import spectral

    def no_sums(*args, **kwargs):
        raise AssertionError("the level budget is checked before any sweep")

    monkeypatch.setattr(spectral, "_grid_sweep", no_sums)
    h = StepFn.build([((1, 2**5000), 1)])
    for run, count in ((lambda: dimension_function(h, 20), 5020), (lambda: calderon(h), 5003),
                       (lambda: verify_wavelet_set(iset((pow2(-4999), 1), (1, 1 + pow2(-4999)))),
                        5002)):
        with pytest.raises(InputError, match=f"at most {MAX_LEVELS} levels .work budget.; "
                                             f"got {count}"):
            run()
    # The cap itself: 20 + 4076 levels reach the sweep, 20 + 4077 do not.
    with pytest.raises(AssertionError, match="level budget"):
        dimension_function(StepFn.build([((1, 2**4076), 1)]), 20)
    with pytest.raises(InputError, match=f"got {MAX_LEVELS + 1}"):
        dimension_function(StepFn.build([((1, 2**4077), 1)]), 20)
    # The scales m = 0..5001 of an orthogonality sum count the same way.
    monkeypatch.setattr(spectral, "sweep_weighted", no_sums)
    with pytest.raises(InputError, match=f"at most {MAX_LEVELS} levels .work budget.; got 5002"):
        tq_check(h, 1)


def test_dimension_window_depth_budget():
    with pytest.raises(InputError, match="at most 2050"):
        dimension_function(SHANNON_PSI, MAX_WINDOW_DEPTH + 1)


def test_conditions_refuse_deep_d4_window_over_budget():
    dim = dimension_function(SHANNON_PSI, 1027)  # deep enough for D1-D3 at L = 1025
    with pytest.raises(InputError, match="D4 needs a window 2052 deep.*at most 2050"):
        check_D1_D4(dim, 1025)


# ---------------------------------------------------- the integer grid

GRID_DENOMINATORS = (3, 7, 48, 1616)


@st.composite
def grid_spectra(draw):
    """Nonnegative step spectra with mixed denominators, reaching up to 2^6.

    Endpoints have denominators 3, 7, 48 and 1616 (so the grid lcm is large)
    and lie within a reach of 1/2 to 64 (so pieces cross integers); values
    have denominators up to 7.
    """
    reach = draw(st.sampled_from([F(1, 2), F(3, 4), 1, 3, 8, 64]))
    ends = sorted(draw(st.lists(
        st.sampled_from(GRID_DENOMINATORS).flatmap(lambda d: st.builds(
            lambda n: F(n, d), st.integers(min_value=-int(reach * d), max_value=int(reach * d)))),
        min_size=2, max_size=9, unique=True)))
    values = draw(st.lists(
        st.builds(F, st.integers(min_value=0, max_value=5), st.sampled_from([1, 2, 3, 7])),
        min_size=len(ends), max_size=len(ends)))
    values[0] = values[0] or F(1)  # never the zero spectrum
    return StepFn.build(((a, b), v) for a, b, v in zip(ends, ends[1:], values))


def _spread(items, n=12):
    """At most about n items, evenly spaced, always with the first and the last."""
    return items[::max(1, len(items) // n)] + items[-1:]


@settings(max_examples=50, deadline=None)
@given(grid_spectra(), st.integers(min_value=2, max_value=24), st.randoms(use_true_random=False))
def test_grid_dimension_function_matches_oracle(h, depth, rng):
    dim = dimension_function(h, depth)
    assert dim.window() == (pow2(-depth), 1 - pow2(-depth))
    pieces = pieces_of(h)
    for a, b, v in _spread(list(dim.pieces()), 8):
        assert dim_sum_at(pieces, (a + b) / 2) == v
    for xi in sample_fractions(rng, 8, *dim.window()):
        assert dim_sum_at(pieces, xi) == dim.value_at(xi)


@settings(max_examples=60, deadline=None)
@given(grid_spectra(), st.randoms(use_true_random=False))
def test_grid_calderon_matches_oracle(h, rng):
    away = StepFn(tuple((iv, v) for iv, v in h.pieces if not iv.lo <= 0 <= iv.hi))
    assert calderon(h).diverges == (away != h)
    res = calderon(away)
    assert not res.diverges
    for lo, hi in ((-2, -1), (1, 2)):  # the atoms of each half tile it in order
        half = [iv for iv, _ in res.atoms if lo <= iv.lo < hi]
        assert half[0].lo == lo and half[-1].hi == hi
        assert all(a.hi == b.lo for a, b in zip(half, half[1:]))
    pieces = pieces_of(away)
    for iv, v in _spread(list(res.atoms)):
        assert calderon_sum_at(pieces, (iv.lo + iv.hi) / 2) == v
    for lo, hi in ((-2, -1), (1, 2)):
        for xi in sample_fractions(rng, 6, F(lo), F(hi)):
            value = next(v for iv, v in res.atoms if iv.lo <= xi < iv.hi)
            assert calderon_sum_at(pieces, xi) == value


@st.composite
def translation_tiles(draw):
    """Wavelet sets 2S minus S, some with one part moved by an integer.

    S is [-3/8, 3/8) with the cells of [3/8, 1/2) and of (-1/2, -3/8], cut
    at mixed denominators, every other one moved by -1 or +1: nested,
    containing a neighborhood of 0 and tiling by translation, so S is a
    scaling set.  Moving a part of W by an integer keeps the translation
    tiling unless it lands on another part, and usually spoils the dilation
    tiling.
    """
    pairs = [(F(-3, 8), F(3, 8))]
    for side in (1, -1):
        inner = draw(st.lists(st.sampled_from((7, 48, 1616)).flatmap(lambda d: st.builds(
            lambda n: F(n, d), st.integers(min_value=3 * d // 8 + 1, max_value=(d - 1) // 2))),
            max_size=4))
        pts = [F(3, 8)] + sorted(set(inner)) + [F(1, 2)]
        for i, (a, b) in enumerate(zip(pts, pts[1:])):
            lo, hi = (a, b) if side == 1 else (-b, -a)
            if i % 2:
                lo, hi = lo - side, hi - side
            pairs.append((lo, hi))
    s = normalize(pairs)
    w = s.scale(2).subtract(s)
    if not draw(st.booleans()):
        return w
    moved = draw(st.integers(min_value=0, max_value=len(w.parts) - 1))
    k = draw(st.sampled_from([-2, -1, 1, 2]))
    return normalize(Interval(p.lo + k, p.hi + k) if i == moved else p
                     for i, p in enumerate(w.parts))


@settings(max_examples=80, deadline=None)
@given(translation_tiles(), st.randoms(use_true_random=False))
def test_grid_dilation_check_matches_oracle(w, rng):
    verdict = verify_wavelet_set(w)
    if not fold_multiplicity(w).is_constant(1):
        assert "translation" in verdict.reason
        return
    parts = [(p.lo, p.hi) for p in w.parts]
    if any(lo <= 0 <= hi for lo, hi in parts):
        assert "dilation overlap near 0" in verdict.reason
        return
    r = min(lo if lo > 0 else -hi for lo, hi in parts)
    samples = sample_fractions(rng, 12, r, 2 * r) + sample_fractions(rng, 12, -2 * r, -r)
    if verdict.passed:
        assert all(dilation_multiplicity_at(parts, xi) == 1 for xi in samples)
        return
    assert verdict.reason.startswith("dilation")
    value = int(verdict.reason.split("multiplicity ")[1].split(" ")[0])
    mid = (verdict.witness.lo + verdict.witness.hi) / 2
    assert value != 1 and dilation_multiplicity_at(parts, mid) == value
    assert r <= abs(verdict.witness.lo) <= 2 * r and r <= abs(verdict.witness.hi) <= 2 * r


def _primes_above(n, start):
    out, c = [], start
    while len(out) < n:
        c += 1
        if all(c % p for p in range(2, int(c ** 0.5) + 1)):
            out.append(c)
    return out


def _prime_cut_tile(n):
    """W = [0, 1) cut at n points with distinct prime denominators, cell i moved by i + 1."""
    cuts = [F(p * i // (n + 1), p) for i, p in enumerate(_primes_above(n, 2 * n + 4096), 1)]
    pts = [F(0)] + cuts + [F(1)]
    return normalize((a + i, b + i) for i, (a, b) in enumerate(zip(pts, pts[1:]), 1))


def test_grid_agrees_with_oracle_on_many_prime_denominators():
    w = _prime_cut_tile(24)
    h = StepFn.indicator(w.scale(F(1, 8)))
    pieces = pieces_of(h)
    dim = dimension_function(h, 6)
    for a, b, v in _spread(list(dim.pieces())):
        assert dim_sum_at(pieces, (a + b) / 2) == v
    for iv, v in _spread(list(calderon(h).atoms)):
        assert calderon_sum_at(pieces, (iv.lo + iv.hi) / 2) == v
    verdict = verify_wavelet_set(w)
    parts = [(p.lo, p.hi) for p in w.parts]
    assert verdict.reason.startswith("dilation")
    assert dilation_multiplicity_at(parts, (verdict.witness.lo + verdict.witness.hi) / 2) != 1


def test_grid_bit_budget():
    """An lcm of endpoint denominators over 8192 bits is refused before any fragment."""
    w = _prime_cut_tile(700)
    h = StepFn.indicator(w)
    for run in (lambda: dimension_function(h, 4), lambda: calderon(h),
                lambda: verify_wavelet_set(w)):
        with pytest.raises(InputError, match="at most 8192 bits each"):
            run()
    v = StepFn.build(((i, i + 1), F(1, p)) for i, p in enumerate(_primes_above(700, 4096), 1))
    with pytest.raises(InputError, match="at most 8192 bits each"):
        calderon(v)


def test_sums_return_fractions_only():
    """Breaks, values and levels leave the integer grid as fractions, empty inputs too."""
    def all_fractions(xs):
        return all(type(x) is Fraction for x in xs)

    for h in (StepFn(), SHANNON_PSI, JOURNE_H, psi_b_spectrum("1/4").square()):
        for dim in (dimension_function(h, 6), fold_step(h.pieces)):
            assert all_fractions(dim.breaks) and all_fractions(dim.values)
        res = calderon(h)
        assert all_fractions([x for iv, v in res.atoms for x in (iv.lo, iv.hi, v)])
        assert all_fractions([res.min_value, res.max_value])
    for s in (EMPTY, iset(("1/4", "1/2")), JOURNE):
        dim = fold_multiplicity(s)
        assert all_fractions(dim.breaks) and all_fractions(dim.values)


# ------------------------------------------------------------- (D1)-(D4)


def test_conditions_shannon():
    rep = check_D1_D4(dimension_function(SHANNON_PSI, 22), 20)
    assert rep.d1.status == "pass"
    assert rep.d2.status == "pass"
    assert rep.d3.status == "no_violation"
    assert rep.d4.status == "no_violation"


def test_conditions_journe_d1_d2_exact():
    rep = check_D1_D4(dimension_function(JOURNE_H, 22), 20)
    assert rep.d1.status == "pass"
    assert rep.d2.status == "pass"


def test_conditions_noninteger_d1_fail():
    wlo, whi = pow2(-22), 1 - pow2(-22)
    half_dim = DimFnWindow((wlo, whi), (F(1, 2),), 22, True)
    rep = check_D1_D4(half_dim, 20)
    assert rep.d1.status == "fail"


def test_conditions_d3_certified_fail():
    # Value 2 on [1/4, 1/2) and 0 elsewhere: every residue class dies at the
    # first contraction level, so the covering sum is certifiably 0 < 2.
    wlo, whi = pow2(-22), 1 - pow2(-22)
    dim = DimFnWindow(
        (wlo, F(1, 4), F(1, 2), whi),
        (F(0), F(2), F(0)),
        22, True,
    )
    rep = check_D1_D4(dim, 20)
    assert rep.d3.status == "fail"
    assert rep.d3.witness is not None


D3_VALUES = (F(0), F(0), F(1), F(2))


def _d3_window(depth, den, cuts, values):
    """The depth-(L + 2) window cut at cuts / den, with one value per piece."""
    wlo, whi = pow2(-depth - 2), 1 - pow2(-depth - 2)
    breaks = [wlo] + [F(c, den) for c in sorted(cuts) if wlo < F(c, den) < whi] + [whi]
    return DimFnWindow(tuple(breaks), tuple(values[:len(breaks) - 1]), depth + 2, True)


def _d3_against_oracle(dim, depth):
    d3 = check_D1_D4(dim, depth).d3
    status, witness, note = d3_probe(dim.breaks, dim.values, depth)
    assert (d3.status, d3.note) == (status, note)
    assert (None if d3.witness is None else (d3.witness.lo, d3.witness.hi)) == witness
    return d3.status


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.sampled_from([8, 16, 24, 40, 64]),
       st.lists(st.integers(min_value=1, max_value=63), max_size=10, unique=True),
       st.lists(st.sampled_from(D3_VALUES), min_size=11, max_size=11))
def test_d3_matches_plain_loop_oracle(depth, den, cuts, values):
    _d3_against_oracle(_d3_window(depth, den, [c for c in cuts if c < den], values), depth)


def test_d3_oracle_sees_both_outcomes():
    # Random windows of values 0, 1, 2 reach certified fails and survivors alike.
    rng = random.Random(88)
    seen = set()
    for _ in range(300):
        depth, den = rng.randint(2, 10), rng.choice([8, 16, 24, 40, 64])
        cuts = rng.sample(range(1, den), rng.randint(0, 7))
        values = [rng.choice(D3_VALUES) for _ in range(8)]
        seen.add(_d3_against_oracle(_d3_window(depth, den, cuts, values), depth))
    for depth in (2, 5, 8, 20):
        _d3_against_oracle(dimension_function(JOURNE_H, depth + 2), depth)
    assert seen == {"fail", "no_violation"}


def _d2_against_oracle(dim, depth):
    d2 = check_D1_D4(dim, depth).d2
    status, witness, note = d2_probe(dim.breaks, dim.values, depth)
    assert (d2.status, d2.note) == (status, note)
    assert (None if d2.witness is None else (d2.witness.lo, d2.witness.hi)) == witness
    return d2.status


D2_VALUES = (F(1), F(1), F(1), F(1), F(2), F(0))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.sampled_from([8, 16, 24, 40, 64, 96]),
       st.lists(st.integers(min_value=1, max_value=95), max_size=10, unique=True),
       st.lists(st.sampled_from(D2_VALUES), min_size=11, max_size=11))
def test_d2_matches_plain_loop_oracle(depth, den, cuts, values):
    _d2_against_oracle(_d3_window(depth, den, [c for c in cuts if c < den], values), depth)


def test_d2_oracle_sees_both_outcomes():
    # Windows of mostly 1 pass or fail the doubling identity; wavelets' windows pass.
    rng = random.Random(89)
    seen = set()
    for _ in range(200):
        depth, den = rng.randint(2, 10), rng.choice([8, 16, 24, 40, 64, 96])
        cuts = rng.sample(range(1, den), rng.randint(0, 4))
        values = [rng.choice(D2_VALUES) for _ in range(5)]
        seen.add(_d2_against_oracle(_d3_window(depth, den, cuts, values), depth))
    for h in (SHANNON_PSI, JOURNE_H, psi_b_spectrum("1/3").square()):
        for depth in (2, 5, 8):
            seen.add(_d2_against_oracle(dimension_function(h, depth + 2), depth))
    assert seen == {"fail", "pass"}


def test_conditions_accept_window_over_grid_bits():
    # D2 and D3 run on the grid of the window's own breaks, which no grid
    # budget bounds: here the lcm of their denominators has over 8192 bits.
    ps = _primes_above(700, 4096)
    dens = [math.prod(ps[i::14]) for i in range(14)]  # 14 coprime products of 50 primes
    depth = 6
    cuts = sorted(F(d * (i + 1) // 15, d) for i, d in enumerate(dens))
    assert math.lcm(*(c.denominator for c in cuts)).bit_length() > 8192
    wlo, whi = pow2(-depth - 2), 1 - pow2(-depth - 2)
    values = [F(v) for v in (0, 2, 0, 1, 1, 0, 2, 2, 1, 0, 1, 1, 0, 2, 1)]
    dim = DimFnWindow((wlo, *cuts, whi), tuple(values), depth + 2, True)
    rep = check_D1_D4(dim, depth)
    assert rep.d1.status == "pass" and rep.d4.status == "skipped"
    assert _d2_against_oracle(dim, depth) == rep.d2.status == "fail"
    assert _d3_against_oracle(dim, depth) == rep.d3.status


def test_conditions_d4_certified_fail():
    # One-sided spectrum: the dimension function vanishes on (0, eps), so
    # every deep contraction lands on a certified zero.
    h = StepFn.build([((F(-1, 2), F(-1, 4)), 1)])
    rep = check_D1_D4(dimension_function(h, 22), 20)
    assert rep.d4.status == "fail"


def test_conditions_d4_skipped_without_source():
    wlo, whi = pow2(-22), 1 - pow2(-22)
    dim = DimFnWindow((wlo, whi), (F(1),), 22, True)
    rep = check_D1_D4(dim, 20)
    assert rep.d4.status == "skipped"


def test_conditions_insufficient_depth_rejected():
    with pytest.raises(InputError):
        check_D1_D4(dimension_function(SHANNON_PSI, 10), 10)


@pytest.mark.parametrize("depth", [1, 0, -1, -2])
def test_conditions_check_their_depth_first(depth):
    # The depth floor is checked before the window is cut, so a deep window
    # and a fold both get this reason, not the cut's own.
    for dim in (dimension_function(SHANNON_PSI, 22), fold_step(SHANNON_PSI.pieces)):
        with pytest.raises(InputError, match=f"^the conditions are checked at a depth of at "
                                             f"least 2; got {depth}$"):
            check_D1_D4(dim, depth)


D4_DENOMINATORS = (4, 7, 8, 10, 12, 16, 24)


def _grid_spectrum(rng: random.Random) -> StepFn:
    """Pieces on a 1/q grid inside [-3, 3], some touching, with values 1, 2 or 1/2."""
    q = rng.choice(D4_DENOMINATORS)
    cuts = sorted(rng.sample(range(-3 * q, 3 * q + 1), rng.randint(2, 8)))
    return StepFn.build(((F(a, q), F(b, q)), rng.choice((1, 1, 2, F(1, 2))))
                        for a, b in zip(cuts, cuts[1:]) if rng.random() < 0.6)


def _d4_against_oracle(d4, dim, depth):
    status, witness, note = d4_probe(dim, depth)
    assert (d4.status, d4.note) == (status, note)
    assert (None if d4.witness is None else (d4.witness.lo, d4.witness.hi)) == witness
    return d4.status


def test_d4_matches_interval_set_oracle():
    # The narrow sweep of the source below 2^-ceil(L/2), and the integer runs
    # of a given deep window, both give the full window's interval-set chain.
    rng = random.Random(1616)
    statuses = []
    for _ in range(320):
        h, depth = _grid_spectrum(rng), rng.randint(2, 9)
        dim = dimension_function(h, depth + 2)
        statuses.append(_d4_against_oracle(check_D1_D4(dim, depth).d4, dim, depth))
        deep = dimension_function(h, 2 * depth + 2)
        assert _d4_against_oracle(_check_d4(deep, depth), deep, depth) == statuses[-1]
    assert statuses.count("fail") >= 50 and statuses.count("no_violation") >= 50


def test_d4_reads_windows_built_from_fractions_like_the_oracle():
    # Deep windows built from fractions on a 1/q grid, whatever part of [0, 1]
    # they cover: their grid has no 2^-L until D4 refines it.
    rng = random.Random(1617)
    seen = set()
    for _ in range(300):
        depth, q = rng.randint(2, 9), rng.choice(D4_DENOMINATORS)
        cuts = sorted(rng.sample(range(q + 1), rng.randint(2, min(6, q + 1))))
        values = tuple(rng.choice((F(0), F(0), F(1), F(2))) for _ in cuts[1:])
        dim = DimFnWindow(tuple(F(c, q) for c in cuts), values, 2 * depth + 2, True)
        seen.add(_d4_against_oracle(_check_d4(dim, depth), dim, depth))
    assert seen == {"fail", "no_violation"}


# ------------------------------------------------ the window's two forms


def _grid_windows():
    """Fresh windows built on the grid: sweeps, folds and cuts."""
    return [dimension_function(JOURNE_H, 9), dimension_function(psi_b_spectrum("1/3").square(), 6),
            dimension_function(StepFn(), 4), fold_step(THREE_LEVEL_G.pieces), fold_multiplicity(JOURNE),
            fold_multiplicity(EMPTY), dimension_function(JOURNE_H, 20).restrict(7)]


def _from_fractions(w: DimFnWindow) -> DimFnWindow:
    return DimFnWindow(w.breaks, w.values, w.depth_L, w.boundary_note, w.source)


def _grid_as_fractions(w: DimFnWindow):
    return [[F(e, w.scale) for e in w.ends], [F(x, w.vden) for x in w.weights]]


def test_window_forms_equal_hash_and_repr_alike():
    for w, again, fresh in zip(_grid_windows(), _grid_windows(), _grid_windows()):
        assert w == fresh  # neither has made its fractions yet
        text = repr(w)
        v = _from_fractions(again)
        assert repr(v) == text and v == w and w == v and hash(v) == hash(w) == hash(fresh)
        assert _grid_as_fractions(w) == _grid_as_fractions(v) == [list(v.breaks), list(v.values)]
    for w in _grid_windows():
        assert w != dataclasses.replace(w, depth_L=w.depth_L + 1)


def test_window_replace_derives_the_grid_of_its_new_values():
    w = dimension_function(JOURNE_H, 9)
    bumped = dataclasses.replace(w, values=tuple(v + F(1, 3) for v in w.values))
    assert _grid_as_fractions(bumped) == [list(w.breaks), list(bumped.values)]
    assert bumped.source is w.source and bumped.vden == 3
    rng = random.Random(91)
    for xi in sample_fractions(rng, 20, *w.window()):
        assert bumped.value_at(xi) == w.value_at(xi) + F(1, 3)
    cut = dataclasses.replace(w, breaks=(w.breaks[0], w.breaks[-1]), values=(F(2),))
    assert (cut.ends, cut.weights) == ((1, 2**9 - 1), (2,)) and cut.scale == 2**9


def test_window_copies_and_pickles_compare_equal():
    for made in (False, True):
        for w in _grid_windows():
            if made:
                repr(w)  # make the fractions first
            for twin in (copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
                assert twin == w and repr(twin) == repr(w) and hash(twin) == hash(w)
                assert (twin.scale, twin.ends, twin.vden, twin.weights) == (
                    w.scale, w.ends, w.vden, w.weights)


def test_window_queries_match_fraction_loops():
    rng = random.Random(92)
    windows = _grid_windows() + [
        DimFnWindow((F(0), F(1, 3), F(2, 3), F(1)), (F(1), F(2), F(0)), 0, False),
        DimFnWindow((F(1, 7), F(2, 5), F(3, 5), F(6, 7)), (F(1, 2), F(0), F(1, 2)), 3, True)]
    for w in windows:
        pieces = list(zip(w.breaks, w.breaks[1:], w.values))
        for xi in sample_fractions(rng, 25, *w.window()):
            assert w.value_at(xi) == w.value_at(xi + 3) == value_at(pieces, xi)
        for c in set(w.values) | {F(0), F(1), F(1, 3)}:
            assert w.where_not(c) == normalize((a, b) for a, b, v in pieces if v != c)
            assert w.is_constant(c) == all(v == c for _, _, v in pieces)
        if w.breaks[0] > 0:
            with pytest.raises(InputError, match=f"^{w.breaks[0] / 2} is outside the computed "
                                                 f"window .{w.breaks[0]}, {w.breaks[-1]}.$"):
                w.value_at(w.breaks[0] / 2)
    # A cut of a window on thirds refines its grid by the powers of 2 it needs.
    thirds = windows[-2].restrict(3)
    assert (thirds.breaks, thirds.values) == ((F(1, 8), F(1, 3), F(2, 3), F(7, 8)),
                                              (F(1), F(2), F(0)))
    assert thirds.scale == 24


# ------------------------------------------------------------------- MRA


def test_mra_shannon():
    assert mra_check(SHANNON_PSI, 20).status == "is_mra"


def test_mra_journe_not_mra():
    verdict = mra_check(JOURNE_H, 20)
    assert verdict.status == "not_mra"
    assert verdict.witness is not None
    # The witness region genuinely carries a value other than 1.
    assert verdict.window.value_at(verdict.witness.lo) == 2


def test_mra_psi_half():
    assert mra_check(psi_b_spectrum("1/2").square(), 20).status == "is_mra"


# -------------------------------------------------------------------- tq


def test_tq_shannon_zero():
    res = tq_check(SHANNON_PSI, 1)
    assert res.zero
    rng = random.Random(3)
    pieces = pieces_of(SHANNON_PSI)
    for xi in sample_fractions(rng, 100, F(-2), F(2)):
        assert tq_sum_at(pieces, 1, xi) == 0


def test_tq_psi_quarter_nonzero():
    psi = psi_b_spectrum("1/4")
    res = tq_check(psi, 1)
    assert not res.zero and res.witness is not None
    pieces = pieces_of(psi)
    mid = (res.witness.lo + res.witness.hi) / 2
    assert tq_sum_at(pieces, 1, mid) != 0


@st.composite
def signed_spectra(draw):
    """Real-valued step spectra on [-3, -1/8) u [1/8, 3), signed values, possibly zero."""
    pieces = []
    for sign in (1, -1):
        ends = sorted(draw(st.lists(
            st.sampled_from([2, 3, 4, 7, 16]).flatmap(lambda d: st.builds(
                lambda n: F(n, d), st.integers(min_value=max(1, d // 8), max_value=3 * d))),
            max_size=5, unique=True)))
        for a, b in zip(ends, ends[1:]):
            v = draw(st.builds(F, st.integers(min_value=-3, max_value=3),
                               st.integers(min_value=1, max_value=3)))
            pieces.append(((a, b) if sign == 1 else (-b, -a), v))
    return StepFn.build(pieces)


@settings(max_examples=100, deadline=None)
@given(signed_spectra(), st.sampled_from([1, 3, 5, 7]), st.sampled_from([1, -1]),
       st.randoms(use_true_random=False))
def test_tq_matches_oracle(psi, alpha, sign, rng):
    alpha *= sign
    res = tq_check(psi, alpha)
    assert res.zero == res.fn.is_zero
    pieces = pieces_of(psi)
    # Every point here is at least 1/9973 from 0, where terms with 2^m > 3 * 9973 vanish.
    for iv, v in res.fn.pieces:
        assert tq_sum_at(pieces, alpha, (iv.lo + iv.hi) / 2, 16) == v
    if not res.zero:
        assert res.witness == res.fn.pieces[0][0]
    for m in range(5):  # term m lives in 2^-m [-3, 3]
        for xi in sample_fractions(rng, 6, -3 * pow2(-m), 3 * pow2(-m)):
            assert tq_sum_at(pieces, alpha, xi, 16) == res.fn.value_at(xi)


@settings(max_examples=100, deadline=None)
@given(signed_spectra(), st.integers(min_value=-7, max_value=6).map(lambda k: 2 * k + 1))
def test_tq_matches_fraction_sum(psi, alpha):
    # Piece for piece against the sum of every term's cells in fractions.
    res = tq_check(psi, alpha)
    assert [(iv.lo, iv.hi, v) for iv, v in res.fn.pieces] == fraction_tq_sum(pieces_of(psi), alpha)


def test_tq_far_alpha_trivially_zero():
    assert tq_check(SHANNON_PSI, 9).zero


def test_tq_even_alpha_rejected():
    with pytest.raises(InputError):
        tq_check(SHANNON_PSI, 2)


def test_tq_support_touching_zero_rejected():
    with pytest.raises(InputError):
        tq_check(StepFn.build([((0, 1), 1)]), 1)


# --------------------------------------------------------- orthonormality


def test_orthonormality_shannon_passes():
    rep = orthonormality_check(SHANNON_PSI)
    assert rep.passed and rep.norm_sq == 1


def test_orthonormality_journe_indicator_passes():
    assert orthonormality_check(StepFn.indicator(JOURNE)).passed


def test_orthonormality_shift_budget(monkeypatch):
    # The odd shifts up to twice the reach are counted before any sum.
    from waveset import spectral

    def no_sums(*args):
        raise AssertionError("the budget is checked before any sum")

    with monkeypatch.context() as m:
        m.setattr(spectral, "tq_check", no_sums)
        m.setattr(spectral, "calderon", no_sums)
        with pytest.raises(InputError, match="at most 2048 odd shifts .work budget.; "
                                             "the support reach 2049 needs 2049"):
            orthonormality_check(StepFn.build([((1, 2049), 1)]))
    monkeypatch.setattr(spectral, "tq_check", lambda psi, a: spectral.TqResult(True))
    rep = orthonormality_check(StepFn.build([((-2048, -1), 1), ((1, 2048), 1)]))
    assert rep.alphas_checked == tuple(range(1, 4096, 2))


def test_orthonormality_psi_quarter_fails():
    rep = orthonormality_check(psi_b_spectrum("1/4"))
    assert not rep.passed
    assert not rep.calderon.is_one


def test_orthonormality_one_sided_fails():
    rep = orthonormality_check(StepFn.build([((F(1, 2), 1), 1)]))
    assert not rep.passed
    assert rep.calderon.min_value == 0


# ------------------------------------------------------------------ psi_b


def test_psi_b_half_orthonormal():
    rep = psi_b_report("1/2")
    assert rep.orthonormal and rep.table_row == "orthonormal wavelet" and rep.consistent


def test_psi_b_quarter_calderon_two():
    rep = psi_b_report("1/4")
    assert rep.calderon.min_value == rep.calderon.max_value == 2
    assert not rep.orthonormal and rep.consistent


def test_psi_b_eighth_calderon_three():
    rep = psi_b_report("1/8")
    assert rep.calderon.min_value == rep.calderon.max_value == 3
    assert not rep.orthonormal and rep.consistent


def test_psi_b_zero_diverges():
    rep = psi_b_report(0)
    assert rep.calderon.diverges and not rep.orthonormal and rep.consistent


def test_psi_b_open_range_labelled():
    rep = psi_b_report("1/6")
    assert rep.table_row == "open: frame status unknown"
    assert rep.consistent


def test_psi_b_out_of_range():
    with pytest.raises(InputError):
        psi_b_spectrum("3/2")
