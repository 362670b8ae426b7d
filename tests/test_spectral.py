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
    floor_log2 as oracle_floor_log2,
    fraction_tq_sum,
    sample_fractions,
    shift,
    stretch,
    tail_depth_by_loops,
    tq_sum_at,
    value_at,
    window_by_direct_sweep,
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
    mra_verdict,
    orthonormality_check,
    pow2,
    psi_b_report,
    psi_b_spectrum,
    psi_spectrum_from_scaling,
    tq_check,
    validate_scaling_spectrum,
)
from waveset.spectral import _check_d4, _tail_depth
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


def test_floor_log2_matches_oracle_seeded():
    rng = random.Random(20261020)
    xs = [F(rng.randint(1, 10 ** rng.randint(0, 30)), rng.randint(1, 10 ** rng.randint(0, 30)))
          for _ in range(20000)]
    tiny = F(1, 10**30)
    xs += [pow2(k) + e for k in range(-70, 71) for e in (-tiny, 0, tiny)]
    for x in xs:
        assert floor_log2(x) == oracle_floor_log2(x), x
    for x in (F(0), F(-1, 3), F(-2**70)):
        with pytest.raises(InputError, match="positive argument"):
            floor_log2(x)


def test_dimension_fragments_do_not_grow_with_reach(monkeypatch):
    # Each level gives a piece at most three folded fragments (the cut ends
    # and the whole periods), so the work follows the levels of the one sweep,
    # at L* + 1 (5 and 6 here) plus log2 of the reach: 11 levels at 10^2 and
    # 35 at 10^9, and each further level adds at most three fragments.
    from waveset import torus

    made, levels = [], []
    for reach in (10**2, 10**9):
        lengths = []

        def counting_sweep(fragments, lo, hi, real=torus.sweep_weighted):
            fragments = list(fragments)
            lengths.append(len(fragments))
            return real(fragments, lo, hi)

        h = StepFn.build([((1, reach), 1)])
        with monkeypatch.context() as m:
            m.setattr(torus, "sweep_weighted", counting_sweep)
            dimension_function(h, 20)
        levels.append(_tail_depth(h) + 1 + floor_log2(F(reach)))
        assert sum(lengths) <= 3 * levels[-1]
        made.append(sum(lengths))
    assert levels == [11, 35]
    assert made[1] - made[0] <= 3 * (levels[1] - levels[0])


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
    # The patched name is the integer sweep that every dilation sum reaches:
    # -1 to 4001 levels for a Calderon sum, -1 to 4000 for a dilation check.
    with pytest.raises(AssertionError, match="level budget"):
        calderon(StepFn.build([((1, 2**4000), 1)]))
    with pytest.raises(AssertionError, match="level budget"):
        verify_wavelet_set(iset((pow2(-3999), 1), (1, 1 + pow2(-3999))))
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
    dim = dimension_function(SHANNON_PSI, 1028)  # deep enough for D1-D3 at L = 1026
    with pytest.raises(InputError, match="D4 needs a window 2052 deep.*at most 2050"):
        check_D1_D4(dim, 1026)


def test_conditions_read_d4_from_a_window_2L_deep():
    # No contraction 2^-j x with x >= 2^-L and j <= L lands below 2^-2L, so L = 1025 is in
    # the budget, and a given window already 2L deep is read, with no source to sweep.
    assert check_D1_D4(dimension_function(SHANNON_PSI, 1027), 1025).d4.status == "no_violation"
    rng = random.Random(1618)
    statuses = set()
    for _ in range(150):
        h, depth = _grid_spectrum(rng), rng.randint(2, 9)
        window = dimension_function(h, 2 * depth)
        detached = DimFnWindow(window.breaks, window.values, window.depth_L, window.boundary_note)
        statuses.add(_d4_against_oracle(check_D1_D4(detached, depth).d4, window, depth))
    assert statuses == {"fail", "no_violation"}


# ---------------------------------------------------- the held window


def _held_window_spectra(rng: random.Random):
    """Seeded squared spectra: grid spectra, band pairs, signed steps squared, Journe's."""
    yield StepFn.build(JOURNE_H.pieces)
    for _ in range(30):
        yield _grid_spectrum(rng)
    for b in ("1/3", "1/4", "3/5", "2/7"):
        yield psi_b_spectrum(b).square()
    for _ in range(6):
        q = rng.choice(D4_DENOMINATORS)
        cuts = sorted(rng.sample(range(-2 * q, 2 * q + 1), 5))
        yield StepFn.build(((F(a, q), F(b, q)), rng.choice((-2, -1, F(1, 2), 3)))
                           for a, b in zip(cuts, cuts[1:])).square()


def test_held_window_reads_match_direct_sweeps_seeded():
    # Depths asked in random order, each read three ways; every answer equals the one read off
    # a window swept at exactly the depth it needs.
    rng = random.Random(2210)
    asked = 0
    for h in _held_window_spectra(rng):
        for _ in range(6):
            depth, kind = rng.randint(2, 12), rng.choice(("window", "conditions", "mra"))
            if kind == "window":
                window = dimension_function(h, depth)
                assert window == window_by_direct_sweep(h, depth) and window.source is h
            elif kind == "conditions":
                got = check_D1_D4(dimension_function(h, depth + 2), depth)
                assert got == check_D1_D4(window_by_direct_sweep(h, 2 * depth + 2), depth)
            else:
                assert mra_check(h, depth) == mra_verdict(window_by_direct_sweep(h, depth))
            tail = _tail_depth(h)  # held iff h has a dilation-periodic tail
            assert (h._window is None) == (tail is None)
            assert h._window is None or (h._window.depth_L >= max(depth, tail + 1)
                                         and h._window.source is None)
            asked += 1
    assert asked == 6 * 41


def test_held_window_refusals_do_not_depend_on_what_is_held():
    far = [((1, 2**4000), 1)]  # 4000 + L levels: L = 96 is the deepest in the level budget
    cases = (
        (SHANNON_PSI.pieces, 1, (None, 2, 40), "window depth must be at least 2"),
        (SHANNON_PSI.pieces, MAX_WINDOW_DEPTH + 1, (None, 2, 1100),
         f"window depth is at most {MAX_WINDOW_DEPTH}, so dimfun --depth is at most 1024 "
         f"(work budget); got window depth {MAX_WINDOW_DEPTH + 1}"),
        (far, 97, (None, 48), f"a dilation sum has at most {MAX_LEVELS} levels (work budget); "
                              f"got {MAX_LEVELS + 1}"),
        ([((0, 1), -1)], 8, (None,), "squared spectrum must be nonnegative; got -1 on [0, 1)"),
    )
    for pieces, depth, holds, text in cases:
        for held in holds:
            h = StepFn.build(pieces)
            if held is not None:
                dimension_function(h, held)
            for read in (lambda: dimension_function(h, depth), lambda: mra_check(h, depth)):
                with pytest.raises(InputError) as refused:
                    read()
                assert str(refused.value) == text
            # off 0 the first read sweeps at L* + 1 = 3, then h holds its deepest read
            assert (h._window and h._window.depth_L) == (held and max(held, 3))
    # Off 0 a deeper read extends the window held, up to the level budget's cap; reaching 0,
    # each read sweeps at the depth asked and h holds nothing.
    h = StepFn.build(far)
    dimension_function(h, 60)
    assert dimension_function(h, 70).depth_L == 70 and h._window.depth_L == 70
    assert dimension_function(h, 96) == window_by_direct_sweep(h, 96)
    h = StepFn.build([((0, 2**4000), 1)])
    dimension_function(h, 60)
    assert dimension_function(h, 70).depth_L == 70 and h._window is None


def test_deep_reads_extend_off_0_and_hold_nothing_reaching_0():
    # Reaching 0, h holds nothing, so a deeper read sweeps again; off 0, Shannon's window at
    # 1600 is the extension of the one held at 1500.
    for pieces, held in (([((-1, 1), 1)], None), (SHANNON_PSI.pieces, 1600)):
        h = StepFn.build(pieces)
        dimension_function(h, 1500)
        window = dimension_function(h, 1600)
        assert window.depth_L == 1600 and (h._window and h._window.depth_L) == held
        assert window == window_by_direct_sweep(h, 1600)


def _journe_type(q: int) -> StepFn:
    """The indicator of J_q, whose positive half is [c/4, 1/2) u [2^q, 2^q c), c =
    2^(q+2) / (2^(q+2) - 1): q = 1 is Journe's set."""
    c, top = F(2 ** (q + 2), 2 ** (q + 2) - 1), 2**q
    return StepFn.indicator(normalize([(-top * c, -top), (F(-1, 2), -c / 4), (c / 4, F(1, 2)),
                                       (top, top * c)]))


def _distinct_steps(cuts, rng: random.Random):
    """Touching pieces on the sorted cuts, neighbours unequal, so that every cut is a break."""
    values = [rng.randint(1, 3)]
    for _ in cuts[2:]:
        values.append(rng.choice([v for v in (1, 2, 3) if v != values[-1]]))
    return [(a, b, v) for a, b, v in zip(cuts, cuts[1:], values)]


def _tight_spectrum(rng: random.Random, j: int, k: int, q: int) -> StepFn:
    """A break b = 2^j k +- 1/q on the side of k, every other break on 1/4: eps is at most
    1/(q 2^j), and R at most 2^(j+1) + 1."""
    b = abs(2**j * k + F(rng.choice((-1, 1)), q))
    top = 2**j * abs(k) + 1
    cuts = sorted({F(1, 4), b, F(top)} | {F(rng.randint(2, 4 * top - 1), 4) for _ in range(3)})
    pieces = _distinct_steps(cuts, rng)
    if k < 0:
        pieces = [(-hi, -lo, v) for lo, hi, v in pieces]
    if rng.random() < 0.5:  # the other side on 1/4 alone
        pieces += [(-hi if k > 0 else lo, -lo if k > 0 else hi, v)
                   for lo, hi, v in _distinct_steps([F(1, 4), F(3, 4), F(7, 4)], rng)]
    return step(pieces)


def _near_zero_spectrum(rng: random.Random, s: int) -> StepFn:
    """Steps on [2^-s, 3) and a mirror piece: the support is 2^-s from 0."""
    cuts = sorted({pow2(-s), F(3)} | {F(rng.randint(1, 11), 4) for _ in range(3)})
    return step(_distinct_steps(cuts, rng) + [(F(-2), -pow2(-s - 1), 1)])


def _tail_spectra(rng: random.Random):
    """Seeded spectra off 0, several with a dilation-periodic tail that starts deep: band
    pairs, Journe-type sets, eps-tight steps, and supports 2^-3 to 2^-40 from 0."""
    for b in ("1/2", "1/3", "1/4", "1/8", "3/5", "2/7"):
        yield psi_b_spectrum(b)
    for q in (1, 2, 3):
        yield _journe_type(q)
    for _ in range(12):
        yield _tight_spectrum(rng, rng.randint(1, 3), rng.choice((-2, -1, 1, 2)),
                              rng.choice((3, 5, 7, 64, 1001, 4097)))
    for s in (3, 9, 17, 26, 33, 40):
        yield _near_zero_spectrum(rng, s)


def test_windows_equal_direct_sweeps_at_every_depth_seeded():
    # Every depth 2..40, read in random order on one h and once on a fresh h: each cut or
    # extension of the window held equals the sweep at exactly that depth, piece for piece.
    # The grid spectra add the route of spectra reaching 0.
    rng = random.Random(2810)
    routes = set()
    for h in [*_tail_spectra(rng), *(_grid_spectrum(rng) for _ in range(6))]:
        direct = {depth: window_by_direct_sweep(h, depth) for depth in range(2, 41)}
        for depth in rng.sample(range(2, 41), 39):
            assert dimension_function(h, depth) == direct[depth], (h, depth)
            fresh = StepFn.build(h.pieces)
            assert dimension_function(fresh, depth) == direct[depth], (h, depth)
        routes.add(h._window is not None)
    assert routes == {True, False}


def test_tail_depth_matches_plain_loops_seeded():
    rng = random.Random(2811)
    spectra = [*_tail_spectra(rng), *(_grid_spectrum(rng) for _ in range(40)), StepFn(),
               StepFn.build([((1, 2**12), 1)]), StepFn.build([((-1, 1), 1)])]
    depths = set()
    for h in spectra:
        depth = tail_depth_by_loops(pieces_of(h))[0]
        assert _tail_depth(h) == depth, h
        depths.add(depth)
    assert None in depths and max(d for d in depths if d) >= 40


def test_dimension_near_0_and_1_matches_plain_sums_seeded():
    # Far below any window swept: D at rationals near 2^-200 and 1 - 2^-200, read off the
    # depth-202 extension, equals the plain double sum.
    rng = random.Random(2812)
    for h in list(_tail_spectra(rng))[::2]:
        pieces = pieces_of(h)
        j_max = 205 + oracle_floor_log2(max(max(abs(lo), abs(hi)) for lo, hi, _ in pieces))
        window = dimension_function(h, 202)
        for x in sample_fractions(rng, 3, pow2(-201), pow2(-199), 9973 << 201):
            for xi in (x, 1 - x):
                assert window.value_at(xi) == dim_sum_at(pieces, xi, j_max), (h, xi)


def test_a_tail_depth_missing_one_gap_is_caught(monkeypatch):
    # A mutant whose eps ignores the one (b, j, k) that gives it starts the tail too shallow.
    # With b = +-2 +- 1/q, q >= 64, that pair gives eps = 1/(2q), and every other at least
    # 1/32, so the mutant's L* is 2 or more too small: some depth up to 40 then differs from
    # the direct sweep.  (An eps off by a factor 2 or less moves L* by at most 1, which the
    # halving in its definition absorbs.)
    from waveset import spectral

    rng = random.Random(2813)
    for _ in range(12):
        h = _tight_spectrum(rng, 1, rng.choice((-1, 1)), rng.choice((64, 1001, 4097)))
        pieces = pieces_of(h)
        depth, pair = tail_depth_by_loops(pieces)
        assert spectral._tail_depth(h) == depth and pair[1:] in ((1, 1), (1, -1))
        assert tail_depth_by_loops(pieces, skip=pair)[0] <= depth - 2
        with monkeypatch.context() as m:
            m.setattr(spectral, "_tail_depth",
                      lambda f: tail_depth_by_loops(pieces_of(f), skip=pair)[0])
            assert any(dimension_function(StepFn.build(h.pieces), L) != window_by_direct_sweep(h, L)
                       for L in range(2, 41)), (h, pair)


def test_one_periodic_sweep_per_spectrum(monkeypatch):
    # Off 0, the full diagnosis (the window at L, D1-D4 on L + 2, the MRA test at L) and a lone
    # D1-D4 on the L + 2 window of a fresh h each sweep once, at L* + 1.
    from waveset import spectral

    sweeps = []

    def counting_sweep(*args, real=spectral._grid_sweep):
        sweeps.append(args[4])  # periodic
        return real(*args)

    monkeypatch.setattr(spectral, "_grid_sweep", counting_sweep)
    tight = _tight_spectrum(random.Random(7), 2, 1, 65)
    for h in (JOURNE_H, SHANNON_PSI, psi_b_spectrum("1/3"), tight):
        for L in (2, 8, 20, 200):
            fresh = StepFn.build(h.pieces)
            sweeps.clear()
            dimension_function(fresh, L)
            check_D1_D4(dimension_function(fresh, L + 2), L)
            mra_check(fresh, L)
            assert sweeps == [True]
            fresh = StepFn.build(h.pieces)
            sweeps.clear()
            check_D1_D4(dimension_function(fresh, L + 2), L)
            assert sweeps == [True]
            assert fresh._window.depth_L == max(2 * L, _tail_depth(fresh) + 1)


def test_spectra_without_a_tail_sweep_each_read_at_the_depth_asked(monkeypatch):
    # Reaching 0 or zero, h holds nothing: the full diagnosis sweeps once per window read, each
    # time at exactly the depth asked (the window at L, D1-D3 at L + 2, D4 at 2L, the MRA test
    # at L), never deeper.
    from waveset import spectral

    sweeps = []

    def counting_sweep(*args, real=spectral._grid_sweep):
        sweeps.append((args[4], args[6]))  # periodic, depth
        return real(*args)

    monkeypatch.setattr(spectral, "_grid_sweep", counting_sweep)
    for pieces in ([((-1, 1), 1)], [((0, 2**4000), 1)], []):
        for L in (3, 8, 30):
            h = StepFn.build(pieces)
            sweeps.clear()
            dimension_function(h, L)
            check_D1_D4(dimension_function(h, L + 2), L)
            mra_check(h, L)
            assert sweeps == [(True, L), (True, L + 2), (True, 2 * L), (True, L)], (pieces, L)
            assert h._window is None


def test_held_window_is_ignored_by_copy_pickle_and_hash():
    h, fresh = StepFn.build(JOURNE_H.pieces), StepFn.build(JOURNE_H.pieces)
    text, key = pickle.dumps(h), hash(h)
    window = dimension_function(h, 12)
    assert h._window is not None and fresh._window is None
    assert pickle.dumps(h) == text and hash(h) == key == hash(fresh)
    assert h == fresh and repr(h) == repr(fresh)
    for twin in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert twin == h and twin._window is None
    again = pickle.loads(pickle.dumps(window))
    assert again == window and again.source._window is None


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


def test_calderon_summary_reads_every_atom():
    # The sum is 1 on [1, 2) and 0, 1/2, or 1 and 3 on [-2, -1): it reaches 1 without being 1.
    for pieces, low in (([((1, 2), 1)], 0), ([((-2, -1), "1/2"), ((1, 2), 1)], F(1, 2)),
                        ([((-2, F(-3, 2)), 1), ((F(-3, 2), -1), 3), ((1, 2), 1)], 1)):
        res = calderon(StepFn.build(pieces))
        assert (res.min_value, res.max_value, res.is_one) == (low, max(v for _, v in res.atoms),
                                                              False)
    assert calderon(StepFn.build([((-2, -1), 1), ((1, 2), 1)])).is_one


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
    # The window the source holds, and the integer runs of a given deep
    # window, both give the full window's interval-set chain.
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
    (_, witness), = res.witnesses
    pieces = pieces_of(psi)
    mid = (witness.lo + witness.hi) / 2
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
    pieces = pieces_of(psi)
    # Every point here is at least 1/9973 from 0, where terms with 2^m > 3 * 9973 vanish.
    for iv, v in res.fn.pieces:
        assert tq_sum_at(pieces, alpha, (iv.lo + iv.hi) / 2, 16) == v
    assert [w for _, w in res.witnesses] == [iv for iv, _ in res.fn.pieces[:1]]
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
    monkeypatch.setattr(spectral, "tq_check", lambda psi, a: spectral.TqResult())
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
    assert rep.orthonormality.passed and rep.table_row == "orthonormal wavelet" and rep.consistent


def test_psi_b_quarter_calderon_two():
    rep = psi_b_report("1/4")
    assert rep.orthonormality.calderon.min_value == rep.orthonormality.calderon.max_value == 2
    assert not rep.orthonormality.passed and rep.consistent


def test_psi_b_eighth_calderon_three():
    rep = psi_b_report("1/8")
    assert rep.orthonormality.calderon.min_value == rep.orthonormality.calderon.max_value == 3
    assert not rep.orthonormality.passed and rep.consistent


def test_psi_b_zero_diverges():
    rep = psi_b_report(0)
    assert rep.orthonormality.calderon.diverges and not rep.orthonormality.passed
    assert rep.consistent


def test_psi_b_open_range_labelled():
    rep = psi_b_report("1/6")
    assert rep.table_row == "open: frame status unknown"
    assert rep.consistent


def test_psi_b_out_of_range():
    with pytest.raises(InputError):
        psi_b_spectrum("3/2")
