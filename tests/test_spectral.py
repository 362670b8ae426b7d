"""Spectrum validation, Calderon sums, dimension windows, orthogonality sums."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import calderon_sum_at, dim_sum_at, sample_fractions, tq_sum_at
from waveset.errors import InconsistentSpectrumError, InputError
from waveset.intervals import iset
from waveset.spectral import (
    DimFnWindow,
    StepFn,
    calderon,
    check_D1_D4,
    dimension_function,
    mra_check,
    orthonormality_check,
    pow2,
    psi_b_report,
    psi_b_spectrum,
    psi_spectrum_from_scaling,
    tq_check,
    validate_scaling_spectrum,
)

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
    f = StepFn.build([((0, 2), 2)])
    g = StepFn.build([((1, 3), 1)])
    assert pieces_of(f - g) == [(F(0), F(1), F(2)), (F(1), F(2), F(1)), (F(2), F(3), F(-1))]
    assert pieces_of(f * g) == [(F(1), F(2), F(2))]
    assert (f - f).is_zero
    assert f.stretch(2).integral() == 2 * f.integral()
    assert f.shift(5).value_at(6) == 2


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
        doubled = h.stretch(F(1, 2))
        assert calderon(doubled).atoms == calderon(h).atoms
    rng = random.Random(5)
    pa = pieces_of(JOURNE_H)
    pb = pieces_of(JOURNE_H.stretch(F(1, 2)))
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
