"""Scaling-set construction, defect accounting, and tiling verification."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    dilation_multiplicity_at,
    orbit_limit_is_one,
    sample_fractions,
    translation_multiplicity_at,
    truncated_level_by_periodization,
)
from waveset.construct import (
    MAX_CONSTRUCT_DEPTH,
    _truncated_levels,
    check_S1,
    check_S2,
    lemma_r3_construct,
    rze_pipeline,
    s1_witness,
    verify_wavelet_set,
)
from waveset.errors import InputError, PreconditionError
from waveset.intervals import EMPTY, iset, normalize
from waveset.spectral import StepFn, pow2
from waveset.torus import check_S3, check_cover_r4, extract_transversal, uncovered_witness

F = Fraction

SHANNON_W = iset((-1, "-1/2"), ("1/2", 1))
JOURNE_W = iset(("-16/7", -2), ("-1/2", "-2/7"), ("2/7", "1/2"), (2, "16/7"))
# Nested under doubling, covering, with mass on both sides of 0, but the
# tiling kernel cannot fit inside [-1/2, 1/2): exercises the truncated path.
SLOW_SPRIME = iset(("-1/8", 2))


def parts_of(s):
    return [(p.lo, p.hi) for p in s.parts]


# ------------------------------------------------------------- S1 and S2


def test_s1_examples():
    assert check_S1(iset(("-1/2", "1/2")))
    assert not check_S1(iset((1, 2)))
    # Hand check: the double [-1,1) u [3/2,7/4) absorbs [3/4,7/8) entirely.
    assert check_S1(iset(("-1/2", "1/2"), ("3/4", "7/8")))
    # ... but misses [3/2,7/4), whose double starts at 3.
    assert not check_S1(iset(("-1/2", "1/2"), ("3/2", "7/4")))


def test_s2_examples():
    assert check_S2(iset(("-1/2", "1/2")))
    assert not check_S2(iset(("1/4", 1)))
    assert not check_S2(iset((-1, "-1/2"), ("1/2", 1)))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=32)


@st.composite
def interval_sets(draw, max_parts: int = 5):
    pairs = draw(st.lists(st.tuples(rationals, rationals), max_size=max_parts))
    return normalize((min(a, b), max(a, b)) for a, b in pairs)


@given(interval_sets())
@settings(max_examples=120)
def test_s2_matches_orbit_simulation(s):
    rng = random.Random(271828)
    predicted = check_S2(s)
    raw = parts_of(s)
    if not raw:
        assert not predicted
        return
    samples = sample_fractions(rng, 12, F(-2), F(2), denominator=9973)
    simulated = all(orbit_limit_is_one(raw, xi) for xi in samples)
    assert predicted == simulated


# ------------------------------------------------------------ lemma r3


def test_construct_fundamental_domain():
    res = lemma_r3_construct(iset(("-1/2", "1/2")), 10, 10)
    assert res.s == iset(("-1/2", "1/2"))
    assert res.w == SHANNON_W
    assert res.fast_path and res.defects.all_zero


def test_construct_double_cell_same_output():
    # The window part already covers every residue, so the kernel is the window.
    res = lemma_r3_construct(iset((-1, 1)), 10, 10)
    assert res.s == iset(("-1/2", "1/2"))
    assert res.w == SHANNON_W
    assert res.fast_path


def test_construct_error_names_r4():
    with pytest.raises(PreconditionError) as err:
        lemma_r3_construct(iset((0, "1/3")))
    assert err.value.condition == "r4"
    w = err.value.witness
    assert w is not None and F(1, 3) <= w.lo


def test_construct_error_names_s1():
    with pytest.raises(PreconditionError) as err:
        lemma_r3_construct(iset((1, 2)))
    assert err.value.condition == "S1"


def test_construct_error_names_s2():
    # Nests under doubling and covers the line, but has no mass left of 0.
    s = iset((0, 1))
    assert check_S1(s)
    with pytest.raises(PreconditionError) as err:
        lemma_r3_construct(s)
    assert err.value.condition == "S2"


def test_construct_slow_path_properties():
    res = lemma_r3_construct(SLOW_SPRIME, 12, 12)
    assert not res.fast_path
    assert res.s.subset_mod_null(SLOW_SPRIME)
    assert res.w == res.s.scale(2).subtract(res.s)
    assert res.defects.s1_defect == 2 * pow2(-12)
    assert res.defects.coverage_defect > 0
    assert res.defects.containment_exact
    # The nesting defect bound is honest: measure of S minus 2S is below it.
    assert res.s.subtract(res.s.scale(2)).measure() <= res.defects.s1_defect


def test_construct_slow_path_w_nearly_tiles():
    # At depth 12 the leftover mass is within the certified bounds, and the
    # wavelet-set candidate already tiles exactly at these depths.
    res = lemma_r3_construct(SLOW_SPRIME, 20, 20)
    verdict = verify_wavelet_set(res.w)
    assert verdict.passed


def test_construct_monotone_in_depth():
    for n1, j1, n2, j2 in [(3, 6, 4, 6), (3, 6, 3, 7), (2, 5, 4, 8)]:
        a = lemma_r3_construct(SLOW_SPRIME, n1, j1)
        b = lemma_r3_construct(SLOW_SPRIME, n2, j2)
        # Raising the level count only adds levels; raising the inner depth
        # only shrinks each level.
        if j1 == j2:
            assert a.s.subset_mod_null(b.s)
        if n1 == n2:
            assert b.s.subset_mod_null(a.s)
        assert b.defects.s1_defect <= a.defects.s1_defect
        assert b.defects.coverage_defect <= a.defects.coverage_defect


def test_construct_fast_path_stable_under_deeper_runs():
    base = lemma_r3_construct(iset(("-5/8", "5/8")), 8, 8)
    assert base.fast_path
    deeper = lemma_r3_construct(iset(("-5/8", "5/8")), 25, 30)
    assert deeper.s == base.s and deeper.w == base.w


# ------------------------------------------------------- wavelet-set checks


def test_verify_shannon_set():
    assert verify_wavelet_set(SHANNON_W).passed


def test_verify_journe_set():
    assert verify_wavelet_set(JOURNE_W).passed


def test_verify_fails_near_zero():
    verdict = verify_wavelet_set(iset(("-1/2", "1/2")))
    assert not verdict.passed
    assert "dilation overlap" in verdict.reason


def test_verify_translation_failure_witness():
    s = iset(("1/4", "1/2"), ("-1/2", "-1/4"))
    verdict = verify_wavelet_set(s)
    assert not verdict.passed and "translation" in verdict.reason
    w = verdict.witness
    rng = random.Random(17)
    raw = parts_of(s)
    for xi in sample_fractions(rng, 40, w.lo, w.hi):
        assert translation_multiplicity_at(raw, xi) != 1


def test_verify_dilation_gap_witness():
    # Translations tile (residues [0,1/2), [1/2,7/8), [7/8,1) each once) but
    # the dyadic dilates miss [7/8, 15/16) on the positive side.
    gap = iset((-1, "-1/2"), ("1/2", "7/8"), ("15/8", 2))
    verdict = verify_wavelet_set(gap)
    assert not verdict.passed and "dilation gap" in verdict.reason
    w = verdict.witness
    rng = random.Random(19)
    raw = parts_of(gap)
    for xi in sample_fractions(rng, 40, w.lo, w.hi):
        assert dilation_multiplicity_at(raw, xi) != 1


def test_verify_empty_fails():
    assert not verify_wavelet_set(iset()).passed


# ------------------------------------------------------------------ prop r5


def test_prop_r5_fundamental():
    res = lemma_r3_construct(iset(("-1/2", "1/2")), 10, 10)
    assert res.s == iset(("-1/2", "1/2"))


def test_prop_r5_wide_support():
    supp = iset(("-5/8", "5/8"))
    res = lemma_r3_construct(supp, 10, 10)
    assert res.s.subset_mod_null(supp)
    assert verify_wavelet_set(res.w).passed


def test_prop_r5_rejects_bad_support():
    with pytest.raises(PreconditionError):
        lemma_r3_construct(iset((1, 2)))


# ----------------------------------------------------------- rze pipeline


def test_rze_shannon():
    g = StepFn.build([((F(-1, 2), F(1, 2)), 1)])
    res = rze_pipeline(g)
    assert res.w == SHANNON_W == res.supp_psi.intersect(res.w)
    assert res.contained and res.defects.all_zero


def test_rze_three_level():
    g = StepFn.build([
        ((F(-3, 8), F(3, 8)), 1),
        ((F(-5, 8), F(-3, 8)), F(1, 2)),
        ((F(3, 8), F(5, 8)), F(1, 2)),
    ])
    res = rze_pipeline(g)
    assert res.supp_psi == iset(("-5/4", "-3/8"), ("3/8", "5/4"))
    assert res.contained and res.leftover_measure == 0


def test_rze_rejects_f3_failure():
    with pytest.raises(PreconditionError) as err:
        rze_pipeline(StepFn.build([((-1, 1), 1)]))
    assert err.value.condition == "F3"


def test_rze_slow_path_spectrum():
    # Indicator of a shifted fundamental cell: a valid scaling spectrum whose
    # tiling kernel [-1/8, 7/8) cannot fit the half-open unit window, so the
    # truncated route runs; all levels happen to stabilize, and the candidate
    # lands exactly inside the wavelet support.
    g = StepFn.build([((F(-1, 8), F(7, 8)), 1)])
    res = rze_pipeline(g, 12, 12)
    assert not res.defects.all_zero  # conservative bounds on the truncated route
    assert res.s == iset(("-1/8", "7/8"))
    assert res.supp_psi == iset(("-1/4", "-1/8"), ("7/8", "7/4"))
    assert res.contained and res.leftover_measure == 0
    assert verify_wavelet_set(res.w).passed


def test_truncated_levels_subtract_and_nest():
    # A three-piece tiling kernel whose halved copies genuinely collide with
    # their integer translates, so inner truncation really removes mass.
    k = iset(("-1/8", "5/8"), ("13/8", "15/8"))
    assert check_S3(k)
    e0_raw = _truncated_levels(k, 0, 0)[0]
    e0 = _truncated_levels(k, 0, 4)[0]
    assert e0_raw == k
    chipped = k.subtract(e0)
    assert chipped.measure() > 0
    assert iset(("29/16", "15/8")).subset_mod_null(chipped)
    # Deeper inner truncation only shrinks a level, and the doubling chain
    # survives truncation: E_0 sits inside 2 E_1 at matching depths.
    assert _truncated_levels(k, 0, 6)[0].subset_mod_null(e0)
    e1 = _truncated_levels(k, 1, 4)[1]
    assert e0.subset_mod_null(e1.scale(2))


# A tiling kernel with parts beyond 1 on one side and beyond -1 on the other.
WIDE_KERNEL = iset(("-1/8", "5/8"), ("13/8", "15/8"))


def _scattered_kernel(rng: random.Random):
    """A partition of [0, 1) whose pieces move by independent integer shifts."""
    cuts = sorted({F(rng.randint(1, 15), 16) for _ in range(rng.randint(1, 4))})
    pts = [F(0)] + cuts + [F(1)]
    return normalize((a + t, b + t) for a, b in zip(pts, pts[1:]) for t in [rng.randint(-4, 4)])


@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["admissible", "wide", "mirror", "scattered"]),
    shift=st.integers(-3, 3),
    depth_n=st.integers(0, 4),
    depth_j=st.integers(0, 6),
)
@settings(max_examples=200, deadline=None)
def test_truncated_levels_match_periodization(seed, kind, shift, depth_n, depth_j):
    # Integer shifts of a kernel still tile and can move its span off 0, so
    # overlaps a level can meet lie near either end of the span, on either
    # side of 0, and the clipping window must reach all of them.
    rng = random.Random(seed)
    sprime = None
    if kind == "admissible":
        sprime = _random_admissible(rng)
        assume(check_S1(sprime) and check_cover_r4(sprime))
        k = extract_transversal(sprime, prefer_window=True)
    elif kind == "scattered":
        k = _scattered_kernel(rng)
    else:
        k = WIDE_KERNEL if kind == "wide" else WIDE_KERNEL.scale(-1)
    k = k.translate(shift)
    assert check_S3(k)
    levels = [truncated_level_by_periodization(k, n, depth_j) for n in range(depth_n + 1)]
    # One call builds every level, each overlap set shared by the levels it meets.
    assert _truncated_levels(k, depth_n, depth_j) == levels
    assert _truncated_levels(k, depth_n, depth_j)[depth_n] == levels[-1]
    if sprime is not None and shift == 0:
        expected = EMPTY
        for level in levels:
            expected = expected.union(level)
        assert lemma_r3_construct(sprime, depth_n, depth_j).s == expected


FOUR_DIGIT_PRIMES = [p for p in range(1000, 10000)
                     if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _prime_cut_kernel(rng: random.Random):
    """A partition of [0, 1) cut at distinct 4-digit prime denominators,
    its pieces moved by independent integer shifts."""
    cuts = sorted(F(rng.randint(1, p - 1), p) for p in rng.sample(FOUR_DIGIT_PRIMES, rng.randint(1, 4)))
    pts = [F(0)] + cuts + [F(1)]
    return normalize((a + t, b + t) for a, b in zip(pts, pts[1:]) for t in [rng.randint(-4, 4)])


def test_truncated_levels_match_oracle_deep_far_and_prime_cut():
    # The integer-grid levels against the fraction oracle at depths up to 12,
    # on kernels whose lcm of denominators has several large prime factors,
    # on a kernel moved 50 units off 0, and on the kernel of [-1000, 1/4),
    # whose two parts lie about 10^3 cells apart, so each overlap set is cut
    # on two runs of cells.
    rng = random.Random(2024)
    cases = []
    for i in range(24):
        if i % 2:
            k = _prime_cut_kernel(rng)
        else:
            k = WIDE_KERNEL.translate(rng.choice([-50, 50]))
        cases.append((k, *((12, 12) if i < 2 else (rng.randint(0, 12), rng.randint(0, 12)))))
    cases.append((extract_transversal(iset((-1000, "1/4")), prefer_window=True), 4, 4))
    for k, depth_n, depth_j in cases:
        assert check_S3(k)
        levels = [truncated_level_by_periodization(k, n, depth_j) for n in range(depth_n + 1)]
        assert _truncated_levels(k, depth_n, depth_j) == levels


def test_construct_depth_budget():
    with pytest.raises(InputError, match="work budget"):
        lemma_r3_construct(iset(("-1/2", "1/2")), MAX_CONSTRUCT_DEPTH + 1, 0)
    with pytest.raises(InputError, match="work budget"):
        # refused before the preconditions are even checked
        lemma_r3_construct(iset((1, 2)), 0, MAX_CONSTRUCT_DEPTH + 1)
    res = lemma_r3_construct(SLOW_SPRIME, 3, MAX_CONSTRUCT_DEPTH)
    assert res.s == iset(("-1/8", "7/8"))


def test_construct_far_kernel_is_answered():
    # Each overlap set is cut only on the cells its levels meet, so a kernel
    # reaching 10^5 from 0 is built like a near one.
    sprime = iset((-10**5, "1/4"))
    res = lemma_r3_construct(sprime, 40, 40)
    assert check_S1(res.s) and check_S2(res.s) and check_S3(res.s)
    assert res.s.subset_mod_null(sprime)
    assert verify_wavelet_set(res.w).passed
    res = lemma_r3_construct(iset((-2, "3/8"), ("5/8", "11/16")), 256, 256)
    assert res.s == iset(("-13/8", "-3/2"), ("-13/16", "-3/4"), ("-1/2", "3/16"), ("1/4", "3/8"))


def test_construct_translates_do_not_grow_with_span(monkeypatch):
    # The pairs passed to _merge (translates, cells and the parts of S) count
    # the work: a kernel 10^12 from 0 takes at most twice that of one 100 away.
    from waveset import construct

    made = []
    for reach in (100, 10**12):
        lengths = []

        def counting_merge(pairs, real=construct._merge):
            pairs = list(pairs)
            lengths.append(len(pairs))
            return real(pairs)

        with monkeypatch.context() as m:
            m.setattr(construct, "_merge", counting_merge)
            lemma_r3_construct(iset((-reach, "1/4")), 8, 8)
        made.append(sum(lengths))
    assert made[1] <= 2 * made[0]


def test_construct_raises_first_failed_precondition():
    # S1, then covering (r4), then S2: the first that fails is raised, S1
    # naming the part outside the double and r4 the uncovered witness of the
    # fold, with the construction's wording.
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(400):
        parts = []
        for _ in range(rng.randint(0, 4)):
            den = rng.choice([2, 3, 4, 5, 8, 12])
            a = F(rng.randint(-3 * den, 3 * den), den)
            parts.append((a, a + F(rng.randint(1, 3 * den), den)))
        s = normalize(parts)
        escape, missed = s1_witness(s), uncovered_witness(s)
        expected = ("S1" if escape is not None else "r4" if missed is not None
                    else None if check_S2(s) else "S2")
        seen[expected] += 1
        depth_n, depth_j = rng.randint(0, 3), rng.randint(0, 3)
        if expected is None:
            lemma_r3_construct(s, depth_n, depth_j)
            continue
        with pytest.raises(PreconditionError) as err:
            lemma_r3_construct(s, depth_n, depth_j)
        assert err.value.condition == expected
        if expected == "S1":
            assert err.value.witness == escape
        if expected == "r4":
            assert err.value.witness == missed
            assert str(err.value) == f"translates do not cover the line; residues {missed} are missed"
    assert min(seen[c] for c in ("S1", "r4", "S2", None)) >= 5, seen


# ------------------------------------------------- randomized construction


def _random_admissible(rng: random.Random):
    """Nested-covering-contracting sets: [-a, b) with a random outer garnish."""
    den = 16
    a = F(rng.randint(den // 2, 3 * den), den)
    b = F(rng.randint(den // 2, 3 * den), den)
    base = iset((-a, b))
    extras = []
    for _ in range(rng.randint(0, 3)):
        lo = F(rng.randint(int(-2 * a * den), int(2 * b * den) - 1), den)
        hi = min(F(2) * b, lo + F(rng.randint(1, den), den))
        if lo < hi and -2 * a <= lo:
            extras.append((lo, hi))
    return base.union(normalize(extras))


def test_randomized_construction_containment_and_tiling():
    rng = random.Random(99)
    checked = 0
    for _ in range(120):
        sprime = _random_admissible(rng)
        if not check_S1(sprime):
            continue
        res = lemma_r3_construct(sprime, 10, 10)
        assert res.s.subset_mod_null(sprime)
        assert res.w == res.s.scale(2).subtract(res.s)
        if res.fast_path:
            assert check_S3(res.s)
            assert verify_wavelet_set(res.w).passed
        checked += 1
    assert checked >= 100


def test_construct_fast_path_iff_window_inside():
    # The kernel prefers representatives inside [-1/2, 1/2) and has measure 1,
    # so it is the window exactly when S' contains the window, and then S and
    # W are the Shannon pair at every depth.
    rng = random.Random(2718)
    window = iset(("-1/2", "1/2"))
    routes = set()
    for _ in range(150):
        sprime = _random_admissible(rng).scale(F(rng.randint(4, 16), 16))
        if not (check_S1(sprime) and check_cover_r4(sprime)):
            continue
        depth = rng.randint(0, 6)
        res = lemma_r3_construct(sprime, depth, depth)
        assert res.fast_path == window.subset_mod_null(sprime)
        if res.fast_path:
            assert res.s == window and res.w == SHANNON_W
            assert res.defects.all_zero
        routes.add(res.fast_path)
    assert routes == {True, False}
