"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every assertion is exact rational arithmetic unless a runtime budget
is being checked.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import (
    brute_lattice_count,
    calderon_sum_at,
    dilation_multiplicity_at,
    orbit_limit_is_one,
    sample_fractions,
    translation_multiplicity_at,
)
from waveset.construct import lemma_r3_construct, rze_pipeline, verify_wavelet_set
from waveset.construct import check_S1, check_S2
from waveset.intervals import iset, normalize
from waveset.msf2d import Mat2, QuadScalar, lattice_count, lce_report, wavelet_set_exists
from waveset.serialize import (
    interval_set_from_json,
    interval_set_to_json,
    step_fn_from_json,
    step_fn_to_json,
)
from waveset.spectral import (
    StepFn,
    check_D1_D4,
    dimension_function,
    mra_check,
    pow2,
    psi_b_report,
    psi_spectrum_from_scaling,
    validate_scaling_spectrum,
)
from waveset.torus import check_S3, extract_transversal

F = Fraction

JOURNE = iset(("-16/7", -2), ("-1/2", "-2/7"), ("2/7", "1/2"), (2, "16/7"))


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def parts_of(s):
    return [(p.lo, p.hi) for p in s.parts]


def pieces_of(f):
    return [(iv.lo, iv.hi, v) for iv, v in f.pieces]


def test_criterion_1_shannon_end_to_end():
    with criterion(1, "shannon-end-to-end"):
        g = StepFn.build([((F(-1, 2), F(1, 2)), 1)])
        start = time.perf_counter()
        res = rze_pipeline(g)
        verdict = verify_wavelet_set(res.w)
        elapsed = time.perf_counter() - start
        assert res.s == iset(("-1/2", "1/2"))
        assert res.w == iset((-1, "-1/2"), ("1/2", 1))
        assert verdict.passed
        assert res.contained
        assert res.defects.s1_defect == 0 and res.defects.coverage_defect == 0
        assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"

        # Independent oracle: dense rational sampling of both multiplicities.
        rng = random.Random(20260810)
        raw = parts_of(res.w)
        for xi in sample_fractions(rng, 10_000, F(0), F(1)):
            assert translation_multiplicity_at(raw, xi) == 1
        dil_samples = sample_fractions(rng, 5_000, F(1, 2), F(1))
        dil_samples += [-xi for xi in sample_fractions(rng, 5_000, F(1, 2), F(1))]
        for xi in dil_samples:
            assert dilation_multiplicity_at(raw, xi) == 1


def test_criterion_2_journe_verification():
    with criterion(2, "journe-verification"):
        start = time.perf_counter()
        assert JOURNE.measure() == 1
        assert verify_wavelet_set(JOURNE).passed
        h = StepFn.indicator(JOURNE)
        dim = dimension_function(h, 20)
        assert all(v.denominator == 1 and v >= 0 for v in dim.values)
        attained_two = normalize(
            (a, b) for a, b, v in dim.pieces() if v == 2
        )
        assert attained_two.measure() > 0
        report = check_D1_D4(dimension_function(h, 22), 20)
        assert report.d1.status == "pass"
        assert report.d2.status == "pass"
        assert mra_check(h, 20).status == "not_mra"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_2_journe_deep_window():
    with criterion(2, "journe-deep-window"):
        h = StepFn.indicator(JOURNE)
        start = time.perf_counter()
        dim = dimension_function(h, 1602)
        elapsed = time.perf_counter() - start
        assert dim.window() == (pow2(-1602), 1 - pow2(-1602))
        assert set(dim.values) == {0, 1, 2}
        # A fresh h: h itself would restrict the window it holds, so compare with a sweep.
        assert dim.restrict(20) == dimension_function(StepFn.indicator(JOURNE), 20)
        assert elapsed < 0.6, f"depth-1602 window took {elapsed:.3f}s"


def test_criterion_3_non_msf_mra_instance():
    with criterion(3, "three-level-spectrum-pipeline"):
        g = StepFn.build([
            ((F(-3, 8), F(3, 8)), 1),
            ((F(-5, 8), F(-3, 8)), F(1, 2)),
            ((F(3, 8), F(5, 8)), F(1, 2)),
        ])
        start = time.perf_counter()
        assert validate_scaling_spectrum(g).passed
        h = psi_spectrum_from_scaling(g)
        assert all(v > 0 for _, _, v in pieces_of(h))
        assert h.integral() == 1
        res = rze_pipeline(g, 40, 40)
        if res.defects.all_zero:
            assert res.leftover_measure == 0
        else:
            assert res.leftover_measure <= res.defects.coverage_defect
            assert res.defects.coverage_defect <= pow2(-35) * 82  # |K| * periods headroom
        assert res.contained
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f}s"

        # A kernel that is not nested: the truncated route, stable from depth 1/1.
        start = time.perf_counter()
        res = lemma_r3_construct(iset(("-2", "3/8"), ("5/8", "11/16")), 40, 40)
        elapsed = time.perf_counter() - start
        assert res.s == iset(("-13/8", "-3/2"), ("-13/16", "-3/4"),
                             ("-1/2", "3/16"), ("1/4", "3/8"))
        assert elapsed < 0.3, f"construction at depth 40/40 took {elapsed:.3f}s"
        assert verify_wavelet_set(res.w).passed


def test_criterion_4_psi_b_family():
    with criterion(4, "band-pair-family"):
        start = time.perf_counter()
        assert psi_b_report("1/2").orthonormality.passed
        assert time.perf_counter() - start < 2.0

        start = time.perf_counter()
        quarter = psi_b_report("1/4").orthonormality
        assert quarter.calderon.min_value == quarter.calderon.max_value == 2
        assert time.perf_counter() - start < 2.0
        # Brute-force dilation sums at 1000 sampled rationals; the constant 2
        # matches the logarithmic average of the band over one octave.
        rng = random.Random(314159)
        sq = [(lo, hi, v * v) for lo, hi, v in
              [(F(-1), F(-1, 4), F(1)), (F(1, 4), F(1), F(1))]]
        samples = sample_fractions(rng, 500, F(1), F(2))
        samples += [-xi for xi in sample_fractions(rng, 500, F(1), F(2))]
        for xi in samples:
            assert calderon_sum_at(sq, xi) == 2

        start = time.perf_counter()
        eighth = psi_b_report("1/8").orthonormality
        assert eighth.calderon.min_value == eighth.calderon.max_value == 3
        assert time.perf_counter() - start < 2.0


def test_criterion_5_planar_existence_examples():
    with criterion(5, "planar-existence"):
        eye = Mat2.identity()
        for alpha in (0, 1, F(7, 3)):
            start = time.perf_counter()
            res = wavelet_set_exists(Mat2.from_rows([[3, 0], [alpha, F(1, 2)]]), eye)
            assert res.verdict == "not_exists"
            assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        res = wavelet_set_exists(Mat2.from_rows([[3, 1], [0, F(1, 2)]]), eye)
        assert res.verdict == "not_exists"
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        res = wavelet_set_exists(
            Mat2.from_rows([[3, QuadScalar(0, 1, 2)], [0, F(1, 2)]]), eye
        )
        assert res.verdict == "exists"
        assert time.perf_counter() - start < 1.0


def test_criterion_6_lattice_counting():
    with criterion(6, "lattice-counting"):
        two_i = Mat2.from_rows([[2, 0], [0, 2]])
        eye = Mat2.identity()
        rows = ((F(2), F(0)), (F(0), F(2)))
        assert lattice_count(two_i, eye, 0) == 5 == brute_lattice_count(rows, 0)
        assert lattice_count(two_i, eye, 1) == 13 == brute_lattice_count(rows, 1)
        rep = lce_report(two_i, eye, 0, 4, 5)
        assert rep.all_bounded
        start = time.perf_counter()
        assert lattice_count(two_i, eye, 14) == 843314365
        assert time.perf_counter() - start < 1.0


def _random_interval_set(rng: random.Random, max_parts=5, den=32, lo=-4, hi=4):
    pairs = []
    for _ in range(rng.randint(0, max_parts)):
        a = F(rng.randint(lo * den, hi * den), den)
        b = F(rng.randint(lo * den, hi * den), den)
        if a != b:
            pairs.append((min(a, b), max(a, b)))
    return normalize(pairs)


def _random_admissible(rng: random.Random):
    # [-a, b) with garnish inside its double: nested, covering, contracting.
    den = 16
    a = F(rng.randint(den // 2, 2 * den), den)
    b = F(rng.randint(den // 2, 2 * den), den)
    base = iset((-a, b))
    extras = []
    for _ in range(rng.randint(0, 2)):
        lo = F(rng.randint(int(-2 * a * den), int(2 * b * den) - 1), den)
        hi = min(2 * b, lo + F(rng.randint(1, den), den))
        if lo < hi:
            extras.append((lo, hi))
    return base.union(normalize(extras))


def test_criterion_7_property_suites():
    with criterion(7, "randomized-property-suites"):
        rng = random.Random(777)

        # Interval-algebra laws and exact measure additivity.
        for _ in range(120):
            a, b, c = (_random_interval_set(rng) for _ in range(3))
            assert a.subtract(b.union(c)) == a.subtract(b).subtract(c)
            assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))
            assert a.union(b).measure() + a.intersect(b).measure() \
                == a.measure() + b.measure()

        # Transversals tile with multiplicity one and stay inside the input.
        for _ in range(120):
            cell = rng.randint(-3, 3)
            s = _random_interval_set(rng).union(iset((cell, cell + 1)))
            k = extract_transversal(s, prefer_window=rng.random() < 0.5)
            assert check_S3(k)
            assert k.subset_mod_null(s)

        # Constructions stay inside their input, exactly, and refine
        # monotonically in both depths.
        for _ in range(110):
            sprime = _random_admissible(rng)
            assert check_S1(sprime) and check_S2(sprime)
            shallow = lemma_r3_construct(sprime, 3, 5)
            deeper_n = lemma_r3_construct(sprime, 4, 5)
            deeper_j = lemma_r3_construct(sprime, 3, 6)
            for res in (shallow, deeper_n, deeper_j):
                assert res.s.subset_mod_null(sprime)
                assert res.w == res.s.scale(2).subtract(res.s)
            assert shallow.s.subset_mod_null(deeper_n.s)
            assert deeper_j.s.subset_mod_null(shallow.s)
            assert deeper_n.defects.s1_defect <= shallow.defects.s1_defect
            assert deeper_n.defects.coverage_defect <= shallow.defects.coverage_defect
            assert deeper_j.defects.coverage_defect <= shallow.defects.coverage_defect

        # The contraction-limit decision agrees with deep orbit simulation.
        for _ in range(110):
            s = _random_interval_set(rng)
            raw = parts_of(s)
            if not raw:
                assert not check_S2(s)
                continue
            samples = [xi for xi in sample_fractions(rng, 12, F(-2), F(2)) if xi != 0]
            simulated = all(orbit_limit_is_one(raw, xi) for xi in samples)
            assert check_S2(s) == simulated

        # Serialization round-trips bit-exactly.
        for _ in range(110):
            s = _random_interval_set(rng)
            assert interval_set_from_json(
                json.loads(json.dumps(interval_set_to_json(s)))
            ) == s
            values = [F(rng.randint(-20, 20), rng.randint(1, 8)) for _ in s.parts]
            f = StepFn.build(zip(s.parts, values))
            assert step_fn_from_json(
                json.loads(json.dumps(step_fn_to_json(f)))
            ) == f
