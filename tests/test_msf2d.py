"""Quadratic-field scalars, 2D existence decisions, lattice counting."""

import random
import time
from fractions import Fraction

import pytest

from oracles import (
    brute_lattice_count,
    gauss_circle_count,
    quad_sqrt,
    rational_sqrt,
    trial_division_square_free,
)
from waveset.errors import InputError, PreconditionError
from waveset.msf2d import (
    MAX_FIELD_D,
    MAX_LATTICE_ROWS,
    MAX_SCALE,
    Mat2,
    QuadScalar,
    _is_square_free,
    lattice_count,
    lce_report,
    wavelet_set_exists,
)

F = Fraction
I2 = Mat2.identity()
SQRT2 = QuadScalar(0, 1, 2)


# ------------------------------------------------------------ QuadScalar


def test_quad_arithmetic():
    x = QuadScalar(1, 2, 5)  # 1 + 2*sqrt(5)
    y = QuadScalar(3, -1, 5)
    assert x + y == QuadScalar(4, 1, 5)
    assert x * y == QuadScalar(3 - 10, 6 - 1, 5)
    assert (x / x) == QuadScalar(1)
    assert (x * y / y) == x


def test_quad_signs():
    assert QuadScalar(1, 1, 2).sign() == 1
    assert QuadScalar(-1, -1, 2).sign() == -1
    # 3 - 2*sqrt(2) is positive (9 > 8); 2 - 2*sqrt(2) is negative (4 < 8).
    assert QuadScalar(3, -2, 2).sign() == 1
    assert QuadScalar(2, -2, 2).sign() == -1
    assert QuadScalar(-3, 2, 2).sign() == -1
    assert QuadScalar(-2, 2, 2).sign() == 1


def test_quad_comparisons():
    assert QuadScalar(0, 1, 2) > 1
    assert QuadScalar(0, 1, 2) < F(3, 2)


def test_rational_scalars_hash_as_their_fractions():
    # Equal values are one key in a set or dict: ints, Fractions and rational QuadScalars.
    assert QuadScalar(2) in {2} and 2 in {QuadScalar(2)}
    assert QuadScalar(F(1, 3)) in {F(1, 3)} and hash(QuadScalar(F(-7, 2))) == hash(F(-7, 2))
    table = {2: "two", F(1, 3): "third", QuadScalar(0, 1, 2): "root"}
    assert table[QuadScalar(2)] == "two" and table[QuadScalar(F(1, 3))] == "third"
    assert table[QuadScalar(0, 1, 2)] == "root"
    assert len({QuadScalar(1), 1, F(1), QuadScalar(1, 0, 5)}) == 1
    assert len({QuadScalar(1, 1, 2), QuadScalar(1, 1, 3), QuadScalar(1)}) == 3
    assert QuadScalar(0, 1, 2) != QuadScalar(0, 1, 3)  # different fields: unequal, not an error
    # A string hashes as itself, so it is not equal to the scalar it would parse to.
    assert QuadScalar(F(1, 2)) != "1/2" and "1/2" not in {QuadScalar(F(1, 2))}


def test_quad_field_tags():
    with pytest.raises(InputError):
        QuadScalar(0, 1, 4)  # not square-free
    with pytest.raises(InputError):
        QuadScalar(0, 1, 2) + QuadScalar(0, 1, 3)  # mixed fields


def test_square_free_matches_trial_division():
    assert [d for d in range(5000) if _is_square_free(d)] == \
        [d for d in range(5000) if trial_division_square_free(d)]


def test_square_free_large_field_tags():
    start = time.perf_counter()
    assert _is_square_free(10**14 + 31)
    assert not _is_square_free(9_999_991**2)  # the square of a prime above the cube root
    assert not _is_square_free(2 * 999_983**2)
    assert time.perf_counter() - start < 1.0
    assert QuadScalar(0, 1, 10**14 + 31).d == 10**14 + 31
    with pytest.raises(InputError, match="cap"):
        QuadScalar(0, 1, MAX_FIELD_D + 1)


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-1)) is None


def test_quad_sqrt_in_field():
    # sqrt(2) inside Q(sqrt(2)); sqrt(3 + 2 sqrt(2)) = 1 + sqrt(2).
    assert quad_sqrt(QuadScalar(2), 2) == SQRT2
    assert quad_sqrt(QuadScalar(3, 2, 2), 2) == QuadScalar(1, 1, 2)
    assert quad_sqrt(QuadScalar(3), 2) is None
    assert quad_sqrt(QuadScalar(1, 1, 2), 2) is None


# -------------------------------------------------------- existence test


def test_lower_triangular_family_has_no_tiling_set():
    for alpha in (0, 1, F(7, 3)):
        a = Mat2.from_rows([[3, 0], [alpha, F(1, 2)]])
        res = wavelet_set_exists(a, I2)
        assert res.verdict == "not_exists"
        assert res.witness == (0, 1)


def test_upper_triangular_rational_shear_blocks_tiling():
    a = Mat2.from_rows([[3, 1], [0, F(1, 2)]])
    res = wavelet_set_exists(a, I2)
    assert res.verdict == "not_exists"
    assert res.witness == (2, -5)


def test_upper_triangular_irrational_shear_allows_tiling():
    a = Mat2.from_rows([[3, SQRT2], [0, F(1, 2)]])
    assert wavelet_set_exists(a, I2).verdict == "exists"


def test_expansive_always_exists():
    assert wavelet_set_exists(Mat2.from_rows([[2, 0], [0, 2]]), I2).verdict == "exists"


def test_complex_pair_exists():
    # Rotation-dilation: eigenvalues 1 +- 2i, squared modulus 5.
    res = wavelet_set_exists(Mat2.from_rows([[1, -2], [2, 1]]), I2)
    assert res.verdict == "exists"
    assert "complex" in res.detail


def test_unit_eigenvalue_flagged():
    res = wavelet_set_exists(Mat2.from_rows([[1, 1], [0, 3]]), I2)
    assert res.verdict == "exists" and res.unit_eigenvalue


def test_determinant_precondition():
    with pytest.raises(PreconditionError):
        wavelet_set_exists(Mat2.from_rows([[1, 0], [0, 1]]), I2)


def test_singular_lattice_rejected():
    with pytest.raises(PreconditionError):
        wavelet_set_exists(Mat2.from_rows([[3, 0], [0, F(1, 2)]]),
                           Mat2.from_rows([[1, 1], [1, 1]]))


def test_irrational_lattice_unsupported():
    p = Mat2.from_rows([[SQRT2, 0], [0, 1]])
    res = wavelet_set_exists(Mat2.from_rows([[3, 0], [0, F(1, 2)]]), p)
    assert res.verdict == "unsupported"


def test_existence_invariant_under_unimodular_lattice_change():
    rng = random.Random(23)
    unimodulars = [
        Mat2.from_rows([[1, 1], [0, 1]]),
        Mat2.from_rows([[1, 0], [1, 1]]),
        Mat2.from_rows([[0, 1], [-1, 0]]),
        Mat2.from_rows([[2, 1], [1, 1]]),
    ]
    for _ in range(30):
        entries = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)]
        a = Mat2.from_rows(entries)
        det = a.det()
        if not (det > 1 or det < -1):
            continue
        base = wavelet_set_exists(a, I2).verdict
        for u in unimodulars:
            assert wavelet_set_exists(a, u).verdict == base


# ------------------------------------------------------- lattice counting


def test_counts_for_doubling_dilation():
    two_i = Mat2.from_rows([[2, 0], [0, 2]])
    assert lattice_count(two_i, I2, 0) == 5
    assert lattice_count(two_i, I2, 1) == 13


def test_counts_match_brute_force():
    rng = random.Random(31)
    for _ in range(15):
        rows = ((F(rng.randint(1, 3)), F(rng.randint(-2, 2), 2)),
                (F(0), F(rng.randint(1, 3))))
        a = Mat2.from_rows([list(rows[0]), list(rows[1])])
        for j in (-1, 0, 1, 2):
            assert lattice_count(a, I2, j) == brute_lattice_count(rows, j)


def _nonzero_rational(rng, num, den):
    while True:
        x = F(rng.randint(-num, num), rng.randint(1, den))
        if x:
            return x


def test_counts_match_brute_force_skewed_lattice():
    # Skewed dilations (every entry nonzero) on non-identity lattices.
    rng = random.Random(47)
    checked = 0
    while checked < 40:
        a_rows = [[_nonzero_rational(rng, 3, 2) for _ in range(2)] for _ in range(2)]
        p_rows = [[_nonzero_rational(rng, 2, 2) for _ in range(2)] for _ in range(2)]
        a_det = a_rows[0][0] * a_rows[1][1] - a_rows[0][1] * a_rows[1][0]
        p_det = p_rows[0][0] * p_rows[1][1] - p_rows[0][1] * p_rows[1][0]
        if a_det == 0 or abs(p_det) < F(1, 2):
            continue
        j = rng.randint(-2, 2)
        got = lattice_count(Mat2.from_rows(a_rows), Mat2.from_rows(p_rows), j)
        assert got == brute_lattice_count(a_rows, j, p_rows), (a_rows, p_rows, j)
        checked += 1


def test_counts_match_gauss_circle():
    two_i = Mat2.from_rows([[2, 0], [0, 2]])
    for j in range(8, 15):
        assert lattice_count(two_i, I2, j) == gauss_circle_count(j)


def test_count_work_budgets():
    two_i = Mat2.from_rows([[2, 0], [0, 2]])
    # Radius 2^21 needs 2^22 + 1 rows, one more than the budget.
    assert 2 * 2**21 + 1 > MAX_LATTICE_ROWS
    with pytest.raises(InputError, match="chord rows"):
        lattice_count(two_i, I2, 21)
    with pytest.raises(InputError, match="chord rows"):
        lce_report(two_i, I2, 0, 40, 5)
    for j in (MAX_SCALE + 1, -MAX_SCALE - 1):
        with pytest.raises(InputError, match="scale budget"):
            lattice_count(two_i, I2, j)
    shear = Mat2.from_rows([[1, 1], [0, 1]])
    with pytest.raises(InputError, match="scale budget"):
        lce_report(shear, I2, -MAX_SCALE, 1, 5)
    with pytest.raises(InputError, match="lattice basis"):
        lattice_count(two_i, Mat2.from_rows([[1, 2], [2, 4]]), 0)


def test_count_invariant_under_negated_dilation():
    a = Mat2.from_rows([[2, 1], [0, 3]])
    neg = Mat2.from_rows([[-2, -1], [0, -3]])
    for j in (0, 1, 2):
        assert lattice_count(a, I2, j) == lattice_count(neg, I2, j)


def test_count_origin_only():
    shrink = Mat2.from_rows([[F(1, 3), 0], [0, F(1, 3)]])
    assert lattice_count(shrink, I2, 1) == 1


def test_count_area_envelope():
    # For A = 2I the count tracks the disc area pi * 4^j within a factor 2.
    two_i = Mat2.from_rows([[2, 0], [0, 2]])
    pi_lo, pi_hi = F(157, 50), F(63, 20)
    for j in (3, 4, 5):
        count = lattice_count(two_i, I2, j)
        area_lo, area_hi = pi_lo * F(4) ** j, pi_hi * F(4) ** j
        assert area_lo / 2 <= count <= 2 * area_hi


def test_lce_report_examples():
    two_i = Mat2.from_rows([[2, 0], [0, 2]])
    rep = lce_report(two_i, I2, 0, 4, 5)
    assert [r.count for r in rep.rows] == [5, 13, 49, 197, 797]
    assert rep.all_bounded
    assert rep.rows[0].ratio == 5

    rep_tight = lce_report(two_i, I2, 0, 4, 1)
    assert not rep_tight.all_bounded and rep_tight.witness_j == 0

    rep_origin = lce_report(Mat2.from_rows([[3, 0], [0, 3]]), I2, 0, 0, 5)
    assert rep_origin.rows[0].count == 5


def test_lce_rejects_bad_range():
    with pytest.raises(InputError):
        lce_report(Mat2.from_rows([[2, 0], [0, 2]]), I2, 3, 1, 5)
