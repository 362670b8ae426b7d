"""The integer planar decisions against their Fraction reference route and sympy.

``wavelet_set_exists`` and the lattice forms run on integer pairs over one
common denominator.  Here they are compared with the same decisions on
``Fraction`` matrices and ``QuadScalar`` arithmetic (``oracles``), result for
result and refusal for refusal, and the verdicts with sympy's exact
eigenvectors.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (
    fraction_lattice_form,
    fraction_sign,
    fraction_wavelet_set_exists,
    quad_sqrt,
)
from waveset.errors import InputError
from waveset.msf2d import (
    Mat2,
    QuadScalar,
    _chord_count,
    _lattice_forms,
    _row_reach,
    _sqrt_pair,
    lattice_count,
    wavelet_set_exists,
)

F = Fraction
FIELDS = (2, 3, 5, 6, 7, 10, 11)
# Eigenvalues to build dilations from: contracting, on the unit circle and expanding.
RATIONAL_EIGENVALUES = (F(1, 2), F(-1, 3), F(2, 3), F(-3, 4), F(1), F(-1), F(2), F(3), F(-5, 2), F(7, 3))


def _rat(rng: random.Random, num: int = 6, den: int = 4) -> Fraction:
    return F(rng.randint(-num, num), rng.randint(1, den))


def _scalar(rng: random.Random, d: int | None):
    """A Fraction, or a QuadScalar of Q(sqrt(d)) when d is given (Fractions build faster)."""
    if d is None:
        return _rat(rng)
    return QuadScalar(_rat(rng), _rat(rng, 3, 3) if rng.random() < 0.6 else 0, d)


def _eigenvalue(rng: random.Random, d: int | None):
    if d and rng.random() < 0.3:  # 3/4 - sqrt(d)/4 lies in (-1, 1) for d <= 11, 2 + sqrt(d) does not
        return rng.choice((QuadScalar(F(3, 4), F(-1, 4), d), QuadScalar(2, 1, d)))
    x = rng.choice(RATIONAL_EIGENVALUES)
    return x if d is None else QuadScalar(x)


def _mul(x, y):
    return [[x[r][0] * y[0][c] + x[r][1] * y[1][c] for c in range(2)] for r in range(2)]


def random_dilation(rng: random.Random, d: int | None) -> Mat2:
    """Random entries, or S diag(l1, l2) S^-1, or a triangular or diagonal matrix."""
    kind = rng.randrange(4)
    if kind == 0:
        return Mat2.from_rows([[_scalar(rng, d) for _ in range(2)] for _ in range(2)])
    l1, l2 = _eigenvalue(rng, d), _eigenvalue(rng, d)
    zero = F(0) if d is None else QuadScalar(0)
    if kind == 1:
        t = _scalar(rng, d)
        return Mat2.from_rows([[l1, t], [zero, l2]] if rng.random() < 0.5 else [[l1, zero], [t, l2]])
    if kind == 2:
        return Mat2.from_rows([[l1, zero], [zero, l2]])
    while True:
        s = [[_scalar(rng, d) for _ in range(2)] for _ in range(2)]
        det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
        if det != 0:
            break
    s_inv = [[s[1][1] / det, -s[0][1] / det], [-s[1][0] / det, s[0][0] / det]]
    return Mat2.from_rows(_mul(_mul(s, [[l1, zero], [zero, l2]]), s_inv))


def random_lattice(rng: random.Random) -> Mat2:
    """A rational basis; now and then a singular one, or one with an irrational entry."""
    roll = rng.random()
    rows = [[_rat(rng, 4, 3) for _ in range(2)] for _ in range(2)]
    if roll < 0.03:
        rows[1] = [2 * rows[0][0], 2 * rows[0][1]]
    elif roll < 0.05:
        rows[0][1] = QuadScalar(0, 1, rng.choice(FIELDS))
    return Mat2.from_rows(rows)


def _outcome(decide, a: Mat2, p: Mat2):
    try:
        return decide(a, p)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "condition", None)


def _planar_inputs(seed: int, count: int, fields) -> list[tuple[Mat2, Mat2]]:
    rng = random.Random(seed)
    return [(random_dilation(rng, rng.choice(fields)), random_lattice(rng)) for _ in range(count)]


def _branch(outcome) -> str:
    if isinstance(outcome, tuple):
        return outcome[2]
    if outcome.verdict == "exists" and outcome.detail.startswith("contracting eigenvalue"):
        return "exists, irrational slope"
    return outcome.verdict if outcome.verdict != "exists" else outcome.detail.split(";")[0]


@pytest.mark.parametrize("fields, seed, count", [((None,), 1901, 20_000), (FIELDS, 1902, 7_000)])
def test_existence_matches_fraction_route(fields, seed, count):
    # Whole results (verdict, witness, unit_eigenvalue, detail) and every refusal's type and text.
    branches = Counter()
    for a, p in _planar_inputs(seed, count, fields):
        got, want = _outcome(wavelet_set_exists, a, p), _outcome(fraction_wavelet_set_exists, a, p)
        assert got == want, (str(a), str(p))
        branches[_branch(got)] += 1
    assert set(branches) == {
        "lattice", "determinant", "unsupported", "not_exists",
        "complex eigenvalue pair with squared modulus |det A| > 1",
        "double real eigenvalue with squared value |det A| > 1",
        "an eigenvalue lies exactly on the unit circle",
        "both real eigenvalues lie outside (-1, 1)",
        "the contracting eigenvalue is a quadratic irrational over the entry field, so its "
        "eigenline has irrational slope in lattice coordinates and meets the lattice only at 0",
    } | ({"exists, irrational slope"} if fields != (None,) else set()), branches
    assert min(branches.values()) >= 20, branches


def test_integer_square_root_matches_fraction_route():
    rng = random.Random(1903)
    found = 0
    for _ in range(4000):
        d = rng.choice(FIELDS)
        r, s = rng.randint(-30, 30), rng.randint(-30, 30) if rng.random() < 0.7 else 0
        x, y = r * r + d * s * s + rng.choice((0, 0, 1, -1, d)), 2 * r * s
        if fraction_sign(QuadScalar(x, y, d)) <= 0:
            continue
        want = quad_sqrt(QuadScalar(x, y, d), d)
        got = _sqrt_pair(x, y, d)
        assert (None if got is None else QuadScalar(got[0], got[1], d)) == want, (x, y, d)
        found += want is not None
    assert found > 1000


def test_quad_sign_matches_rational_comparisons():
    rng = random.Random(1904)
    for _ in range(5000):
        x = QuadScalar(_rat(rng, 50, 7), _rat(rng, 50, 7), rng.choice(FIELDS))
        assert x.sign() == fraction_sign(x), x


def _lattice_inputs(seed: int, count: int) -> list[tuple[Mat2, Mat2]]:
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a = [[_rat(rng, 3, 3) for _ in range(2)] for _ in range(2)]
        p = [[_rat(rng, 2, 2) for _ in range(2)] for _ in range(2)]
        if a[0][0] * a[1][1] != a[0][1] * a[1][0] and abs(p[0][0] * p[1][1] - p[0][1] * p[1][0]) >= F(1, 2):
            pairs.append((Mat2.from_rows(a), Mat2.from_rows(p)))
    return pairs


def test_lattice_forms_match_fraction_route():
    # One form per scale, stepped from j = -3 up through 0 and stepped from each j alone,
    # equals the Fraction route's cleared form; reach and count follow from it.
    for a, p in _lattice_inputs(1905, 300):
        stepped = _lattice_forms(a, p, -3, 4)
        for j, form, reach in stepped:
            want = fraction_lattice_form(a, p, j)
            assert math.gcd(*want) == 1 and want[3] > 0
            assert form == want and reach == _row_reach(want), (str(a), str(p), j)
            assert _lattice_forms(a, p, j, j) == [(j, form, reach)]
            assert lattice_count(a, p, j) == _chord_count(want, _row_reach(want))


# ------------------------------------------------- sympy's eigenlines

def _sympy(m: Mat2):
    import sympy

    def scalar(x: QuadScalar):
        value = sympy.Rational(x.a.numerator, x.a.denominator)
        if x.b:
            value += sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d)
        return value

    return sympy.Matrix([[scalar(e) for e in row] for row in m.entries])


def test_verdicts_match_sympy_eigenlines():
    """A witness is primitive and P z lies on sympy's contracting eigenline; an `exists`
    beside a contracting eigenvalue in the entry field has an eigenline of irrational slope in
    lattice coordinates.  (sympy leaves the slope's rationality open when the eigenvalue lies
    outside the entry field, a nested radical; the next test covers that branch.)"""
    import sympy

    seen = Counter()
    for a, p in _planar_inputs(1906, 600, (None, *FIELDS)):
        res = _outcome(wavelet_set_exists, a, p)
        branch = _branch(res)
        if branch not in ("not_exists", "exists, irrational slope"):
            continue
        pm = _sympy(p)
        (lam, v), = [(lam, vecs[0]) for lam, _, vecs in _sympy(a).eigenvects()
                     if lam.is_real and bool(sympy.Abs(lam) < 1)]
        if res.verdict == "not_exists":
            z = res.witness
            assert z != (0, 0) and math.gcd(*z) == 1
            w = pm * sympy.Matrix(z)
            assert sympy.simplify(w[0] * v[1] - w[1] * v[0]) == 0, (str(a), str(p), z)
        else:
            u = pm.inv() * v
            assert u[1] != 0 and sympy.simplify(sympy.radsimp(u[0] / u[1])).is_rational is False, \
                (str(a), str(p), res)
        seen[branch] += 1
    assert seen["not_exists"] >= 50 and seen["exists, irrational slope"] >= 20, seen


def test_quadratic_irrational_eigenvalues_by_minimal_polynomial():
    """The `exists` branch "the contracting eigenvalue is a quadratic irrational over the entry
    field", against sympy's minimal polynomial over Q of that eigenvalue: degree 4, or degree 2
    with a discriminant that is not d times a rational square, Q(sqrt d) the entry field (Q when
    every entry is rational), so the eigenvalue lies outside the entry field."""
    import sympy

    x = sympy.Symbol("x")
    degrees = Counter()
    for a, p in _planar_inputs(1906, 600, (None, *FIELDS)):
        res = _outcome(wavelet_set_exists, a, p)
        if isinstance(res, tuple) or not res.detail.startswith(
                "the contracting eigenvalue is a quadratic irrational over the entry field"):
            continue
        assert res.verdict == "exists", (str(a), str(p), res)
        lam, = [lam for lam in _sympy(a).eigenvals() if lam.is_real and bool(sympy.Abs(lam) < 1)]
        coeffs = [int(c) for c in sympy.Poly(sympy.minimal_polynomial(lam, x), x).all_coeffs()]
        d = next((e.d for row in a.entries for e in row if e.d), None)
        if len(coeffs) == 3:
            disc = coeffs[1] ** 2 - 4 * coeffs[0] * coeffs[2]
            d_square = d is not None and math.isqrt(disc * d) ** 2 == disc * d
            assert disc > 0 and not d_square, (str(a), coeffs)
        else:
            assert len(coeffs) == 5 and d is not None, (str(a), coeffs)
        degrees[len(coeffs) - 1] += 1
    assert sum(degrees.values()) >= 20, degrees
