"""Workload ``planar``: 2D existence decisions and lattice counts.

Each operation is one planar query: ``wavelet_set_exists`` on a rational pair
(A, P), ``lattice_count`` for that pair at the two scales j0 (size class s1)
and j0 + 1 (s2), and ``wavelet_set_exists`` on a pair whose dilation has
entries in Q(sqrt(d)).  Only ``msf2d`` works.

Every rational dilation is drawn from a template whose seeded parameters (a
shear t of A, a shear r of the lattice P = [[1, 0], [r, 1]]) leave |det A|,
|det P| and the image A^-j P e2 unchanged, so the work of the bounding-box
scan in ``lattice_count`` does not depend on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from waveset import msf2d
from waveset.msf2d import Mat2, QuadScalar

import oracle
from common import Op, rng_for
from spans import size_class

NAME = "planar"

SIZES = {
    "full": {"j0": 2, "mix": {"double": 4, "rotation": 4, "saddle": 2, "irrational": 2,
                              "contracting": 2, "expanding": 4}},
    "tiny": {"j0": 0, "mix": {"double": 1, "saddle": 1, "irrational": 1, "contracting": 1}},
}


def _shear(rng: random.Random) -> F:
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))


def rational_dilation(kind: str, rng: random.Random) -> list[list[F]]:
    t = _shear(rng)
    if kind == "double":        # double eigenvalue 2: exists
        return [[F(2), F(0)], [t, F(2)]]
    if kind == "rotation":      # 2 x a rational rotation: complex pair, exists
        return [[F(6, 5), F(-8, 5)], [F(8, 5), F(6, 5)]]
    if kind == "saddle":        # contracting 1/2 on the lattice line e2: not_exists
        return [[F(3), F(0)], [t, F(1, 2)]]
    if kind == "irrational":    # contracting 2 - sqrt(6): irrational slope, exists
        return [[F(4), F(1)], [F(2), F(0)]]
    if kind == "contracting":   # contracting 1/2 with a rational eigenvector: not_exists
        return [[F(1, 2), F(0)], [t, F(3)]]
    if kind == "expanding":     # eigenvalues +-sqrt(5): exists
        return [[F(2), F(1)], [F(1), F(-2)]]
    raise ValueError(kind)


QUAD_FIELDS = (2, 3, 5, 6, 7, 10, 11)


def quadratic_dilation(i: int, rng: random.Random) -> Mat2:
    d = rng.choice(QUAD_FIELDS)
    s = F(rng.randint(1, 3), rng.randint(1, 2))
    root = QuadScalar(F(0), s, d)
    if i % 3 == 0:   # eigenline of 1/2 has irrational slope: exists
        rows = [[F(3), root], [F(0), F(1, 2)]]
    elif i % 3 == 1:  # eigenline of 1/2 is e2: not_exists
        rows = [[F(3), F(0)], [root, F(1, 2)]]
    else:            # eigenvalues 3 +- s sqrt(d) on the lines (1, +-1)
        rows = [[F(3), root], [root, F(3)]]
    return Mat2.from_rows(rows)


def make_ops(seed: int, scale: str = "full") -> list[Op]:
    rng = rng_for(NAME, seed)
    cfg = SIZES[scale]
    ops = []
    i = 0
    for kind, count in cfg["mix"].items():
        for _ in range(count):
            a = rational_dilation(kind, rng)
            p = [[F(1), F(0)], [_shear(rng), F(1)]]
            quad = quadratic_dilation(i, rng)
            if abs(quad.det().a) <= 1 and quad.det().is_rational:
                quad = quadratic_dilation(0, rng)
            ops.append(Op(kind, "s1+s2", {
                "a_rows": a, "p_rows": p, "a": Mat2.from_rows(a), "p": Mat2.from_rows(p),
                "quad": quad, "j0": cfg["j0"],
            }))
            i += 1
    return ops


def run(op: Op):
    a, p, j0 = op.args["a"], op.args["p"], op.args["j0"]
    exists = msf2d.wavelet_set_exists(a, p)
    with size_class("s1"):
        c1 = msf2d.lattice_count(a, p, j0)
    with size_class("s2"):
        c2 = msf2d.lattice_count(a, p, j0 + 1)
    return exists, c1, c2, msf2d.wavelet_set_exists(op.args["quad"], p)


# ------------------------------------------------------------------ checks


def check(op: Op, result, rng: random.Random | None = None) -> list[str]:
    exists, c1, c2, quad_exists = result
    problems = []
    for j, got in ((op.args["j0"], c1), (op.args["j0"] + 1, c2)):
        want = oracle.lattice_box_count(op.args["a_rows"], op.args["p_rows"], j)
        if got != want:
            problems.append(f"lattice count at j={j} is {got}, box count {want}")
    problems += check_existence(op.args["a"], op.args["p_rows"], exists)
    problems += check_existence(op.args["quad"], op.args["p_rows"], quad_exists)
    return problems


def _sympy_matrix(m: Mat2):
    import sympy

    def scalar(x: QuadScalar):
        value = sympy.Rational(x.a.numerator, x.a.denominator)
        if x.b:
            value += sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d)
        return value

    return sympy.Matrix([[scalar(e) for e in row] for row in m.entries])


def check_existence(a: Mat2, p_rows, verdict) -> list[str]:
    """The existence verdict against sympy's exact eigenvalues and eigenvectors."""
    import sympy

    am = _sympy_matrix(a)
    pm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in p_rows])
    contracting = []
    for lam, _, vecs in am.eigenvects():
        if lam.is_real and bool(sympy.Abs(lam) < 1):
            contracting.append((lam, vecs[0]))
    if not contracting:
        return [] if verdict.verdict == "exists" else [f"verdict {verdict.verdict}, but A has no contracting eigenvalue"]
    lam, v = contracting[0]
    u = pm.inv() * v  # the eigenline in lattice coordinates
    if u[1] == 0:
        rational = True
    else:
        rational = bool(sympy.simplify(sympy.radsimp(u[0] / u[1])).is_rational)
    if not rational:
        return [] if verdict.verdict == "exists" else [f"verdict {verdict.verdict}, but the eigenline of {lam} has irrational slope"]
    if verdict.verdict != "not_exists":
        return [f"verdict {verdict.verdict}, but the eigenline of {lam} meets the lattice"]
    z = verdict.witness
    if z is None or z == (0, 0):
        return ["not_exists without a nonzero lattice witness"]
    if sympy.simplify(z[0] * u[1] - z[1] * u[0]) != 0:
        return [f"witness {z} is not on the contracting eigenline {list(u)}"]
    return []
