"""Exact 2D decisions: wavelet-set existence for a dilation/lattice pair,
and lattice-point counts in dilated unit balls.

Entries live in Q or in a real quadratic field Q(sqrt(d)).  ``QuadScalar`` and
``Mat2`` are the boundary types (parse, serialize, print, public arithmetic);
both decisions clear a matrix's denominators once and run on integer pairs
(p, q) meaning (p + q*sqrt(d)) / n.  Signs are decided on those integers,
never by floating point root isolation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import InputError, PreconditionError, Verdict
from .intervals import RationalLike, rat

ZERO = Fraction(0)
ONE = Fraction(1)


# Largest field tag d accepted: the square-free test divides by the integers up
# to the cube root of d, about half a million divisions at this cap.
MAX_FIELD_D = 10**18


@functools.lru_cache(maxsize=4096)  # every QuadScalar that arithmetic produces asks again
def _is_square_free(d: int) -> bool:
    """Exact square-freeness of d >= 2 in O(d^(1/3)) divisions.

    Dividing out every prime p with p^3 <= n (n the unfactored rest) leaves
    n with at most two prime factors, all larger than p, so n is then
    square-free unless it is the square of a prime.
    """
    if d < 2:
        return False
    if d > MAX_FIELD_D:
        raise InputError(f"field tag d = {d} exceeds the cap {MAX_FIELD_D} on d")
    n, p = d, 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    return n == 1 or math.isqrt(n) ** 2 != n


Pair = tuple[int, int]  # (p, q): p + q*sqrt(d), with d = 0 over Q


def _sign(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d) for integers p, q and square-free d >= 2 (or q = 0).

    With p and q of opposite signs, p wins iff p^2 > q^2 d; the two are never
    equal, since d is square-free and q != 0.
    """
    s = p if q == 0 or p and ((p > 0) == (q > 0) or p * p > q * q * d) else q
    return (s > 0) - (s < 0)


@dataclass(frozen=True)
class QuadScalar:
    """Exact element a + b*sqrt(d) of a real quadratic field (b = 0 means rational)."""

    a: Fraction
    b: Fraction = ZERO
    d: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "b", rat(self.b))
        if self.b == 0:
            object.__setattr__(self, "d", None)
        else:
            if self.d is None:
                raise InputError("irrational part requires a field tag d")
            if not _is_square_free(self.d):
                raise InputError(f"d must be a square-free integer >= 2, got {self.d}")

    @classmethod
    def of(cls, x: Union["QuadScalar", RationalLike]) -> "QuadScalar":
        if isinstance(x, QuadScalar):
            return x
        return cls(rat(x))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _common_d(self, other: "QuadScalar") -> int | None:
        if self.d is None:
            return other.d
        if other.d is None or other.d == self.d:
            return self.d
        raise InputError(f"mixed quadratic fields sqrt({self.d}) and sqrt({other.d})")

    def __add__(self, other) -> "QuadScalar":
        other = QuadScalar.of(other)
        return QuadScalar(self.a + other.a, self.b + other.b, self._common_d(other))

    def __sub__(self, other) -> "QuadScalar":
        other = QuadScalar.of(other)
        return QuadScalar(self.a - other.a, self.b - other.b, self._common_d(other))

    def __neg__(self) -> "QuadScalar":
        return QuadScalar(-self.a, -self.b, self.d)

    def __mul__(self, other) -> "QuadScalar":
        other = QuadScalar.of(other)
        d = self._common_d(other)
        root_sq = Fraction(d) if d is not None else ZERO
        return QuadScalar(
            self.a * other.a + self.b * other.b * root_sq,
            self.a * other.b + self.b * other.a,
            d,
        )

    def __truediv__(self, other) -> "QuadScalar":
        other = QuadScalar.of(other)
        d = self._common_d(other)
        root_sq = Fraction(d) if d is not None else ZERO
        norm = other.a * other.a - other.b * other.b * root_sq
        if norm == 0:
            raise InputError("division by zero scalar")
        conj = QuadScalar(other.a, -other.b, other.d)
        prod = self * conj
        return QuadScalar(prod.a / norm, prod.b / norm, prod.d)

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d): that of its integer multiple by the denominators."""
        a, b = self.a, self.b
        return _sign(a.numerator * b.denominator, b.numerator * a.denominator, self.d or 0)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other) -> bool:
        # The form is canonical (d is None iff b == 0), and 1, sqrt(d), sqrt(d') are
        # independent over Q, so equal values have equal fields.
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __hash__(self) -> int:
        # A rational scalar equals its Fraction (and an int), so it hashes as one.
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.d))

    def __lt__(self, other) -> bool:
        return (self - QuadScalar.of(other)).sign() < 0

    def __gt__(self, other) -> bool:
        return (self - QuadScalar.of(other)).sign() > 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


def _sqrt_pair(x: int, y: int, d: int) -> Pair | None:
    """The root r + s*sqrt(d) >= 0 of x + y*sqrt(d) > 0 if it lies in Q(sqrt(d)), else None.

    Such a root is an algebraic integer whose square has integer coordinates,
    so for square-free d its own coordinates are integers.  With y != 0, r^2
    and d s^2 are the halves (x +- t)/2, t^2 = x^2 - d y^2, and only r^2 can
    be a square; then s = y / (2r).
    """
    if y == 0:
        r = math.isqrt(x)
        if r * r == x:
            return r, 0
        s = math.isqrt(x // d) if d else 0
        return (0, s) if s and d * s * s == x else None
    norm = x * x - d * y * y
    t = math.isqrt(norm) if norm >= 0 else -1
    if t * t != norm:
        return None
    for h in (x + t, x - t):
        r = math.isqrt(h // 2)
        if r and 2 * r * r == h:
            s = y // (2 * r)
            return (r, s) if _sign(r, s, d) > 0 else (-r, -s)
    return None


# ----------------------------------------------------------------- Mat2


Rows = Sequence[Sequence[Union[QuadScalar, RationalLike]]]


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over Q or a shared Q(sqrt(d)); determinant arithmetic is exact."""

    entries: tuple[tuple[QuadScalar, QuadScalar], tuple[QuadScalar, QuadScalar]]

    @classmethod
    def from_rows(cls, rows: Rows) -> "Mat2":
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise InputError("a 2x2 matrix needs exactly two rows of two entries")
        coerced = tuple(tuple(QuadScalar.of(x) for x in row) for row in rows)
        ds = {e.d for row in coerced for e in row if e.d is not None}
        if len(ds) > 1:
            raise InputError(f"mixed quadratic fields in one matrix: {sorted(ds)}")
        return cls(coerced)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls.from_rows([[1, 0], [0, 1]])

    @property
    def field_d(self) -> int | None:
        for row in self.entries:
            for e in row:
                if e.d is not None:
                    return e.d
        return None

    @property
    def is_rational(self) -> bool:
        return self.field_d is None

    def det(self) -> QuadScalar:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def trace(self) -> QuadScalar:
        return self.entries[0][0] + self.entries[1][1]

    def __str__(self) -> str:
        (a, b), (c, d) = self.entries
        return f"[[{a}, {b}], [{c}, {d}]]"


PairRows = tuple[tuple[Pair, Pair], tuple[Pair, Pair]]
IntRows = tuple[tuple[int, int], tuple[int, int]]


def _cleared(m: Mat2) -> tuple[int, PairRows]:
    """(n, rows): each entry (p + q*sqrt(d)) / n as the integer pair (p, q), n the lcm of all
    the entries' denominators."""
    n = math.lcm(*[x.denominator for row in m.entries for e in row for x in (e.a, e.b)])
    return n, tuple(tuple((e.a.numerator * (n // e.a.denominator),
                           e.b.numerator * (n // e.b.denominator)) for e in row)
                    for row in m.entries)


def _integer_rows(m: Mat2) -> tuple[int, IntRows]:
    """(n, M) with m = M / n for a rational matrix m, M an integer matrix."""
    if not m.is_rational:
        raise InputError("operation requires a rational matrix")
    n, rows = _cleared(m)
    return n, tuple(tuple(p for p, _ in row) for row in rows)


def _mul(x: Pair, y: Pair, d: int) -> Pair:
    return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _imul(x: IntRows, y: IntRows) -> IntRows:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _primitive(z1: int, z2: int) -> tuple[int, int]:
    g = math.gcd(z1, z2)
    z1, z2 = z1 // g, z2 // g
    return (-z1, -z2) if z1 < 0 or (z1 == 0 and z2 < 0) else (z1, z2)


# --------------------------------------------------------- existence test


@dataclass(frozen=True)
class ExistenceResult(Verdict):
    verdict: str  # "exists" | "not_exists" | "unsupported"
    witness: tuple[int, int] | None = None
    unit_eigenvalue: bool = False
    detail: str = ""

    @property
    def witnesses(self) -> tuple:
        return () if self.verdict == "exists" else ((self.detail, self.witness),)

    @property
    def status(self) -> str:
        return "error" if self.verdict == "unsupported" else super().status


def wavelet_set_exists(a: Mat2, p: Mat2) -> ExistenceResult:
    """Decide whether a simultaneous dilation/translation tiling set exists.

    The decision reduces to whether the eigenspace of a contracting
    eigenvalue (|lambda| < 1) of the dilation meets the lattice P*Z^2
    nontrivially: no contracting eigenvalue, or an eigenline of irrational
    slope in lattice coordinates, means a tiling set exists.  Eigenvalue
    location in (-1, 1) is decided by exact sign tests on the characteristic
    polynomial at +-1 together with the determinant; |lambda| = 1 edge cases
    count as non-contracting and are flagged.
    """
    if not p.is_rational:
        return ExistenceResult("unsupported",
                               detail="only rational lattice bases are supported")
    _, ((p11, p12), (p21, p22)) = _integer_rows(p)
    if p11 * p22 - p12 * p21 == 0:
        raise PreconditionError("lattice", "lattice basis must be invertible")
    # A = E / n over pairs: n tr A, n^2 det A, n^2 disc and n^2 chi(+-1) are pairs too.
    n, ((e11, e12), (e21, e22)) = _cleared(a)
    d, nn = a.field_d or 0, n * n
    tr = (e11[0] + e22[0], e11[1] + e22[1])
    (x0, x1), (y0, y1) = _mul(e11, e22, d), _mul(e12, e21, d)
    e_det = (x0 - y0, x1 - y1)
    if _sign(e_det[0] - nn, e_det[1], d) <= 0 and _sign(e_det[0] + nn, e_det[1], d) >= 0:
        raise PreconditionError("determinant", f"|det A| must exceed 1, got {a.det()}")

    tr_sq = _mul(tr, tr, d)
    disc = (tr_sq[0] - 4 * e_det[0], tr_sq[1] - 4 * e_det[1])
    sd = _sign(*disc, d)
    if sd < 0:
        return ExistenceResult(
            "exists",
            detail="complex eigenvalue pair with squared modulus |det A| > 1; "
                   "no contracting eigenspace",
        )
    if sd == 0:
        return ExistenceResult(
            "exists",
            detail="double real eigenvalue with squared value |det A| > 1; "
                   "no contracting eigenspace",
        )
    s1 = _sign(e_det[0] - n * tr[0] + nn, e_det[1] - n * tr[1], d)   # char poly at +1
    sm1 = _sign(e_det[0] + n * tr[0] + nn, e_det[1] + n * tr[1], d)  # char poly at -1
    if s1 == 0 or sm1 == 0:
        return ExistenceResult(
            "exists", unit_eigenvalue=True,
            detail="an eigenvalue lies exactly on the unit circle; the other has "
                   "modulus |det A| > 1, so no contracting eigenspace (boundary case flagged)",
        )
    if s1 * sm1 > 0:
        return ExistenceResult(
            "exists",
            detail="both real eigenvalues lie outside (-1, 1); no contracting eigenspace",
        )

    # Exactly one eigenvalue in (-1, 1); n sqrt(disc) is an integer pair when it lies in the field.
    root = _sqrt_pair(*disc, d)
    if root is None:
        return ExistenceResult(
            "exists",
            detail="the contracting eigenvalue is a quadratic irrational over the "
                   "entry field, so its eigenline has irrational slope in lattice "
                   "coordinates and meets the lattice only at 0",
        )
    sg = -1 if s1 < 0 else 1
    lam = (tr[0] + sg * root[0], tr[1] + sg * root[1])  # 2n lambda
    # The eigenvector v scaled by 2n, and u = adj(P_int) v, a rational multiple of P^-1 v.
    if e12 != (0, 0):
        v1, v2 = (2 * e12[0], 2 * e12[1]), (lam[0] - 2 * e11[0], lam[1] - 2 * e11[1])
    elif e21 != (0, 0):
        v1, v2 = (lam[0] - 2 * e22[0], lam[1] - 2 * e22[1]), (2 * e21[0], 2 * e21[1])
    else:
        # Diagonal matrix: lambda matches one of the diagonal entries.
        v1, v2 = ((1, 0), (0, 0)) if lam == (2 * e11[0], 2 * e11[1]) else ((0, 0), (1, 0))
    u1 = (p22 * v1[0] - p12 * v2[0], p22 * v1[1] - p12 * v2[1])
    u2 = (p11 * v2[0] - p21 * v1[0], p11 * v2[1] - p21 * v1[1])
    lam_text = QuadScalar(Fraction(lam[0], 2 * n), Fraction(lam[1], 2 * n), a.field_d)
    # Integer z with z2*u1 = z1*u2 exists iff the rational and sqrt(d) parts
    # of (u1, u2) are parallel as rational vectors.
    if u1[0] * u2[1] == u2[0] * u1[1]:
        witness = _primitive(u1[0], u2[0]) if u1[0] or u2[0] else _primitive(u1[1], u2[1])
        return ExistenceResult(
            "not_exists", witness=witness,
            detail=f"contracting eigenvalue {lam_text}; its eigenline meets the lattice "
                   f"at the nonzero point z = {witness}",
        )
    return ExistenceResult(
        "exists",
        detail=f"contracting eigenvalue {lam_text}, but its eigenline has irrational "
               "slope in lattice coordinates",
    )


# -------------------------------------------------------- lattice counts


# Work budgets, checked before any row is enumerated.
MAX_LATTICE_ROWS = 2**22  # chord rows of one count, or of all scales of one lce report
MAX_SCALE = 256           # |j| of one count, and jmax - jmin of one lce report

IntForm = tuple[int, int, int, int]


def _row_reach(form: IntForm) -> int:
    """Largest |z1| of a point in the ellipse: z1^2 <= c L / (a c - b^2)."""
    a, b, c, l = form
    return math.isqrt(c * l // (a * c - b * b))


def _chord_count(form: IntForm, z1_max: int) -> int:
    """Integer points of the ellipse, one O(1) chord per row z1.

    On row z1, (c z2 + b z1)^2 <= c L - (a c - b^2) z1^2 = disc, so with
    r = isqrt(disc) and m = -b z1 the row holds the integers z2 from
    ceil((m - r)/c) to floor((m + r)/c); r may replace sqrt(disc) because
    c z2 - m is an integer.  Rows z1 and -z1 hold equally many points.
    """
    a, b, c, l = form
    delta, cl = a * c - b * b, c * l
    count = 2 * (math.isqrt(cl) // c) + 1
    for z1 in range(1, z1_max + 1):
        r = math.isqrt(cl - delta * z1 * z1)
        m = -b * z1
        count += 2 * ((r - m) // c + (r + m) // c + 1)
    return count


def _lattice_forms(a: Mat2, p: Mat2, j_min: int, j_max: int) -> list[tuple[int, IntForm, int]]:
    """(j, integer form of A^-j P, row reach) for j_min..j_max, within the work budgets.

    With A = A_int / k and P = P_int / m, A^-j P is num/den times the integer
    matrix M_j = adj(A_int)^j P_int, or A_int^-j P_int for j < 0; as
    adj(A_int) A_int = delta I, each step up is one integer product (divided
    by delta below 0).  (a, b, c, L) is M^T M num^2 over den^2 divided by
    its gcd: the denominator-cleared form of the rational matrix.  The rows
    every count will enumerate are known from the forms alone, so the row
    budget is checked before any counting starts.
    """
    k, ((a11, a12), (a21, a22)) = _integer_rows(a)
    m, mat = _integer_rows(p)
    delta = a11 * a22 - a12 * a21
    if delta == 0:
        raise InputError("dilation matrix must be invertible")
    if mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] == 0:
        raise InputError("lattice basis must be invertible")
    scales = f"j = {j_min}" if j_min == j_max else f"j = {j_min}..{j_max}"
    if max(abs(j_min), abs(j_max), j_max - j_min) > MAX_SCALE:
        raise InputError(f"lattice count at {scales} exceeds the scale budget: |j| and "
                         f"jmax - jmin must not exceed {MAX_SCALE}")
    adj = ((a22, -a12), (-a21, a11))
    step = adj if j_min >= 0 else ((a11, a12), (a21, a22))
    for _ in range(abs(j_min)):
        mat = _imul(step, mat)
    num, den = (k**j_min, delta**j_min * m) if j_min >= 0 else (1, k**-j_min * m)
    forms = []
    for j in range(j_min, j_max + 1):
        if j > j_min:
            mat, num = _imul(adj, mat), num * k
            if j <= 0:
                mat = tuple(tuple(x // delta for x in row) for row in mat)
            else:
                den *= delta
        (x11, x12), (x21, x22) = mat
        nn = num * num
        q = ((x11 * x11 + x21 * x21) * nn, (x11 * x12 + x21 * x22) * nn,
             (x12 * x12 + x22 * x22) * nn, den * den)
        g = math.gcd(*q)
        form = (q[0] // g, q[1] // g, q[2] // g, q[3] // g)
        forms.append((j, form, _row_reach(form)))
    rows = sum(2 * z1_max + 1 for _, _, z1_max in forms)
    if rows > MAX_LATTICE_ROWS:
        raise InputError(f"lattice count at {scales} needs {rows} chord rows (2*z1_max + 1 "
                         f"per scale), above the budget of {MAX_LATTICE_ROWS} rows")
    return forms


def lattice_count(a: Mat2, p: Mat2, j: int) -> int:
    """Exact number of lattice points P*z inside the dilated unit ball A^j B(0,1).

    Counts integer z with (A^-j P z) . (A^-j P z) <= 1 as a sum of exact
    integer chords of the ellipse, one per row z1; the rows number about
    |det A|^(j/2) / sqrt|det P| for a well-conditioned A.  Raises InputError
    when |j| exceeds MAX_SCALE or the rows exceed MAX_LATTICE_ROWS.
    """
    ((_, form, z1_max),) = _lattice_forms(a, p, j, j)
    return _chord_count(form, z1_max)


@dataclass(frozen=True)
class LceRow:
    j: int
    count: int
    bound_base: Fraction  # max(1, |det A|^j)
    ratio: Fraction


@dataclass(frozen=True)
class LceReport(Verdict):
    rows: tuple[LceRow, ...]
    c: Fraction
    all_bounded: bool
    witness_j: int | None
    note: str = "finite-range probe of the counting estimate, not a proof"

    @property
    def witnesses(self) -> tuple:
        return () if self.all_bounded else ((f"ratio exceeds C at j = {self.witness_j}", None),)


def lce_report(a: Mat2, p: Mat2, j_min: int, j_max: int, c: RationalLike) -> LceReport:
    """Per-scale exact counts against the bound C * max(1, |det A|^j).

    The scales share one work budget: jmax - jmin and every |j| are at most
    MAX_SCALE, and the chord rows of all scales together at most
    MAX_LATTICE_ROWS (InputError otherwise, before any count is made).
    """
    if j_min > j_max:
        raise InputError("jmin must not exceed jmax")
    c = rat(c)
    forms = _lattice_forms(a, p, j_min, j_max)
    det = a.det().a
    rows = []
    for j, form, z1_max in forms:
        n = _chord_count(form, z1_max)
        base = max(ONE, abs(det) ** j)
        rows.append(LceRow(j, n, base, Fraction(n) / base))
    witness = next((row.j for row in rows if row.ratio > c), None)
    return LceReport(tuple(rows), c, witness is None, witness)
