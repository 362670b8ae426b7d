"""Exact 2D decisions: wavelet-set existence for a dilation/lattice pair,
and lattice-point counts in dilated unit balls.

All scalar work happens in Q or in a real quadratic field Q(sqrt(d)); signs
and comparisons are resolved by exact rational computations, never by
floating point root isolation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import InputError, PreconditionError
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


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if irrational/negative."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


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
        """Exact sign of a + b*sqrt(d) via rational comparisons only."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        assert self.d is not None
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        lhs, rhs = self.a * self.a, self.b * self.b * self.d
        if lhs == rhs:
            return 0  # unreachable for square-free d >= 2 with b != 0
        if self.a > 0:  # b < 0: positive iff a^2 > b^2 d
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, (QuadScalar, int, Fraction, str)):
            return NotImplemented
        return (self - QuadScalar.of(other)).is_zero

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __lt__(self, other) -> bool:
        return (self - QuadScalar.of(other)).sign() < 0

    def __gt__(self, other) -> bool:
        return (self - QuadScalar.of(other)).sign() > 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


def quad_sqrt(x: QuadScalar, ambient_d: int | None) -> QuadScalar | None:
    """Square root of x inside Q(sqrt(ambient_d)), or None if there is none there."""
    if x.sign() < 0:
        return None
    if x.is_rational:
        r = rational_sqrt(x.a)
        if r is not None:
            return QuadScalar(r)
        if ambient_d is not None:
            r = rational_sqrt(x.a / ambient_d)
            if r is not None:
                return QuadScalar(ZERO, r, ambient_d)
        return None
    # (p + q sqrt(d))^2 = x  =>  q = x.b / (2p),  4p^4 - 4 x.a p^2 + d x.b^2 = 0.
    d = x.d
    assert d is not None
    s = rational_sqrt(x.a * x.a - d * x.b * x.b)
    if s is None:
        return None
    for sign in (1, -1):
        p_sq = (x.a + sign * s) / 2
        p = rational_sqrt(p_sq)
        if p is not None and p != 0:
            q = x.b / (2 * p)
            root = QuadScalar(p, q, d)
            if root.sign() < 0:
                root = -root
            return root
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

    def rational_rows(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        if not self.is_rational:
            raise InputError("operation requires a rational matrix")
        return tuple(tuple(e.a for e in row) for row in self.entries)

    def __str__(self) -> str:
        (a, b), (c, d) = self.entries
        return f"[[{a}, {b}], [{c}, {d}]]"


FracRows = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def _rmul(x: FracRows, y: FracRows) -> FracRows:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _rinv(x: FracRows) -> FracRows:
    det = x[0][0] * x[1][1] - x[0][1] * x[1][0]
    if det == 0:
        raise InputError("matrix is singular")
    return (
        (x[1][1] / det, -x[0][1] / det),
        (-x[1][0] / det, x[0][0] / det),
    )


def _rpow(x: FracRows, j: int) -> FracRows:
    out: FracRows = ((ONE, ZERO), (ZERO, ONE))
    for _ in range(j):
        out = _rmul(out, x)
    return out


def _rtrans(x: FracRows) -> FracRows:
    return ((x[0][0], x[1][0]), (x[0][1], x[1][1]))


def _primitive_integer(c1: Fraction, c2: Fraction) -> tuple[int, int]:
    l = math.lcm(c1.denominator, c2.denominator)
    z1, z2 = int(c1 * l), int(c2 * l)
    g = math.gcd(abs(z1), abs(z2))
    z1, z2 = z1 // g, z2 // g
    if z1 < 0 or (z1 == 0 and z2 < 0):
        z1, z2 = -z1, -z2
    return z1, z2


# --------------------------------------------------------- existence test


@dataclass(frozen=True)
class ExistenceResult:
    verdict: str  # "exists" | "not_exists" | "unsupported"
    witness: tuple[int, int] | None = None
    unit_eigenvalue: bool = False
    detail: str = ""


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
    prows = p.rational_rows()
    if prows[0][0] * prows[1][1] - prows[0][1] * prows[1][0] == 0:
        raise PreconditionError("lattice", "lattice basis must be invertible")
    det = a.det()
    if not (det > 1 or det < -1):
        raise PreconditionError("determinant", f"|det A| must exceed 1, got {det}")

    tr = a.trace()
    disc = tr * tr - det * 4
    sd = disc.sign()
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
    p_at_1 = det - tr + 1   # char poly at +1
    p_at_m1 = det + tr + 1  # char poly at -1
    s1, sm1 = p_at_1.sign(), p_at_m1.sign()
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

    # Exactly one eigenvalue in (-1, 1).
    root = quad_sqrt(disc, a.field_d)
    if root is None:
        return ExistenceResult(
            "exists",
            detail="the contracting eigenvalue is a quadratic irrational over the "
                   "entry field, so its eigenline has irrational slope in lattice "
                   "coordinates and meets the lattice only at 0",
        )
    lam = (tr - root) / 2 if s1 < 0 else (tr + root) / 2
    (a11, a12), (a21, a22) = a.entries
    if not a12.is_zero:
        v1, v2 = a12, lam - a11
    elif not a21.is_zero:
        v1, v2 = lam - a22, a21
    else:
        # Diagonal matrix: lambda matches one of the diagonal entries.
        if (lam - a11).is_zero:
            v1, v2 = QuadScalar(ONE), QuadScalar(ZERO)
        else:
            v1, v2 = QuadScalar(ZERO), QuadScalar(ONE)
    pinv = _rinv(prows)
    u1 = QuadScalar.of(pinv[0][0]) * v1 + QuadScalar.of(pinv[0][1]) * v2
    u2 = QuadScalar.of(pinv[1][0]) * v1 + QuadScalar.of(pinv[1][1]) * v2
    # Integer z with z2*u1 = z1*u2 exists iff the rational and sqrt(d) parts
    # of (u1, u2) are parallel as rational vectors.
    if u1.a * u2.b == u2.a * u1.b:
        if u1.a != 0 or u2.a != 0:
            witness = _primitive_integer(u1.a, u2.a)
        else:
            witness = _primitive_integer(u1.b, u2.b)
        return ExistenceResult(
            "not_exists", witness=witness,
            detail=f"contracting eigenvalue {lam}; its eigenline meets the lattice "
                   f"at the nonzero point z = {witness}",
        )
    return ExistenceResult(
        "exists",
        detail=f"contracting eigenvalue {lam}, but its eigenline has irrational "
               "slope in lattice coordinates",
    )


# -------------------------------------------------------- lattice counts


# Work budgets, checked before any row is enumerated.
MAX_LATTICE_ROWS = 2**22  # chord rows of one count, or of all scales of one lce report
MAX_SCALE = 256           # |j| of one count, and jmax - jmin of one lce report

IntForm = tuple[int, int, int, int]


def _integer_form(b: FracRows) -> IntForm:
    """(a, b, c, L) with |B z|^2 <= 1 iff a z1^2 + 2b z1 z2 + c z2^2 <= L, all integers."""
    q = _rmul(_rtrans(b), b)
    q11, q12, q22 = q[0][0], q[0][1], q[1][1]
    l = math.lcm(q11.denominator, q12.denominator, q22.denominator)
    return (q11.numerator * (l // q11.denominator), q12.numerator * (l // q12.denominator),
            q22.numerator * (l // q22.denominator), l)


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

    B_j = A^-j P is stepped as B_j = A^-1 B_(j-1), so each scale costs one
    2x2 product.  The rows every count will enumerate are known from the
    forms alone, so the row budget is checked before any counting starts.
    """
    arows = a.rational_rows()
    prows = p.rational_rows()
    if arows[0][0] * arows[1][1] - arows[0][1] * arows[1][0] == 0:
        raise InputError("dilation matrix must be invertible")
    if prows[0][0] * prows[1][1] - prows[0][1] * prows[1][0] == 0:
        raise InputError("lattice basis must be invertible")
    scales = f"j = {j_min}" if j_min == j_max else f"j = {j_min}..{j_max}"
    if max(abs(j_min), abs(j_max), j_max - j_min) > MAX_SCALE:
        raise InputError(f"lattice count at {scales} exceeds the scale budget: |j| and "
                         f"jmax - jmin must not exceed {MAX_SCALE}")
    a_inv = _rinv(arows)
    b = _rmul(_rpow(a_inv, j_min) if j_min >= 0 else _rpow(arows, -j_min), prows)
    forms = []
    for j in range(j_min, j_max + 1):
        if j > j_min:
            b = _rmul(a_inv, b)
        form = _integer_form(b)
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
class LceReport:
    rows: tuple[LceRow, ...]
    c: Fraction
    all_bounded: bool
    witness_j: int | None
    note: str = "finite-range probe of the counting estimate, not a proof"


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
    arows = a.rational_rows()
    det = arows[0][0] * arows[1][1] - arows[0][1] * arows[1][0]
    rows = []
    witness = None
    for j, form, z1_max in forms:
        n = _chord_count(form, z1_max)
        base = max(ONE, abs(det) ** j)
        ratio = Fraction(n) / base
        rows.append(LceRow(j, n, base, ratio))
        if ratio > c and witness is None:
            witness = j
    return LceReport(tuple(rows), c, witness is None, witness)
