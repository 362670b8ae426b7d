"""Scaling-set construction and exact wavelet-set verification.

Builds a scaling set inside any set satisfying the nesting, contraction and
covering hypotheses, with certified rational bounds on everything a finite
truncation can miss, and decides the two tiling properties of a candidate
wavelet set exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, PreconditionError, Verdict
from .intervals import Interval, IntervalSet, _beside_zero, _merge, _off_zero, _subtract, iset
from .spectral import (StepFn, _annulus_levels, _annulus_sums, _psi_grid, _scaling_grid, pow2,
                       validate_scaling_spectrum)
from .torus import (_from_grid, _pairs_on_grid, _unit_fragments, extract_transversal,
                    fold_multiplicity, s1_witness)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
WINDOW = iset((-HALF, HALF))

DEFAULT_DEPTH_N = 40
DEFAULT_DEPTH_J = 40
MAX_CONSTRUCT_DEPTH = 256  # work budget on depth_n and depth_j


@dataclass(frozen=True)
class DefectReport:
    """Certified upper bounds on what a truncated construction may miss.

    Bounds come from geometric tail sums, never from sampling; exact runs
    carry all-zero bounds.
    """

    s1_defect: Fraction
    coverage_defect: Fraction
    depth_n: int
    depth_j: int
    containment_exact = True  # a constant, not a field: on every route S lies inside S'

    @property
    def all_zero(self) -> bool:
        return self.s1_defect == 0 and self.coverage_defect == 0


@dataclass(frozen=True)
class ScalingSetResult(Verdict):
    s: IntervalSet
    w: IntervalSet  # always exactly 2S minus S
    defects: DefectReport
    fast_path: bool


def check_S1(s: IntervalSet) -> bool:
    """Nesting under doubling: S inside 2S modulo null sets."""
    return s1_witness(s) is None


def check_S2(s: IntervalSet) -> bool:
    """Dyadic contraction limit 1: S contains a punctured neighborhood of 0.

    For a finite union of intervals the contraction orbit of a.e. point
    eventually lands in, or eventually avoids, the pieces adjacent to 0, so
    this is equivalent to containing (-a, 0) u (0, b) modulo null sets and is
    decided by one bisection of the parts at 0.
    """
    return all(_beside_zero(s._grid[1] if s._grid else [(p.lo, p.hi) for p in s.parts]))


def _grid_levels(k: IntervalSet, depth_n: int, depth_j: int) -> tuple[int, list[list[tuple]]]:
    """The levels of ``_truncated_levels`` as (lo, hi) integer pairs over ``scale``.

    Returns (scale, levels), scale = D 2^T with D the lcm of the endpoint
    denominators of K (within the ``_on_grid`` budget) and T = depth_n +
    depth_j.  Every endpoint met is 2^-j x + i for an endpoint x of K, an
    integer i and j <= T, so all of them are integers over scale.

    R_j is the fold of K_j (``_unit_fragments``, merged) laid on each unit
    cell that its live levels meet, minus K_j.  K lies in [-r, r], so the
    levels n >= near = ceil(log2 r) lie in the cells [-1, 0) and [0, 1); a
    shallower level lies in the parts of K_n, each at most 1 long, so it
    meets at most 2 |K| cells, |K| the parts of K.  The fold has at most
    3 |K| runs, so R_j takes O(|K|^2 log r) pairs.
    """
    t = depth_n + depth_j
    d, pairs = _pairs_on_grid(k)
    scale = d << t
    kernel = [(a << t, b << t) for a, b in pairs]  # K_j: exact >> j
    levels = [[(a >> n, b >> n) for a, b in kernel] for n in range(depth_n + 1)]
    reach = -(-max(-kernel[0][0], kernel[-1][1]) // scale)  # r, in whole units
    near = (reach - 1).bit_length()
    for j in range(1, t + 1):
        live = [n for n in range(max(0, j - depth_j), min(depth_n + 1, j)) if levels[n]]
        if not live:
            continue
        cells = {c for n in live if n < near for a, b in levels[n]
                 for c in range(a // scale, -(-b // scale))}
        if live[-1] >= near:
            cells.update((-1, 0))
        kj = [(a >> j, b >> j) for a, b in kernel]
        fold = _merge(sorted((a, b) for a, b, _, _ in _unit_fragments(((a, b, 1) for a, b in kj),
                                                                       scale)))
        # the fold of K_j laid on each unit cell, which is its periodization there
        overlap = _subtract(_merge([(a + c * scale, b + c * scale)
                                    for c in sorted(cells) for a, b in fold]), kj)
        for n in live:
            levels[n] = _subtract(levels[n], overlap)
    return scale, levels


def _truncated_levels(k: IntervalSet, depth_n: int, depth_j: int) -> list[IntervalSet]:
    """Levels E_0, ..., E_N with the inner union truncated at j <= n + depth_j.

    E_n = K_n minus R_(n+1), ..., R_(n+depth_j), with K_j = 2^-j K and R_j
    the points of the nonzero integer translates of K_j that lie outside K_j.
    Each R_j is built once and subtracted from every level that needs it
    (n < j <= n + depth_j) and is not yet empty.  It is the fold of K_j on
    [0, 1), laid on each unit cell that those levels meet, minus K_j: on
    those cells it is the full periodization of K_j.

    All of it runs on integer pairs on one grid (``_grid_levels``), and each
    level holds its grid alone.  A kernel whose lcm of endpoint denominators
    exceeds MAX_GRID_BITS bits is an InputError.

    The relative truncation keeps the doubling chain E_n inside 2 E_{n+1}
    termwise, so the nesting defect of the result is confined to the last
    level.
    """
    scale, levels = _grid_levels(k, depth_n, depth_j)
    return [_from_grid(level, scale) for level in levels]


def lemma_r3_construct(
    sprime: IntervalSet,
    depth_n: int = DEFAULT_DEPTH_N,
    depth_j: int = DEFAULT_DEPTH_J,
) -> ScalingSetResult:
    """Build a scaling set inside S' (which must satisfy S1, S2 and covering).

    The tiling kernel K is the transversal of S' that prefers representatives
    inside [-1/2, 1/2).  The exact fast path is taken exactly when S'
    contains [-1/2, 1/2): K is then that window, which is already a scaling
    set, so S = [-1/2, 1/2) and W is the Shannon set, with all-zero defect
    bounds.  Otherwise levels 0..N are computed with inner truncation at
    j <= n + J and the report carries geometric tail bounds.

    Level n is K_n minus R_(n+1), ..., R_(n+J), where R_j is the part of the
    integer translates of K_j = 2^-j K outside K_j.  Each of the N + J sets
    R_j is built once per call, as the fold of K_j laid on the unit cells of
    the levels it meets, so its cost grows with the log of the span of K
    (``_grid_levels`` bounds it).  The levels, every R_j, S and W = 2S minus
    S are integer pairs on its grid 1/(D 2^(N+J)), and S1, the transversal,
    the fast-path test and the tail bounds read integers on the grids of S'
    and K, so S and W hold their grids alone and make no fraction.

    Checks run in this order, and the first failure is raised: the depth
    budget (InputError), S1 on S' (PreconditionError "S1" naming the part of
    S' outside 2S'), covering (PreconditionError "r4" naming the missed
    residues, raised by the transversal extraction itself), S2, then
    nonnegative depths.  S1 and the transversal first bound the lcm of the
    endpoint denominators of S' (with 2) by MAX_GRID_BITS bits (InputError),
    on the fast path too; the lcm of K divides it.
    """
    if max(depth_n, depth_j) > MAX_CONSTRUCT_DEPTH:
        raise InputError(
            f"construction depths are at most {MAX_CONSTRUCT_DEPTH} (work budget); "
            f"got depth_n = {depth_n}, depth_j = {depth_j}"
        )
    escape = s1_witness(sprime)
    if escape is not None:
        raise PreconditionError(
            "S1", f"input is not nested under doubling: {escape} escapes", witness=escape,
        )
    k = extract_transversal(sprime, prefer_window=True)
    if not check_S2(sprime):
        raise PreconditionError("S2", "input does not contain a punctured neighborhood of 0")
    if depth_n < 0 or depth_j < 0:
        raise PreconditionError("depth", "depths must be nonnegative")
    scale, s_grid = _pairs_on_grid(k)
    fast = (scale, s_grid) == _pairs_on_grid(WINDOW)
    if fast:
        # K has measure 1, so it lies inside the window only as the whole
        # window, which is itself a scaling set: S = K at every depth.
        s, defects = k, DefectReport(ZERO, ZERO, depth_n, depth_j)
    else:
        # Over 2^-(N + J): the outer tail 2^-N |K| (|K| = 1 by tiling), and 2^-(n + J) at level n
        # for each of the 2 floor(2^-n span K) nonzero shifts that can meet it, and one more.
        span, tail = s_grid[-1][1] - s_grid[0][0], Fraction(1, 1 << (depth_n + depth_j))
        cover = sum((2 * (span // (scale << n)) + 1) << (depth_n - n) for n in range(depth_n + 1))
        defects = DefectReport(pow2(1 - depth_n), (cover + (1 << depth_j)) * tail, depth_n, depth_j)
        scale, levels = _grid_levels(k, depth_n, depth_j)
        s_grid = _merge(sorted(p for level in levels for p in level))
        s = _from_grid(s_grid, scale)
    w = _from_grid(_subtract([(a << 1, b << 1) for a, b in s_grid], s_grid), scale)
    return ScalingSetResult(s, w, defects, fast)


# ---------------------------------------------------------- verification


@dataclass(frozen=True)
class ScalingSetVerdict(Verdict):
    S1: bool
    S2: bool
    S3: bool
    witnesses: tuple = ()


def verify_scaling_set(s: IntervalSet) -> ScalingSetVerdict:
    """Exact decision of S1, S2 and S3, witnessed by the part of S outside 2S (S1), none (S2)
    and the first residues the translates of S do not cover exactly once (S3)."""
    escape, not_one, s2 = s1_witness(s), fold_multiplicity(s).where_not(1).parts, check_S2(s)
    witnesses = [("S1: escapes its double", escape)] if escape else []
    witnesses += [] if s2 else [("S2: no punctured neighborhood of 0", None)]
    witnesses += [("S3: translates do not tile with multiplicity one", p) for p in not_one[:1]]
    return ScalingSetVerdict(escape is None, s2, not not_one, tuple(witnesses))


@dataclass(frozen=True)
class WaveletSetVerdict(Verdict):
    passed: bool
    reason: str | None = None
    witness: Interval | None = None

    @property
    def witnesses(self) -> tuple:
        return () if self.passed else ((self.reason, self.witness),)


def verify_wavelet_set(w: IntervalSet) -> WaveletSetVerdict:
    """Exact decision of the two tiling properties of a candidate wavelet set.

    Translation tiling is the unit periodization multiplicity.  For dilation
    tiling, any piece reaching 0 overlaps its own double, so the set must be
    bounded away from 0; the dyadic dilation multiplicity is invariant under
    doubling of the argument, hence its values on one annulus [c, 2c) u
    [-2c, -c) decide all of R minus {0}, and only finitely many dilates meet
    that annulus.  The annulus is the one at c = r, the least distance of
    W from 0, and the sums are Calderon's (``spectral._annulus_sums``).
    Each step reads the integers of the grid of W: the fold, the part
    touching 0 and r (``_off_zero``), and the annulus levels.
    """
    if w.is_empty:
        return WaveletSetVerdict(False, "translation gap: empty set", Interval(ZERO, ONE))
    m = fold_multiplicity(w)
    for i, v in enumerate(m.weights):
        if v != m.vden:
            kind, witness = "gap" if v < m.vden else "overlap", m._interval(i)
            return WaveletSetVerdict(
                False, f"translation {kind}: multiplicity {Fraction(v, m.vden)} on residues "
                f"[{witness.lo}, {witness.hi})", witness,
            )
    d, pairs = _pairs_on_grid(w)
    i, r, big = _off_zero(pairs)
    if r is None:
        p = w.parts[i]
        witness = Interval(p.hi / 2, p.hi) if p.hi > 0 else Interval(p.lo, p.lo / 2)
        return WaveletSetVerdict(
            False,
            f"dilation overlap near 0: piece {p} meets its own double on {witness}",
            witness,
        )
    levels = _annulus_levels(ONE, Fraction(big, r))
    for scale, ends, _, weights in _annulus_sums(d, 1, [(a, b, 1) for a, b in pairs],
                                                 Fraction(r, d), levels):
        for j, v in enumerate(weights):
            if v != 1:
                witness = Interval(Fraction(ends[j], scale), Fraction(ends[j + 1], scale))
                return WaveletSetVerdict(False, f"dilation {'gap' if v < 1 else 'overlap'}: "
                                         f"multiplicity {v} on {witness}", witness)
    return WaveletSetVerdict(True)


# ------------------------------------------------------------- pipeline


@dataclass(frozen=True)
class RzeResult(Verdict):
    s: IntervalSet
    w: IntervalSet
    supp_psi: IntervalSet
    contained: bool
    defects: DefectReport
    psi_spectrum: StepFn
    leftover_measure: Fraction

    @property
    def witnesses(self) -> tuple:
        return () if self.contained else (
            ("containment not exact at this truncation depth; escape within certified bound",
             None),)

    @property
    def status(self) -> str:
        return "pass" if self.contained else "inconclusive"


def rze_pipeline(
    g: StepFn,
    depth_n: int = DEFAULT_DEPTH_N,
    depth_j: int = DEFAULT_DEPTH_J,
) -> RzeResult:
    """Wavelet set inside the wavelet's frequency support, from a scaling spectrum.

    Validates g, builds a scaling set S inside supp(g), forms W = 2S minus S,
    derives the squared wavelet spectrum h(x) = g(x/2) - g(x) exactly, and
    checks the containment of W in supp(h).  On the exact fast path the
    containment is guaranteed; for truncated runs the escaping measure cannot
    exceed twice the certified coverage defect (the doubled set contributes
    the factor two).  Validated g goes on its grid once: supp g, h and supp h are
    integer runs there, subtracted from S and W on the lcm of that grid and the
    grids S and W hold, which no grid budget bounds (they carry up to 2^(N+J)).
    """
    verdict = validate_scaling_spectrum(g)
    if not verdict.passed:
        raise PreconditionError(verdict.condition, f"not a scaling spectrum: "
                                f"({verdict.condition}) fails, {verdict.detail}", verdict.witness)
    d, vden, pieces = _scaling_grid(g)
    supp_phi = _merge((a, b) for a, b, _ in pieces)
    result = lemma_r3_construct(_from_grid(supp_phi, d), depth_n, depth_j)
    psi = _psi_grid(d, vden, pieces)
    dh, _, h = psi._grid
    supp_psi = _merge((a, b) for a, b, _ in h)
    (ds, s), (dw, w) = result.s._grid, result.w._grid
    scale = math.lcm(d, ds, dw)  # dh divides d
    s, w, phi, psi_ = ([(a * (scale // e), b * (scale // e)) for a, b in pairs]
                       for e, pairs in ((ds, s), (dw, w), (d, supp_phi), (dh, supp_psi)))
    assert not _subtract(s, phi), "S must stay inside supp g"
    leftover = _subtract(w, psi_)
    leftover_measure = Fraction(sum(b - a for a, b in leftover), scale)
    if result.fast_path and leftover:
        raise AssertionError("exact run must land inside the wavelet support")
    if leftover_measure > 2 * result.defects.coverage_defect:
        raise AssertionError("escape exceeds the certified truncation bound")
    return RzeResult(s=result.s, w=result.w, supp_psi=_from_grid(supp_psi, dh),
                     contained=not leftover, defects=result.defects, psi_spectrum=psi,
                     leftover_measure=leftover_measure)
