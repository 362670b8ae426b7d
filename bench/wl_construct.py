"""Workload ``construct``: scaling sets built inside generated supports.

Each operation builds a scaling set S inside an admissible support S' with
``lemma_r3_construct`` and decides W = 2S \\ S with ``verify_wavelet_set``,
or runs ``rze_pipeline`` on the indicator spectrum of an exact scaling set.
Interval algebra, torus folding, transversals and periodization do the work;
``msf2d`` is idle.

Generated sets.  ``scaling_set_pairs(k)`` is [-1/2, 1/2) with [3/8, 1/2) and
[-1/2, -3/8) each cut into k pieces at random grid points and every other
piece moved by one period to the far side.  The result is nested under
doubling, tiles by translation and contains (-3/8, 3/8), so it is an exact
scaling set with about 2k parts whose tiling kernel leaves [-1/2, 1/2): the
construction takes the truncated path.  ``truncated_support`` adds garnish
pieces inside [5/8, 3/4) and its mirror image; their halves lie in S and
their residues are already covered by S inside [-1/2, 1/2), so the kernel,
and with it the constructed set, stays that of S while the transversal
extraction sees every garnish part.  ``fast_support`` is [-a, b) with
a, b >= 1/2 plus garnish inside its double, which takes the window fast path.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from waveset import construct
from waveset.intervals import normalize
from waveset.spectral import StepFn

import oracle
from common import Op, grid_cuts, rng_for

NAME = "construct"
GRID = 16 * 101  # cut points live on 1/GRID with a prime factor, so no two draws share a cut

SIZES = {
    # parts per side of the moved region (k) and garnish pieces per side (g)
    "full": {
        "depth": 6,
        "classes": {"s1": {"k": 4, "g": 8}, "s2": {"k": 8, "g": 16}},
        # (kind, size class, count) per round
        # Fast-path operations take a few ms, truncated ones about 80 (s1) and
        # 160 ms (s2); four below and four above the s1 class keep the median
        # operation in the middle of s1.
        "mix": [("truncated", "s1", 7), ("truncated", "s2", 3), ("fast", "s1", 2),
                ("fast", "s2", 2), ("rze", "s1", 1), ("rze", "s2", 1)],
    },
    "tiny": {
        "depth": 2,
        "classes": {"s1": {"k": 2, "g": 2}, "s2": {"k": 3, "g": 3}},
        "mix": [("truncated", "s1", 1), ("truncated", "s2", 1), ("fast", "s1", 1),
                ("rze", "s1", 1)],
    },
}


def scaling_set_pairs(rng: random.Random, k: int) -> list[tuple[F, F]]:
    pairs = [(F(-3, 8), F(3, 8))]
    for side in (1, -1):
        pts = [F(3, 8)] + grid_cuts(rng, k - 1, F(3, 8), F(1, 2), GRID) + [F(1, 2)]
        for i, (a, b) in enumerate(zip(pts, pts[1:])):
            lo, hi = (a, b) if side == 1 else (-b, -a)
            if i % 2:
                lo, hi = lo - side, hi - side
            pairs.append((lo, hi))
    return pairs


def garnish_pairs(rng: random.Random, g: int, lo: F, hi: F) -> list[tuple[F, F]]:
    """g disjoint, non-touching pieces inside (lo, hi) and g inside (-hi, -lo)."""
    out = []
    for sign in (1, -1):
        pts = grid_cuts(rng, 2 * g, lo, hi, GRID)
        for a, b in zip(pts[::2], pts[1::2]):
            out.append((a, b) if sign == 1 else (-b, -a))
    return out


def truncated_support(rng: random.Random, k: int, g: int):
    return normalize(scaling_set_pairs(rng, k) + garnish_pairs(rng, g, F(5, 8), F(3, 4)))


def fast_support(rng: random.Random, g: int):
    a, b = grid_cuts(rng, 1, F(1, 2), F(3, 4), GRID)[0], grid_cuts(rng, 1, F(1, 2), F(3, 4), GRID)[0]
    # Garnish inside (3/4, 1) and its mirror lies outside [-a, b), its halves inside.
    return normalize([(-a, b)] + garnish_pairs(rng, g, F(3, 4), F(1)))


def make_ops(seed: int, scale: str = "full") -> list[Op]:
    rng = rng_for(NAME, seed)
    cfg = SIZES[scale]
    depth = cfg["depth"]
    ops = []
    for kind, size, count in cfg["mix"]:
        k, g = cfg["classes"][size]["k"], cfg["classes"][size]["g"]
        for _ in range(count):
            if kind == "truncated":
                args = {"sprime": truncated_support(rng, k, g)}
            elif kind == "fast":
                args = {"sprime": fast_support(rng, g)}
            else:
                s = normalize(scaling_set_pairs(rng, k))
                args = {"g": StepFn.indicator(s)}
            args["depth"] = depth
            ops.append(Op(kind, size, args))
    return ops


def run(op: Op):
    d = op.args["depth"]
    if op.kind == "rze":
        res = construct.rze_pipeline(op.args["g"], d, d)
    else:
        res = construct.lemma_r3_construct(op.args["sprime"], d, d)
    return res, construct.verify_wavelet_set(res.w)


# ------------------------------------------------------------------ checks


def _pairs(s) -> list[tuple[F, F]]:
    return [(p.lo, p.hi) for p in s.parts]


def check_wavelet_verdict(w_pairs, verdict) -> list[str]:
    """The verdict of verify_wavelet_set against brute-force multiplicities."""
    w = oracle.Parts(w_pairs)
    if verdict.passed:
        if not w_pairs:
            return ["empty set declared a wavelet set"]
        bad_t = [x for x in oracle.translation_cells(w) if oracle.translation_multiplicity_at(w, x) != 1]
        if bad_t:
            return [f"declared a wavelet set, but the translation multiplicity at {bad_t[0]} is not 1"]
        if any(lo <= 0 <= hi for lo, hi in w_pairs):
            return ["declared a wavelet set, but a piece reaches 0"]
        bad_d = [x for x in oracle.octave_cells(w) if oracle.dilation_multiplicity_at(w, x) != 1]
        if bad_d:
            return [f"declared a wavelet set, but the dilation multiplicity at {bad_d[0]} is not 1"]
        return []
    if verdict.witness is None:
        return ["rejected without a witness"]
    x = (verdict.witness.lo + verdict.witness.hi) / 2
    reason = verdict.reason or ""
    if not w_pairs:
        return []
    if reason.startswith("translation"):
        ok = oracle.translation_multiplicity_at(w, x - (x // 1)) != 1
    elif "near 0" in reason:
        ok = any(lo <= 0 <= hi for lo, hi in w_pairs)
    else:
        ok = oracle.dilation_multiplicity_at(w, x) != 1
    return [] if ok else [f"rejected with witness {verdict.witness}, where the multiplicity is 1"]


def check(op: Op, result, rng: random.Random | None = None) -> list[str]:
    rng = rng or random.Random(0)
    res, verdict = result
    problems = []
    s_pairs, w_pairs = _pairs(res.s), _pairs(res.w)
    if not (oracle.disjoint_sorted(s_pairs) and oracle.disjoint_sorted(w_pairs)):
        return ["S or W is not a sorted list of disjoint intervals"]
    outer = op.args["g"].pieces if op.kind == "rze" else None
    sprime = oracle.Parts([(iv.lo, iv.hi) for iv, _ in outer] if outer else _pairs(op.args["sprime"]))
    s, w = oracle.Parts(s_pairs), oracle.Parts(w_pairs)
    if not s_pairs:
        return ["constructed set is empty"]
    # Exact on every cell cut by all endpoints of S, 2S, S' and W, plus samples.
    cuts = list(s.endpoints()) + [2 * e for e in s.endpoints()] + list(sprime.endpoints()) + list(w.endpoints())
    lo, hi = min(cuts) - 1, max(cuts) + 1
    points = oracle.midpoints(cuts, lo, hi) + oracle.sample(rng, 200, lo, hi)
    for x in points:
        in_s = x in s
        if in_s and x not in sprime:
            problems.append(f"S is not inside S' at {x}")
            break
        if (x in w) != ((x / 2 in s) and not in_s):
            problems.append(f"W differs from 2S \\ S at {x}")
            break
    over = [x for x in oracle.translation_cells(s) if oracle.translation_multiplicity_at(s, x) > 1]
    if over:
        problems.append(f"translates of S overlap at residue {over[0]}")
    d = res.defects
    if 1 - s.measure() > d.coverage_defect:
        problems.append(f"1 - |S| = {1 - s.measure()} exceeds coverage_defect {d.coverage_defect}")
    s_not_2s = oracle.measure_outside(s_pairs, [(2 * a, 2 * b) for a, b in s_pairs])
    if s_not_2s > d.s1_defect:
        problems.append(f"|S \\ 2S| = {s_not_2s} exceeds s1_defect {d.s1_defect}")
    fast = res.defects.all_zero if op.kind == "rze" else res.fast_path
    if fast:
        if any(oracle.translation_multiplicity_at(s, x) != 1 for x in oracle.translation_cells(s)):
            problems.append("exact set does not tile by translation")
        if not verdict.passed:
            problems.append("exact construction, but W was rejected")
    problems += check_wavelet_verdict(w_pairs, verdict)
    if op.kind == "rze":
        problems += _check_rze(op, res, rng)
    return problems


def _check_rze(op: Op, res, rng: random.Random) -> list[str]:
    g = [(iv.lo, iv.hi, v) for iv, v in op.args["g"].pieces]
    h = [(iv.lo, iv.hi, v) for iv, v in res.psi_spectrum.pieces]
    cuts = [e for lo, hi, _ in g for e in (lo, hi, 2 * lo, 2 * hi)]
    points = oracle.midpoints(cuts, min(cuts) - 1, max(cuts) + 1) + oracle.sample(rng, 100, F(-3), F(3))
    for x in points:
        want = oracle.value_at(g, x / 2) - oracle.value_at(g, x)
        if oracle.value_at(h, x) != want:
            return [f"wavelet spectrum at {x} is {oracle.value_at(h, x)}, expected g(x/2) - g(x) = {want}"]
    if res.contained:
        w = oracle.Parts(_pairs(res.w))
        for x in oracle.midpoints(list(w.endpoints()), min(w.endpoints()), max(w.endpoints())):
            if x in w and oracle.value_at(h, x) <= 0:
                return [f"W declared inside supp(psi), but psi vanishes at {x}"]
    return []
