"""Workload ``spectra``: full diagnosis of step spectra.

Each operation diagnoses one real-valued spectrum psi with h = psi^2: the
dimension function window, the conditions D1-D4, the MRA test, the Calderon
sum and the orthonormality certificate (which sums the translation
orthogonality functions through ``tq_check`` and ``StepFn.combine``), plus
``validate_scaling_spectrum`` on the scaling spectrum when one is known.
``spectral`` and ``torus.sweep_weighted`` do the work; ``construct`` and
``msf2d`` are idle.

Inputs: the band pairs psi_b (always b = 1/2, 1/4, 1/8, and seeded b);
the Journe-type wavelet sets J_q, whose positive half is [c/4, 1/2) u
[2^q, 2^q c) with c = 2^(q+2) / (2^(q+2) - 1) (q = 1 is Journe's set), which
are not MRA; indicators of 2S \\ S for the exact scaling sets of the
``construct`` workload, which are MRA; and seeded step spectra with random
signed rational values.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from waveset import spectral
from waveset.intervals import normalize
from waveset.spectral import StepFn

import oracle
from common import Op, grid_cuts, rng_for
from wl_construct import GRID, scaling_set_pairs

NAME = "spectra"

SIZES = {
    "full": {
        "depth": 8,
        "psib_seeded": 3,
        "journe_q": (1, 2),
        "classes": {"s1": {"k": 4, "pieces": 14}, "s2": {"k": 8, "pieces": 30}},
        # psi_b takes about 10 ms, s1 50, Journe-type 90 and s2 130 ms: six
        # operations below and six above the s1 class keep the median in it.
        "mix": [("mra", "s1", 4), ("step", "s1", 4), ("mra", "s2", 2), ("step", "s2", 2)],
    },
    "tiny": {
        "depth": 4,
        "psib_seeded": 1,
        "journe_q": (1,),
        "classes": {"s1": {"k": 2, "pieces": 4}, "s2": {"k": 3, "pieces": 6}},
        "mix": [("mra", "s1", 1), ("step", "s1", 1), ("mra", "s2", 1)],
    },
}


def journe_type(q: int):
    c = F(2 ** (q + 2), 2 ** (q + 2) - 1)
    top = 2 ** q
    return normalize([(-top * c, -top), (F(-1, 2), -c / 4), (c / 4, F(1, 2)), (top, top * c)])


def step_spectrum(rng: random.Random, pieces: int) -> StepFn:
    """Signed rational values on ``pieces`` touching intervals inside [1/4, 2) and its mirror."""
    per_side = pieces // 2
    out = []
    for sign in (1, -1):
        pts = [F(1, 4)] + grid_cuts(rng, per_side - 1, F(1, 4), F(2), GRID) + [F(2)]
        for a, b in zip(pts, pts[1:]):
            v = F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
            out.append(((a, b) if sign == 1 else (-b, -a), v))
    return StepFn.build(out)


def make_ops(seed: int, scale: str = "full") -> list[Op]:
    rng = rng_for(NAME, seed)
    cfg = SIZES[scale]
    depth = cfg["depth"]
    ops = []
    # Seeded b stay below 1/2: above it the dimension function has zeros, D3
    # explores residue classes, and the cost (100 to 250 ms) depends on b.
    bs = [F(1, 2), F(1, 4), F(1, 8)]
    while len(bs) < 3 + cfg["psib_seeded"]:
        q = rng.randint(3, 40)
        b = F(rng.randint(1, (q - 1) // 2), q)
        if b not in bs:
            bs.append(b)
    for b in bs:
        ops.append(Op("psib", "base", {"psi": spectral.psi_b_spectrum(b), "b": b, "depth": depth}))
    for q in cfg["journe_q"]:
        ops.append(Op("journe", "base", {"psi": StepFn.indicator(journe_type(q)), "q": q, "depth": depth}))
    for kind, size, count in cfg["mix"]:
        c = cfg["classes"][size]
        for _ in range(count):
            if kind == "mra":
                s = normalize(scaling_set_pairs(rng, c["k"]))
                w = s.scale(2).subtract(s)
                args = {"psi": StepFn.indicator(w), "scaling": StepFn.indicator(s)}
            else:
                args = {"psi": step_spectrum(rng, c["pieces"])}
            args["depth"] = depth
            ops.append(Op(kind, size, args))
    return ops


def run(op: Op):
    psi, depth = op.args["psi"], op.args["depth"]
    h = psi.square()
    window = spectral.dimension_function(h, depth)
    conditions = spectral.check_D1_D4(spectral.dimension_function(h, depth + 2), depth)
    mra = spectral.mra_check(h, depth)
    cal = spectral.calderon(h)
    ortho = spectral.orthonormality_check(psi)
    scaling = op.args.get("scaling")
    valid = spectral.validate_scaling_spectrum(scaling) if scaling is not None else None
    return window, conditions, mra, cal, ortho, valid


# ------------------------------------------------------------------ checks


def _pieces(f: StepFn):
    return [(iv.lo, iv.hi, v) for iv, v in f.pieces]


def _inside(iv) -> F:
    return (iv.lo + iv.hi) / 2


def check(op: Op, result, rng: random.Random | None = None) -> list[str]:
    rng = rng or random.Random(0)
    window, conditions, mra, cal, ortho, valid = result
    depth = op.args["depth"]
    psi = _pieces(op.args["psi"])
    h = [(lo, hi, v * v) for lo, hi, v in psi]
    reach = max(max(abs(lo), abs(hi)) for lo, hi, _ in h)
    j_max = depth + 4 + max(0, int(reach).bit_length())
    problems = []

    def dim(x):
        return oracle.dim_sum_at(h, x, j_max)

    wlo, whi = F(1, 2 ** depth), 1 - F(1, 2 ** depth)
    if (window.breaks[0], window.breaks[-1]) != (wlo, whi):
        problems.append(f"window is {window.breaks[0]}..{window.breaks[-1]}, expected {wlo}..{whi}")
    for x in oracle.sample(rng, 12, wlo, whi):
        if window.value_at(x) != dim(x):
            problems.append(f"dimension function at {x} is {window.value_at(x)}, brute force {dim(x)}")
            break
    # D1 and D2 are exact decisions: a pass must hold at samples, a fail at its witness.
    if conditions.d1.status == "pass":
        bad = [x for x in oracle.sample(rng, 6, wlo, whi) if dim(x).denominator != 1 or dim(x) < 0]
        if bad:
            problems.append(f"D1 passed, but the value at {bad[0]} is {dim(bad[0])}")
    elif conditions.d1.status == "fail":
        v = dim(_inside(conditions.d1.witness))
        if v.denominator == 1 and v >= 0:
            problems.append(f"D1 failed at {conditions.d1.witness}, where the value is {v}")
    d2lo, d2hi = F(1, 2 ** depth), F(1, 2) - F(1, 2 ** depth)
    d2_points = ([_inside(conditions.d2.witness)] if conditions.d2.status == "fail"
                 else oracle.sample(rng, 4, d2lo, d2hi))
    for x in d2_points:
        holds = dim(x) + dim(x + F(1, 2)) == dim(2 * x) + 1
        if holds != (conditions.d2.status == "pass"):
            problems.append(f"D2 {conditions.d2.status} contradicted at {x}")
            break
    for name, outcome in (("D3", conditions.d3), ("D4", conditions.d4)):
        if outcome.status not in ("fail", "no_violation"):
            problems.append(f"{name} status {outcome.status!r}")
    if mra.status == "is_mra":
        bad = [x for x in oracle.sample(rng, 6, wlo, whi) if dim(x) != 1]
        if bad:
            problems.append(f"declared MRA, but the dimension function at {bad[0]} is {dim(bad[0])}")
    elif mra.status == "not_mra":
        if dim(_inside(mra.witness)) == 1:
            problems.append(f"declared not MRA at {mra.witness}, where the dimension function is 1")
    else:
        problems.append(f"MRA status {mra.status!r}")
    problems += _check_calderon(h, cal, rng)
    problems += _check_ortho(psi, h, ortho, rng)
    problems += _check_known(op, window, mra, cal, ortho, valid)
    return problems


def _check_calderon(h, cal, rng) -> list[str]:
    if cal.diverges:
        return [] if any(lo <= 0 <= hi for lo, hi, _ in h) else ["Calderon sum declared divergent"]
    points = [(iv, _inside(iv)) for iv, _ in cal.atoms]
    points += [(None, x) for x in oracle.sample(rng, 4, F(1), F(2)) + oracle.sample(rng, 4, F(-2), F(-1))]
    values = {iv: v for iv, v in cal.atoms}
    for iv, x in points:
        want = oracle.calderon_sum_at(h, x)
        got = values[iv] if iv is not None else next(v for a, v in cal.atoms if a.lo <= x < a.hi)
        if got != want:
            return [f"Calderon sum at {x} is {got}, brute force {want}"]
    return []


def _check_ortho(psi, h, ortho, rng) -> list[str]:
    reach = max(max(abs(lo), abs(hi)) for lo, hi, _ in psi)
    m_max = max(2, int(4 * reach).bit_length() + 2)
    failed = dict(ortho.tq_failures)
    for alpha in ortho.alphas_checked:
        if alpha in failed:
            if oracle.tq_sum_at(psi, alpha, _inside(failed[alpha]), m_max) == 0:
                return [f"shift {alpha} declared non-orthogonal at {failed[alpha]}, where the sum is 0"]
        else:
            for x in oracle.sample(rng, 3, -reach - 1, reach + 1):
                if oracle.tq_sum_at(psi, alpha, x, m_max) != 0:
                    return [f"shift {alpha} declared orthogonal, but the sum at {x} is nonzero"]
    norm_sq = sum(((hi - lo) * v for lo, hi, v in h), F(0))
    if ortho.norm_sq != norm_sq:
        return [f"squared norm {ortho.norm_sq}, expected {norm_sq}"]
    expected = (not ortho.calderon.diverges and ortho.calderon.is_one
                and not ortho.tq_failures and norm_sq == 1)
    if ortho.passed != expected:
        return [f"orthonormality verdict {ortho.passed} disagrees with its own parts"]
    return []


def _check_known(op: Op, window, mra, cal, ortho, valid) -> list[str]:
    """Facts known from the mathematics, independent of any computation."""
    problems = []
    if op.kind == "psib":
        b = op.args["b"]
        if b == F(1, 2) and not ortho.passed:
            problems.append("psi_1/2 (Shannon) is not certified orthonormal")
        for b0, c in ((F(1, 4), 2), (F(1, 8), 3)):
            if b == b0 and not (cal.min_value == cal.max_value == c):
                problems.append(f"Calderon sum of psi_{b0} is not constantly {c}")
    if op.kind == "mra":
        if mra.status != "is_mra" or not window.is_constant(1):
            problems.append("2S \\ S for an exact scaling set is not MRA with dimension function 1")
        if valid is None or not valid.passed:
            problems.append("indicator of an exact scaling set rejected as a scaling spectrum")
        if not ortho.passed:
            problems.append("wavelet set of an exact scaling set is not orthonormal")
    if op.kind == "journe":
        if mra.status != "not_mra" or not ortho.passed:
            problems.append("Journe-type set must be an orthonormal non-MRA wavelet")
        if op.args["q"] == 1 and 2 not in window.values:
            problems.append("Journe's dimension function never takes the value 2")
    return problems
