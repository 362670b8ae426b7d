"""The transversal, the overlap sets R_j of the truncated construction and the
(F1) ratio test, each on the shared fold kernels, against its first form as a
grid scan (``oracles``): the same kept pairs and grid, the same r4 refusal
text and witness, the same levels and the same clash cell.
"""

import random
from fractions import Fraction

from oracles import atom_transversal, change_point_ratio_clash, clipped_translate_levels
from waveset.construct import _grid_levels
from waveset.errors import PreconditionError
from waveset.intervals import EMPTY, iset, normalize
from waveset.spectral import _ratio_clash
from waveset.torus import (HALF, _from_grid, _pairs_on_grid, check_S3, extract_transversal,
                           uncovered_witness)

F = Fraction
DENS = (1, 2, 3, 4, 6, 8, 12)


def _sprime(rng):
    """Up to four random parts at most 1 long, half the time with a tile of up to four cells
    each moved by an integer, or the empty set: about one in four misses a residue."""
    if rng.random() < 0.07:
        return EMPTY
    den = rng.choice(DENS)
    pairs = []
    for _ in range(rng.randint(1, 4)):
        a = F(rng.randint(-4 * den, 4 * den), den)
        pairs.append((a, a + F(rng.randint(1, den), den)))
    if rng.random() < 0.5:
        cuts = sorted({F(0), F(1)} | {F(rng.randint(1, den), den + 1) for _ in range(rng.randint(0, 3))})
        pairs += [(a + k, b + k) for a, b in zip(cuts, cuts[1:]) for k in [rng.randint(-3, 3)]]
    return normalize(pairs)


def _transversal_outcome(s, prefer_window):
    try:
        k = extract_transversal(s, prefer_window=prefer_window)
    except PreconditionError as err:
        return "r4", str(err), err.condition, err.witness
    return "kept", k._grid


def test_transversal_matches_the_atom_scan_seeded():
    rng = random.Random(24)
    counts = {"kept": 0, "r4": 0, "empty": 0}
    for _ in range(30000):
        s = _sprime(rng)
        for prefer_window in (False, True):
            d, pairs = _pairs_on_grid(s, *((HALF,) if prefer_window else ()))
            kept = atom_transversal(d, pairs, prefer_window)
            if kept is None:
                witness = uncovered_witness(s)
                expected = ("r4", f"translates do not cover the line; residues {witness} are "
                            "missed", "r4", witness)
            else:
                expected = "kept", _from_grid(kept, d)._grid
            assert _transversal_outcome(s, prefer_window) == expected, (s, prefer_window)
            counts["empty" if s.is_empty else expected[0]] += 1
    assert min(counts.values()) > 3000, counts


def _kernel(rng):
    """A tile of [0, 1): its cells, cut on 1/den, each moved by an integer."""
    den = rng.choice(DENS[1:] + (5, 7, 16))
    cuts = sorted({F(0), F(1)} | {F(rng.randint(1, den - 1), den) for _ in range(rng.randint(0, 4))})
    spread = rng.choice((1, 3, 6))
    return normalize((a + k, b + k) for a, b in zip(cuts, cuts[1:])
                     for k in [rng.randint(-spread, spread)])


def test_overlap_sets_match_the_clipped_translates_seeded():
    rng = random.Random(1024)
    cases = [(extract_transversal(iset((-1000, "1/4")), prefer_window=True), n, j)
             for n, j in ((0, 0), (0, 5), (5, 0), (3, 4), (6, 6))]
    cases += [(_kernel(rng), rng.randint(0, 6), rng.randint(0, 6)) for _ in range(3000)]
    assert sum(n == 0 for _, n, _ in cases) > 300 and sum(j == 0 for _, _, j in cases) > 300
    for k, depth_n, depth_j in cases:
        d, pairs = _pairs_on_grid(k)
        assert _grid_levels(k, depth_n, depth_j) == clipped_translate_levels(d, pairs, depth_n,
                                                                             depth_j), k


def _far_kernel(rng):
    """A tile of [0, 1) cut on 1/den, one cell moved 40 to 10^4 units and the rest at
    most that far, or mirrored."""
    den = rng.choice((2, 3, 5, 8, 12))
    cuts = sorted({F(0), F(1)} | {F(rng.randint(1, den - 1), den) for _ in range(rng.randint(1, 4))})
    spread = rng.choice((40, 100, 1000, 10**4))
    shifts = [rng.randint(-spread, spread) for _ in cuts[1:]]
    shifts[rng.randrange(len(shifts))] = spread
    k = normalize((a + t, b + t) for a, b, t in zip(cuts, cuts[1:], shifts))
    return k.scale(-1) if rng.random() < 0.5 else k


def _tight_kernel(rng):
    """A tile of [0, 1) cut at thirds, at 1/2 and on 1/den, whose reach is r = 2^m / 3 (so
    3 r = 2^(n + 1) at n = m - 1) or 2^m / 3 + 1/den: one cell moved to end there and, most
    of the time, one moved to begin at -2^m / 3 or 1/den below, or mirrored."""
    m = rng.randint(2, 12)
    q, third = divmod(1 << m, 3)  # 2^m / 3 = q + third/3
    den = 3 * rng.choice((4, 5, 8))
    top = F(third, 3) + rng.choice((0, F(1, den)))
    bottom = 1 - F(third, 3) - rng.choice((0, F(1, den))) if rng.random() < 0.75 else None
    cuts = sorted({F(0), F(1, 3), F(1, 2), F(2, 3), F(1), top, bottom or F(0)}
                  | {F(rng.randint(1, den - 1), den) for _ in range(rng.randint(0, 3))})
    shifts = [q if b == top else -q - 1 if a == bottom else rng.randint(1 - q, q - 1)
              for a, b in zip(cuts, cuts[1:])]
    k = normalize((a + t, b + t) for a, b, t in zip(cuts, cuts[1:], shifts))
    return k.scale(-1) if rng.random() < 0.5 else k


def _cut(k, depth_n):
    """The least n <= depth_n + 1 with 3 r <= 2^(n + 1), r the reach of K, by Fractions."""
    r = max(-k.parts[0].lo, k.parts[-1].hi)
    return next(n for n in range(depth_n + 2) if n == depth_n + 1 or 3 * r <= 2 ** (n + 1))


def test_overlap_sets_match_the_clipped_translates_at_and_past_the_cut_seeded():
    # Far kernels (reach 40 to 10^4, so the cut is 6 to 14) and tight ones (3 r a power of
    # 2) at depths up to 24: every level equals the clipped translates, every level from the
    # cut on is K_n itself, and the level just above the cut is really cut in many of them,
    # so a cut one level shallower would be caught.
    rng = random.Random(2029)
    cases = [(iset((0, "1/3"), ("2/3", 1), ("7/3", "8/3")), n, j) for n in (1, 2, 3) for j in (1, 4)]
    cases += [(_far_kernel(rng), rng.randint(0, 24), rng.randint(0, 8)) for _ in range(300)]
    cases += [(_tight_kernel(rng), rng.randint(0, 14), rng.randint(1, 8)) for _ in range(500)]
    above_cut_taken = past_cut = 0
    for k, depth_n, depth_j in cases:
        assert check_S3(k), k
        d, pairs = _pairs_on_grid(k)
        scale, levels = _grid_levels(k, depth_n, depth_j)
        assert (scale, levels) == clipped_translate_levels(d, pairs, depth_n, depth_j), k
        t, cut = depth_n + depth_j, _cut(k, depth_n)
        kernel = [(a << t, b << t) for a, b in pairs]
        assert all(levels[n] == [(a >> n, b >> n) for a, b in kernel]
                   for n in range(cut, depth_n + 1)), k
        past_cut += cut <= depth_n
        if 0 < cut <= depth_n + 1 and depth_j:
            above_cut_taken += levels[cut - 1] != [(a >> (cut - 1), b >> (cut - 1)) for a, b in kernel]
    assert past_cut > 400 and above_cut_taken > 400, (past_cut, above_cut_taken)


def _grid(rng):
    """(d, pieces): a random nonnegative step function on 1/d with even ends in [-3d, 3d)."""
    d = 2 * rng.choice((1, 2, 3, 4, 6))
    cuts = sorted(rng.sample(range(-3 * d // 2, 3 * d // 2), rng.randint(2, min(8, 3 * d))))
    pieces = [(2 * a, 2 * b, rng.randint(0, 4)) for a, b in zip(cuts, cuts[1:])]
    return d, [p for p in pieces if p[2]]


def test_ratio_clash_matches_the_change_point_sweep_seeded():
    rng = random.Random(40000)
    clashes = 0
    for _ in range(40000):
        d, pieces = _grid(rng)
        expected = change_point_ratio_clash(d, pieces)
        assert _ratio_clash(d, pieces) == expected, (d, pieces)
        clashes += expected is not None
    assert 1000 < clashes < 39000, clashes

