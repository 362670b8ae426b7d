"""One verdict shape: each CLI report says what the library's own result says.

Every decider's result carries ``status`` and ``witnesses`` (``waveset.errors.Verdict``),
and the CLI prints exactly those.  Here each command of the golden reports, and seeded
inputs for all 13 README commands, run through ``waveset.cli.run``; the decider is then
called directly, by a dispatch written here, and its status and witness reasons must equal
the report's.  Each result is also held to a rule read off its own fields (the rules
``bench/wl_cli.py`` uses), and each failure that a field shows must have its own witness,
so a result that drops one fails here.

The small-world test decides every candidate of a complete enumeration
(``oracles.small_world_sets``) by two independent routes: the tiling decision
``verify_wavelet_set`` and the orthonormality of the indicator's spectrum.  Its wavelet
sets W are then tied to scaling sets: S_W, the union of the 2^-j W over j >= 1, passes
S1-S3 exactly when W is MRA.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import dilation_union, small_world_sets
from test_golden_reports import COMMANDS as GOLDEN_COMMANDS
from test_golden_reports import INPUTS, run_command, write_inputs
from waveset import construct, figures, msf2d, serialize, spectral
from waveset.errors import InputError, Verdict
from waveset.intervals import iset
from waveset.spectral import StepFn
from waveset.torus import check_S3

F = Fraction


def _option(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _load(directory: Path, name: str):
    if name == "id":
        return msf2d.Mat2.identity()
    return serialize.load_typed(json.loads((directory / name).read_text()))


def decide(directory: Path, argv: list[str]) -> Verdict:
    """The library's result for one command, called directly; an input error is its result."""
    try:
        return _decide(directory, [a for a in argv if a != "--"])
    except InputError as exc:
        return exc


def _decide(directory: Path, argv: list[str]) -> Verdict:
    cmd, load = argv[0], lambda name: _load(directory, name)
    depth_n = int(_option(argv, "--depth-n", construct.DEFAULT_DEPTH_N))
    depth_j = int(_option(argv, "--depth-j", construct.DEFAULT_DEPTH_J))
    if cmd == "verify":
        decider = {"wavelet-set": construct.verify_wavelet_set,
                   "scaling-set": construct.verify_scaling_set,
                   "spectrum": spectral.validate_scaling_spectrum}[argv[1]]
        return decider(load(argv[2]))
    if argv[:2] == ["construct", "scaling-set"]:
        return construct.lemma_r3_construct(load(argv[2]), depth_n, depth_j)
    if argv[:2] == ["construct", "rze"]:
        return construct.rze_pipeline(load(_option(argv, "--spectrum")), depth_n, depth_j)
    if cmd == "dimfun":
        return spectral.dimension_report(load(argv[1]), int(_option(argv, "--depth", 20)))
    if cmd == "calderon":
        return spectral.calderon(load(argv[1]))
    if cmd == "tq":
        return spectral.tq_check(load(argv[1]), int(_option(argv, "--alpha")))
    if cmd == "orthonormal":
        return spectral.orthonormality_check(load(argv[1]))
    if cmd == "psib":
        return spectral.psi_b_report(_option(argv, "--b"))
    if cmd in ("msf2d", "lce"):
        a, p = load(_option(argv, "--matrix")), load(_option(argv, "--lattice"))
        if cmd == "msf2d":
            return msf2d.wavelet_set_exists(a, p)
        return msf2d.lce_report(a, p, int(_option(argv, "--jmin")), int(_option(argv, "--jmax")),
                                _option(argv, "--c"))
    if cmd == "plot":
        out = directory / f"oracle_{_option(argv, '--out')}"
        figures.emit_figure(load(argv[1]), _option(argv, "--format"), str(out))
        return Verdict()
    raise AssertionError(f"no decider for {argv}")


def own_rule(result: Verdict) -> list[str]:
    """What the result's own fields say its status and witness count must be."""
    if isinstance(result, InputError):
        expected, failures = "error", 1
    elif isinstance(result, construct.WaveletSetVerdict | spectral.SpectrumVerdict):
        expected, failures = ("pass", 0) if result.passed else ("fail", 1)
    elif isinstance(result, construct.ScalingSetVerdict):
        failures = [result.S1, result.S2, result.S3].count(False)
        expected = "fail" if failures else "pass"
    elif isinstance(result, construct.RzeResult):
        expected, failures = ("pass", 0) if result.contained else ("inconclusive", 1)
    elif isinstance(result, spectral.DimensionReport):
        c = result.conditions
        failures = [o.status for o in (c.d1, c.d2, c.d3, c.d4)].count("fail")
        expected = "fail" if failures else "pass"
    elif isinstance(result, spectral.CalderonResult):
        expected, failures = ("pass", 0) if result.is_one else ("fail", 1)
    elif isinstance(result, spectral.TqResult):
        expected, failures = ("pass", 0) if result.zero else ("fail", 1)
    elif isinstance(result, spectral.OrthonormalityReport):
        failures = ((not result.calderon.is_one) + len(result.tq_failures)
                    + (result.norm_sq != 1))
        expected = "pass" if result.passed else "fail"
    elif isinstance(result, msf2d.ExistenceResult):
        expected = {"exists": "pass", "not_exists": "fail", "unsupported": "error"}[result.verdict]
        failures = expected != "pass"
    elif isinstance(result, msf2d.LceReport):
        expected, failures = ("pass", 0) if result.all_bounded else ("fail", 1)
    else:  # a construction, the band-pair diagnostics and a figure always answer yes
        expected, failures = "pass", 0
    problems = []
    if result.status != expected:
        problems.append(f"status {result.status!r}, its fields say {expected!r}")
    if len(result.witnesses) != failures:
        problems.append(f"{len(result.witnesses)} witnesses for {failures} failures")
    return problems


def assert_report_is_verdict(directory: Path, argv: list[str]) -> None:
    report = json.loads(run_command(directory, argv)["stdout"])
    result = decide(directory, argv)
    assert report["status"] == result.status, argv
    assert [w["reason"] for w in report["witnesses"]] == [r for r, _ in result.witnesses], argv
    assert own_rule(result) == [], argv


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=[" ".join(c) for c in GOLDEN_COMMANDS])
def test_golden_report_is_the_library_verdict(tmp_path, argv):
    write_inputs(tmp_path, INPUTS)
    assert_report_is_verdict(tmp_path, argv)


# ----------------------------------------------------------------- seeded inputs


def _pairs(rng: random.Random, n: int, den: int, reach: int) -> list[list[str]]:
    ends = sorted(rng.sample(range(-reach * den, reach * den + 1), 2 * n))
    return [[f"{a}/{den}", f"{b}/{den}"] for a, b in zip(ends[::2], ends[1::2])]


def seeded_inputs(rng: random.Random) -> dict:
    s = rng.choice([_pairs(rng, rng.randint(1, 3), rng.choice([4, 6, 8]), 2),
                    [["-1", "-1/2"], ["1/2", "1"]], [["-1/2", "1/2"]]])
    sprime = rng.choice([[["-5/8", "5/8"]], [["-2", "3/8"], ["5/8", "11/16"]], s])
    values = ["1/2", "1", "1", "2", "-1"]
    h = [[lo, hi, rng.choice(values[:4])] for lo, hi in _pairs(rng, rng.randint(1, 4), 8, 2)]
    psi = [[lo, hi, rng.choice(values)] for lo, hi in _pairs(rng, rng.randint(1, 3), 4, 2)
           if not F(lo) <= 0 <= F(hi)]
    g = rng.choice([[["-1/2", "1/2", "1"]],
                    [["-5/8", "-3/8", "1/2"], ["-3/8", "3/8", "1"], ["3/8", "5/8", "1/2"]], h])
    entries = [[rng.choice(["-2", "-1", "0", "1/2", "1", "3"]) for _ in range(2)] for _ in range(2)]
    return {
        "s.json": {"type": "interval_set", "intervals": s},
        "sprime.json": {"type": "interval_set", "intervals": sprime},
        "h.json": {"type": "step_fn", "pieces": [{"interval": [lo, hi], "value": v}
                                                 for lo, hi, v in h]},
        "psi.json": {"type": "step_fn", "pieces": [{"interval": [lo, hi], "value": v}
                                                   for lo, hi, v in psi]},
        "g.json": {"type": "step_fn", "pieces": [{"interval": [lo, hi], "value": v}
                                                 for lo, hi, v in g]},
        "a.json": {"type": "mat2", "entries": entries},
    }


def seeded_commands(rng: random.Random) -> list[list[str]]:
    depth = str(rng.randint(2, 6))
    return [
        ["verify", "wavelet-set", "s.json"],
        ["verify", "scaling-set", "s.json"],
        ["verify", "spectrum", "g.json"],
        ["construct", "scaling-set", "sprime.json", "--depth-n", depth, "--depth-j", depth],
        ["construct", "rze", "--spectrum", "g.json", "--depth-n", depth, "--depth-j", depth],
        ["dimfun", "h.json", "--depth", depth],
        ["calderon", "h.json"],
        ["tq", "psi.json", "--alpha", str(rng.choice([-3, -1, 1, 3]))],
        ["orthonormal", "psi.json"],
        ["psib", "--b", f"{rng.randint(0, 7)}/8"],
        ["msf2d", "--matrix", "a.json", "--lattice", "id"],
        ["lce", "--matrix", "a.json", "--lattice", "id", "--jmin", "0", "--jmax", "3",
         "--c", str(rng.randint(1, 6))],
        ["plot", "h.json", "--format", rng.choice(["csv", "svg"]), "--out", "h.out"],
        ["dimfun", "h.json", "--depth", str(rng.choice([-1, 0, 1]))],
    ]


@pytest.mark.parametrize("seed", range(12))
def test_seeded_reports_are_the_library_verdict(tmp_path, seed):
    rng = random.Random(seed)
    write_inputs(tmp_path, seeded_inputs(rng))
    commands = seeded_commands(rng)
    assert len({(c[0], c[1]) if c[0] in ("verify", "construct") else c[0] for c in commands}) == 13
    for argv in commands:
        assert_report_is_verdict(tmp_path, argv)


def test_scaling_set_verdict_is_the_conjunction_of_its_checks():
    rng = random.Random(2026)
    for _ in range(400):
        den = rng.choice([2, 4, 6, 8])
        s = iset(*[(F(a), F(b)) for a, b in _pairs(rng, rng.randint(1, 4), den, 2)])
        verdict = construct.verify_scaling_set(s)
        both = construct.check_S1(s) and construct.check_S2(s) and check_S3(s)
        assert (verdict.status == "pass") == both, s
        assert own_rule(verdict) == [], s


# ------------------------------------------------------------- a small world


def test_small_world_wavelet_sets_by_two_routes():
    """Every set of at most 3 intervals with ends in (1/6)Z in [-2, 2], of measure 1 and
    away from 0: the tiling decision equals the orthonormality of 1_W, the verdict is
    unchanged by x -> -x, and exactly q - 1 = 5 of them are two-interval wavelet sets."""
    candidates = small_world_sets(6, 2, 3)
    assert len(candidates) == 6501
    two_interval = 0
    for parts in candidates:
        w = iset(*parts)
        tiles = construct.verify_wavelet_set(w).passed
        assert tiles == spectral.orthonormality_check(StepFn.indicator(w)).passed, parts
        assert construct.verify_wavelet_set(w.scale(-1)).passed == tiles, parts
        two_interval += tiles and len(parts) == 2
    assert two_interval == 5


def test_small_world_wavelet_sets_are_mra_by_their_dimension_function():
    """The 5 wavelet sets of the small world are two-interval sets: D1 and D2 pass at depth 8,
    no condition fails, and the dimension function is identically 1 (Bownik, Rzeszotnik and
    Speegle's conditions, and the MRA verdict)."""
    wavelet_sets = [iset(*parts) for parts in small_world_sets(6, 2, 3)
                    if construct.verify_wavelet_set(iset(*parts)).passed]
    assert len(wavelet_sets) == 5
    for w in wavelet_sets:
        rep = spectral.dimension_report(StepFn.indicator(w), 8)
        c = rep.conditions
        assert c.d1.status == c.d2.status == "pass", w
        assert "fail" not in [o.status for o in (c.d1, c.d2, c.d3, c.d4)], w
        assert rep.mra.status == "is_mra", w


def test_small_world_wavelet_sets_give_scaling_sets_exactly_when_mra():
    """For each wavelet set W of the small world, and Journe's set, S_W = the union of 2^-j W
    over j >= 1 (``oracles.dilation_union``) has 2 S_W minus S_W = W; S_W passes S1-S3 exactly
    when W is MRA, and then rze on 1_(S_W) gives W back with status pass; and x -> -x keeps
    the MRA verdict."""
    wavelet_sets = [parts for parts in small_world_sets(6, 2, 3)
                    if construct.verify_wavelet_set(iset(*parts)).passed]
    journe = [(F(-16, 7), F(-2)), (F(-1, 2), F(-2, 7)), (F(2, 7), F(1, 2)), (F(2), F(16, 7))]
    verdicts = []
    for parts in wavelet_sets + [journe]:
        w, s = iset(*parts), dilation_union(parts)
        assert s.scale(2) - s == w, parts
        mra = spectral.mra_check(StepFn.indicator(w), 8).status
        assert spectral.mra_check(StepFn.indicator(w.scale(-1)), 8).status == mra, parts
        assert (construct.verify_scaling_set(s).status == "pass") == (mra == "is_mra"), parts
        if mra == "is_mra":
            rze = construct.rze_pipeline(StepFn.indicator(s))
            assert rze.w == w and rze.status == "pass", parts
        verdicts.append(mra)
    assert verdicts == ["is_mra"] * 5 + ["not_mra"]
