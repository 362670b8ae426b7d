"""The benchmark's own tests: every workload runs clean at a tiny size, and
every checker rejects a deliberately wrong answer.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import spans
import wl_cli
import wl_construct
import wl_planar
import wl_spectra
from waveset.intervals import iset

WORKLOADS = [wl_construct, wl_spectra, wl_planar, wl_cli]
BENCH = Path(__file__).resolve().parents[1]


def _results(module, ops):
    out = []
    for op in ops:
        try:
            out.append(module.run(op))
        except Exception as exc:  # the worker counts this as a failed operation
            out.append(exc)
    return out


@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_tiny_workload_runs_clean(module):
    ops = module.make_ops(7, "tiny")
    assert ops
    for op, result in zip(ops, _results(module, ops)):
        if op.known_fault:
            assert isinstance(result, Exception) or module.check(op, result), op.kind
            continue
        assert not isinstance(result, Exception), f"{op.kind}: {result!r}"
        assert module.check(op, result, random.Random(1)) == [], op.kind


def test_cli_known_faults_are_the_three_malformed_documents():
    ops = wl_cli.make_ops(7, "tiny")
    assert sorted(op.kind for op in ops if op.known_fault) == sorted(
        f"plot malformed {name}" for name in wl_cli.MALFORMED
    )


def test_inputs_depend_only_on_the_seed():
    for module in (wl_construct, wl_spectra, wl_planar):
        a, b, c = module.make_ops(3, "tiny"), module.make_ops(3, "tiny"), module.make_ops(4, "tiny")
        assert [op.args for op in a] == [op.args for op in b]
        assert [op.args for op in a] != [op.args for op in c]


# ----------------------------------------------------- checkers catch errors


def _first(module, kind):
    op = next(op for op in module.make_ops(7, "tiny") if op.kind == kind)
    return op, module.run(op)


def test_construct_check_flags_extra_part_in_w():
    op, (res, verdict) = _first(wl_construct, "truncated")
    extra = res.w.union(iset((5, "21/4")))
    wrong = dataclasses.replace(res, w=extra)
    assert wl_construct.check(op, (wrong, verdict))


def test_construct_check_flags_wrong_verdict():
    op, (res, verdict) = _first(wl_construct, "fast")
    assert verdict.passed
    wrong = dataclasses.replace(verdict, passed=False, reason="translation gap",
                                witness=res.w.parts[0])
    assert wl_construct.check(op, (res, wrong))


def test_construct_check_flags_s_outside_support():
    op, (res, verdict) = _first(wl_construct, "truncated")
    s = res.s.union(iset((5, "21/4")))
    wrong = dataclasses.replace(res, s=s, w=s.scale(2).subtract(s))
    assert wl_construct.check(op, (wrong, verdict))


def test_construct_check_flags_understated_defect():
    op, (res, verdict) = _first(wl_construct, "fast")
    s = res.s.subtract(iset((0, "1/8")))  # an "exact" set that misses mass
    wrong = dataclasses.replace(res, s=s, w=s.scale(2).subtract(s))
    assert wrong.defects.coverage_defect == 0
    assert wl_construct.check(op, (wrong, verdict))


def test_planar_check_flags_count_off_by_one():
    op, (exists, c1, c2, quad) = _first(wl_planar, "double")
    assert wl_planar.check(op, (exists, c1, c2 + 1, quad))
    assert wl_planar.check(op, (exists, c1 - 1, c2, quad))


def test_planar_check_flags_wrong_verdict():
    op, (exists, c1, c2, quad) = _first(wl_planar, "saddle")
    assert exists.verdict == "not_exists"
    flipped = dataclasses.replace(exists, verdict="exists", witness=None)
    assert wl_planar.check(op, (flipped, c1, c2, quad))
    off_line = dataclasses.replace(exists, witness=(1, 1))
    assert wl_planar.check(op, (off_line, c1, c2, quad))


def test_spectra_check_flags_wrong_answers():
    op, result = _first(wl_spectra, "mra")
    window, conditions, mra, cal, ortho, valid = result
    assert mra.status == "is_mra"
    wrong_mra = dataclasses.replace(mra, status="not_mra", witness=window.where_not(2).parts[0])
    assert wl_spectra.check(op, (window, conditions, wrong_mra, cal, ortho, valid))
    bumped = dataclasses.replace(window, values=tuple(v + 1 for v in window.values))
    assert wl_spectra.check(op, (bumped, conditions, mra, cal, ortho, valid))
    wrong_cal = dataclasses.replace(cal, atoms=tuple((iv, v + 1) for iv, v in cal.atoms))
    assert wl_spectra.check(op, (window, conditions, mra, wrong_cal, ortho, valid))


def test_spectra_check_flags_wrong_orthogonality():
    op, result = _first(wl_spectra, "psib")
    window, conditions, mra, cal, ortho, valid = result
    assert ortho.passed and op.args["b"] == F(1, 2)
    wrong = dataclasses.replace(ortho, tq_failures=((1, window.where_not(2).parts[0]),), passed=False)
    assert wl_spectra.check(op, (window, conditions, mra, cal, wrong, valid))


def test_cli_check_flags_wrong_reports():
    op, (code, out) = _first(wl_cli, "verify wavelet-set")
    assert wl_cli.check(op, (code, out)) == []
    assert wl_cli.check(op, (1, out))                       # exit code off
    assert wl_cli.check(op, (code, out + out))              # two documents
    report = json.loads(out)
    report["status"] = "fail"
    assert wl_cli.check(op, (1, json.dumps(report)))        # wrong verdict


# ------------------------------------------------------------------ tracing


def _traced_counts(module, ops):
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.begin_op(i, op.size)
            try:
                module.run(op)
            except Exception:
                pass
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.metrics().items() if k.endswith((".calls", ".fragments"))}


@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_traced_counts_repeat_and_wrappers_come_off(module):
    import waveset.construct
    import waveset.torus

    ops = module.make_ops(7, "tiny")
    first = _traced_counts(module, ops)
    assert first == _traced_counts(module, ops)
    assert any(first.values())
    assert waveset.construct.extract_transversal is waveset.torus.extract_transversal
    assert not hasattr(waveset.torus.extract_transversal, "__wrapped__")


def test_tracer_reaches_names_imported_by_other_modules():
    import waveset.construct
    import waveset.torus

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(waveset.construct.extract_transversal, "__wrapped__")
        assert waveset.construct.extract_transversal is waveset.torus.extract_transversal
    finally:
        tracer.uninstall()


# ------------------------------------------------------------- entry point


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "planar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_spec():
    import spec

    on_disk = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
