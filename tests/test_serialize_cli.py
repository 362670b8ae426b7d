"""JSON round-trips, CLI exit codes, report determinism, figure emission."""

import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from waveset import cli, spectral
from waveset.errors import InputError
from waveset.figures import render_csv, render_svg
from waveset.intervals import iset, normalize
from waveset.msf2d import Mat2, QuadScalar
from waveset.serialize import (
    format_rational,
    interval_set_from_json,
    interval_set_to_json,
    mat2_from_json,
    mat2_to_json,
    parse_rational,
    step_fn_from_json,
    step_fn_to_json,
)
from waveset.spectral import StepFn, dimension_function
from waveset.serialize import dim_fn_window_from_json, dim_fn_window_to_json

from test_fuzz_cli import argvs as fuzz_argvs

F = Fraction
SRC = str(Path(cli.__file__).resolve().parents[1])  # the directory holding the waveset package

SHANNON_PSI = StepFn.build([((-1, F(-1, 2)), 1), ((F(1, 2), 1), 1)])

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)


@st.composite
def interval_sets(draw):
    pairs = draw(st.lists(st.tuples(rationals, rationals), max_size=5))
    return normalize((min(a, b), max(a, b)) for a, b in pairs)


@st.composite
def step_fns(draw):
    s = draw(interval_sets())
    values = draw(st.lists(rationals, min_size=len(s.parts), max_size=len(s.parts)))
    return StepFn.build(zip(s.parts, values))


def test_rational_formatting():
    assert format_rational(F(-16, 7)) == "-16/7"
    assert format_rational(F(3)) == "3"
    assert parse_rational("-16/7") == F(-16, 7)
    assert parse_rational(4) == F(4)


def test_rational_parse_errors():
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational(0.25)
    for value in (True, False, 0.25, None, [1], {"a": 1}):
        with pytest.raises(InputError) as err:
            parse_rational(value)
        assert str(err.value) == f"rationals must be strings or integers, got {value!r}"


@given(interval_sets())
def test_interval_set_round_trip(s):
    assert interval_set_from_json(json.loads(json.dumps(interval_set_to_json(s)))) == s


@given(step_fns())
def test_step_fn_round_trip(f):
    assert step_fn_from_json(json.loads(json.dumps(step_fn_to_json(f)))) == f


def test_mat2_round_trip():
    m = Mat2.from_rows([[3, QuadScalar(0, 1, 2)], [0, F(1, 2)]])
    again = mat2_from_json(json.loads(json.dumps(mat2_to_json(m))))
    assert again == m


def test_dim_window_round_trip():
    dim = dimension_function(StepFn.indicator(iset(("1/2", 1), (-1, "-1/2"))), 8)
    doc = dim_fn_window_to_json(dim)
    again = dim_fn_window_from_json(json.loads(json.dumps(doc)))
    assert again.breaks == dim.breaks and again.values == dim.values


# -------------------------------------------------------------- figures


def test_csv_interval_set():
    s = iset((-1, "-1/2"), ("1/2", 1))
    assert render_csv(s) == "lo,hi\n-1,-1/2\n1/2,1\n"


def test_csv_empty_set_header_only():
    assert render_csv(iset()) == "lo,hi\n"


def test_csv_dim_window_rows():
    dim = dimension_function(StepFn.indicator(iset(("1/2", 1), (-1, "-1/2"))), 6)
    out = render_csv(dim)
    assert out.startswith("break,value\n1/64,")


def test_svg_deterministic_and_wellformed():
    s = iset((-1, "-1/2"), ("1/2", 1))
    a, b = render_svg(s), render_svg(s)
    assert a == b and a.startswith("<svg") and a.rstrip().endswith("</svg>")
    f = StepFn.build([((0, 1), F(1, 2)), ((1, 2), 1)])
    assert render_svg(f) == render_svg(f)


# ------------------------------------------------------------------ CLI


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def journe_file(tmp_path):
    j = iset(("-16/7", -2), ("-1/2", "-2/7"), ("2/7", "1/2"), (2, "16/7"))
    return _write(tmp_path, "journe.json", interval_set_to_json(j))


@pytest.fixture
def shannon_g_file(tmp_path):
    g = StepFn.build([((F(-1, 2), F(1, 2)), 1)])
    return _write(tmp_path, "shannon_g.json", step_fn_to_json(g))


def run_cli(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_cli_verify_wavelet_set_pass(capsys, journe_file):
    code, rep, _ = run_cli(capsys, ["verify", "wavelet-set", journe_file])
    assert code == 0 and rep["status"] == "pass"
    assert rep["data"]["measure"] == "1"


def test_cli_verify_wavelet_set_fail(capsys, tmp_path):
    bad = _write(tmp_path, "bad.json", interval_set_to_json(iset(("-1/2", "1/2"))))
    code, rep, _ = run_cli(capsys, ["verify", "wavelet-set", bad])
    assert code == 1 and rep["status"] == "fail"
    assert rep["witnesses"]


def test_cli_verify_scaling_set(capsys, tmp_path):
    good = _write(tmp_path, "s.json", interval_set_to_json(iset(("-1/2", "1/2"))))
    code, rep, _ = run_cli(capsys, ["verify", "scaling-set", good])
    assert code == 0 and rep["data"] == {"S1": True, "S2": True, "S3": True, "measure": "1"}
    bad = _write(tmp_path, "bad.json", interval_set_to_json(iset((1, 2))))
    code, rep, _ = run_cli(capsys, ["verify", "scaling-set", bad])
    assert code == 1 and rep["data"]["S1"] is False


def test_cli_verify_spectrum(capsys, tmp_path, shannon_g_file):
    code, rep, _ = run_cli(capsys, ["verify", "spectrum", shannon_g_file])
    assert code == 0
    wide = _write(tmp_path, "wide.json", step_fn_to_json(StepFn.build([((-1, 1), 1)])))
    code, rep, _ = run_cli(capsys, ["verify", "spectrum", wide])
    assert code == 1 and rep["data"]["condition"] == "F3"


def test_cli_construct_rze_shannon(capsys, shannon_g_file):
    code, rep, _ = run_cli(capsys, ["construct", "rze", "--spectrum", shannon_g_file])
    assert code == 0 and rep["status"] == "pass"
    assert rep["data"]["contained"] is True
    assert rep["data"]["w"]["intervals"] == [["-1", "-1/2"], ["1/2", "1"]]
    assert rep["defects"]["s1_defect"] == "0"


def test_cli_construct_scaling_set(capsys, tmp_path):
    src = _write(tmp_path, "s.json", interval_set_to_json(iset(("-5/8", "5/8"))))
    code, rep, _ = run_cli(capsys, ["construct", "scaling-set", src, "--depth-n", "12"])
    assert code == 0
    assert rep["data"]["fast_path"] is True
    assert rep["data"]["s"]["intervals"] == [["-1/2", "1/2"]]


def test_cli_msf2d_not_exists(capsys, tmp_path):
    a = _write(tmp_path, "a.json", {"type": "mat2", "entries": [["3", "0"], ["1", "1/2"]]})
    code, rep, _ = run_cli(capsys, ["msf2d", "--matrix", a, "--lattice", "id"])
    assert code == 1 and rep["status"] == "fail"
    assert rep["data"]["witness"] == [0, 1]


def test_cli_msf2d_exists_with_quadratic_entry(capsys, tmp_path):
    a = _write(tmp_path, "a.json", {
        "type": "mat2",
        "entries": [["3", {"a": "0", "b": "1", "d": 2}], ["0", "1/2"]],
    })
    code, rep, _ = run_cli(capsys, ["msf2d", "--matrix", a, "--lattice", "id"])
    assert code == 0 and rep["status"] == "pass"


def test_cli_lce(capsys, tmp_path):
    a = _write(tmp_path, "a.json", {"type": "mat2", "entries": [["2", "0"], ["0", "2"]]})
    code, rep, _ = run_cli(capsys, [
        "lce", "--matrix", a, "--lattice", "id", "--jmin", "0", "--jmax", "4", "--c", "5",
    ])
    assert code == 0
    assert [row["count"] for row in rep["data"]["rows"]] == [5, 13, 49, 197, 797]


def test_cli_lce_over_row_budget_is_input_error(capsys, tmp_path):
    a = _write(tmp_path, "a.json", {"type": "mat2", "entries": [["2", "0"], ["0", "2"]]})
    code, rep, _ = run_cli(capsys, [
        "lce", "--matrix", a, "--lattice", "id", "--jmin", "0", "--jmax", "40", "--c", "5",
    ])
    assert code == 2 and rep["status"] == "error"
    assert "chord rows" in rep["witnesses"][0]["reason"]


def test_cli_closed_stdout_exits_quietly(tmp_path):
    # The reader of stdout is gone before the report is written (`waveset ... | head`).
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    try:
        proc = subprocess.run([sys.executable, "-m", "waveset.cli", "psib", "--b", "1/4"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


def test_cli_psib(capsys):
    code, rep, _ = run_cli(capsys, ["psib", "--b", "1/4"])
    assert code == 0
    assert rep["data"]["calderon"]["min"] == "2"
    assert rep["data"]["orthonormal"] is False


def test_cli_dimfun_journe(capsys, journe_file):
    code, rep, _ = run_cli(capsys, ["dimfun", journe_file, "--depth", "8"])
    # An interval-set file is not a step function: input error.
    assert code == 2
    h_doc = step_fn_to_json(StepFn.indicator(
        interval_set_from_json(json.loads(open(journe_file).read()))
    ))
    import pathlib
    h_file = pathlib.Path(journe_file).with_name("journe_h.json")
    h_file.write_text(json.dumps(h_doc))
    code, rep, _ = run_cli(capsys, ["dimfun", str(h_file), "--depth", "8"])
    assert code == 0
    assert rep["data"]["mra"]["status"] == "not_mra"
    assert rep["data"]["conditions"]["D2"]["status"] == "pass"


def test_cli_tq_and_orthonormal_and_calderon(capsys, tmp_path):
    psi = StepFn.build([((-1, F(-1, 2)), 1), ((F(1, 2), 1), 1)])
    p = _write(tmp_path, "psi.json", step_fn_to_json(psi))
    assert run_cli(capsys, ["tq", p, "--alpha", "1"])[0] == 0
    assert run_cli(capsys, ["orthonormal", p])[0] == 0
    assert run_cli(capsys, ["calderon", p])[0] == 0
    quarter = _write(tmp_path, "q.json", step_fn_to_json(
        StepFn.build([((-1, F(-1, 4)), 1), ((F(1, 4), 1), 1)]).square()
    ))
    code, rep, _ = run_cli(capsys, ["calderon", quarter])
    assert code == 1 and rep["data"]["min"] == "2"


def test_cli_plot(capsys, tmp_path, journe_file):
    out_csv = tmp_path / "j.csv"
    code, rep, _ = run_cli(capsys, ["plot", journe_file, "--format", "csv",
                                    "--out", str(out_csv)])
    assert code == 0 and out_csv.read_text().startswith("lo,hi\n")
    out_svg = tmp_path / "j.svg"
    code, _, _ = run_cli(capsys, ["plot", journe_file, "--format", "svg",
                                  "--out", str(out_svg)])
    assert code == 0 and out_svg.read_text().startswith("<svg")


def test_cli_plot_rejects_matrix(capsys, tmp_path):
    a = _write(tmp_path, "a.json", {"type": "mat2", "entries": [["2", "0"], ["0", "2"]]})
    code, rep, _ = run_cli(capsys, ["plot", a, "--format", "csv", "--out", str(tmp_path / "x")])
    assert code == 2 and rep["status"] == "error"


@pytest.mark.parametrize("tag", [[], {}, [1, 2, 3]])
def test_cli_plot_unhashable_type_tag_is_input_error(capsys, tmp_path, tag):
    doc = _write(tmp_path, "d.json", {"type": tag, "intervals": []})
    code, rep, _ = run_cli(capsys, ["plot", doc, "--format", "csv", "--out", str(tmp_path / "x")])
    assert code == 2 and rep["status"] == "error"
    assert rep["witnesses"][0]["reason"] == f"unsupported document type {tag!r}"


def test_cli_plot_unwritable_out_is_input_error(capsys, tmp_path, journe_file):
    out = str(tmp_path / "no" / "such" / "dir" / "x.svg")
    code, rep, _ = run_cli(capsys, ["plot", journe_file, "--format", "svg", "--out", out])
    assert code == 2 and rep["status"] == "error"
    assert rep["witnesses"][0]["reason"].startswith(f"cannot write {out}")


# argparse's usage lines, at a fixed terminal width of 80.
TOP_USAGE = ("usage: waveset [-h]\n"
             "               {verify,construct,dimfun,calderon,tq,orthonormal,psib,msf2d,lce,plot}\n"
             "               ...\n")
DIMFUN_USAGE = "usage: waveset dimfun [-h] [--depth DEPTH] file\n"
# argv (with F for the input file) -> the report's "command" and its one reason.
PARSE_ERRORS = [
    ([], "waveset", "the following arguments are required: command\n" + TOP_USAGE),
    (["frobnicate"], "waveset",
     "argument command: invalid choice: 'frobnicate' (choose from 'verify', 'construct', "
     "'dimfun', 'calderon', 'tq', 'orthonormal', 'psib', 'msf2d', 'lce', 'plot')\n" + TOP_USAGE),
    (["-x"], "waveset", "the following arguments are required: command\n" + TOP_USAGE),
    (["dimfun"], "dimfun", "the following arguments are required: file\n" + DIMFUN_USAGE),
    (["dimfun", "F", "--bogus"], "dimfun", "unrecognized arguments: --bogus\n" + TOP_USAGE),
    (["dimfun", "F", "--depth", "x"], "dimfun",
     "argument --depth: invalid int value: 'x'\n" + DIMFUN_USAGE),
    (["construct"], "construct", "the following arguments are required: kind\n"
     "usage: waveset construct [-h] {scaling-set,rze} ...\n"),
    (["construct", "rze"], "construct rze", "the following arguments are required: --spectrum\n"
     "usage: waveset construct rze [-h] --spectrum SPECTRUM [--depth-n DEPTH_N]\n"
     "                             [--depth-j DEPTH_J]\n"),
    (["verify", "nope", "F"], "verify",
     "argument kind: invalid choice: 'nope' (choose from 'scaling-set', 'wavelet-set', "
     "'spectrum')\nusage: waveset verify [-h] {scaling-set,wavelet-set,spectrum} file\n"),
    (["tq", "F"], "tq", "the following arguments are required: --alpha\n"
     "usage: waveset tq [-h] --alpha ALPHA file\n"),
    (["plot", "F"], "plot", "the following arguments are required: --format, --out\n"
     "usage: waveset plot [-h] --format {csv,svg} --out OUT file\n"),
]


def test_cli_parse_errors_are_unchanged(capsys, monkeypatch, journe_file):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    for argv, label, reason in PARSE_ERRORS:
        argv = [journe_file if t == "F" else t for t in argv]
        code, rep, _ = run_cli(capsys, argv)
        assert (code, rep["status"], rep["command"]) == (2, "error", label), argv
        assert rep["witnesses"] == [{"reason": reason}], argv


@pytest.mark.parametrize("argv, label", [
    (["verify", "wavelet-set", "/nonexistent.json"], "verify wavelet-set"),
    (["verify", "spectrum", "/nonexistent.json"], "verify spectrum"),
    (["construct", "scaling-set", "/nonexistent.json"], "construct scaling-set"),
    (["construct", "rze", "--spectrum", "/nonexistent.json"], "construct rze"),
    (["dimfun", "/nonexistent.json", "--depth", "4"], "dimfun"),
    (["plot", "/nonexistent.json", "--format", "svg", "--out", "x.svg"], "plot"),
])
def test_cli_error_report_names_subcommand_and_kind(capsys, argv, label):
    code, rep, _ = run_cli(capsys, argv)
    assert (code, rep["status"], rep["command"]) == (2, "error", label)


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = text.split("\n## CLI\n", 1)[1]
    return [shlex.split(line)[1:] for line in cli_section.splitlines() if line.startswith("waveset ")]


def test_cli_reuses_one_parser_per_process(capsys, monkeypatch, tmp_path, journe_file):
    """Runs on the process's one parser report as runs on a freshly built parser."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    monkeypatch.chdir(tmp_path)  # the README's relative paths; journe.json is journe_file
    psi = step_fn_to_json(SHANNON_PSI)
    for name, doc in {"s.json": {"type": "interval_set", "intervals": [["-1/2", "1/2"]]},
                      "sprime.json": {"type": "interval_set", "intervals": [["-5/8", "5/8"]]},
                      "g.json": step_fn_to_json(StepFn.build([((F(-1, 2), F(1, 2)), 1)])),
                      "h.json": psi, "psi.json": psi, "doc.json": psi,
                      "a.json": {"type": "mat2", "entries": [["2", "0"], ["0", "2"]]}}.items():
        _write(tmp_path, name, doc)
    readme = _readme_commands()
    assert len(readme) == 13
    argvs = (readme + fuzz_argvs("doc.json", "fig", 3, 4, 6, -3, "1/4", "5", 0, 2)
             + [["journe.json" if t == "F" else t for t in argv] for argv, _, _ in PARSE_ERRORS])
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    reused = [run_cli(capsys, argv) for argv in argvs]
    assert len(built) == 13, built  # the top level, ten commands and construct's two kinds
    for argv, result in zip(argvs, reused):
        cli.build_parser.cache_clear()
        assert run_cli(capsys, argv) == result, argv
    assert len(built) == 13 * (1 + len(argvs))

    def replaced(args):
        raise RuntimeError("replaced after the parser was built")

    monkeypatch.setattr(cli, "_cmd_psib", replaced)  # dispatch looks the handler up by name
    code, rep, _ = run_cli(capsys, ["psib", "--b", "1/4"])
    assert (code, rep["witnesses"]) == (4, [{"reason": "RuntimeError: replaced after the parser "
                                                        "was built"}])


def test_cli_missing_file(capsys):
    code, rep, _ = run_cli(capsys, ["verify", "wavelet-set", "/nonexistent.json"])
    assert code == 2 and rep["status"] == "error"


# Files that json cannot decode: bytes that are not UTF-8 (UnicodeDecodeError), an array
# nested past the recursion limit (RecursionError), and an integer past the digit limit
# of int() (ValueError).
UNDECODABLE_FILES = {
    "not_utf8": b'{"type": "interval_set", "intervals": [["0", "1\xff"]]}',
    "nested_too_deep": b"[" * 200_000 + b"]" * 200_000,
    "integer_too_long": b"1" + b"0" * 4999,
}


@pytest.mark.parametrize("argv", [["verify", "wavelet-set", "FILE"], ["dimfun", "FILE"],
                                  ["msf2d", "--matrix", "FILE", "--lattice", "id"],
                                  ["plot", "FILE", "--format", "svg", "--out", "OUT"]])
@pytest.mark.parametrize("name", sorted(UNDECODABLE_FILES))
def test_cli_undecodable_file_is_input_error(capsys, tmp_path, name, argv):
    path, out = tmp_path / f"{name}.json", tmp_path / "out.svg"
    path.write_bytes(UNDECODABLE_FILES[name])
    argv = [{"FILE": str(path), "OUT": str(out)}.get(a, a) for a in argv]
    code, rep, _ = run_cli(capsys, argv)  # one JSON document, or json.loads raises
    assert code == 2 and rep["status"] == "error"
    assert rep["witnesses"][0]["reason"].startswith(f"{path} is not valid JSON: ")
    assert not out.exists()


def test_cli_precondition_error_exit_2(capsys, tmp_path):
    bad = _write(tmp_path, "bad.json", interval_set_to_json(iset((0, "1/3"))))
    code, rep, _ = run_cli(capsys, ["construct", "scaling-set", bad])
    assert code == 2 and rep["status"] == "error"
    assert rep["data"]["condition"] == "r4"


def test_cli_output_byte_deterministic(capsys, journe_file):
    _, _, first = run_cli(capsys, ["verify", "wavelet-set", journe_file])
    _, _, second = run_cli(capsys, ["verify", "wavelet-set", journe_file])
    assert first == second


MALFORMED_WINDOWS = {
    "pieces_not_objects": {"type": "dim_fn_window", "depth": 4, "window": ["1/16", "15/16"],
                           "pieces": [1, 2], "boundary_note": True},
    "depth_not_integer": {"type": "dim_fn_window", "depth": "four", "window": ["1/16", "15/16"],
                          "pieces": [{"interval": ["1/16", "15/16"], "value": "1"}],
                          "boundary_note": True},
    "decreasing_breaks": {"type": "dim_fn_window", "depth": 4, "window": ["1", "0"],
                          "pieces": [{"interval": ["1", "0"], "value": "1"}], "boundary_note": True},
    "depth_is_bool": {"type": "dim_fn_window", "depth": True,
                      "pieces": [{"interval": ["1/16", "15/16"], "value": "1"}]},
    "note_not_bool": {"type": "dim_fn_window", "depth": 4, "boundary_note": "yes",
                      "pieces": [{"interval": ["1/16", "15/16"], "value": "1"}]},
    "interval_not_pair": {"type": "dim_fn_window", "depth": 4,
                          "pieces": [{"interval": ["1/16"], "value": "1"}]},
    "breaks_outside_unit": {"type": "dim_fn_window", "depth": 4,
                            "pieces": [{"interval": ["1/2", "3/2"], "value": "1"}]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_WINDOWS))
def test_cli_plot_malformed_window_is_input_error(capsys, tmp_path, name):
    doc = _write(tmp_path, "w.json", MALFORMED_WINDOWS[name])
    code, rep, _ = run_cli(capsys, ["plot", doc, "--format", "svg", "--out", str(tmp_path / "w.svg")])
    assert code == 2 and rep["status"] == "error"
    assert not (tmp_path / "w.svg").exists()


def test_cli_verify_long_interval_returns(capsys, tmp_path):
    # Folding costs the same for any interval length, so this answers at once.
    long = _write(tmp_path, "long.json", interval_set_to_json(iset((0, 10**9))))
    code, rep, _ = run_cli(capsys, ["verify", "wavelet-set", long])
    assert code == 1 and rep["status"] == "fail"
    assert rep["witnesses"] == [{
        "reason": "translation overlap: multiplicity 1000000000 on residues [0, 1)",
        "interval": ["0", "1"],
    }]


def test_cli_construct_long_span_returns(capsys, tmp_path):
    # Transversal shifts come in closed form, so the span's length costs nothing.
    long = _write(tmp_path, "long.json", interval_set_to_json(iset(("-1/4", 10**9))))
    code, rep, _ = run_cli(capsys, ["construct", "scaling-set", long,
                                    "--depth-n", "3", "--depth-j", "3"])
    assert code == 0
    assert rep["data"]["s"]["intervals"] == [["-1/4", "3/4"]]
    assert rep["data"]["fast_path"] is False


def test_cli_exponent_rational_is_input_error(capsys, tmp_path):
    doc = _write(tmp_path, "exp.json", {"type": "interval_set", "intervals": [["0", "1e100000"]]})
    code, rep, _ = run_cli(capsys, ["verify", "wavelet-set", doc])
    assert code == 2 and rep["status"] == "error"


def test_cli_dimfun_computes_one_window(capsys, monkeypatch, tmp_path):
    from waveset import spectral

    calls = []
    original = spectral.dimension_function

    def counting(h, depth_L=20):
        calls.append(depth_L)
        return original(h, depth_L)

    monkeypatch.setattr(spectral, "dimension_function", counting)
    h = _write(tmp_path, "h.json", step_fn_to_json(
        StepFn.indicator(iset(("-16/7", -2), ("-1/2", "-2/7"), ("2/7", "1/2"), (2, "16/7")))))
    code, rep, _ = run_cli(capsys, ["dimfun", h, "--depth", "6"])
    assert code == 0 and rep["data"]["window"]["depth"] == 6
    assert calls == [14]


@pytest.mark.parametrize("kind", ["scaling-set", "rze"])
def test_cli_construct_over_depth_budget_is_input_error(capsys, tmp_path, shannon_g_file, kind):
    src = _write(tmp_path, "s.json", interval_set_to_json(iset(("-1/2", "1/2"))))
    target = [src] if kind == "scaling-set" else ["--spectrum", shannon_g_file]
    code, rep, _ = run_cli(capsys, ["construct", kind, *target, "--depth-n", "257"])
    assert code == 2 and rep["status"] == "error"
    assert "256 (work budget)" in rep["witnesses"][0]["reason"]


def test_cli_construct_at_depth_budget_runs(capsys, tmp_path):
    src = _write(tmp_path, "s.json", interval_set_to_json(iset(("-1/2", "1/2"))))
    code, rep, _ = run_cli(capsys, ["construct", "scaling-set", src, "--depth-j", "256"])
    assert code == 0 and rep["data"]["fast_path"] is True


def _primes_above(n, start):
    out, c = [], start
    while len(out) < n:
        c += 1
        if all(c % p for p in range(2, int(c ** 0.5) + 1)):
            out.append(c)
    return out


@pytest.mark.parametrize("kind", ["scaling-set", "rze"])
def test_cli_construct_over_grid_budget_is_input_error(capsys, tmp_path, kind):
    # An exact scaling set cut at 700 distinct 5-digit prime denominators
    # (about 9,700 bits of lcm) whose kernel leaves [-1/2, 1/2), so the
    # truncated route meets the grid budget.
    n = 700
    ps = _primes_above(n, 16 * n)
    lo, hi = F(3, 8), F(1, 2)
    cuts = [F(round((lo + (hi - lo) * F(2 * i + 1, 2 * n)) * p), p) for i, p in enumerate(ps)]
    pts = [lo] + cuts + [hi]
    s = normalize([(-hi, lo)] + [(a - i % 2, b - i % 2) for i, (a, b) in enumerate(zip(pts, pts[1:]))])
    if kind == "scaling-set":
        target = [_write(tmp_path, "s.json", interval_set_to_json(s))]
    else:
        target = ["--spectrum", _write(tmp_path, "g.json", step_fn_to_json(StepFn.indicator(s)))]
    code, rep, out = run_cli(capsys, ["construct", kind, *target])
    assert code == 2 and rep["status"] == "error" and out.count('"command"') == 1
    assert "at most 8192 bits each (work budget)" in rep["witnesses"][0]["reason"]


def _far_scaling_set(m):
    """An exact scaling set reaching -2^m, so its kernel spans about 2^m.

    [-1/2, 1/2) with the residues [3/8, 1/2) 2^-i, i <= m, moved down by
    2^(m-i): half of each moved piece is the next one, and half of the last
    lies in [-1/2, -3/8), so the set stays nested under doubling.
    """
    moved = [(F(3, 8) / 2**i, F(1, 2) / 2**i) for i in range(m + 1)]
    far = [(lo - 2**(m - i), hi - 2**(m - i)) for i, (lo, hi) in enumerate(moved)]
    return iset(("-1/2", "1/2")).subtract(normalize(moved)).union(normalize(far))


@pytest.mark.parametrize("kind", ["scaling-set", "rze"])
def test_cli_construct_far_kernel_is_answered(capsys, tmp_path, kind):
    # The kernel spans 2^17, and its overlap sets are cut only where the
    # levels lie, so the construction is answered and its W verifies.
    s = _far_scaling_set(17)
    if kind == "scaling-set":
        target = [_write(tmp_path, "s.json", interval_set_to_json(s))]
    else:
        target = ["--spectrum", _write(tmp_path, "g.json", step_fn_to_json(StepFn.indicator(s)))]
    code, rep, _ = run_cli(capsys, ["construct", kind, *target, "--depth-n", "2"])
    assert code == 0 and rep["status"] == "pass"
    if kind == "rze":
        assert rep["data"]["contained"] is True
    w = _write(tmp_path, "w.json", rep["data"]["w"])
    code, rep, _ = run_cli(capsys, ["verify", "wavelet-set", w])
    assert code == 0 and rep["status"] == "pass"


def test_cli_dimfun_over_window_budget_is_input_error(capsys, monkeypatch, tmp_path):
    from waveset import spectral

    def no_sums(*args, **kwargs):
        raise AssertionError("the budget is checked before any sum is built")

    monkeypatch.setattr(spectral, "_grid_sweep", no_sums)
    h = _write(tmp_path, "h.json", step_fn_to_json(SHANNON_PSI))
    code, rep, out = run_cli(capsys, ["dimfun", h, "--depth", "1025"])
    assert code == 2 and rep["status"] == "error" and out.count('"command"') == 1
    reason = rep["witnesses"][0]["reason"]
    assert "at most 2050" in reason and "1024 (work budget)" in reason


def test_cli_far_spectrum_dimfun_answered_orthonormal_refused(capsys, monkeypatch, tmp_path):
    from waveset import spectral

    h = _write(tmp_path, "far.json", step_fn_to_json(StepFn.build([((1, 10**9), 1)])))
    code, rep, _ = run_cli(capsys, ["dimfun", h, "--depth", "20"])
    assert code == 1 and rep["data"]["mra"]["status"] == "not_mra"

    def no_sums(*args):
        raise AssertionError("the shift budget is checked before any sum")

    monkeypatch.setattr(spectral, "tq_check", no_sums)
    monkeypatch.setattr(spectral, "calderon", no_sums)
    code, rep, out = run_cli(capsys, ["orthonormal", h])
    assert code == 2 and rep["status"] == "error" and out.count('"command"') == 1
    assert rep["witnesses"][0]["reason"] == ("orthonormality checks at most 2048 odd shifts "
                                             "(work budget); the support reach 1000000000 "
                                             "needs 1000000000")


@pytest.mark.parametrize("depth", ["-1", "0", "1"])
def test_cli_dimfun_under_depth_floor_is_input_error(capsys, monkeypatch, tmp_path, depth):
    from waveset import spectral

    def no_sums(*args, **kwargs):
        raise AssertionError("the floor is checked before any sum is built")

    monkeypatch.setattr(spectral, "_grid_sweep", no_sums)
    h = _write(tmp_path, "h.json", step_fn_to_json(SHANNON_PSI))
    code, rep, out = run_cli(capsys, ["dimfun", h, "--depth", depth])
    assert code == 2 and rep["status"] == "error" and out.count('"command"') == 1
    assert rep["witnesses"][0]["reason"] == f"dimfun --depth is at least 2; got {depth}"


def test_cli_dimfun_at_window_budget_runs(capsys, tmp_path):
    h = _write(tmp_path, "h.json", step_fn_to_json(SHANNON_PSI))
    code, rep, _ = run_cli(capsys, ["dimfun", h, "--depth", "1024"])
    assert code == 0 and rep["data"]["window"]["depth"] == 1024
    assert rep["data"]["mra"]["status"] == "is_mra"


def test_cli_unexpected_exception_exit_4(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("handler fault")

    monkeypatch.setattr(cli, "_cmd_psib", broken)
    code, rep, _ = run_cli(capsys, ["psib", "--b", "1/4"])
    assert code == 4 and rep["status"] == "internal"
    assert rep["data"] == {"exception": "RuntimeError"}
    assert rep["witnesses"] == [{"reason": "RuntimeError: handler fault"}]


def _garnished_window(n):
    """[-1/2, 1/2) and n parts in [1/2, 1), cut at 2n distinct primes above 4096.

    Nested under doubling, covering and with 0 inside, so the construction
    takes its fast path; the lcm of its denominators has about 10^4 bits at
    n = 400.
    """
    ps = _primes_above(2 * n, 4096)
    parts = [(F(1, 2) + F(i, 2 * n) + F(1, 4 * n * p), F(1, 2) + F(2 * i + 1, 4 * n) + F(1, 4 * n * q))
             for i, (p, q) in enumerate(zip(ps[::2], ps[1::2]))]
    return iset(("-1/2", "1/2")).union(normalize(parts))


@pytest.mark.parametrize("argv", [["verify", "scaling-set"], ["verify", "spectrum"],
                                  ["construct", "scaling-set"]])
def test_cli_fold_over_grid_budget_is_input_error(capsys, tmp_path, argv):
    # The unit fold, S1 and the transversal run on the grid of the input's
    # endpoints, so these commands come under the grid budget too.
    s = _garnished_window(400)
    doc = step_fn_to_json(StepFn.indicator(s)) if argv[1] == "spectrum" else interval_set_to_json(s)
    code = cli.run([*argv, _write(tmp_path, "in.json", doc)])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 2 and rep["status"] == "error" and out.count('"command"') == 1 and not err
    assert "at most 8192 bits each (work budget); got 10283" in rep["witnesses"][0]["reason"]


def test_psi_spectrum_over_grid_budget_is_input_error(capsys, monkeypatch, tmp_path):
    # h = g(./2) - g is walked on the grid of g, so a g whose endpoints carry
    # 800 distinct 4-digit prime denominators is refused before the walk, and
    # construct rze refuses it with one report.
    g = StepFn.indicator(_garnished_window(400))

    def no_walk(*_):
        raise AssertionError("the grid budget is checked before the walk")

    with monkeypatch.context() as m:
        m.setattr(spectral, "_walk", no_walk)
        with pytest.raises(InputError, match=r"at most 8192 bits each \(work budget\); got 10283"):
            spectral.psi_spectrum_from_scaling(g)
    code = cli.run(["construct", "rze", "--spectrum", _write(tmp_path, "g.json", step_fn_to_json(g))])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 2 and rep["status"] == "error" and out.count('"command"') == 1 and not err
    assert "at most 8192 bits each (work budget); got 10283" in rep["witnesses"][0]["reason"]


@pytest.mark.parametrize("argv", [["tq", "--alpha", "1"], ["orthonormal"]])
def test_cli_orthogonality_over_grid_budget_is_input_error(capsys, tmp_path, argv):
    # The orthogonality sums run on the grid of the spectrum's endpoints, and
    # a reach of 1 keeps the shift budget far away.
    s = _garnished_window(400).subtract(iset(("-1/2", "1/2")))
    h = _write(tmp_path, "h.json", step_fn_to_json(StepFn.indicator(s)))
    code = cli.run([argv[0], h, *argv[1:]])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 2 and rep["status"] == "error" and out.count('"command"') == 1 and not err
    assert "at most 8192 bits each (work budget)" in rep["witnesses"][0]["reason"]


def test_cli_dimfun_over_level_budget_is_input_error(capsys, monkeypatch, tmp_path):
    from waveset import spectral

    def no_sums(*args, **kwargs):
        raise AssertionError("the level budget is checked before any sweep")

    monkeypatch.setattr(spectral, "_grid_sweep", no_sums)
    h = _write(tmp_path, "h.json", step_fn_to_json(StepFn.build([((1, 2**5000), 1)])))
    code, rep, out = run_cli(capsys, ["dimfun", h, "--depth", "20"])
    assert code == 2 and rep["status"] == "error" and out.count('"command"') == 1
    assert rep["witnesses"][0]["reason"] == ("a dilation sum has at most 4096 levels "
                                             "(work budget); got 5042")
