"""Golden reports: README commands on the acceptance inputs, byte for byte.

``tests/data/golden_reports.json`` holds the input documents, and for each
command its argv, exit code, standard output and (for a ``plot`` that writes
one) the sha256 of its figure.  Every command runs through ``waveset.cli.run`` in a
fresh working directory holding only the inputs, under relative paths, so
no absolute path reaches a report.  A change that alters any report fails
here; a deliberate behaviour change regenerates the file with

    PYTHONPATH=src python tests/test_golden_reports.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from waveset import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"

JOURNE = [["-16/7", "-2"], ["-1/2", "-2/7"], ["2/7", "1/2"], ["2", "16/7"]]


def _iset(pairs):
    return {"type": "interval_set", "intervals": pairs}


def _step(pieces):
    return {"type": "step_fn",
            "pieces": [{"interval": [lo, hi], "value": v} for lo, hi, v in pieces]}


def _mat(rows):
    return {"type": "mat2", "entries": rows}


INPUTS = {
    "journe.json": _iset(JOURNE),
    "shannon_w.json": _iset([["-1", "-1/2"], ["1/2", "1"]]),
    "window.json": _iset([["-1/2", "1/2"]]),
    "not_nested.json": _iset([["1", "2"]]),
    "sprime_window.json": _iset([["-5/8", "5/8"]]),
    "sprime_kernel.json": _iset([["-2", "3/8"], ["5/8", "11/16"]]),
    "shannon_g.json": _step([["-1/2", "1/2", "1"]]),
    "three_level_g.json": _step([["-5/8", "-3/8", "1/2"], ["-3/8", "3/8", "1"],
                                 ["3/8", "5/8", "1/2"]]),
    "wide_g.json": _step([["-1", "1", "1"]]),
    "journe_h.json": _step([[lo, hi, "1"] for lo, hi in JOURNE]),
    "shannon_h.json": _step([["-1", "-1/2", "1"], ["1/2", "1", "1"]]),
    "three_level_h.json": _step([["-5/4", "-3/4", "1/2"], ["-3/4", "-5/8", "1"],
                                 ["-5/8", "-3/8", "1/2"], ["3/8", "5/8", "1/2"],
                                 ["5/8", "3/4", "1"], ["3/4", "5/4", "1/2"]]),
    "psi_quarter.json": _step([["-1", "-1/4", "1"], ["1/4", "1", "1"]]),
    "signed_psi.json": _step([["-1", "-1/2", "-1"], ["1/2", "1", "1"]]),
    "signed_wide.json": _step([["-3", "-1", "1/2"], ["-1", "-1/3", "-1"],
                               ["1/3", "2", "1"], ["2", "5/2", "-1/3"]]),
    "a_not.json": _mat([["3", "0"], ["1", "1/2"]]),
    "a_quad.json": _mat([["3", {"a": "0", "b": "1", "d": 2}], ["0", "1/2"]]),
    "two_i.json": _mat([["2", "0"], ["0", "2"]]),
    "f1_clash_g.json": _step([["-3/4", "-1/4", "1/2"], ["-1/4", "1/4", "1"],
                              ["1/4", "3/4", "1/2"]]),
    "quarter_window.json": _iset([["-1/4", "1/4"]]),
    "far_kernel.json": _iset([["-1000", "1/4"]]),
    "negative_h.json": _step([["1", "2", "-1"]]),
    "empty_h.json": _step([]),
    "inverted.json": _iset([["1", "0"]]),
    "singular.json": _mat([["1", "2"], ["2", "4"]]),
    "mixed_roots.json": _mat([[{"a": "0", "b": "1", "d": 2}, "0"],
                              ["0", {"a": "0", "b": "1", "d": 3}]]),
    "no_radicand.json": _mat([[{"a": "0", "b": "1"}, "0"], ["0", "2"]]),
    "readme_window.json": {"type": "dim_fn_window", "depth": 4, "window": ["1/16", "15/16"],
                           "pieces": [{"interval": ["1/16", "1/2"], "value": "1"},
                                      {"interval": ["1/2", "15/16"], "value": "2"}],
                           "boundary_note": True},
    "gapped_window.json": {"type": "dim_fn_window", "depth": 4, "window": ["1/16", "15/16"],
                           "pieces": [{"interval": ["1/16", "1/4"], "value": "1"},
                                      {"interval": ["1/2", "15/16"], "value": "2"}],
                           "boundary_note": True},
    "zero_length_piece.json": _step([["1/4", "1/2", "1"], ["1", "1", "1"]]),
}

COMMANDS = [
    ["verify", "wavelet-set", "journe.json"],
    ["verify", "wavelet-set", "window.json"],
    ["verify", "scaling-set", "window.json"],
    ["verify", "scaling-set", "not_nested.json"],
    ["verify", "spectrum", "three_level_g.json"],
    ["verify", "spectrum", "wide_g.json"],
    ["construct", "scaling-set", "sprime_window.json", "--depth-n", "12"],
    ["construct", "scaling-set", "sprime_kernel.json"],
    ["construct", "scaling-set", "not_nested.json"],
    ["construct", "rze", "--spectrum", "shannon_g.json"],
    ["construct", "rze", "--spectrum", "three_level_g.json", "--depth-n", "8", "--depth-j", "8"],
    ["dimfun", "journe_h.json", "--depth", "8"],
    ["dimfun", "journe_h.json", "--depth", "20"],
    ["dimfun", "shannon_h.json", "--depth", "20"],
    ["dimfun", "three_level_h.json", "--depth", "6"],
    ["calderon", "journe_h.json"],
    ["calderon", "three_level_h.json"],
    ["calderon", "psi_quarter.json"],
    ["tq", "shannon_h.json", "--alpha", "1"],
    ["tq", "psi_quarter.json", "--alpha", "1"],
    ["tq", "signed_wide.json", "--alpha", "-3"],
    ["tq", "journe_h.json", "--alpha", "2"],
    ["orthonormal", "journe_h.json"],
    ["orthonormal", "signed_psi.json"],
    ["orthonormal", "signed_wide.json"],
    ["psib", "--b", "0"],
    ["psib", "--b", "1/8"],
    ["psib", "--b", "1/4"],
    ["psib", "--b", "1/2"],
    ["msf2d", "--matrix", "a_not.json", "--lattice", "id"],
    ["msf2d", "--matrix", "a_quad.json", "--lattice", "id"],
    ["lce", "--matrix", "two_i.json", "--lattice", "id", "--jmin", "0", "--jmax", "4",
     "--c", "5"],
    ["plot", "journe.json", "--format", "csv", "--out", "journe.csv"],
    ["plot", "journe_h.json", "--format", "svg", "--out", "journe_h.svg"],
    ["verify", "spectrum", "f1_clash_g.json"],
    ["construct", "rze", "--spectrum", "f1_clash_g.json"],
    ["construct", "scaling-set", "quarter_window.json"],
    ["construct", "scaling-set", "far_kernel.json", "--depth-n", "8", "--depth-j", "8"],
    ["calderon", "wide_g.json"],
    ["orthonormal", "wide_g.json"],
    ["calderon", "negative_h.json"],
    ["orthonormal", "empty_h.json"],
    ["plot", "empty_h.json", "--format", "svg", "--out", "empty_h.svg"],
    ["verify", "wavelet-set", "inverted.json"],
    ["construct", "scaling-set", "sprime_kernel.json", "--depth-n", "-1"],
    ["lce", "--matrix", "two_i.json", "--lattice", "id", "--jmin", "0", "--jmax", "4",
     "--c", "1"],
    ["lce", "--matrix", "a_quad.json", "--lattice", "id", "--jmin", "0", "--jmax", "4",
     "--c", "5"],
    ["lce", "--matrix", "singular.json", "--lattice", "id", "--jmin", "0", "--jmax", "4",
     "--c", "5"],
    ["msf2d", "--matrix", "two_i.json", "--lattice", "a_quad.json"],
    ["msf2d", "--matrix", "mixed_roots.json", "--lattice", "id"],
    ["msf2d", "--matrix", "no_radicand.json", "--lattice", "id"],
    ["plot", "readme_window.json", "--format", "svg", "--out", "readme_window.svg"],
    ["plot", "gapped_window.json", "--format", "svg", "--out", "gapped_window.svg"],
    ["calderon", "zero_length_piece.json"],
    ["verify", "--", "wavelet-set", "journe.json"],
    ["verify", "--", "scaling-set", "sprime_window.json"],
]


def run_command(directory: Path, argv: list[str]) -> dict:
    """Exit code, stdout and written figure of one command run inside ``directory``."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
    finally:
        os.chdir(cwd)
    record = {"argv": argv, "exit": code, "stdout": out.getvalue()}
    if argv[0] == "plot" and (directory / argv[-1]).exists():
        record["figure_sha256"] = hashlib.sha256((directory / argv[-1]).read_bytes()).hexdigest()
    return record


def write_inputs(directory: Path, inputs: dict) -> None:
    for name, doc in inputs.items():
        (directory / name).write_text(json.dumps(doc))


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=[" ".join(c) for c in COMMANDS])
def test_golden_report(tmp_path, index):
    data = golden()
    expected = data["reports"][index]
    assert expected["argv"] == COMMANDS[index]
    write_inputs(tmp_path, data["inputs"])
    assert run_command(tmp_path, COMMANDS[index]) == expected


def test_golden_inputs_are_current():
    assert golden()["inputs"] == INPUTS


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch), INPUTS)
        reports = [run_command(Path(scratch), argv) for argv in COMMANDS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"inputs": INPUTS, "reports": reports}, indent=1) + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
