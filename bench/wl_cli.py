"""Workload ``cli``: every README command through ``waveset.cli.run``.

Each operation is one ``waveset.cli.run(argv)`` call with standard output
captured, on files written during set-up.  This is the only workload that
goes through argument parsing, JSON loading and validation, report
formatting, figure writing and the handlers' own recomputation.  Kernels are
small (a few parts, shallow depths), so those layers are a visible share.

Three malformed ``dim_fn_window`` documents are plotted on every round.  The
README promises exit 2 and one JSON report for malformed input; until the
loader validates them they fail on every run (a TypeError traceback, a
ValueError traceback, and a decreasing window accepted with exit 0), and
are counted as failed operations of a known fault.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from waveset import cli, construct, msf2d, serialize, spectral
from waveset.errors import InputError
from waveset.intervals import normalize
from waveset.spectral import StepFn

from common import Op, rng_for
from wl_construct import scaling_set_pairs, truncated_support
from wl_planar import rational_dilation
from wl_spectra import journe_type, step_spectrum

NAME = "cli"
OUT = Path(__file__).resolve().parent / "out"
EXIT_CODES = {"pass": 0, "fail": 1, "error": 2, "inconclusive": 3}

SIZES = {
    "full": {"depth": 3, "dim_depth": 6, "classes": {
        "s1": {"k": 2, "g": 2, "pieces": 6, "dilation": "double"},
        "s2": {"k": 4, "g": 4, "pieces": 12, "dilation": "contracting"}}},
    "tiny": {"depth": 1, "dim_depth": 2, "classes": {
        "s1": {"k": 2, "g": 1, "pieces": 4, "dilation": "saddle"}}},
}

MALFORMED = {
    "pieces_not_objects": {"type": "dim_fn_window", "depth": 4, "window": ["1/16", "15/16"],
                           "pieces": [1, 2], "boundary_note": True},
    "depth_not_integer": {"type": "dim_fn_window", "depth": "four", "window": ["1/16", "15/16"],
                          "pieces": [{"interval": ["1/16", "15/16"], "value": "1"}],
                          "boundary_note": True},
    "decreasing_breaks": {"type": "dim_fn_window", "depth": 4, "window": ["1", "0"],
                          "pieces": [{"interval": ["1", "0"], "value": "1"}], "boundary_note": True},
}


def _write(directory: Path, name: str, doc: dict) -> str:
    path = directory / name
    path.write_text(json.dumps(doc))
    return str(path)


def make_ops(seed: int, scale: str = "full") -> list[Op]:
    rng = rng_for(NAME, seed)
    cfg = SIZES[scale]
    d = OUT / f"cli-{scale}-seed{seed}"
    d.mkdir(parents=True, exist_ok=True)
    depths = ["--depth-n", str(cfg["depth"]), "--depth-j", str(cfg["depth"])]
    ops = []

    def add(argv, size, kind=None, known_fault=False):
        kind = kind or (" ".join(argv[:2]) if argv[0] in ("verify", "construct") else argv[0])
        ops.append(Op(kind, size, {"argv": argv}, known_fault))

    journe = _write(d, "journe.json", serialize.interval_set_to_json(journe_type(1)))
    add(["verify", "wavelet-set", journe], "base")
    for size, c in cfg["classes"].items():
        s = normalize(scaling_set_pairs(rng, c["k"]))
        w = s.scale(2).subtract(s)
        f_s = _write(d, f"s-{size}.json", serialize.interval_set_to_json(s))
        f_w = _write(d, f"w-{size}.json", serialize.interval_set_to_json(w))
        f_g = _write(d, f"g-{size}.json", serialize.step_fn_to_json(StepFn.indicator(s)))
        f_h = _write(d, f"h-{size}.json", serialize.step_fn_to_json(StepFn.indicator(w)))
        f_sp = _write(d, f"sprime-{size}.json",
                      serialize.interval_set_to_json(truncated_support(rng, c["k"], c["g"])))
        psi = step_spectrum(rng, c["pieces"])
        f_psi = _write(d, f"psi-{size}.json", serialize.step_fn_to_json(psi))
        f_sq = _write(d, f"sq-{size}.json", serialize.step_fn_to_json(psi.square()))
        a = rational_dilation(c["dilation"], rng)
        f_a = _write(d, f"a-{size}.json", serialize.mat2_to_json(msf2d.Mat2.from_rows(a)))
        # Small commands, where parsing, loading and reporting are most of the
        # time, make up most of the list, so the median operation is one of them.
        add(["verify", "wavelet-set", f_w], size)
        add(["verify", "scaling-set", f_s], size)
        add(["verify", "scaling-set", f_sp], size)
        add(["verify", "spectrum", f_g], size)
        add(["msf2d", "--matrix", f_a, "--lattice", "id"], size)
        add(["plot", f_h, "--format", "csv", "--out", str(d / f"h-{size}.csv")], size)
        add(["plot", f_w, "--format", "svg", "--out", str(d / f"w-{size}.svg")], size)
        q = rng.randint(3, 40)  # b below 1/2 keeps the cost of psib independent of the draw
        add(["psib", "--b", f"{rng.randint(1, (q - 1) // 2)}/{q}"], size)
        if size != "s1":
            continue
        add(["construct", "scaling-set", f_sp] + depths, size)
        add(["construct", "rze", "--spectrum", f_g] + depths, size)
        add(["dimfun", f_h, "--depth", str(cfg["dim_depth"])], size)
        add(["calderon", f_sq], size)
        add(["tq", f_psi, "--alpha", "1"], size)
        add(["orthonormal", f_h], size)
        add(["lce", "--matrix", f_a, "--lattice", "id", "--jmin", "0", "--jmax", "2", "--c", "5"], size)
    for name, doc in MALFORMED.items():
        path = _write(d, f"malformed-{name}.json", doc)
        add(["plot", path, "--format", "svg", "--out", str(d / f"malformed-{name}.svg")],
            "base", f"plot malformed {name}", known_fault=True)
    return ops


def run(op: Op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(op.args["argv"])
    return code, buf.getvalue()


# ------------------------------------------------------------------ checks


def _load(path: str):
    return serialize.load_typed(json.loads(Path(path).read_text()))


def expected_status(argv: list[str]) -> str:
    """The status that the library's own answer implies for this command."""
    try:
        return _library_status(argv)
    except InputError:
        return "error"


def _library_status(argv: list[str]) -> str:
    cmd = argv[0]
    if cmd == "verify":
        obj = _load(argv[2])
        if argv[1] == "wavelet-set":
            return "pass" if construct.verify_wavelet_set(obj).passed else "fail"
        if argv[1] == "scaling-set":
            from waveset.torus import check_S3
            ok = construct.check_S1(obj) and construct.check_S2(obj) and check_S3(obj)
            return "pass" if ok else "fail"
        return "pass" if spectral.validate_scaling_spectrum(obj).passed else "fail"
    if cmd == "construct":
        depth = int(argv[argv.index("--depth-n") + 1])
        if argv[1] == "scaling-set":
            construct.lemma_r3_construct(_load(argv[2]), depth, depth)
            return "pass"
        res = construct.rze_pipeline(_load(argv[3]), depth, depth)
        return "pass" if res.contained else "inconclusive"
    if cmd == "dimfun":
        h, depth = _load(argv[1]), int(argv[3])
        report = spectral.check_D1_D4(spectral.dimension_function(h, depth + 2), depth)
        failed = any(c.status == "fail" for c in (report.d1, report.d2, report.d3, report.d4))
        return "fail" if failed else "pass"
    if cmd == "calderon":
        res = spectral.calderon(_load(argv[1]))
        return "pass" if not res.diverges and res.is_one else "fail"
    if cmd == "tq":
        return "pass" if spectral.tq_check(_load(argv[1]), int(argv[3])).zero else "fail"
    if cmd == "orthonormal":
        return "pass" if spectral.orthonormality_check(_load(argv[1])).passed else "fail"
    if cmd == "psib":
        return "pass"
    if cmd in ("msf2d", "lce"):
        a = _load(argv[2])
        p = msf2d.Mat2.identity()
        if cmd == "msf2d":
            verdict = msf2d.wavelet_set_exists(a, p).verdict
            return {"exists": "pass", "not_exists": "fail"}.get(verdict, "error")
        jmin, jmax = int(argv[argv.index("--jmin") + 1]), int(argv[argv.index("--jmax") + 1])
        rep = msf2d.lce_report(a, p, jmin, jmax, argv[argv.index("--c") + 1])
        return "pass" if rep.all_bounded else "fail"
    if cmd == "plot":
        return "pass"
    raise ValueError(f"no expectation for {argv}")


def check(op: Op, result, rng: random.Random | None = None) -> list[str]:
    code, out = result
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return [f"standard output is not exactly one JSON document: {out[:80]!r}"]
    if not isinstance(report, dict) or "status" not in report:
        return ["report has no status"]
    argv = op.args["argv"]
    want = "error" if op.known_fault else expected_status(argv)
    problems = []
    if report["status"] != want:
        problems.append(f"status {report['status']!r}, the library's answer implies {want!r}")
    if code != EXIT_CODES.get(report["status"]):
        problems.append(f"exit code {code} does not match status {report['status']!r}")
    if argv[0] == "plot" and report["status"] == "pass":
        out_path = Path(argv[argv.index("--out") + 1])
        if not out_path.is_file() or out_path.stat().st_size != report["data"]["bytes"]:
            problems.append("figure file missing or of another size than reported")
    if argv[:2] == ["construct", "scaling-set"] and report["status"] == "pass":
        depth = int(argv[argv.index("--depth-n") + 1])
        res = construct.lemma_r3_construct(_load(argv[2]), depth, depth)
        if report["data"]["s"] != serialize.interval_set_to_json(res.s):
            problems.append("reported S differs from the library's construction")
    return problems
