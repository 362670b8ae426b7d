"""Command-line surface: exact verifications, constructions and reports.

Every invocation prints exactly one JSON report document on stdout and exits
with 0 (pass), 1 (a verification answered no), 2 (input error),
3 (inconclusive: a semi-decision exhausted its depth), or 4 (internal error:
an unexpected exception, named in the report).  Output is byte-deterministic
for identical inputs and flags.

`dimfun --depth` is 2 to 1024, so its window is at most 2050 deep; any other
depth is an input error, refused before any work (the README lists every budget).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from . import construct as cons
from . import figures, msf2d, serialize, spectral
from .errors import InputError, PreconditionError
from .intervals import Interval, IntervalSet
from .serialize import format_rational
from .spectral import StepFn
from .torus import fold_multiplicity

EXIT_CODES = {"pass": 0, "fail": 1, "error": 2, "inconclusive": 3, "internal": 4}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors (exit code 2)."""

    def error(self, message):  # noqa: A003 - argparse API
        raise InputError(f"{message}\n{self.format_usage()}")


def _witness(reason: str, iv: Interval | None = None) -> dict:
    out: dict[str, Any] = {"reason": reason}
    if iv is not None:
        out["interval"] = serialize.interval_to_json(iv)
    return out


def _report(command: str, status: str, witnesses=(), defects=None, data=None) -> dict:
    report: dict[str, Any] = {
        "command": command,
        "status": status,
        "witnesses": list(witnesses),
    }
    if defects is not None:
        report["defects"] = serialize.defect_report_to_json(defects)
    report["data"] = data if data is not None else {}
    return report


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, too many digits
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_interval_set(path: str) -> IntervalSet:
    return serialize.interval_set_from_json(_load_json(path))


def _load_step_fn(path: str) -> StepFn:
    return serialize.step_fn_from_json(_load_json(path))


def _load_mat2(path_or_id: str) -> msf2d.Mat2:
    if path_or_id == "id":
        return msf2d.Mat2.identity()
    return serialize.mat2_from_json(_load_json(path_or_id))


# ------------------------------------------------------------- handlers


def _cmd_verify(args) -> dict:
    command = f"verify {args.kind}"
    if args.kind == "wavelet-set":
        w = _load_interval_set(args.file)
        verdict = cons.verify_wavelet_set(w)
        data = {"measure": format_rational(w.measure())}
        if verdict.passed:
            return _report(command, "pass", data=data)
        return _report(command, "fail", [_witness(verdict.reason, verdict.witness)], data=data)
    if args.kind == "scaling-set":
        s = _load_interval_set(args.file)
        escape, not_one = cons.s1_witness(s), fold_multiplicity(s).where_not(1)
        s1, s2, s3 = escape is None, cons.check_S2(s), not_one.is_empty
        witnesses = []
        if not s1:
            witnesses.append(_witness("S1: escapes its double", escape))
        if not s2:
            witnesses.append(_witness("S2: no punctured neighborhood of 0"))
        if not s3:
            witnesses.append(_witness("S3: translates do not tile with multiplicity one",
                                      not_one.parts[0]))
        data = {"S1": s1, "S2": s2, "S3": s3, "measure": format_rational(s.measure())}
        return _report(command, "pass" if s1 and s2 and s3 else "fail", witnesses, data=data)
    g = _load_step_fn(args.file)
    verdict = spectral.validate_scaling_spectrum(g)
    if verdict.passed:
        return _report(command, "pass")
    return _report(
        command, "fail",
        [_witness(f"{verdict.condition}: {verdict.detail}", verdict.witness)],
        data={"condition": verdict.condition},
    )


def _scaling_result_data(result: cons.ScalingSetResult) -> dict:
    return {
        "s": serialize.interval_set_to_json(result.s),
        "w": serialize.interval_set_to_json(result.w),
        "fast_path": result.fast_path,
        "s_measure": format_rational(result.s.measure()),
        "w_measure": format_rational(result.w.measure()),
    }


def _cmd_construct_scaling_set(args) -> dict:
    sprime = _load_interval_set(args.file)
    result = cons.lemma_r3_construct(sprime, args.depth_n, args.depth_j)
    return _report("construct scaling-set", "pass", defects=result.defects,
                   data=_scaling_result_data(result))


def _cmd_construct_rze(args) -> dict:
    g = _load_step_fn(args.spectrum)
    result = cons.rze_pipeline(g, args.depth_n, args.depth_j)
    data = {
        "s": serialize.interval_set_to_json(result.s),
        "w": serialize.interval_set_to_json(result.w),
        "supp_psi": serialize.interval_set_to_json(result.supp_psi),
        "contained": result.contained,
        "leftover_measure": format_rational(result.leftover_measure),
        "psi_spectrum": serialize.step_fn_to_json(result.psi_spectrum),
    }
    status = "pass" if result.contained else "inconclusive"
    witnesses = []
    if not result.contained:
        witnesses.append(_witness(
            "containment not exact at this truncation depth; escape within certified bound"
        ))
    return _report("construct rze", status, witnesses, defects=result.defects, data=data)


def _outcome_json(o: spectral.CheckOutcome) -> dict:
    out: dict[str, Any] = {"status": o.status}
    if o.witness is not None:
        out["witness"] = serialize.interval_to_json(o.witness)
    if o.note:
        out["note"] = o.note
    return out


def _cmd_dimfun(args) -> dict:
    h = _load_step_fn(args.file)
    depth = args.depth
    if depth < 2:
        raise InputError(f"dimfun --depth is at least 2; got {depth}")
    # One window deep enough for D4; the shallower ones are exact restrictions of it.
    deep = spectral.dimension_function(h, 2 * depth + 2)
    window = deep.restrict(depth)
    checks = spectral.check_D1_D4(deep, depth)
    mra = spectral.mra_verdict(window)
    outcomes = {"D1": checks.d1, "D2": checks.d2, "D3": checks.d3, "D4": checks.d4}
    data = {
        "window": serialize.dim_fn_window_to_json(window),
        "conditions": {name: _outcome_json(o) for name, o in outcomes.items()},
        "mra": {
            "status": mra.status,
            "witness": serialize.interval_to_json(mra.witness) if mra.witness else None,
            "note": mra.note,
        },
    }
    witnesses = [_witness(f"{name}: certified violation", o.witness)
                 for name, o in outcomes.items() if o.status == "fail"]
    return _report("dimfun", "fail" if witnesses else "pass", witnesses, data=data)


def _calderon_data(res: spectral.CalderonResult) -> dict:
    if res.diverges:
        return {"diverges": True}
    return {
        "diverges": False,
        "min": format_rational(res.min_value),
        "max": format_rational(res.max_value),
        "constant_one": res.is_one,
        "annulus": serialize.pieces_to_json((iv.lo, iv.hi, v) for iv, v in res.atoms),
    }


def _cmd_calderon(args) -> dict:
    h = _load_step_fn(args.file)
    res = spectral.calderon(h)
    witnesses = []
    if res.diverges:
        witnesses.append(_witness("sum diverges: support reaches 0", res.divergence_witness))
    elif not res.is_one:
        bad = next((iv, v) for iv, v in res.atoms if v != 1)
        witnesses.append(_witness(f"sum equals {format_rational(bad[1])} here", bad[0]))
    status = "pass" if (not res.diverges and res.is_one) else "fail"
    return _report("calderon", status, witnesses, data=_calderon_data(res))


def _cmd_tq(args) -> dict:
    psi = _load_step_fn(args.file)
    res = spectral.tq_check(psi, args.alpha)
    data = {
        "alpha": args.alpha,
        "sum": serialize.step_fn_to_json(res.fn),
    }
    if res.zero:
        return _report("tq", "pass", data=data)
    return _report("tq", "fail", [_witness("orthogonality sum is nonzero", res.witness)], data=data)


def _tq_failures(failures: tuple[tuple[int, Interval], ...]) -> list[dict]:
    return [{"alpha": a, "interval": serialize.interval_to_json(iv)} for a, iv in failures]


def _orthonormality_data(rep: spectral.OrthonormalityReport) -> dict:
    return {
        "norm_sq": format_rational(rep.norm_sq),
        "calderon": _calderon_data(rep.calderon),
        "alphas_checked": list(rep.alphas_checked),
        "tq_failures": _tq_failures(rep.tq_failures),
        "notes": list(rep.notes),
    }


def _cmd_orthonormal(args) -> dict:
    psi = _load_step_fn(args.file)
    rep = spectral.orthonormality_check(psi)
    witnesses = []
    if not rep.passed:
        if rep.calderon.diverges or not rep.calderon.is_one:
            witnesses.append(_witness("dilation sum is not identically 1"))
        for a, iv in rep.tq_failures:
            witnesses.append(_witness(f"orthogonality sum nonzero at shift {a}", iv))
        if rep.norm_sq != 1:
            witnesses.append(_witness(f"squared norm is {format_rational(rep.norm_sq)}"))
    return _report("orthonormal", "pass" if rep.passed else "fail", witnesses,
                   data=_orthonormality_data(rep))


def _cmd_psib(args) -> dict:
    rep = spectral.psi_b_report(args.b)
    data = {
        "b": format_rational(rep.b),
        "norm_sq": format_rational(rep.norm_sq),
        "calderon": _calderon_data(rep.calderon),
        "tq_failures": _tq_failures(rep.tq_failures),
        "orthonormal": rep.orthonormal,
        "table_row": rep.table_row,
        "consistent": rep.consistent,
        "notes": list(rep.notes),
    }
    return _report("psib", "pass", data=data)


def _cmd_msf2d(args) -> dict:
    a = _load_mat2(args.matrix)
    p = _load_mat2(args.lattice)
    res = msf2d.wavelet_set_exists(a, p)
    data = {
        "verdict": res.verdict,
        "detail": res.detail,
        "unit_eigenvalue": res.unit_eigenvalue,
        "witness": list(res.witness) if res.witness else None,
    }
    if res.verdict == "exists":
        return _report("msf2d", "pass", data=data)
    if res.verdict == "not_exists":
        return _report("msf2d", "fail", [{"reason": res.detail, "lattice_point": list(res.witness)}],
                       data=data)
    return _report("msf2d", "error", [{"reason": res.detail}], data=data)


def _cmd_lce(args) -> dict:
    a = _load_mat2(args.matrix)
    p = _load_mat2(args.lattice)
    rep = msf2d.lce_report(a, p, args.jmin, args.jmax, args.c)
    data = {
        "c": format_rational(rep.c),
        "rows": [
            {
                "j": row.j,
                "count": row.count,
                "bound_base": format_rational(row.bound_base),
                "ratio": format_rational(row.ratio),
            }
            for row in rep.rows
        ],
        "note": rep.note,
    }
    if rep.all_bounded:
        return _report("lce", "pass", data=data)
    return _report("lce", "fail", [{"reason": f"ratio exceeds C at j = {rep.witness_j}"}], data=data)


def _cmd_plot(args) -> dict:
    obj = serialize.load_typed(_load_json(args.file))
    if isinstance(obj, msf2d.Mat2):
        raise InputError("matrices have no figure rendering; plot an interval set, "
                         "step function or dimension-function window")
    n = figures.emit_figure(obj, args.format, args.out)
    return _report("plot", "pass", data={"out": args.out, "format": args.format, "bytes": n})


# --------------------------------------------------------------- parser


def _arg(*flags: str, **options) -> tuple:
    return flags, options


_FILE = _arg("file")
_DEPTHS = (_arg("--depth-n", type=int, default=cons.DEFAULT_DEPTH_N, dest="depth_n"),
           _arg("--depth-j", type=int, default=cons.DEFAULT_DEPTH_J, dest="depth_j"))
_MAT2 = (_arg("--matrix", required=True),
         _arg("--lattice", required=True, help="mat2 JSON file or 'id'"))

# The command table: name -> (help, arguments, handler), arguments in usage
# order.  `construct` holds a table of its kinds, each (arguments, handler).
# A handler is named, and looked up when a parser is built, so that it can be
# replaced on the module like any other function.
COMMANDS: dict[str, tuple] = {
    "verify": ("exact verification of sets and spectra",
               [_arg("kind", choices=["scaling-set", "wavelet-set", "spectrum"]), _FILE],
               "_cmd_verify"),
    "construct": ("scaling-set and wavelet-set construction", {
        "scaling-set": ([_FILE, *_DEPTHS], "_cmd_construct_scaling_set"),
        "rze": ([_arg("--spectrum", required=True), *_DEPTHS], "_cmd_construct_rze"),
    }, None),
    "dimfun": ("dimension function window and its conditions",
               [_FILE, _arg("--depth", type=int, default=20)], "_cmd_dimfun"),
    "calderon": ("dyadic dilation sum on the unit annulus", [_FILE], "_cmd_calderon"),
    "tq": ("translation-orthogonality sum for one odd shift",
           [_FILE, _arg("--alpha", type=int, required=True)], "_cmd_tq"),
    "orthonormal": ("full orthonormality certification", [_FILE], "_cmd_orthonormal"),
    "psib": ("band-pair family diagnostics", [_arg("--b", required=True)], "_cmd_psib"),
    "msf2d": ("2D wavelet-set existence decision", [*_MAT2], "_cmd_msf2d"),
    "lce": ("lattice counting probe",
            [*_MAT2, _arg("--jmin", type=int, required=True), _arg("--jmax", type=int, required=True),
             _arg("--c", required=True)], "_cmd_lce"),
    "plot": ("emit a CSV table or SVG figure",
             [_FILE, _arg("--format", choices=["csv", "svg"], required=True),
              _arg("--out", required=True)], "_cmd_plot"),
}


def _fill(parser: argparse.ArgumentParser, arguments, handler) -> None:
    if isinstance(arguments, dict):
        kinds = parser.add_subparsers(dest="kind", required=True, parser_class=_Parser)
        for kind, (kind_arguments, kind_handler) in arguments.items():
            _fill(kinds.add_parser(kind), kind_arguments, kind_handler)
        return
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(handler=globals()[handler])


def build_parser(command: str | None = None) -> _Parser:
    """The `waveset` parser with every subcommand, or with `command` alone.

    Alone, the metavar spells out every choice, so the top-level usage that an
    "unrecognized arguments" error prints reads as in the full parser.  The
    full parser has none: it would rename "argument command" in the errors of
    a missing or unknown subcommand.
    """
    parser = _Parser(prog="waveset", description=__doc__)
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else [command]:
        help_text, arguments, handler = COMMANDS[name]
        _fill(sub.add_parser(name, help=help_text), arguments, handler)
    return parser


def _label(argv: list[str]) -> str:
    """A report's "command": the subcommand, with the kind for verify and construct."""
    if not argv or argv[0] not in COMMANDS:
        return "waveset"
    arguments = COMMANDS[argv[0]][1]  # construct's kinds, or verify's `kind` choices
    kinds = arguments if isinstance(arguments, dict) else next(
        (options["choices"] for flags, options in arguments if flags == ("kind",)), ())
    return f"{argv[0]} {argv[1]}" if len(argv) > 1 and argv[1] in kinds else argv[0]


def run(argv: list[str]) -> int:
    """Execute one command; print the JSON report; return the exit code.

    The parser holds only the subcommand that `argv[0]` names; the full one is
    built when it names none (`--help`, an unknown or a missing command).
    """
    command_label = _label(argv)
    try:
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
        report = args.handler(args)
    except PreconditionError as exc:
        witness = exc.witness if isinstance(exc.witness, Interval) else None
        report = _report(command_label, "error",
                         [_witness(f"{exc.condition}: {exc}", witness)],
                         data={"condition": exc.condition})
    except InputError as exc:
        witness = getattr(exc, "witness", None)
        report = _report(command_label, "error",
                         [_witness(str(exc), witness if isinstance(witness, Interval) else None)])
    except BrokenPipeError:
        raise
    except Exception as exc:  # a fault of the program, never "answered no"
        name = type(exc).__name__
        report = _report(command_label, "internal", [_witness(f"{name}: {exc}")],
                         data={"exception": name})
    try:
        print(json.dumps(report, indent=2))
        sys.stdout.flush()  # a closed reader raises here, inside the handler
    except BrokenPipeError:
        # The reader left early (`waveset ... | head`); point stdout at devnull so
        # the flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_CODES[report["status"]]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
