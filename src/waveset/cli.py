"""Command-line surface: exact verifications, constructions and reports.

Every invocation prints exactly one JSON report document on stdout and exits
with 0 (pass), 1 (a verification answered no), 2 (input error),
3 (inconclusive: a semi-decision exhausted its depth), or 4 (internal error:
an unexpected exception, named in the report).  Output is byte-deterministic
for identical inputs and flags.  Every yes or no is the library's: a report's
status and witnesses are those of the result its one library call returned
(``errors.Verdict``), or of the input error that ended the run.

`dimfun --depth` is 2 to 1024, so its window is at most 2050 deep; any other
depth is an input error, refused before any work (the README lists every budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any

from . import construct as cons
from . import figures, msf2d, serialize, spectral
from .errors import InputError, Verdict
from .intervals import Interval, IntervalSet
from .serialize import format_rational
from .spectral import StepFn

EXIT_CODES = {"pass": 0, "fail": 1, "error": 2, "inconclusive": 3, "internal": 4}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors (exit code 2)."""

    def error(self, message):  # noqa: A003 - argparse API
        raise InputError(f"{message}\n{self.format_usage()}")


def _witness(reason: str, at) -> dict:
    out: dict[str, Any] = {"reason": reason}
    if isinstance(at, Interval):
        out["interval"] = serialize.interval_to_json(at)
    elif at is not None:
        out["lattice_point"] = list(at)
    return out


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


def _cmd_verify(args) -> tuple[Verdict, dict]:
    if args.kind == "spectrum":
        verdict = spectral.validate_scaling_spectrum(_load_step_fn(args.file))
        return verdict, {"condition": verdict.condition} if verdict.condition else {}
    s = _load_interval_set(args.file)
    if args.kind == "wavelet-set":
        return cons.verify_wavelet_set(s), {"measure": format_rational(s.measure())}
    verdict = cons.verify_scaling_set(s)
    return verdict, {"S1": verdict.S1, "S2": verdict.S2, "S3": verdict.S3,
                     "measure": format_rational(s.measure())}


def _cmd_construct_scaling_set(args) -> tuple[Verdict, dict]:
    result = cons.lemma_r3_construct(_load_interval_set(args.file), args.depth_n, args.depth_j)
    return result, {
        "s": serialize.interval_set_to_json(result.s),
        "w": serialize.interval_set_to_json(result.w),
        "fast_path": result.fast_path,
        "s_measure": format_rational(result.s.measure()),
        "w_measure": format_rational(result.w.measure()),
    }


def _cmd_construct_rze(args) -> tuple[Verdict, dict]:
    result = cons.rze_pipeline(_load_step_fn(args.spectrum), args.depth_n, args.depth_j)
    return result, {
        "s": serialize.interval_set_to_json(result.s),
        "w": serialize.interval_set_to_json(result.w),
        "supp_psi": serialize.interval_set_to_json(result.supp_psi),
        "contained": result.contained,
        "leftover_measure": format_rational(result.leftover_measure),
        "psi_spectrum": serialize.step_fn_to_json(result.psi_spectrum),
    }


def _outcome_json(o: spectral.CheckOutcome) -> dict:
    out: dict[str, Any] = {"status": o.status}
    if o.witness is not None:
        out["witness"] = serialize.interval_to_json(o.witness)
    if o.note:
        out["note"] = o.note
    return out


def _cmd_dimfun(args) -> tuple[Verdict, dict]:
    h = _load_step_fn(args.file)
    if args.depth < 2:
        raise InputError(f"dimfun --depth is at least 2; got {args.depth}")
    rep = spectral.dimension_report(h, args.depth)
    checks, mra = rep.conditions, rep.mra
    return rep, {
        "window": serialize.dim_fn_window_to_json(rep.window),
        "conditions": {f"D{i}": _outcome_json(o)
                       for i, o in enumerate((checks.d1, checks.d2, checks.d3, checks.d4), 1)},
        "mra": {
            "status": mra.status,
            "witness": serialize.interval_to_json(mra.witness) if mra.witness else None,
            "note": mra.note,
        },
    }


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


def _cmd_calderon(args) -> tuple[Verdict, dict]:
    res = spectral.calderon(_load_step_fn(args.file))
    return res, _calderon_data(res)


def _cmd_tq(args) -> tuple[Verdict, dict]:
    res = spectral.tq_check(_load_step_fn(args.file), args.alpha)
    return res, {"alpha": args.alpha, "sum": serialize.step_fn_to_json(res.fn)}


def _tq_failures(failures: tuple[tuple[int, Interval], ...]) -> list[dict]:
    return [{"alpha": a, "interval": serialize.interval_to_json(iv)} for a, iv in failures]


def _cmd_orthonormal(args) -> tuple[Verdict, dict]:
    rep = spectral.orthonormality_check(_load_step_fn(args.file))
    return rep, {
        "norm_sq": format_rational(rep.norm_sq),
        "calderon": _calderon_data(rep.calderon),
        "alphas_checked": list(rep.alphas_checked),
        "tq_failures": _tq_failures(rep.tq_failures),
        "notes": list(rep.notes),
    }


def _cmd_psib(args) -> tuple[Verdict, dict]:
    rep = spectral.psi_b_report(args.b)
    return rep, {
        "b": format_rational(rep.b),
        "norm_sq": format_rational(rep.norm_sq),
        "calderon": _calderon_data(rep.calderon),
        "tq_failures": _tq_failures(rep.tq_failures),
        "orthonormal": rep.orthonormal,
        "table_row": rep.table_row,
        "consistent": rep.consistent,
        "notes": list(rep.notes),
    }


def _cmd_msf2d(args) -> tuple[Verdict, dict]:
    res = msf2d.wavelet_set_exists(_load_mat2(args.matrix), _load_mat2(args.lattice))
    return res, {
        "verdict": res.verdict,
        "detail": res.detail,
        "unit_eigenvalue": res.unit_eigenvalue,
        "witness": list(res.witness) if res.witness else None,
    }


def _cmd_lce(args) -> tuple[Verdict, dict]:
    a, p = _load_mat2(args.matrix), _load_mat2(args.lattice)
    rep = msf2d.lce_report(a, p, args.jmin, args.jmax, args.c)
    return rep, {
        "c": format_rational(rep.c),
        "rows": [{"j": row.j, "count": row.count, "bound_base": format_rational(row.bound_base),
                  "ratio": format_rational(row.ratio)} for row in rep.rows],
        "note": rep.note,
    }


def _cmd_plot(args) -> tuple[Verdict, dict]:
    obj = serialize.load_typed(_load_json(args.file))
    if isinstance(obj, msf2d.Mat2):
        raise InputError("matrices have no figure rendering; plot an interval set, "
                         "step function or dimension-function window")
    n = figures.emit_figure(obj, args.format, args.out)
    return Verdict(), {"out": args.out, "format": args.format, "bytes": n}


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
# A handler loads its input, makes one library call and returns its result
# with the report's data; it is named, and looked up when `run` dispatches,
# so that it can be replaced on the module like any other function.
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
    parser.set_defaults(handler=handler)


@functools.cache
def build_parser() -> _Parser:
    """The `waveset` parser with every subcommand, built once per process.

    Parsing leaves it unchanged, so every `run` reuses it.  Usage is formatted
    when an error is raised, so it follows the terminal width of that moment.
    """
    parser = _Parser(prog="waveset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, arguments, handler) in COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), arguments, handler)
    return parser


def _label(argv: list[str]) -> str:
    """The "command" of a run that fails before parsing, read off argv as `run` reads args."""
    if not argv or argv[0] not in COMMANDS:
        return "waveset"
    arguments = COMMANDS[argv[0]][1]  # construct's kinds, or verify's `kind` choices
    kinds = arguments if isinstance(arguments, dict) else next(
        (options["choices"] for flags, options in arguments if flags == ("kind",)), ())
    return f"{argv[0]} {argv[1]}" if len(argv) > 1 and argv[1] in kinds else argv[0]


class _Internal(Verdict):
    """An unexpected exception: a fault of the program, never "answered no"."""

    status = "internal"

    def __init__(self, exc: Exception):
        self.witnesses = (f"{type(exc).__name__}: {exc}", None),


def run(argv: list[str]) -> int:
    """Execute one command; print the JSON report; return the exit code."""
    label = _label(argv)
    try:
        args = build_parser().parse_args(argv)
        label = f"{args.command} {args.kind}" if "kind" in args else args.command
        result, data = globals()[args.handler](args)
    except InputError as exc:  # a PreconditionError names its condition
        result, data = exc, {"condition": exc.condition} if hasattr(exc, "condition") else {}
    except BrokenPipeError:
        raise
    except Exception as exc:
        result, data = _Internal(exc), {"exception": type(exc).__name__}
    # The one report encoder, for every command and every exception alike.
    report: dict[str, Any] = {"command": label, "status": result.status,
                              "witnesses": [_witness(*w) for w in result.witnesses]}
    if getattr(result, "defects", None) is not None:
        report["defects"] = serialize.defect_report_to_json(result.defects)
    report["data"] = data
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
