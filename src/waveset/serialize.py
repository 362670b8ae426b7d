"""Bit-exact JSON interchange for the domain values.

Every number crosses the boundary as an exact rational string "p/q" or "n";
floating point never appears in any file.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable

from .construct import DefectReport
from .errors import InputError
from .intervals import Interval, IntervalSet, normalize, rat
from .msf2d import Mat2, QuadScalar
from .spectral import StepFn
from .torus import DimFnWindow


def format_rational(x: Fraction) -> str:
    return str(rat(x))  # "n" or "p/q", as Fraction prints itself


def parse_rational(s: Any) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise InputError(f"rationals must be strings or integers, got {s!r}")
    return rat(s)


def pieces_to_json(pieces: Iterable[tuple[Fraction, Fraction, Fraction]]) -> list[dict]:
    """Sorted (lo, hi, value) pieces as report pieces {"interval": [lo, hi], "value": v}; a
    break that ends one piece and starts the next is formatted once."""
    out, end, text = [], None, None
    for a, b, v in pieces:
        lo = text if a == end else format_rational(a)
        end, text = b, format_rational(b)
        out.append({"interval": [lo, text], "value": format_rational(v)})
    return out


# ------------------------------------------------------------ IntervalSet


def interval_set_to_json(s: IntervalSet) -> dict:
    return {
        "type": "interval_set",
        "intervals": [[format_rational(p.lo), format_rational(p.hi)] for p in s.parts],
    }


def interval_set_from_json(obj: Any) -> IntervalSet:
    if not isinstance(obj, dict) or obj.get("type") != "interval_set":
        raise InputError('expected {"type": "interval_set", ...}')
    raw = obj.get("intervals")
    if not isinstance(raw, list):
        raise InputError('"intervals" must be a list of [lo, hi] pairs')
    pairs = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError(f"bad interval entry {entry!r}")
        pairs.append((parse_rational(entry[0]), parse_rational(entry[1])))
    return normalize(pairs)


# ----------------------------------------------------------------- StepFn


def step_fn_to_json(f: StepFn) -> dict:
    return {
        "type": "step_fn",
        "pieces": pieces_to_json((iv.lo, iv.hi, v) for iv, v in f.pieces),
    }


def step_fn_from_json(obj: Any) -> StepFn:
    if not isinstance(obj, dict) or obj.get("type") != "step_fn":
        raise InputError('expected {"type": "step_fn", ...}')
    raw = obj.get("pieces")
    if not isinstance(raw, list):
        raise InputError('"pieces" must be a list')
    pieces = []
    for entry in raw:
        a, b, v = _piece_from_json(entry)
        pieces.append(((a, b), v))
    return StepFn.build(pieces)


def _piece_from_json(entry: Any) -> tuple[Fraction, Fraction, Fraction]:
    """An {"interval": [lo, hi], "value": v} piece as exact (lo, hi, v)."""
    if not isinstance(entry, dict) or "interval" not in entry or "value" not in entry:
        raise InputError(f"bad step piece {entry!r}")
    iv = entry["interval"]
    if not isinstance(iv, list) or len(iv) != 2:
        raise InputError(f"bad piece interval {iv!r}")
    return parse_rational(iv[0]), parse_rational(iv[1]), parse_rational(entry["value"])


# ------------------------------------------------------------------- Mat2


def _scalar_to_json(x: QuadScalar):
    if x.is_rational:
        return format_rational(x.a)
    return {"a": format_rational(x.a), "b": format_rational(x.b), "d": x.d}


def _scalar_from_json(obj: Any) -> QuadScalar:
    if isinstance(obj, dict):
        missing = {"a", "b", "d"} - set(obj)
        if missing:
            raise InputError(f"quadratic scalar needs keys a, b, d; missing {sorted(missing)}")
        if not isinstance(obj["d"], int):
            raise InputError("field tag d must be an integer")
        return QuadScalar(parse_rational(obj["a"]), parse_rational(obj["b"]), obj["d"])
    return QuadScalar(parse_rational(obj))


def mat2_to_json(m: Mat2) -> dict:
    return {
        "type": "mat2",
        "entries": [[_scalar_to_json(e) for e in row] for row in m.entries],
    }


def mat2_from_json(obj: Any) -> Mat2:
    if not isinstance(obj, dict) or obj.get("type") != "mat2":
        raise InputError('expected {"type": "mat2", ...}')
    raw = obj.get("entries")
    if not isinstance(raw, list) or len(raw) != 2 or any(
        not isinstance(r, list) or len(r) != 2 for r in raw
    ):
        raise InputError('"entries" must be a 2x2 array')
    return Mat2.from_rows([[_scalar_from_json(e) for e in row] for row in raw])


# ------------------------------------------------------- report payloads


def dim_fn_window_to_json(w: DimFnWindow) -> dict:
    return {
        "type": "dim_fn_window",
        "depth": w.depth_L,
        "window": [format_rational(w.breaks[0]), format_rational(w.breaks[-1])],
        "pieces": pieces_to_json(w.pieces()),
        "boundary_note": w.boundary_note,
    }


def dim_fn_window_from_json(obj: Any) -> DimFnWindow:
    if not isinstance(obj, dict) or obj.get("type") != "dim_fn_window":
        raise InputError('expected {"type": "dim_fn_window", ...}')
    pieces = obj.get("pieces")
    if not isinstance(pieces, list) or not pieces:
        raise InputError('"pieces" must be a nonempty list')
    depth = obj.get("depth", 0)
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise InputError(f'"depth" must be an integer, got {depth!r}')
    boundary_note = obj.get("boundary_note", True)
    if not isinstance(boundary_note, bool):
        raise InputError(f'"boundary_note" must be true or false, got {boundary_note!r}')
    breaks: list[Fraction] = []
    values = []
    for entry in pieces:
        a, b, v = _piece_from_json(entry)
        if not breaks:
            breaks.append(a)
        elif a != breaks[-1]:
            raise InputError("window pieces must be contiguous")
        breaks.append(b)
        values.append(v)
    window = DimFnWindow(tuple(breaks), tuple(values), depth, boundary_note)
    if depth < 0:
        raise InputError(f'"depth" must be a nonnegative integer, got {depth}')
    return window


def defect_report_to_json(d: DefectReport) -> dict:
    return {
        "s1_defect": format_rational(d.s1_defect),
        "coverage_defect": format_rational(d.coverage_defect),
        "containment_exact": d.containment_exact,
        "depth_n": d.depth_n,
        "depth_j": d.depth_j,
    }


def interval_to_json(iv: Interval) -> list[str]:
    return [format_rational(iv.lo), format_rational(iv.hi)]


def load_typed(obj: Any):
    """Dispatch a JSON document on its "type" tag."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError('document must be a JSON object with a "type" field')
    tag = obj["type"]
    loaders = {
        "interval_set": interval_set_from_json,
        "step_fn": step_fn_from_json,
        "mat2": mat2_from_json,
        "dim_fn_window": dim_fn_window_from_json,
    }
    if not isinstance(tag, str) or tag not in loaders:
        raise InputError(f"unsupported document type {tag!r}")
    return loaders[tag](obj)
