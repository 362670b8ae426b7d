"""Static figure emission: exact CSV tables and deterministic SVG plots.

CSV rows carry exact rational strings.  SVG coordinates are formatted with a
fixed precision so identical inputs produce byte-identical files; tick labels
stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import InputError
from .intervals import IntervalSet
from .serialize import format_rational
from .spectral import StepFn
from .torus import DimFnWindow

Plottable = Union[IntervalSet, StepFn, DimFnWindow]

_WIDTH = 800
_HEIGHT_LINE = 120
_HEIGHT_STEP = 320
_MARGIN = 50


def render_csv(obj: Plottable) -> str:
    if isinstance(obj, IntervalSet):
        lines = ["lo,hi"]
        lines += [f"{format_rational(p.lo)},{format_rational(p.hi)}" for p in obj.parts]
    elif isinstance(obj, StepFn):
        lines = ["lo,hi,value"]
        lines += [
            f"{format_rational(iv.lo)},{format_rational(iv.hi)},{format_rational(v)}"
            for iv, v in obj.pieces
        ]
    elif isinstance(obj, DimFnWindow):
        lines = ["break,value"]
        lines += [f"{format_rational(a)},{format_rational(v)}" for a, _, v in obj.pieces()]
        lines.append(f"{format_rational(obj.breaks[-1])},")
    else:
        raise InputError(f"cannot render {type(obj).__name__} as a figure")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _x_mapper(lo: Fraction, hi: Fraction):
    width = hi - lo
    if width == 0:
        width = Fraction(1)

    def to_x(v: Fraction) -> float:
        return _MARGIN + float((v - lo) / width) * (_WIDTH - 2 * _MARGIN)

    return to_x


def _svg_header(height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>',
    ]


def _render_number_line(obj: IntervalSet) -> str:
    height = _HEIGHT_LINE
    parts = obj.parts
    out = _svg_header(height)
    axis_y = height // 2
    out.append(
        f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{_WIDTH - _MARGIN}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    if parts:
        lo, hi = parts[0].lo, parts[-1].hi
        pad = (hi - lo) / 10 if hi > lo else Fraction(1)
        to_x = _x_mapper(lo - pad, hi + pad)
        for p in parts:
            x1, x2 = to_x(p.lo), to_x(p.hi)
            out.append(
                f'<line x1="{_fmt(x1)}" y1="{axis_y}" x2="{_fmt(x2)}" y2="{axis_y}" '
                'stroke="steelblue" stroke-width="8" stroke-linecap="butt"/>'
            )
            for v, x in ((p.lo, x1), (p.hi, x2)):
                out.append(
                    f'<line x1="{_fmt(x)}" y1="{axis_y - 8}" x2="{_fmt(x)}" '
                    f'y2="{axis_y + 8}" stroke="black" stroke-width="1"/>'
                )
                out.append(
                    f'<text x="{_fmt(x)}" y="{axis_y + 24}" font-size="11" '
                    f'text-anchor="middle">{format_rational(v)}</text>'
                )
    else:
        out.append(
            f'<text x="{_WIDTH // 2}" y="{axis_y - 12}" font-size="12" '
            'text-anchor="middle">empty set</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _render_step(atoms: list[tuple[Fraction, Fraction, Fraction]]) -> str:
    height = _HEIGHT_STEP
    out = _svg_header(height)
    base_y = height - _MARGIN
    if atoms:
        lo, hi = atoms[0][0], atoms[-1][1]
        pad = (hi - lo) / 10 if hi > lo else Fraction(1)
        to_x = _x_mapper(lo - pad, hi + pad)
        vmax = max(max((v for *_, v in atoms), default=Fraction(0)), Fraction(1))
        vmin = min(min((v for *_, v in atoms), default=Fraction(0)), Fraction(0))
        vspan = vmax - vmin if vmax > vmin else Fraction(1)

        def to_y(v: Fraction) -> float:
            return base_y - float((v - vmin) / vspan) * (height - 2 * _MARGIN)

        zero_y = to_y(Fraction(0))
        out.append(
            f'<line x1="{_MARGIN}" y1="{_fmt(zero_y)}" x2="{_WIDTH - _MARGIN}" '
            f'y2="{_fmt(zero_y)}" stroke="black" stroke-width="1"/>'
        )
        labelled: set[Fraction] = set()
        for a, b, v in atoms:
            x1, x2, y = to_x(a), to_x(b), to_y(v)
            out.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y)}" x2="{_fmt(x2)}" y2="{_fmt(y)}" '
                'stroke="firebrick" stroke-width="3"/>'
            )
            if v not in labelled:
                labelled.add(v)
                out.append(
                    f'<text x="{_fmt(_MARGIN - 6)}" y="{_fmt(y + 4)}" font-size="11" '
                    f'text-anchor="end">{format_rational(v)}</text>'
                )
        for v, x in ((atoms[0][0], to_x(atoms[0][0])), (atoms[-1][1], to_x(atoms[-1][1]))):
            out.append(
                f'<text x="{_fmt(x)}" y="{_fmt(base_y + 18)}" font-size="11" '
                f'text-anchor="middle">{format_rational(v)}</text>'
            )
    else:
        out.append(
            f'<text x="{_WIDTH // 2}" y="{height // 2}" font-size="12" '
            'text-anchor="middle">zero function</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_svg(obj: Plottable) -> str:
    if isinstance(obj, IntervalSet):
        return _render_number_line(obj)
    if isinstance(obj, StepFn):
        return _render_step([(iv.lo, iv.hi, v) for iv, v in obj.pieces])
    if isinstance(obj, DimFnWindow):
        return _render_step(list(obj.pieces()))
    raise InputError(f"cannot render {type(obj).__name__} as a figure")


def emit_figure(obj: Plottable, fmt: str, out_path: str) -> int:
    """Write the figure file; returns the number of bytes written."""
    if fmt == "csv":
        payload = render_csv(obj)
    elif fmt == "svg":
        payload = render_svg(obj)
    else:
        raise InputError(f"unsupported figure format {fmt!r} (use csv or svg)")
    data = payload.encode("utf-8")
    try:
        with open(out_path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc}") from None
    return len(data)
