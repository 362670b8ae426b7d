"""Static figure emission: exact CSV tables and deterministic SVG plots.

Every figure reads one row table (``_rows``): an interval set's parts, a step
function's pieces, or a window's breaks with the value that starts at each.
CSV rows carry exact rational strings.  SVG draws the rows in one frame, on an
x-axis padded by a tenth of their span; coordinates are formatted with a fixed
precision so identical inputs produce byte-identical files, and tick labels
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


def _rows(obj: Plottable) -> tuple[str, list[tuple]]:
    """The CSV header and exact rows of a figure: (lo, hi) per part of an interval set,
    (lo, hi, value) per piece of a step function, (break, value) per piece of a window and
    its last break valued None."""
    if isinstance(obj, IntervalSet):
        return "lo,hi", [(p.lo, p.hi) for p in obj.parts]
    if isinstance(obj, StepFn):
        return "lo,hi,value", [(iv.lo, iv.hi, v) for iv, v in obj.pieces]
    if isinstance(obj, DimFnWindow):
        return "break,value", [(a, v) for a, _, v in obj.pieces()] + [(obj.breaks[-1], None)]
    raise InputError(f"cannot render {type(obj).__name__} as a figure")


def render_csv(obj: Plottable) -> str:
    header, rows = _rows(obj)
    lines = [header]
    lines += [",".join("" if x is None else format_rational(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _svg(height: int, rows: list[tuple], draw, empty: str, empty_y: int, lead=()) -> str:
    """One figure in the frame: header and white background, the ``lead`` lines, then the
    lines of ``draw(to_x)`` (to_x maps the rows' span, padded by a tenth of it on each side,
    onto the width), or the label ``empty`` when there are no rows, and the closing tag."""
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>',
        *lead,
    ]
    if rows:
        lo, hi = rows[0][0], rows[-1][1]
        pad = (hi - lo) / 10
        lo, width = lo - pad, hi - lo + 2 * pad
        out += draw(lambda v: _MARGIN + float((v - lo) / width) * (_WIDTH - 2 * _MARGIN))
    else:
        out.append(
            f'<text x="{_WIDTH // 2}" y="{empty_y}" font-size="12" '
            f'text-anchor="middle">{empty}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _render_number_line(parts: list[tuple[Fraction, Fraction]]) -> str:
    axis_y = _HEIGHT_LINE // 2
    axis = (
        f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{_WIDTH - _MARGIN}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )

    def draw(to_x):
        for lo, hi in parts:
            x1, x2 = to_x(lo), to_x(hi)
            yield (
                f'<line x1="{_fmt(x1)}" y1="{axis_y}" x2="{_fmt(x2)}" y2="{axis_y}" '
                'stroke="steelblue" stroke-width="8" stroke-linecap="butt"/>'
            )
            for v, x in ((lo, x1), (hi, x2)):
                yield (
                    f'<line x1="{_fmt(x)}" y1="{axis_y - 8}" x2="{_fmt(x)}" '
                    f'y2="{axis_y + 8}" stroke="black" stroke-width="1"/>'
                )
                yield (
                    f'<text x="{_fmt(x)}" y="{axis_y + 24}" font-size="11" '
                    f'text-anchor="middle">{format_rational(v)}</text>'
                )

    return _svg(_HEIGHT_LINE, parts, draw, "empty set", axis_y - 12, [axis])


def _render_step(atoms: list[tuple[Fraction, Fraction, Fraction]]) -> str:
    height = _HEIGHT_STEP
    base_y = height - _MARGIN

    def draw(to_x):
        vmax = max(max(v for *_, v in atoms), Fraction(1))
        vmin = min(min(v for *_, v in atoms), Fraction(0))
        vspan = vmax - vmin

        def to_y(v: Fraction) -> float:
            return base_y - float((v - vmin) / vspan) * (height - 2 * _MARGIN)

        zero_y = to_y(Fraction(0))
        yield (
            f'<line x1="{_MARGIN}" y1="{_fmt(zero_y)}" x2="{_WIDTH - _MARGIN}" '
            f'y2="{_fmt(zero_y)}" stroke="black" stroke-width="1"/>'
        )
        labelled: set[Fraction] = set()
        for a, b, v in atoms:
            x1, x2, y = to_x(a), to_x(b), to_y(v)
            yield (
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y)}" x2="{_fmt(x2)}" y2="{_fmt(y)}" '
                'stroke="firebrick" stroke-width="3"/>'
            )
            if v not in labelled:
                labelled.add(v)
                yield (
                    f'<text x="{_fmt(_MARGIN - 6)}" y="{_fmt(y + 4)}" font-size="11" '
                    f'text-anchor="end">{format_rational(v)}</text>'
                )
        for v, x in ((atoms[0][0], to_x(atoms[0][0])), (atoms[-1][1], to_x(atoms[-1][1]))):
            yield (
                f'<text x="{_fmt(x)}" y="{_fmt(base_y + 18)}" font-size="11" '
                f'text-anchor="middle">{format_rational(v)}</text>'
            )

    return _svg(height, atoms, draw, "zero function", height // 2)


def render_svg(obj: Plottable) -> str:
    header, rows = _rows(obj)
    if header == "lo,hi":
        return _render_number_line(rows)
    if header == "break,value":  # a window's piece runs from its break to the next
        rows = [(a, b, v) for (a, v), (b, _) in zip(rows, rows[1:])]
    return _render_step(rows)


def emit_figure(obj: Plottable, fmt: str, out_path: str) -> int:
    """Write the figure file; returns the number of bytes written."""
    renderers = {"csv": render_csv, "svg": render_svg}
    if fmt not in renderers:
        raise InputError(f"unsupported figure format {fmt!r} (use csv or svg)")
    data = renderers[fmt](obj).encode("utf-8")
    try:
        with open(out_path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc}") from None
    return len(data)
