"""Fuzz the input boundary: every document kind through every subcommand.

Well-formed and mutated ``interval_set``, ``step_fn``, ``mat2`` and
``dim_fn_window`` documents (wrong types, missing keys, inverted or
zero-length intervals, bad rationals, text that is not JSON) go through each
subcommand with ``cli.run``.  Each run must print exactly one JSON document
and exit with a documented code other than 4 (an internal error).
"""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveset import cli

small_ints = st.integers(min_value=-64, max_value=64)
depths = st.integers(min_value=0, max_value=8)


@st.composite
def rationals(draw):
    """A well-formed rational: an integer or a "p/q" string, |p| and q at most 64."""
    p, q = draw(small_ints), draw(st.integers(min_value=1, max_value=64))
    return draw(st.sampled_from([p, str(p), f"{p}/{q}"]))


JUNK = st.sampled_from([None, True, 1.5, "", "x", "1/0", "1//2", "0x10", "-", [], {}, [1, 2, 3]])
values = st.one_of(rationals(), JUNK)


@st.composite
def intervals(draw):
    """[lo, hi] pairs: ordered, inverted, zero-length, wrong length or not a list."""
    lo, hi = draw(rationals()), draw(rationals())
    return draw(st.sampled_from([[lo, hi], [hi, lo], [lo, lo], [lo], [lo, hi, hi], lo,
                                 [lo, draw(values)]]))


def pieces(draw, n):
    out = []
    for _ in range(n):
        piece = {"interval": draw(intervals()), "value": draw(values)}
        dropped = draw(st.sampled_from([None, None, None, "interval", "value"]))
        piece.pop(dropped, None)
        out.append(piece)
    return out


@st.composite
def documents(draw):
    """One document of each kind, possibly mutated, as the text of a file."""
    n = draw(st.integers(min_value=0, max_value=6))
    kind = draw(st.sampled_from(["interval_set", "step_fn", "mat2", "dim_fn_window", "junk"]))
    if kind == "interval_set":
        doc = {"type": kind, "intervals": [draw(intervals()) for _ in range(n)]}
    elif kind == "step_fn":
        doc = {"type": kind, "pieces": pieces(draw, n)}
    elif kind == "mat2":
        scalar = st.one_of(values, st.fixed_dictionaries(
            {"a": values, "b": values, "d": st.one_of(st.integers(-3, 12), JUNK)}))
        doc = {"type": kind, "entries": [[draw(scalar) for _ in range(2)] for _ in range(2)]}
    elif kind == "dim_fn_window":
        doc = {"type": kind, "depth": draw(st.one_of(depths, JUNK)),
               "window": [draw(values), draw(values)], "pieces": pieces(draw, n),
               "boundary_note": draw(st.one_of(st.booleans(), JUNK))}
    else:
        return draw(st.sampled_from(["", "{", "[]", "3", "null", '"interval_set"', '{"type": 3}']))
    mutation = draw(st.sampled_from(["none", "none", "drop", "replace", "retag"]))
    key = draw(st.sampled_from(sorted(doc)))
    if mutation == "drop":
        del doc[key]
    elif mutation == "replace":
        doc[key] = draw(JUNK)
    elif mutation == "retag":
        doc["type"] = draw(st.sampled_from(["interval_set", "step_fn", "mat2", "dim_fn_window",
                                            "intervals", 7]))
    return json.dumps(doc)


def argvs(path, out, dn, dj, depth, alpha, b, c, jmin, jmax):
    """Every subcommand, reading the document at ``path`` wherever one is read."""
    d = ["--depth-n", str(dn), "--depth-j", str(dj)]
    return [
        ["verify", "scaling-set", path],
        ["verify", "wavelet-set", path],
        ["verify", "spectrum", path],
        ["construct", "scaling-set", path, *d],
        ["construct", "rze", "--spectrum", path, *d],
        ["dimfun", path, "--depth", str(depth)],
        ["calderon", path],
        ["tq", path, "--alpha", str(alpha)],
        ["orthonormal", path],
        ["psib", "--b", str(b)],
        ["msf2d", "--matrix", path, "--lattice", "id"],
        ["msf2d", "--matrix", "id", "--lattice", path],
        ["lce", "--matrix", path, "--lattice", "id", "--jmin", str(jmin), "--jmax", str(jmax),
         "--c", str(c)],
        ["plot", path, "--format", "svg", "--out", out],
        ["plot", path, "--format", "csv", "--out", out],
    ]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None)
@given(documents(), depths, depths, depths, st.integers(-9, 9), values, values,
       st.integers(-3, 3), st.integers(-3, 3))
def test_every_subcommand_reports_once_without_internal_error(
        workdir, text, dn, dj, depth, alpha, b, c, jmin, jmax):
    path = workdir / "doc.json"
    path.write_text(text)
    for argv in argvs(str(path), str(workdir / "fig"), dn, dj, depth, alpha, b, c, jmin, jmax):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run(argv)
        out = buf.getvalue()
        report, end = json.JSONDecoder().raw_decode(out)
        assert not out[end:].strip(), f"{argv}: more than one document"
        assert code in (0, 1, 2, 3), f"{argv} on {text}: exit {code}, {report}"
        assert cli.EXIT_CODES[report["status"]] == code
