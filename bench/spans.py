"""Spans around the public functions of ``waveset``, installed from outside.

The traced run wraps each function listed in ``TARGETS`` (and every alias
of it, including names other modules imported directly, such as
``construct.extract_transversal``) with a recorder.  A span holds its
target, start, end, parent span, the operation it belongs to and that
operation's size class.  Spans stay in memory in flat arrays and are
written out when the run ends; the per-layer metrics are derived from them.
``src/`` is not modified.
"""

from __future__ import annotations

import json
import statistics
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (span name, module, class or None, attribute).  Span names sharing a
# metric prefix are summed into it: see METRIC_GROUPS.
INTERVAL_METHODS = ("measure", "span", "contains_point", "contains_interval", "union",
                    "intersect", "subtract", "subset_mod_null", "sym_diff_measure",
                    "scale", "translate")
TARGETS = (
    [("intervals.normalize", "waveset.intervals", None, "normalize")]
    + [(f"intervals.IntervalSet.{m}", "waveset.intervals", "IntervalSet", m) for m in INTERVAL_METHODS]
    + [(f"torus.{f}", "waveset.torus", None, f) for f in
       ("sweep_weighted", "extract_transversal", "periodize_window", "fold_multiplicity")]
    + [(f"construct.{f}", "waveset.construct", None, f) for f in
       ("lemma_r3_construct", "verify_wavelet_set", "rze_pipeline")]
    + [(f"spectral.{f}", "waveset.spectral", None, f) for f in
       ("dimension_function", "check_D1_D4", "calderon", "tq_check", "validate_scaling_spectrum")]
    + [("spectral.StepFn.combine", "waveset.spectral", "StepFn", "combine")]
    + [(f"msf2d.{f}", "waveset.msf2d", None, f) for f in ("lattice_count", "wavelet_set_exists")]
    + [(f"serialize.load.{f}", "waveset.serialize", None, f) for f in
       ("interval_set_from_json", "step_fn_from_json", "mat2_from_json",
        "dim_fn_window_from_json", "load_typed")]
    + [(f"serialize.dump.{f}", "waveset.serialize", None, f) for f in
       ("interval_set_to_json", "step_fn_to_json", "mat2_to_json", "dim_fn_window_to_json",
        "defect_report_to_json", "interval_to_json")]
    + [("cli.build_parser", "waveset.cli", None, "build_parser"),
       ("cli.run", "waveset.cli", None, "run"),
       ("figures.emit_figure", "waveset.figures", None, "emit_figure")]
)

METRIC_GROUPS = ("intervals", "serialize.load", "serialize.dump")

# Per-layer metrics: (metric, unit).  Order is the order of BENCHMARK.json.
PER_LAYER = [
    ("intervals.calls", "count"), ("intervals.self_ms", "ms"),
    ("torus.sweep_weighted.calls", "count"), ("torus.sweep_weighted.fragments", "count"),
    ("torus.sweep_weighted.self_ms", "ms"),
    ("torus.extract_transversal.calls", "count"), ("torus.extract_transversal.self_ms", "ms"),
    ("torus.extract_transversal.s1.p50_ms", "ms"), ("torus.extract_transversal.s2.p50_ms", "ms"),
    ("torus.periodize_window.calls", "count"), ("torus.periodize_window.self_ms", "ms"),
    ("torus.fold_multiplicity.calls", "count"), ("torus.fold_multiplicity.self_ms", "ms"),
    ("construct.lemma_r3_construct.calls", "count"), ("construct.lemma_r3_construct.self_ms", "ms"),
    ("construct.lemma_r3_construct.s1.p50_ms", "ms"), ("construct.lemma_r3_construct.s2.p50_ms", "ms"),
    ("construct.verify_wavelet_set.calls", "count"), ("construct.verify_wavelet_set.self_ms", "ms"),
    ("construct.rze_pipeline.calls", "count"), ("construct.rze_pipeline.self_ms", "ms"),
    ("spectral.dimension_function.calls", "count"), ("spectral.dimension_function.self_ms", "ms"),
    ("spectral.dimension_function.s1.p50_ms", "ms"), ("spectral.dimension_function.s2.p50_ms", "ms"),
    ("spectral.check_D1_D4.self_ms", "ms"), ("spectral.calderon.self_ms", "ms"),
    ("spectral.tq_check.calls", "count"), ("spectral.tq_check.self_ms", "ms"),
    ("spectral.tq_check.s1.p50_ms", "ms"), ("spectral.tq_check.s2.p50_ms", "ms"),
    ("spectral.StepFn.combine.calls", "count"), ("spectral.StepFn.combine.self_ms", "ms"),
    ("spectral.validate_scaling_spectrum.self_ms", "ms"),
    ("spectral.validate_scaling_spectrum.s1.p50_ms", "ms"),
    ("spectral.validate_scaling_spectrum.s2.p50_ms", "ms"),
    ("msf2d.lattice_count.calls", "count"), ("msf2d.lattice_count.self_ms", "ms"),
    ("msf2d.lattice_count.s1.p50_ms", "ms"), ("msf2d.lattice_count.s2.p50_ms", "ms"),
    ("msf2d.wavelet_set_exists.calls", "count"), ("msf2d.wavelet_set_exists.self_ms", "ms"),
    ("msf2d.wavelet_set_exists.p50_ms", "ms"),
    ("serialize.load.calls", "count"), ("serialize.load.self_ms", "ms"),
    ("serialize.dump.self_ms", "ms"),
    ("cli.build_parser.calls", "count"), ("cli.build_parser.self_ms", "ms"),
    ("cli.run.self_ms", "ms"), ("cli.import_s", "s"),
    ("figures.emit_figure.calls", "count"), ("figures.emit_figure.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
]

_ACTIVE: "Tracer | None" = None


@contextmanager
def size_class(name: str):
    """Attribute the spans opened inside to size class ``name`` (no-op when not tracing)."""
    tracer = _ACTIVE
    if tracer is None:
        yield
        return
    previous = tracer.size
    tracer.size = tracer.size_id(name)
    try:
        yield
    finally:
        tracer.size = previous


class Tracer:
    def __init__(self) -> None:
        self.names = [name for name, *_ in TARGETS]
        self.sizes: list[str] = []
        self.name_col = array("i")
        self.size_col = array("i")
        self.op_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.size = -1
        self.fragments = 0
        self._undo: list[tuple[object, str, object]] = []

    def size_id(self, name: str) -> int:
        if name not in self.sizes:
            self.sizes.append(name)
        return self.sizes.index(name)

    def begin_op(self, index: int, size: str) -> None:
        self.op = index
        self.size = self.size_id(size)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name_id: int, fn, count_fragments: bool):
        name_col, size_col, op_col = self.name_col, self.size_col, self.op_col
        parent_col, start_col, end_col, stack = self.parent_col, self.start_col, self.end_col, self.stack
        tracer = self

        def traced(*args, **kwargs):
            if count_fragments:
                args = (list(args[0]),) + args[1:]
                tracer.fragments += len(args[0])
            idx = len(start_col)
            name_col.append(name_id)
            size_col.append(tracer.size)
            op_col.append(tracer.op)
            parent_col.append(stack[-1] if stack else -1)
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start_col[idx] = t0
                end_col[idx] = t1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        global _ACTIVE
        modules = [m for n, m in sys.modules.items() if n == "waveset" or n.startswith("waveset.")]
        for name_id, (name, module, cls, attr) in enumerate(TARGETS):
            owner = sys.modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            wrapped = self._wrap(name_id, original, name == "torus.sweep_weighted")
            # Replace every binding of the original: its home, class aliases
            # such as IntervalSet.__or__, and names imported into other modules.
            holders = [owner] if cls is not None else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapped)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()
        _ACTIVE = None

    # ------------------------------------------------------------- output

    def write(self, path: Path, op_kinds: list[str]) -> None:
        """Spans as a JSON header plus the raw columns, in the header's order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [("name", self.name_col), ("size", self.size_col), ("op", self.op_col),
                   ("parent", self.parent_col), ("start", self.start_col), ("end", self.end_col)]
        header = {
            "spans": len(self.start_col),
            "names": self.names,
            "sizes": self.sizes,
            "ops": op_kinds,
            "columns": [[n, col.typecode, col.itemsize] for n, col in columns],
            "data": path.with_suffix(".bin").name,
        }
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        path.write_text(json.dumps(header, indent=1) + "\n")

    def metrics(self) -> dict[str, float]:
        """Calls, self time and per-size-class medians per metric name."""
        n = len(self.start_col)
        dur = [self.end_col[i] - self.start_col[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent_col[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        per_size: dict[tuple[str, str], list[float]] = {}
        every: dict[str, list[float]] = {}
        for i in range(n):
            name = self.names[self.name_col[i]]
            for group in METRIC_GROUPS:
                if name.startswith(group + "."):
                    name = group
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            every.setdefault(name, []).append(dur[i])
            size = self.sizes[self.size_col[i]] if self.size_col[i] >= 0 else ""
            per_size.setdefault((name, size), []).append(dur[i])
        out: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(base, 0)
            elif stat == "fragments":
                out[metric] = self.fragments
            elif stat == "self_ms":
                out[metric] = 1000 * self_s.get(base, 0.0)
            elif stat == "p50_ms":
                head, _, size = base.rpartition(".")
                if size in ("s1", "s2"):
                    samples = per_size.get((head, size), [])
                else:
                    samples = every.get(base, [])
                out[metric] = 1000 * statistics.median(samples) if samples else 0.0
        return out
