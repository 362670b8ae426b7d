"""One workload in a fresh interpreter: set up, run a closed loop, check every answer.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON object
on its last line of standard output.

    worker.py WORKLOAD SEED SECONDS TRACE T0 [--setup-only]

``T0`` is the parent's ``time.monotonic()`` just before this interpreter was
started (CLOCK_MONOTONIC is shared by all processes on Linux), so
``setup_s`` covers interpreter start, importing ``waveset`` and generating
the inputs.  Every reported time is scaled to the nominal machine speed of
``speed.py``; the raw wall-time figures go to the report too.
"""

from __future__ import annotations

import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import speed

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_SPEED_SAMPLES = 15
TRACED_ROUNDS = 3


def main(argv: list[str]) -> None:
    workload, seed, seconds, trace, t0 = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", float(argv[4])
    setup_only = "--setup-only" in argv

    start = perf_counter()
    import waveset.cli  # noqa: F401  (the whole package: every module loads here)
    import_s = perf_counter() - start

    module = importlib.import_module(f"wl_{workload}")
    ops = module.make_ops(seed)
    setup_wall_s = time.monotonic() - t0
    setup_s = setup_wall_s * speed.factor([speed.sample_ms() for _ in range(SETUP_SPEED_SAMPLES)])
    if setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return

    # Closed loop: whole rounds over the fixed list, until `seconds` have passed.
    # The first round is a warm-up (first calls, the interpreter's inline
    # caches) and is checked but not timed.  With tracing, the untraced rounds
    # take half the time and TRACED_ROUNDS more rounds run traced, so the
    # traced counts do not depend on the machine's speed.
    budget = seconds / 2 if trace else seconds
    first: list[object] = [None] * len(ops)
    unstable: set[int] = set()
    _round(module, ops, first, unstable, [], True)
    op_times: list[float] = []   # at nominal machine speed (see speed.py)
    round_times: list[float] = []
    wall_round_times: list[float] = []
    loop_start = perf_counter()
    while not round_times or perf_counter() - loop_start < budget:
        wall_ops: list[float] = []
        wall, f = _round(module, ops, first, unstable, wall_ops, False)
        wall_round_times.append(wall)
        round_times.append(wall * f)
        op_times += [t * f for t in wall_ops]

    traced_round = None
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = [_round(module, ops, first, unstable, [], False, tracer) for _ in range(TRACED_ROUNDS)]
        finally:
            tracer.uninstall()
        traced_round = statistics.median(wall * f for wall, f in traced)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Answer checks, outside every timed section.
    rng = random.Random(f"checks:{workload}:{seed}")
    failed_ops: dict[int, list[str]] = {}
    for i, op in enumerate(ops):
        result = first[i]
        if isinstance(result, OpError):
            problems = [result.text]
        else:
            try:
                problems = module.check(op, result, rng)
            except Exception:  # a checker crash must show, not pass
                problems = ["checker raised: " + traceback.format_exc(limit=3)]
        if i in unstable:
            problems.append("answer differs between rounds")
        if problems:
            failed_ops[i] = problems
    rounds = 1 + len(round_times) + (TRACED_ROUNDS if trace else 0)
    correct = all(ops[i].known_fault for i in failed_ops)
    for i, problems in failed_ops.items():
        tag = "known fault" if ops[i].known_fault else "WRONG"
        print(f"[{tag}] op {i} ({ops[i].kind}, {ops[i].size}): {problems[0]}", file=sys.stderr)

    report = {
        "correct": correct,
        "attempted": rounds * len(ops),
        "failed": rounds * len(failed_ops),
        "setup_s": setup_s,
        "ops_per_round": len(ops),
        "rounds": len(round_times),
        # Medians: a round or an operation slowed by other tenants of the
        # machine does not move them.
        "ops_per_s": len(ops) / statistics.median(round_times),
        "op_p50_ms": 1000 * statistics.median(op_times),
        "peak_rss_mb": peak_rss_mb,
        "wall_ops_per_s": len(ops) / statistics.median(wall_round_times),
        "wall_setup_s": setup_wall_s,
    }
    if trace:
        layer = tracer.metrics()
        layer["cli.import_s"] = import_s
        layer["trace.overhead_pct"] = 100 * (traced_round / statistics.median(round_times) - 1)
        report["per_layer"] = layer
        tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.json", [op.kind for op in ops])
    print(json.dumps(report))


class OpError:
    """An operation that raised; compared by text so repeats count as stable."""

    def __init__(self, exc: BaseException):
        self.text = f"raised {type(exc).__name__}: {exc}"

    def __eq__(self, other) -> bool:
        return isinstance(other, OpError) and other.text == self.text


def _round(module, ops, first, unstable, op_times, is_first, tracer=None) -> tuple[float, float]:
    """One pass over the list, the speed kernel run before each operation.

    Appends each operation's wall time to ``op_times`` and returns the summed
    wall time of the operations with the round's speed factor.
    """
    total = 0.0
    speed_ms = []
    for i, op in enumerate(ops):
        speed_ms.append(speed.sample_ms())
        if tracer is not None:
            tracer.begin_op(i, op.size)
        t = perf_counter()
        try:
            result = module.run(op)
        except Exception as exc:  # counted as a failed operation by the checks
            result = OpError(exc)
        elapsed = perf_counter() - t
        total += elapsed
        op_times.append(elapsed)
        if is_first:
            first[i] = result
        elif result != first[i]:
            unstable.add(i)
    return total, speed.factor(speed_ms)


if __name__ == "__main__":
    main(sys.argv[1:])
