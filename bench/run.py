"""Benchmark entry point: run one workload from a seed and print its metrics.

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the root of a checkout.  Every measurement happens in a fresh
interpreter (``worker.py``) importing ``waveset`` from this checkout's
``src/``: SETUP_REPEATS interpreters only set up (import plus input
generation), to give a median ``setup_s``, then one runs the closed loop
for ``--seconds`` and checks every answer.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``), each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
from spans import PER_LAYER  # noqa: E402

SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 150


def _worker(args, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args()

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "waveset" / "__init__.py").is_file():
        print(f"no waveset sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    setups = [_worker(args, ["--setup-only"], 60)["setup_s"] for _ in range(SETUP_REPEATS)]
    main_run = _worker(args, [], CHILD_TIMEOUT_S)
    setups.append(main_run["setup_s"])

    if args.trace:
        metrics = {name: {"value": main_run["per_layer"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "ops_per_s": main_run["ops_per_s"],
            "op_p50_ms": main_run["op_p50_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in spec.END_TO_END}
    print(f"{args.workload} seed {args.seed}: {main_run['rounds']} timed rounds of "
          f"{main_run['ops_per_round']} operations; unscaled wall time: "
          f"{main_run['wall_ops_per_s']:.4g} ops/s, set-up {main_run['wall_setup_s']:.4g} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": main_run["correct"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
