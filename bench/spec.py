"""The benchmark's fixed description; ``run.py --write-spec`` renders it as BENCHMARK.json."""

from __future__ import annotations

from spans import PER_LAYER

RUN_SECONDS = 20

WORKLOADS = [
    ("construct", "scaling sets built in generated supports and W = 2S minus S decided: "
                  "intervals, torus and construct work, msf2d idle"),
    ("spectra", "full diagnosis of step spectra (psi_b, MRA, Journe-type, random): "
                "spectral and torus.sweep_weighted work, construct and msf2d idle"),
    ("planar", "existence decisions and lattice counts at two scales for 2x2 dilations: "
               "only msf2d works"),
    ("cli", "every README command through waveset.cli.run on seeded files: parsing, "
            "loading, reports and figures, plus three malformed documents"),
]

# Bounds: the share of the parent's median by which a metric may worsen.
# They are set from the run-to-run spread measured in bench/README.md.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.15),
    ("op_p50_ms", "ms", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER
        ],
    }
