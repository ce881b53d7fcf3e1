"""What the benchmark measures: workloads, metrics, bounds and run length.

BENCHMARK.json at the repository root is generated from this module:

    python3 perfbench/spec.py    # rewrite BENCHMARK.json
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import per_layer_metrics  # noqa: E402

RUN_SECONDS = 27

# Fresh launches per run whose median is setup_s: the workload process
# itself and probes that warm up and exit, PROBES_PER_GAP of them before
# the workload process and after each of its rounds, the rest after the
# last round.
SETUP_LAUNCHES = 9
PROBES_PER_GAP = 2

# BLAS threads in every process the benchmark starts (see README.md).
BLAS_THREADS = 1

# (name, why) in run order; the names match workloads.WORKLOADS.
WORKLOADS = (
    ("verify-full", "the full verify-paper suite: many small matrices in ortho, goodness "
                    "SVDs, moment estimation and the verify orchestration"),
    ("advantage-corpus", "advantage of the 11 corpus trees at N=256: batch sampling in dist "
                         "and the per-row tree walk; no Fourier code, no large matrices"),
    ("fourier-deep", "exact spectra of complete trees over 16 variables at depths 8-11 in "
                     "both conventions: sparse_fourier and spectrum JSON, no BLAS"),
    ("pipeline-2048", "sample, certify, draw, classify, simulate and audit through matrix "
                      "and instance files at N=2048, plus three malformed inputs"),
)

END_TO_END = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
)


def benchmark_json() -> str:
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": list(END_TO_END),
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in per_layer_metrics()],
    }
    return json.dumps(doc, indent=2) + "\n"


def main() -> int:
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").write_text(benchmark_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
