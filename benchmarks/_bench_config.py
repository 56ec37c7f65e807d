"""Shared configuration for the benchmark suite.

Every figure/table of the paper has one bench module.  The benches run the
same experiment drivers a user would call, but with reduced sweep grids and
query counts so the whole suite finishes in minutes on the pure-Python
substrate; the grids can be widened via the constants below for a
longer, higher-fidelity run.  Each bench prints the regenerated rows/series
(visible with ``pytest benchmarks/ --benchmark-only -s``) and asserts the
qualitative shape the paper reports.
"""

from __future__ import annotations

import sys



from repro.experiments.harness import ExperimentSettings

# Datasets exercised by default.  All eight registered keys work; the defaults
# keep the suite's wall-clock time manageable.
SMALL_DATASETS = ("GQ", "WV")
LARGE_DATASETS = ("DB",)

# Reduced sweep grids (per-method accuracy knob, coarse -> fine).
SMALL_GRIDS = {
    "exactsim": (1e-1, 1e-2),
    "mc": (20, 100),
    "parsim": (3, 10),
    "linearization": (20, 200),
    "prsim": (1e-1, 1e-2),
}
LARGE_GRIDS = {
    "exactsim": (1e-1, 1e-2),
    "mc": (10,),
    "parsim": (5, 10),
    "linearization": (10,),
    "prsim": (1e-1,),
}

SMALL_SETTINGS = ExperimentSettings(num_queries=2, top_k=50, time_budget_seconds=120, seed=2020)
LARGE_SETTINGS = ExperimentSettings(num_queries=1, top_k=50, time_budget_seconds=180, seed=2020)

# Methods included on large graphs.  PRSim joined once its probes and hub
# index read stopped dominating: on DB at ε = 1e-1 it builds in ~1.1 s and
# answers in ~1.8 ms, far inside LARGE_SETTINGS' time budget.
LARGE_METHODS = ("exactsim", "parsim", "mc", "linearization", "prsim")


def emit(title: str, body: str) -> None:
    """Print a bench artefact so `-s` runs show the regenerated table."""
    print(f"\n===== {title} =====", file=sys.stderr)
    print(body, file=sys.stderr)


