"""Figure 7 — MaxError vs preprocessing time on large graphs (index-based methods)."""

import numpy as np
import pytest

from repro.experiments.figures import fig_error_vs_preprocessing
from repro.experiments.reporting import format_series_table

from _bench_config import LARGE_DATASETS, LARGE_GRIDS, LARGE_SETTINGS, emit

INDEX_METHODS = ("mc", "linearization", "prsim")


@pytest.mark.parametrize("dataset", LARGE_DATASETS)
def test_fig7_error_vs_preprocessing_large(benchmark, dataset):
    series = benchmark.pedantic(
        lambda: fig_error_vs_preprocessing(dataset, methods=INDEX_METHODS,
                                           settings=LARGE_SETTINGS, grids=LARGE_GRIDS),
        rounds=1, iterations=1)
    emit(f"Figure 7 ({dataset}): MaxError vs preprocessing time (large)",
         format_series_table(series))

    assert {entry.algorithm for entry in series} == set(INDEX_METHODS)
    for entry in series:
        live = [p for p in entry.points if not p.skipped]
        assert live, f"{entry.algorithm} produced no live points"
        assert all(p.preprocessing_seconds > 0 for p in live)
        # On large graphs the per-node preprocessing is the dominant cost, far
        # above the per-query cost — the O(n log n / ε²) term of §2.2.
        assert all(p.preprocessing_seconds > p.query_seconds for p in live)
