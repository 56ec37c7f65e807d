"""Figure 8 — MaxError vs index size on large graphs (index-based methods)."""

import numpy as np
import pytest

from repro.experiments.figures import fig_error_vs_index_size
from repro.experiments.reporting import format_series_table
from repro.graph.datasets import load_dataset

from _bench_config import LARGE_DATASETS, LARGE_GRIDS, LARGE_SETTINGS, emit

INDEX_METHODS = ("mc", "linearization", "prsim")


@pytest.mark.parametrize("dataset", LARGE_DATASETS)
def test_fig8_error_vs_index_size_large(benchmark, dataset):
    series = benchmark.pedantic(
        lambda: fig_error_vs_index_size(dataset, methods=INDEX_METHODS,
                                        settings=LARGE_SETTINGS, grids=LARGE_GRIDS),
        rounds=1, iterations=1)
    emit(f"Figure 8 ({dataset}): MaxError vs index size (large)",
         format_series_table(series))

    graph = load_dataset(dataset)
    by_name = {entry.algorithm: entry for entry in series}
    assert set(by_name) == set(INDEX_METHODS)

    # Linearization's index is one float per node.
    linearization_sizes = {p.index_bytes for p in by_name["linearization"].points
                           if not p.skipped}
    assert linearization_sizes == {graph.num_nodes * 8}

    # MC's walk index is substantially larger than Linearization's diagonal.
    mc_sizes = [p.index_bytes for p in by_name["mc"].points if not p.skipped]
    assert mc_sizes and min(mc_sizes) > graph.num_nodes * 8
