"""Integration tests: end-to-end flows across modules and registered datasets."""

import numpy as np
import pytest

from repro import (
    ExactSim,
    ExactSimConfig,
    LinearizationSimRank,
    MonteCarloSimRank,
    ParSim,
    PowerMethod,
    PRSim,
    ProbeSim,
)
from repro.experiments.figures import fig_error_vs_query_time
from repro.experiments.harness import ExperimentSettings, select_query_nodes
from repro.experiments.reporting import format_series_table
from repro.graph.datasets import load_dataset
from repro.graph.io import load_npz, save_npz
from repro.metrics.accuracy import max_error, precision_at_k
from repro.metrics.pooling import pooled_precision

DECAY = 0.6


class TestEndToEndSmallDatasets:
    @pytest.mark.parametrize("key", ["GQ", "WV"])
    def test_exactsim_matches_power_method_on_dataset(self, key):
        graph = load_dataset(key)
        oracle = PowerMethod(graph, decay=DECAY).preprocess()
        source = int(select_query_nodes(graph, 1, seed=1)[0])
        result = ExactSim(graph, ExactSimConfig(
            epsilon=1e-2, seed=5, max_total_samples=100_000)).single_source(source)
        assert max_error(result.scores, oracle.matrix[source]) <= 1e-2
        assert precision_at_k(result.scores, oracle.matrix[source], 50,
                              exclude=source) >= 0.95

    def test_all_registered_small_datasets_load_and_answer_queries(self):
        for key in ("GQ", "HT", "WV", "HP"):
            graph = load_dataset(key)
            source = int(select_query_nodes(graph, 1, seed=2)[0])
            result = ExactSim(graph, ExactSimConfig(
                epsilon=5e-2, seed=2, max_total_samples=20_000)).single_source(source)
            assert result.scores.shape == (graph.num_nodes,)
            assert np.all(result.scores >= 0.0)


class TestCrossAlgorithmAgreement:
    def test_all_methods_agree_on_top_neighbours(self, collab_graph, collab_simrank):
        """Every algorithm should place mostly true top-10 nodes in its top-10."""
        source = 7
        truth = collab_simrank[source]
        algorithms = {
            "exactsim": ExactSim(collab_graph, ExactSimConfig(
                epsilon=1e-2, seed=3, max_total_samples=60_000)).single_source(source).scores,
            "parsim": ParSim(collab_graph, iterations=15).single_source(source).scores,
            "linearization": LinearizationSimRank(
                collab_graph, samples_per_node=500, seed=3).single_source(source).scores,
            "prsim": PRSim(collab_graph, epsilon=1e-2, hub_fraction=0.15,
                           seed=3).single_source(source).scores,
            "mc": MonteCarloSimRank(collab_graph, walks_per_node=300, walk_length=10,
                                    seed=3).single_source(source).scores,
            "probesim": ProbeSim(collab_graph, num_walks=600, seed=3).single_source(source).scores,
        }
        # Pure Monte-Carlo estimates are granular (multiples of 1/walks), so MC
        # resolves fewer of the closely-spaced top-10 scores than the rest.
        minimum_precision = {"mc": 0.2}
        for name, scores in algorithms.items():
            precision = precision_at_k(scores, truth, 10, exclude=source)
            threshold = minimum_precision.get(name, 0.5)
            assert precision >= threshold, f"{name} precision@10 too low: {precision}"
        # ExactSim should be at least as precise as every baseline.
        exact_precision = precision_at_k(algorithms["exactsim"], truth, 10, exclude=source)
        assert exact_precision >= max(
            precision_at_k(scores, truth, 10, exclude=source)
            for name, scores in algorithms.items() if name != "exactsim") - 1e-9

    def test_pooling_ranks_exactsim_highest(self, collab_graph, collab_simrank):
        source = 11
        k = 10
        exact = ExactSim(collab_graph, ExactSimConfig(
            epsilon=1e-2, seed=5, max_total_samples=60_000)).top_k(source, k)
        noisy = MonteCarloSimRank(collab_graph, walks_per_node=30, walk_length=8,
                                  seed=5).top_k(source, k)
        oracle = lambda s, t: float(collab_simrank[s, t])
        evaluation = pooled_precision(source, {"exactsim": exact, "mc": noisy}, k, oracle)
        assert evaluation.precisions["exactsim"] >= evaluation.precisions["mc"]


class TestPersistenceRoundTrip:
    def test_graph_round_trip_preserves_query_results(self, tmp_path, collab_graph):
        path = tmp_path / "graph.npz"
        save_npz(collab_graph, path)
        reloaded = load_npz(path)
        config = ExactSimConfig(epsilon=5e-2, seed=9, max_total_samples=20_000)
        original = ExactSim(collab_graph, config).single_source(3)
        repeated = ExactSim(reloaded, config).single_source(3)
        assert np.array_equal(original.scores, repeated.scores)


class TestExperimentPipeline:
    def test_figure_driver_on_registered_dataset(self):
        settings = ExperimentSettings(num_queries=1, top_k=10, time_budget_seconds=60, seed=3)
        series = fig_error_vs_query_time("GQ", methods=["exactsim", "parsim"],
                                         settings=settings,
                                         grids={"exactsim": (1e-1,), "parsim": (5,)})
        table = format_series_table(series)
        assert "GQ" in table
        assert "exactsim" in table and "parsim" in table
        for entry in series:
            assert entry.dataset == "GQ"
            assert len(entry.points) == 1
