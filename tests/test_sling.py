"""Tests for the SLING baseline."""

import numpy as np
import pytest

from repro.baselines.sling import SLING
from repro.metrics.accuracy import max_error, precision_at_k
from specs.hop_matrices import sling_hop_matrices

DECAY = 0.6


class TestSLING:
    def test_accuracy_against_power_method(self, collab_graph, collab_simrank):
        algorithm = SLING(collab_graph, decay=DECAY, epsilon=1e-2, seed=3)
        result = algorithm.single_source(6)
        assert max_error(result.scores, collab_simrank[6], exclude=6) < 0.05

    def test_error_shrinks_with_epsilon(self, collab_graph, collab_simrank):
        source = 10
        coarse = SLING(collab_graph, decay=DECAY, epsilon=1e-1, seed=5)
        fine = SLING(collab_graph, decay=DECAY, epsilon=1e-3, seed=5)
        coarse_error = max_error(coarse.single_source(source).scores,
                                 collab_simrank[source], exclude=source)
        fine_error = max_error(fine.single_source(source).scores,
                               collab_simrank[source], exclude=source)
        assert fine_error <= coarse_error + 1e-6

    def test_top_k_quality(self, collab_graph, collab_simrank):
        algorithm = SLING(collab_graph, decay=DECAY, epsilon=1e-3, seed=7)
        result = algorithm.single_source(4)
        assert precision_at_k(result.scores, collab_simrank[4], 10, exclude=4) >= 0.9

    def test_index_accounting_and_flags(self, collab_graph):
        algorithm = SLING(collab_graph, epsilon=1e-2, seed=1)
        assert algorithm.index_based
        assert algorithm.index_bytes() == 0
        algorithm.preprocess()
        assert algorithm.index_bytes() > collab_graph.num_nodes * 8
        assert algorithm.preprocessing_seconds > 0.0

    def test_index_grows_with_precision(self, collab_graph):
        coarse = SLING(collab_graph, epsilon=1e-1, seed=1).preprocess()
        fine = SLING(collab_graph, epsilon=1e-3, seed=1).preprocess()
        assert fine.index_bytes() >= coarse.index_bytes()

    def test_fast_query_after_preprocessing(self, collab_graph):
        algorithm = SLING(collab_graph, epsilon=1e-2, seed=1).preprocess()
        result = algorithm.single_source(0)
        # The whole point of SLING: queries are much cheaper than indexing.
        assert result.query_seconds < algorithm.preprocessing_seconds

    def test_samples_per_node_default_derived_from_epsilon(self, collab_graph):
        assert SLING(collab_graph, epsilon=1e-1).samples_per_node == 10
        assert SLING(collab_graph, epsilon=1e-4).samples_per_node == 10_000

    def test_source_score_is_one(self, collab_graph):
        algorithm = SLING(collab_graph, epsilon=1e-1, seed=1)
        assert algorithm.single_source(2).scores[2] == 1.0


@pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("graph_name",
                         ["toy_graph", "collab_graph", "directed_graph"])
def test_hop_matrices_match_sparse_spec(request, graph_name, epsilon):
    """The dense-lane build against the sparse × sparse loop it replaced:
    per level, identical supports and values within 1e-15 (the two
    products add the same terms in different orders)."""
    graph = request.getfixturevalue(graph_name)
    algorithm = SLING(graph, decay=DECAY, epsilon=epsilon, seed=3).preprocess()
    reference = sling_hop_matrices(algorithm)
    assert len(algorithm._hop_matrices) == len(reference)
    for built, expected in zip(algorithm._hop_matrices, reference):
        expected = expected.sorted_indices()
        assert np.array_equal(built.indptr, expected.indptr)
        assert np.array_equal(built.indices, expected.indices)
        assert np.max(np.abs(built.data - expected.data), initial=0.0) <= 1e-15


@pytest.mark.parametrize("epsilon", [1e-1, 1e-3])
@pytest.mark.parametrize("graph_name",
                         ["toy_graph", "directed_graph", "collab_graph"])
def test_native_pair_matches_single_source_on_every_pair(request, graph_name,
                                                         epsilon):
    """The one-pass keyed intersection against the per-level products of
    ``single_source``, on every (i, j): a dangling node (toy node 0), nodes
    without in-neighbours and rows left empty at deep levels (directed)."""
    graph = request.getfixturevalue(graph_name)
    algorithm = SLING(graph, decay=DECAY, epsilon=epsilon, seed=3).preprocess()
    nodes = range(graph.num_nodes)
    for source in nodes:
        native = [algorithm.single_pair(source, target).score for target in nodes]
        np.testing.assert_allclose(native, algorithm.single_source(source).scores,
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("epsilon", [5.0, 100.0])
def test_index_without_levels(collab_graph, tmp_path, epsilon):
    """ε ≥ 2/c builds no hop level: pairs answer 0 off the diagonal and 1 on
    it, and the file such an index saves loads back."""
    built = SLING(collab_graph, decay=DECAY, epsilon=epsilon, seed=3).preprocess()
    assert built._hop_matrices == []
    loaded = SLING(collab_graph, decay=DECAY, epsilon=epsilon, seed=3).load_index(
        built.save_index(tmp_path / "index.npz"))
    for algorithm in (built, loaded):
        assert algorithm.single_pair(4, 9).score == 0.0
        assert algorithm.single_pair(4, 4).score == 1.0
