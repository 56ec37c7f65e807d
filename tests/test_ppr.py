"""Unit tests for the Personalized-PageRank substrate."""

import numpy as np
import pytest

from repro.graph.transition import TransitionOperator, reverse_transition_matrix
from repro.kernels import parallel
from repro.ppr.hop_ppr import hop_ppr_batch, hop_ppr_vectors
from repro.ppr.pagerank import pagerank
from specs.ppr import hitting_probability_vectors, personalized_pagerank_power, ppr_vector

DECAY = 0.6
SQRT_C = np.sqrt(DECAY)


class TestHopPPR:
    def test_hop_zero_is_scaled_indicator(self, collab_graph):
        result = hop_ppr_vectors(collab_graph, 5, 4, decay=DECAY)
        hop_zero = result.hop_dense(0)
        assert hop_zero[5] == pytest.approx(1.0 - SQRT_C)
        assert np.count_nonzero(hop_zero) == 1

    def test_hops_match_matrix_powers(self, toy_graph):
        result = hop_ppr_vectors(toy_graph, 2, 3, decay=DECAY)
        matrix = reverse_transition_matrix(toy_graph).toarray()
        indicator = np.zeros(toy_graph.num_nodes)
        indicator[2] = 1.0
        for level in range(4):
            expected = (1.0 - SQRT_C) * np.linalg.matrix_power(SQRT_C * matrix, level) @ indicator
            assert np.allclose(result.hop_dense(level), expected)

    def test_total_mass_at_most_one(self, collab_graph):
        result = hop_ppr_vectors(collab_graph, 0, 30, decay=DECAY)
        assert result.total.sum() <= 1.0 + 1e-9
        # No dangling nodes: mass converges towards 1 as hops grow.
        assert result.total.sum() > 0.95

    def test_dangling_source_keeps_only_hop_zero(self, toy_graph):
        result = hop_ppr_vectors(toy_graph, 0, 5, decay=DECAY)
        assert result.total.sum() == pytest.approx(1.0 - SQRT_C)

    def test_truncation_drops_small_entries(self, collab_graph):
        dense = hop_ppr_vectors(collab_graph, 1, 8, decay=DECAY)
        sparse_version = hop_ppr_vectors(collab_graph, 1, 8, decay=DECAY,
                                         truncation_threshold=1e-3)
        assert sparse_version.truncated
        assert sparse_version.nonzero_entries() <= dense.nonzero_entries()
        assert sparse_version.memory_bytes() <= dense.memory_bytes()

    def test_truncated_entries_below_threshold_only(self, collab_graph):
        threshold = 5e-3
        dense = hop_ppr_vectors(collab_graph, 1, 6, decay=DECAY)
        truncated = hop_ppr_vectors(collab_graph, 1, 6, decay=DECAY,
                                    truncation_threshold=threshold)
        for level in range(7):
            difference = dense.hop_dense(level) - truncated.hop_dense(level)
            assert np.all(difference >= -1e-15)
            assert np.all(difference <= threshold + 1e-15)

    def test_squared_norm(self, collab_graph):
        result = hop_ppr_vectors(collab_graph, 2, 10, decay=DECAY)
        assert result.squared_norm == pytest.approx(float(np.dot(result.total, result.total)))
        assert 0.0 < result.squared_norm <= 1.0

    def test_hop_level_out_of_range(self, collab_graph):
        result = hop_ppr_vectors(collab_graph, 2, 3, decay=DECAY)
        with pytest.raises(ValueError):
            result.hop_dense(4)

    def test_shared_operator(self, collab_graph):
        operator = TransitionOperator(collab_graph, DECAY)
        first = hop_ppr_vectors(collab_graph, 3, 4, decay=DECAY, operator=operator)
        second = hop_ppr_vectors(collab_graph, 3, 4, decay=DECAY)
        assert np.allclose(first.total, second.total)


class TestHopPPRBatch:
    @pytest.mark.parametrize("threshold", [None, 1e-3])
    def test_lane_chunks_match_per_source_hops(self, collab_graph, monkeypatch,
                                               threshold):
        """Chunks of two lanes (three chunks for five sources) change no bit."""
        operator = TransitionOperator(collab_graph, DECAY)
        sources = [0, 7, 3, 7, 12]
        monkeypatch.setattr(parallel, "DENSE_LANE_BYTES",
                            2 * 8 * collab_graph.num_nodes)
        batched = hop_ppr_batch(operator, sources, 6, threshold)
        for source, hop_ppr in zip(sources, batched):
            reference = hop_ppr_vectors(collab_graph, source, 6, decay=DECAY,
                                        truncation_threshold=threshold,
                                        operator=operator)
            assert hop_ppr.source == source
            assert np.array_equal(hop_ppr.total, reference.total)
            for level in range(7):
                assert np.array_equal(hop_ppr.hop_dense(level),
                                      reference.hop_dense(level))

    def test_empty_batch(self, collab_graph):
        assert hop_ppr_batch(TransitionOperator(collab_graph, DECAY), [], 4,
                             1e-3) == []


class TestHittingAndFullPPR:
    def test_hitting_probability_shape(self, collab_graph):
        vectors = hitting_probability_vectors(collab_graph, 0, 5, decay=DECAY)
        assert vectors.shape == (6, collab_graph.num_nodes)
        assert vectors[0, 0] == 1.0

    def test_hitting_probabilities_decay_by_sqrt_c(self, cycle_graph):
        vectors = hitting_probability_vectors(cycle_graph, 0, 4, decay=DECAY)
        for level in range(5):
            assert vectors[level].sum() == pytest.approx(SQRT_C ** level)

    def test_ppr_vector_equals_hop_sum(self, collab_graph):
        full = ppr_vector(collab_graph, 4, decay=DECAY, tolerance=1e-14)
        hops = hop_ppr_vectors(collab_graph, 4, 120, decay=DECAY)
        assert np.allclose(full, hops.total, atol=1e-10)

    def test_ppr_vector_matches_power_iteration(self, collab_graph):
        full = ppr_vector(collab_graph, 4, decay=DECAY, tolerance=1e-14)
        restart = np.zeros(collab_graph.num_nodes)
        restart[4] = 1.0
        alternative = personalized_pagerank_power(collab_graph, restart,
                                                  alpha=1.0 - SQRT_C, decay=DECAY,
                                                  tolerance=1e-14)
        assert np.allclose(full, alternative, atol=1e-8)


class TestPageRank:
    def test_pagerank_sums_to_one(self, directed_graph):
        rank = pagerank(directed_graph)
        assert rank.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(rank >= 0.0)

    def test_pagerank_empty_graph(self):
        from repro.graph.digraph import DiGraph
        assert pagerank(DiGraph.empty(0)).shape == (0,)

    def test_pagerank_favours_hub(self, hub_graph):
        # All leaves point to the hub, so the hub (node 0) must rank highest.
        rank = pagerank(hub_graph)
        assert np.argmax(rank) == 0

    def test_personalized_pagerank_mass(self, collab_graph):
        restart = np.zeros(collab_graph.num_nodes)
        restart[7] = 1.0
        rank = personalized_pagerank_power(collab_graph, restart, alpha=0.2, decay=DECAY)
        assert rank.sum() == pytest.approx(1.0, abs=1e-6)

    def test_personalized_pagerank_validates_restart(self, collab_graph):
        with pytest.raises(ValueError):
            personalized_pagerank_power(collab_graph, np.ones(3), alpha=0.2)
