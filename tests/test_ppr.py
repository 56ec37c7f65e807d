"""Unit tests for the Personalized-PageRank substrate."""

import numpy as np
import pytest

from repro.graph.transition import TransitionOperator, reverse_transition_matrix
from repro.ppr.hop_ppr import hitting_probability_vectors, hop_ppr_vectors, ppr_vector
from repro.ppr.pagerank import pagerank, personalized_pagerank_power
from repro.ppr.push import forward_push_hop_ppr

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


class TestForwardPush:
    def test_push_underestimates_dense_hops(self, collab_graph):
        push = forward_push_hop_ppr(collab_graph, 3, 6, r_max=1e-4, decay=DECAY)
        dense = hop_ppr_vectors(collab_graph, 3, 6, decay=DECAY)
        for level in range(7):
            approx = push.hop_dense(level, collab_graph.num_nodes)
            exact = dense.hop_dense(level)
            assert np.all(approx <= exact + 1e-12)

    def test_push_error_shrinks_with_r_max(self, collab_graph):
        dense = hop_ppr_vectors(collab_graph, 3, 6, decay=DECAY)
        coarse = forward_push_hop_ppr(collab_graph, 3, 6, r_max=1e-2, decay=DECAY)
        fine = forward_push_hop_ppr(collab_graph, 3, 6, r_max=1e-5, decay=DECAY)
        coarse_error = np.abs(coarse.total_dense(collab_graph.num_nodes) - dense.total).max()
        fine_error = np.abs(fine.total_dense(collab_graph.num_nodes) - dense.total).max()
        assert fine_error <= coarse_error

    def test_residual_plus_estimates_account_for_all_mass(self, collab_graph):
        push = forward_push_hop_ppr(collab_graph, 3, 30, r_max=1e-3, decay=DECAY)
        total_estimate = push.total_dense(collab_graph.num_nodes).sum()
        # estimates + dropped residual + un-stopped tail mass ≈ 1.
        assert total_estimate <= 1.0 + 1e-9
        assert total_estimate + push.residual_mass <= 1.0 + 1e-6

    def test_push_memory_accounting(self, collab_graph):
        push = forward_push_hop_ppr(collab_graph, 3, 4, r_max=1e-3, decay=DECAY)
        assert push.pushed_entries > 0
        # Array-backed storage: one int64 index + one float64 value per entry.
        stored_entries = sum(level.nnz for level in push.levels)
        assert push.memory_bytes() == stored_entries * 16

    def test_residual_mass_conservation_across_seeds(self):
        """Regression: estimates + residual_mass account for the full unit of mass.

        The seed implementation silently lost mass absorbed at dangling nodes
        and the tail beyond the hop horizon; the kernel-based push accumulates
        every drop exactly once.
        """
        from repro.graph.generators import power_law_graph
        for seed in (0, 7, 42, 2020):
            graph = power_law_graph(150, 4.0, exponent=2.1, directed=True,
                                    seed=seed)
            push = forward_push_hop_ppr(graph, seed % graph.num_nodes, 12,
                                        r_max=1e-4, decay=DECAY)
            total_estimate = push.total_dense(graph.num_nodes).sum()
            assert total_estimate + push.residual_mass == pytest.approx(1.0, abs=1e-9)

    def test_estimates_dict_view_matches_reference(self, collab_graph):
        """The backward-compat dict views carry the seed implementation's content."""
        from specs.frontier import _reference_forward_push_hop_ppr
        push = forward_push_hop_ppr(collab_graph, 3, 5, r_max=1e-3, decay=DECAY)
        expected_levels, _, _ = _reference_forward_push_hop_ppr(
            collab_graph, 3, 5, 1e-3, decay=DECAY)
        assert len(push.estimates) == len(expected_levels)
        for view, expected in zip(push.estimates, expected_levels):
            assert set(view) == set(expected)
            for node, value in expected.items():
                assert view[node] == pytest.approx(value, abs=1e-12)

    def test_invalid_r_max(self, collab_graph):
        with pytest.raises(ValueError):
            forward_push_hop_ppr(collab_graph, 3, 4, r_max=0.0)


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
