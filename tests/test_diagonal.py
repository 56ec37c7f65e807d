"""Unit tests for the diagonal correction matrix estimators."""

import numpy as np
import pytest

from repro.baselines.power_method import simrank_matrix
from repro.core.sampling import allocate_proportional, total_sample_budget
from repro.diagonal.basic import estimate_diagonal_basic
from repro.diagonal.local import (
    DistributionCache,
    _exploit_deterministic_batch,
    estimate_diagonal_local_batch,
)
from repro.diagonal.parsim_approx import parsim_diagonal
from repro.graph.digraph import DiGraph
from repro.graph.transition import reverse_transition_matrix
from specs.algorithm3 import first_meeting_probabilities
from specs.exact_diagonal import exact_diagonal, exact_diagonal_entry
from specs.ppr import ppr_vector

DECAY = 0.6


def local_entry(graph, node, num_pairs, *, seed=None):
    """Algorithm 3's estimate of D(node, node) when only ``node`` is sampled."""
    allocation = np.zeros(graph.num_nodes, dtype=np.int64)
    allocation[node] = num_pairs
    return estimate_diagonal_local_batch(graph, [allocation], decay=DECAY,
                                         seed=seed)[0][node]


def linearized_simrank(graph, diagonal, decay=DECAY, levels=60):
    """Reference implementation of S = Σ c^ℓ (P^ℓ)ᵀ diag(d) P^ℓ for validation."""
    matrix = reverse_transition_matrix(graph).toarray()
    power = np.eye(graph.num_nodes)
    total = np.zeros((graph.num_nodes, graph.num_nodes))
    for level in range(levels):
        total += (decay ** level) * power.T @ np.diag(diagonal) @ power
        power = matrix @ power
    return total


class TestExactDiagonal:
    def test_dangling_node_is_one(self, toy_graph, toy_simrank):
        assert exact_diagonal_entry(toy_graph, 0, toy_simrank, decay=DECAY) == 1.0

    def test_single_in_neighbor_is_one_minus_c(self, toy_graph, toy_simrank):
        for node in (1, 3, 4, 5):
            assert exact_diagonal_entry(toy_graph, node, toy_simrank, decay=DECAY) \
                == pytest.approx(1.0 - DECAY)

    def test_entries_in_valid_range(self, collab_graph, collab_simrank):
        diagonal = exact_diagonal(collab_graph, collab_simrank, decay=DECAY)
        assert np.all(diagonal >= 1.0 - DECAY - 1e-9)
        assert np.all(diagonal <= 1.0 + 1e-9)

    def test_linearization_identity_reconstructs_simrank(self, toy_graph, toy_simrank):
        """The defining property: S = Σ c^ℓ (P^ℓ)ᵀ D P^ℓ with the exact D."""
        diagonal = exact_diagonal(toy_graph, toy_simrank, decay=DECAY)
        reconstructed = linearized_simrank(toy_graph, diagonal)
        assert np.allclose(reconstructed, toy_simrank, atol=1e-6)

    def test_linearization_identity_on_collab_graph(self, collab_graph, collab_simrank):
        diagonal = exact_diagonal(collab_graph, collab_simrank, decay=DECAY)
        reconstructed = linearized_simrank(collab_graph, diagonal)
        assert np.max(np.abs(reconstructed - collab_simrank)) < 1e-5

    def test_shape_mismatch_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            exact_diagonal(toy_graph, np.eye(3), decay=DECAY)


class TestBasicEstimator:
    def test_matches_exact_diagonal(self, collab_graph, collab_simrank):
        exact = exact_diagonal(collab_graph, collab_simrank, decay=DECAY)
        allocation = np.full(collab_graph.num_nodes, 3000, dtype=np.int64)
        estimated = estimate_diagonal_basic(collab_graph, allocation, decay=DECAY, seed=1)
        assert np.max(np.abs(estimated - exact)) < 0.05

    def test_zero_allocation_defaults(self, toy_graph):
        allocation = np.zeros(toy_graph.num_nodes, dtype=np.int64)
        estimated = estimate_diagonal_basic(toy_graph, allocation, decay=DECAY, seed=1)
        assert estimated[0] == 1.0                      # dangling
        assert estimated[1] == pytest.approx(1.0 - DECAY)

    def test_negative_allocation_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            estimate_diagonal_basic(toy_graph, -np.ones(toy_graph.num_nodes), decay=DECAY)

    def test_wrong_length_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            estimate_diagonal_basic(toy_graph, np.ones(3), decay=DECAY)


class TestLocalExploitation:
    def test_first_meeting_probabilities_sum_to_meeting_probability(
            self, collab_graph, collab_simrank):
        """Σ_ℓ Z_ℓ(k) converges to 1 − D(k, k) as the level grows (Lemma 4)."""
        node = int(np.argmax(collab_graph.in_degrees))
        exact = exact_diagonal_entry(collab_graph, node, collab_simrank, decay=DECAY)
        levels = first_meeting_probabilities(collab_graph, node, 8, decay=DECAY)
        deterministic = sum(sum(level.values()) for level in levels)
        # The tail beyond level 8 is at most c^8 ≈ 0.017.
        assert deterministic <= 1.0 - exact + 1e-9
        assert deterministic >= 1.0 - exact - DECAY ** 8 - 1e-9

    def test_first_meeting_level_one_closed_form(self, toy_graph):
        """Z_1(k) = c · Σ_q (1/d_in(k))² over in-neighbours q (both walks move to q)."""
        levels = first_meeting_probabilities(toy_graph, 2, 1, decay=DECAY)
        expected_z1 = DECAY * 3 * (1.0 / 3.0) ** 2
        assert sum(levels[0].values()) == pytest.approx(expected_z1)

    def test_entry_local_trivial_cases(self, toy_graph):
        # Dangling and single-in-neighbour nodes are exact without a sample:
        # no meeting, and a sure meeting at step 1 with probability c.
        allocation = np.full(toy_graph.num_nodes, 10, dtype=np.int64)
        estimated = estimate_diagonal_local_batch(toy_graph, [allocation],
                                                  decay=DECAY)[0]
        assert estimated[0] == 1.0
        assert estimated[1] == 1.0 - DECAY

    def test_entry_local_matches_exact(self, collab_graph, collab_simrank):
        node = int(np.argmax(collab_graph.in_degrees))
        exact = exact_diagonal_entry(collab_graph, node, collab_simrank, decay=DECAY)
        estimate = local_entry(collab_graph, node, 4000, seed=3)
        assert estimate == pytest.approx(exact, abs=0.03)
        chosen_level, _ = _exploit_deterministic_batch(
            collab_graph, DistributionCache(collab_graph), [(node, 4000)],
            decay=DECAY, max_level=20)[0]
        assert chosen_level >= 1

    def test_tail_estimate_is_unbiased_within_lemma3_variance(
            self, collab_graph, collab_simrank):
        """Over 100 seeds, the heaviest node's D̂ at R = 3,000 pairs (ℓ(k) =
        3, so the tail walks R′ = ⌈0.54·R⌉ pairs) has its mean within 5σ of
        the exact D and its variance within D(1 − D)/R, the variance of R
        plain Algorithm 2 pairs.  Dividing the met count by R instead of R′
        shrinks the tail (~4e-3) by 46%, which lands ~25σ out."""
        node = int(np.argmax(collab_graph.in_degrees))
        num_pairs, seeds = 3000, 100
        exact = exact_diagonal_entry(collab_graph, node, collab_simrank,
                                     decay=DECAY)
        estimates = np.array([local_entry(collab_graph, node, num_pairs,
                                          seed=seed) for seed in range(seeds)])
        sigma = estimates.std(ddof=1) / np.sqrt(seeds)
        assert abs(estimates.mean() - exact) <= 5.0 * sigma, \
            (estimates.mean(), exact, sigma)
        assert estimates.var(ddof=1) <= exact * (1.0 - exact) / num_pairs

    def test_full_local_estimator_matches_exact(self, collab_graph, collab_simrank):
        exact = exact_diagonal(collab_graph, collab_simrank, decay=DECAY)
        budget = total_sample_budget(collab_graph.num_nodes, 0.05, decay=DECAY)
        ppr = ppr_vector(collab_graph, 0, decay=DECAY)
        allocation, _ = allocate_proportional(ppr, min(budget, 100_000))
        estimated = estimate_diagonal_local_batch(collab_graph, [allocation],
                                                  decay=DECAY, seed=5)[0]
        relevant = allocation > 0
        assert np.max(np.abs(estimated[relevant] - exact[relevant])) < 0.08

    def test_local_beats_or_matches_basic_at_equal_budget(self, collab_graph, collab_simrank):
        """Algorithm 3's deterministic part should not hurt accuracy."""
        exact = exact_diagonal(collab_graph, collab_simrank, decay=DECAY)
        node = int(np.argmax(collab_graph.in_degrees))
        pairs = 2000
        basic_errors = []
        local_errors = []
        for seed in range(3):
            basic = estimate_diagonal_basic(
                collab_graph, np.eye(1, collab_graph.num_nodes, node).ravel() * pairs,
                decay=DECAY, seed=seed)[node]
            local = local_entry(collab_graph, node, pairs, seed=seed)
            basic_errors.append(abs(basic - exact[node]))
            local_errors.append(abs(local - exact[node]))
        assert np.mean(local_errors) <= np.mean(basic_errors) + 0.02


class TestParSimApproximation:
    def test_constant_value(self, collab_graph):
        diagonal = parsim_diagonal(collab_graph, decay=DECAY)
        assert np.all(diagonal == 1.0 - DECAY)

    def test_exact_trivial_nodes_flag(self, toy_graph):
        diagonal = parsim_diagonal(toy_graph, decay=DECAY, exact_trivial_nodes=True)
        assert diagonal[0] == 1.0
        assert diagonal[2] == pytest.approx(1.0 - DECAY)

    def test_differs_from_exact_on_high_degree_nodes(self, collab_graph, collab_simrank):
        """The approximation is exactly what creates ParSim's error plateau."""
        exact = exact_diagonal(collab_graph, collab_simrank, decay=DECAY)
        approx = parsim_diagonal(collab_graph, decay=DECAY)
        assert np.max(np.abs(exact - approx)) > 0.01
