"""Unit tests for the meeting-probability estimators (eq. 2 and Algorithm 2)."""

import numpy as np
import pytest

from repro.randomwalk.engine import SqrtCWalkEngine
from repro.randomwalk.meeting import (
    estimate_diagonal_entry,
    estimate_meeting_probability,
    estimate_tail_meeting_probability,
)
from specs.algorithm3 import first_meeting_probabilities
from specs.exact_diagonal import exact_diagonal_entry

DECAY = 0.6


class TestMeetingProbability:
    def test_same_node_is_one(self, toy_graph):
        assert estimate_meeting_probability(toy_graph, 3, 3, 10, decay=DECAY) == 1.0

    def test_matches_simrank_on_toy_graph(self, toy_graph, toy_simrank):
        estimate = estimate_meeting_probability(toy_graph, 1, 2, 20000, decay=DECAY, seed=7)
        assert estimate == pytest.approx(toy_simrank[1, 2], abs=0.02)

    def test_matches_simrank_on_collab_graph(self, collab_graph, collab_simrank):
        estimate = estimate_meeting_probability(collab_graph, 4, 9, 8000, decay=DECAY, seed=3)
        assert estimate == pytest.approx(collab_simrank[4, 9], abs=0.03)

    def test_zero_for_unreachable_pair(self):
        # Two disconnected edges: walks from 1 and 3 can never be on the same node.
        from repro.graph.digraph import DiGraph
        graph = DiGraph.from_edges([(0, 1), (2, 3)])
        assert estimate_meeting_probability(graph, 1, 3, 500, decay=DECAY, seed=1) == 0.0

    def test_invalid_nodes_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            estimate_meeting_probability(toy_graph, 0, 99, 10)


class TestDiagonalEntry:
    def test_dangling_node_exact_one(self, toy_graph):
        assert estimate_diagonal_entry(toy_graph, 0, 10, decay=DECAY) == 1.0

    def test_single_in_neighbor_exact(self, toy_graph):
        # Nodes 1, 3, 4, 5 all have exactly one in-neighbour.
        for node in (1, 3, 4, 5):
            assert estimate_diagonal_entry(toy_graph, node, 10, decay=DECAY) \
                == pytest.approx(1.0 - DECAY)

    def test_matches_exact_diagonal_on_toy_graph(self, toy_graph, toy_simrank):
        expected = exact_diagonal_entry(toy_graph, 2, toy_simrank, decay=DECAY)
        estimate = estimate_diagonal_entry(toy_graph, 2, 30000, decay=DECAY, seed=5)
        assert estimate == pytest.approx(expected, abs=0.02)

    def test_matches_exact_diagonal_on_collab_graph(self, collab_graph, collab_simrank):
        hub = int(np.argmax(collab_graph.in_degrees))
        expected = exact_diagonal_entry(collab_graph, hub, collab_simrank, decay=DECAY)
        estimate = estimate_diagonal_entry(collab_graph, hub, 15000, decay=DECAY, seed=9)
        assert estimate == pytest.approx(expected, abs=0.03)

    def test_shared_engine_is_used(self, collab_graph):
        engine = SqrtCWalkEngine(collab_graph, DECAY, seed=1)
        value = estimate_diagonal_entry(collab_graph, 5, 200, decay=DECAY, engine=engine)
        assert 0.0 <= value <= 1.0

    def test_requires_positive_pairs(self, collab_graph):
        with pytest.raises(ValueError):
            estimate_diagonal_entry(collab_graph, 5, 0, decay=DECAY)


class TestTailEstimate:
    def test_tail_bounded_by_c_power(self, collab_graph):
        tail = estimate_tail_meeting_probability(collab_graph, 3, 2000, 3, decay=DECAY, seed=4)
        assert 0.0 <= tail <= DECAY ** 3 + 1e-12

    def test_skip_zero_equals_total_meeting_probability(self, collab_graph, collab_simrank):
        # With no prefix the tail is the full meeting probability 1 − D(k, k).
        node = int(np.argmax(collab_graph.in_degrees))
        expected = 1.0 - exact_diagonal_entry(collab_graph, node, collab_simrank, decay=DECAY)
        tail = estimate_tail_meeting_probability(collab_graph, node, 15000, 0,
                                                 decay=DECAY, seed=6)
        assert tail == pytest.approx(expected, abs=0.03)

    def test_negative_skip_rejected(self, collab_graph):
        with pytest.raises(ValueError):
            estimate_tail_meeting_probability(collab_graph, 3, 100, -1, decay=DECAY)

    def test_deterministic_plus_tail_consistency(self, collab_graph, collab_simrank):
        """Σ_{ℓ≤L} Z_ℓ (deterministic) + tail estimate ≈ 1 − D(k,k)."""
        node = int(np.argmax(collab_graph.in_degrees))
        levels = first_meeting_probabilities(collab_graph, node, 3, decay=DECAY)
        deterministic = sum(sum(level.values()) for level in levels)
        tail = estimate_tail_meeting_probability(collab_graph, node, 15000, 3,
                                                 decay=DECAY, seed=8)
        expected = 1.0 - exact_diagonal_entry(collab_graph, node, collab_simrank, decay=DECAY)
        assert deterministic + tail == pytest.approx(expected, abs=0.03)
