"""Unit tests for the √c-walk engine."""

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import ring_graph, star_graph
from repro.randomwalk.engine import SqrtCWalkEngine, WalkBatch
from specs.ppr import hitting_probability_vectors

DECAY = 0.6


class TestWalkBatch:
    def test_shapes_and_properties(self, collab_graph):
        engine = SqrtCWalkEngine(collab_graph, DECAY, seed=1)
        batch = engine.walks_from(0, 50, max_steps=12)
        assert batch.num_walks == 50
        assert batch.max_steps == 12
        assert batch.positions.shape == (13, 50)

    def test_step_zero_is_start_node(self, collab_graph):
        engine = SqrtCWalkEngine(collab_graph, DECAY, seed=1)
        batch = engine.walks_from(7, 20)
        assert np.all(batch.nodes_at(0) == 7)

    def test_nodes_at_out_of_range(self, collab_graph):
        engine = SqrtCWalkEngine(collab_graph, DECAY, seed=1)
        batch = engine.walks_from(0, 5, max_steps=3)
        with pytest.raises(ValueError):
            batch.nodes_at(4)

    def test_lengths_consistent_with_positions(self, collab_graph):
        engine = SqrtCWalkEngine(collab_graph, DECAY, seed=2)
        batch = engine.walks_from(3, 40, max_steps=20)
        for walk in range(batch.num_walks):
            length = int(batch.lengths[walk])
            assert batch.positions[length, walk] >= 0
            if length < batch.max_steps:
                assert batch.positions[length + 1, walk] == -1

    def test_visit_counts_match_positions(self, collab_graph):
        engine = SqrtCWalkEngine(collab_graph, DECAY, seed=3)
        batch = engine.walks_from(0, 30, max_steps=10)
        counts = batch.visit_counts(collab_graph.num_nodes)
        assert counts.sum() == int((batch.positions >= 0).sum())

    def test_memory_bytes(self, collab_graph):
        engine = SqrtCWalkEngine(collab_graph, DECAY, seed=3)
        batch = engine.walks_from(0, 10, max_steps=5)
        assert batch.memory_bytes() == batch.positions.nbytes + batch.lengths.nbytes


class TestEngineBehaviour:
    def test_determinism_with_seed(self, collab_graph):
        first = SqrtCWalkEngine(collab_graph, DECAY, seed=42).walks_from(1, 25, max_steps=8)
        second = SqrtCWalkEngine(collab_graph, DECAY, seed=42).walks_from(1, 25, max_steps=8)
        assert np.array_equal(first.positions, second.positions)

    def test_walk_moves_to_in_neighbors_only(self, toy_graph):
        engine = SqrtCWalkEngine(toy_graph, DECAY, seed=5)
        batch = engine.walks_from(2, 200, max_steps=1)
        step_one = batch.nodes_at(1)
        moved = step_one[step_one >= 0]
        assert set(np.unique(moved).tolist()) <= {0, 1, 4}

    def test_dangling_start_stops_immediately(self, toy_graph):
        engine = SqrtCWalkEngine(toy_graph, DECAY, seed=5)
        batch = engine.walks_from(0, 20, max_steps=5)
        assert np.all(batch.nodes_at(1) == -1)
        assert np.all(batch.lengths == 0)

    def test_stopping_rate_matches_sqrt_c(self, cycle_graph):
        # On a cycle every node has exactly one in-neighbour, so survival is
        # governed purely by the √c coin.
        engine = SqrtCWalkEngine(cycle_graph, DECAY, seed=11)
        batch = engine.walks_from(0, 4000, max_steps=1)
        survival = float((batch.nodes_at(1) >= 0).mean())
        assert survival == pytest.approx(np.sqrt(DECAY), abs=0.03)

    def test_walks_from_nodes_vectorised_starts(self, collab_graph):
        engine = SqrtCWalkEngine(collab_graph, DECAY, seed=2)
        starts = np.array([0, 5, 9, 5])
        batch = engine.walks_from_nodes(starts, max_steps=4)
        assert np.array_equal(batch.nodes_at(0), starts)

    def test_walks_from_nodes_rejects_bad_input(self, collab_graph):
        engine = SqrtCWalkEngine(collab_graph, DECAY, seed=2)
        with pytest.raises(ValueError):
            engine.walks_from_nodes(np.array([[0, 1]]))
        with pytest.raises(ValueError):
            engine.walks_from_nodes(np.array([collab_graph.num_nodes + 5]))

    def test_invalid_decay(self, collab_graph):
        with pytest.raises(ValueError):
            SqrtCWalkEngine(collab_graph, 1.0)

    def test_visit_distribution_matches_hitting_probabilities(self, toy_graph):
        engine = SqrtCWalkEngine(toy_graph, DECAY, seed=9)
        empirical = np.zeros((5, toy_graph.num_nodes))
        for step, (nodes, counts) in enumerate(engine.visit_count_steps(
                np.array([2]), np.array([8000]), max_steps=4)):
            empirical[step, nodes] = counts / 8000
        exact = hitting_probability_vectors(toy_graph, 2, 4, decay=DECAY)
        assert np.max(np.abs(empirical - exact)) < 0.03


class TestPairWalks:
    def test_single_in_neighbor_node_always_meets_when_surviving(self):
        # Node 1 in a 2-cycle has exactly one in-neighbour: both walks move
        # together, so they meet iff both survive the first step (prob c).
        graph = DiGraph.from_edges([(0, 1), (1, 0)])
        engine = SqrtCWalkEngine(graph, DECAY, seed=3)
        met = engine.pair_meet_counts(np.array([1]), np.array([6000]),
                                      max_steps=30)[0] / 6000
        assert met == pytest.approx(
            DECAY / (1.0 - 0.0), abs=0.05) or met > 0.5
        # More precisely: meeting prob = c + ... but on a 2-cycle they stay
        # together forever once moving, so Pr[meet] = c / 1 is a lower bound.
        assert met >= DECAY - 0.05

    def test_star_hub_pairs_meet_with_probability_c_over_degree(self, hub_graph):
        # Two walks from the hub each pick one of the 9 leaves; they meet only
        # if both survive (c) and pick the same leaf (1/9); leaves are dangling
        # so no later meetings are possible.
        engine = SqrtCWalkEngine(hub_graph, DECAY, seed=13)
        met = engine.pair_meet_counts(np.array([0]), np.array([20000]),
                                      max_steps=5)[0] / 20000
        expected = DECAY / 9.0
        assert met == pytest.approx(expected, abs=0.01)

    def test_skip_steps_excludes_prefix_meetings(self, hub_graph):
        # With a non-stop prefix of 1 step every pair reaches the leaves; the
        # leaves are dangling so no meeting can happen after the prefix.
        engine = SqrtCWalkEngine(hub_graph, DECAY, seed=13)
        met = engine.pair_meet_counts(np.array([0]), np.array([2000]),
                                      max_steps=5, skip_steps=1)
        assert met[0] == 0
