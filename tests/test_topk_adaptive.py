"""Tests for the adaptive top-k query strategy on ExactSim."""

import pytest

from repro.metrics.accuracy import top_k_nodes
from repro.service.adaptive import RefinedTopK, refine_top_k
from repro.service.planner import QueryPlanner

DECAY = 0.6
BASE = {"decay": DECAY, "seed": 7, "max_total_samples": 60_000}


def adaptive_top_k(graph, source, k, *, initial_epsilon=1e-1,
                   refinement_factor=10.0, min_epsilon=1e-5, stable_rounds=2,
                   require_same_order=False):
    """Refine ExactSim's ε by ``refinement_factor`` down to ``min_epsilon``."""
    planner = QueryPlanner(graph, default_method="exactsim", cache_entries=0)
    return refine_top_k(
        planner, "exactsim", source, k, initial=initial_epsilon,
        refine=lambda epsilon: max(epsilon / refinement_factor, min_epsilon),
        stop=lambda epsilon: epsilon <= min_epsilon,
        stable_rounds=stable_rounds, require_same_order=require_same_order,
        base_config=BASE)


class TestAdaptiveTopK:
    def test_converges_and_matches_ground_truth(self, collab_graph, collab_simrank):
        source = 9
        result = adaptive_top_k(collab_graph, source, k=10, initial_epsilon=1e-1,
                                min_epsilon=1e-3)
        assert isinstance(result, RefinedTopK)
        assert result.converged
        truth = set(top_k_nodes(collab_simrank[source], 10, exclude=source).tolist())
        assert result.top_k.node_set() == truth

    def test_epsilon_schedule_is_decreasing(self, collab_graph):
        result = adaptive_top_k(collab_graph, 3, k=5, initial_epsilon=1e-1,
                                refinement_factor=5.0, min_epsilon=1e-3)
        assert all(earlier > later for earlier, later
                   in zip(result.parameters, result.parameters[1:]))
        assert result.parameters[-1] >= 1e-3
        assert result.refinement_rounds == len(result.parameters)

    def test_min_epsilon_floor_terminates_without_convergence_flag(self, collab_graph):
        # With stable_rounds impossible to reach in one step, the loop must
        # still terminate at the epsilon floor.
        result = adaptive_top_k(collab_graph, 3, k=5, initial_epsilon=1e-1,
                                refinement_factor=100.0, min_epsilon=5e-2,
                                stable_rounds=50)
        assert not result.converged
        assert result.parameters[-1] == pytest.approx(5e-2)

    def test_total_time_accumulates(self, collab_graph):
        result = adaptive_top_k(collab_graph, 3, k=5, initial_epsilon=1e-1,
                                min_epsilon=1e-2)
        assert result.total_query_seconds > 0.0

    def test_require_same_order(self, collab_graph):
        result = adaptive_top_k(collab_graph, 9, k=5, initial_epsilon=1e-2,
                                min_epsilon=1e-3, require_same_order=True)
        assert result.top_k.k == 5

    def test_parameter_validation(self, collab_graph):
        with pytest.raises(ValueError):
            adaptive_top_k(collab_graph, 0, k=0)
        with pytest.raises(ValueError):
            adaptive_top_k(collab_graph, 0, k=5, initial_epsilon=0.0)
        with pytest.raises(ValueError):
            adaptive_top_k(collab_graph, 0, k=5, stable_rounds=0)
        with pytest.raises(ValueError):
            adaptive_top_k(collab_graph, collab_graph.num_nodes, k=5)
