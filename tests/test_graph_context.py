"""Tests for the shared GraphContext."""

from __future__ import annotations

import pytest

from repro.baselines.parsim import ParSim
from repro.baselines.prsim import PRSim
from repro.graph.context import GraphContext
from repro.graph.generators import preferential_attachment_graph


class TestSharedCache:
    def test_shared_returns_one_context_per_graph(self, collab_graph):
        first = GraphContext.shared(collab_graph)
        second = GraphContext.shared(collab_graph)
        assert first is second

    def test_distinct_graphs_get_distinct_contexts(self, collab_graph, directed_graph):
        assert GraphContext.shared(collab_graph) is not \
            GraphContext.shared(directed_graph)

    def test_structurally_equal_graphs_share(self):
        first = preferential_attachment_graph(60, 2, directed=False, seed=3)
        second = preferential_attachment_graph(60, 2, directed=False, seed=3)
        assert first is not second and first == second
        assert GraphContext.shared(first) is GraphContext.shared(second)


class TestOperatorCache:
    def test_operator_cached_per_decay(self, collab_graph):
        context = GraphContext(collab_graph)
        assert context.operator(0.6) is context.operator(0.6)
        assert context.operator(0.6) is not context.operator(0.8)

    def test_algorithms_share_the_transition_matrices(self, collab_graph):
        context = GraphContext(collab_graph)
        first = ParSim(collab_graph, context=context)
        second = PRSim(collab_graph, epsilon=1e-1, seed=1, context=context)
        assert first._operator is second._operator

    def test_default_construction_uses_shared_context(self, collab_graph):
        first = ParSim(collab_graph)
        second = ParSim(collab_graph, iterations=5)
        assert first.context is second.context
        assert first._operator is second._operator

    def test_context_for_wrong_graph_rejected(self, collab_graph, directed_graph):
        context = GraphContext(directed_graph)
        with pytest.raises(ValueError, match="different graph"):
            ParSim(collab_graph, context=context)


class TestSharedCacheLifetime:
    def test_shared_entries_evict_when_unreferenced(self):
        import gc
        import weakref
        graph = preferential_attachment_graph(40, 2, directed=False, seed=9)
        context_ref = weakref.ref(GraphContext.shared(graph))
        graph_ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert context_ref() is None, "shared context kept alive with no holders"
        assert graph_ref() is None, "graph leaked through the shared cache"
