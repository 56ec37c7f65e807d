"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.power_method import simrank_matrix
from repro.core.result import SingleSourceResult
from repro.core.sampling import allocate_proportional, allocate_squared
from repro.core.sparse import sparse_truncation_threshold, sparsify_vector
from repro.graph.digraph import DiGraph
from repro.graph.transition import reverse_transition_matrix
from repro.metrics.accuracy import max_error, precision_at_k, top_k_nodes
from repro.ppr.hop_ppr import hop_ppr_vectors
from specs.exact_diagonal import exact_diagonal

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
FAST = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
def edge_lists(max_nodes: int = 12, max_edges: int = 40):
    node = st.integers(min_value=0, max_value=max_nodes - 1)
    return st.lists(st.tuples(node, node), min_size=0, max_size=max_edges)


def small_graphs(max_nodes: int = 12, max_edges: int = 40):
    return edge_lists(max_nodes, max_edges).map(
        lambda edges: DiGraph.from_edges(edges, num_nodes=max_nodes))


def probability_vectors(length: int = 20):
    return st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=length, max_size=length).map(
        lambda values: np.asarray(values, dtype=np.float64))


# --------------------------------------------------------------------------- #
# CSR graph invariants
# --------------------------------------------------------------------------- #
class TestGraphProperties:
    @FAST
    @given(edges=edge_lists())
    def test_csr_invariants(self, edges):
        graph = DiGraph.from_edges(edges, num_nodes=12)
        assert graph.in_indptr[0] == 0 and graph.out_indptr[0] == 0
        assert graph.in_indptr[-1] == graph.num_edges
        assert graph.out_indptr[-1] == graph.num_edges
        assert np.all(np.diff(graph.in_indptr) >= 0)
        assert np.all(np.diff(graph.out_indptr) >= 0)
        assert graph.in_degrees.sum() == graph.out_degrees.sum() == graph.num_edges

    @FAST
    @given(edges=edge_lists())
    def test_every_out_edge_has_matching_in_edge(self, edges):
        graph = DiGraph.from_edges(edges, num_nodes=12)
        for source, target in graph.edges():
            assert source in graph.in_neighbors(target)

    @FAST
    @given(edges=edge_lists())
    def test_reverse_is_involution(self, edges):
        graph = DiGraph.from_edges(edges, num_nodes=12)
        assert graph.reverse().reverse() == graph

    @FAST
    @given(edges=edge_lists())
    def test_deduplication_never_increases_on_rebuild(self, edges):
        graph = DiGraph.from_edges(edges, num_nodes=12)
        rebuilt = DiGraph.from_edges(list(graph.edges()), num_nodes=12)
        assert rebuilt == graph

    @FAST
    @given(edges=edge_lists())
    def test_transition_columns_are_stochastic_or_zero(self, edges):
        graph = DiGraph.from_edges(edges, num_nodes=12)
        matrix = reverse_transition_matrix(graph)
        sums = np.asarray(matrix.sum(axis=0)).ravel()
        for node in range(graph.num_nodes):
            expected = 1.0 if graph.in_degree(node) > 0 else 0.0
            assert sums[node] == pytest.approx(expected, abs=1e-12)


# --------------------------------------------------------------------------- #
# SimRank matrix properties
# --------------------------------------------------------------------------- #
class TestSimRankProperties:
    @SLOW
    @given(edges=edge_lists(max_nodes=9, max_edges=25),
           decay=st.sampled_from([0.4, 0.6, 0.8]))
    def test_simrank_matrix_is_valid_similarity(self, edges, decay):
        graph = DiGraph.from_edges(edges, num_nodes=9)
        similarity = simrank_matrix(graph, decay=decay)
        assert np.allclose(np.diag(similarity), 1.0)
        assert similarity.min() >= -1e-12
        assert similarity.max() <= 1.0 + 1e-12
        assert np.allclose(similarity, similarity.T, atol=1e-9)

    @SLOW
    @given(edges=edge_lists(max_nodes=9, max_edges=25))
    def test_simrank_definition_fixed_point(self, edges):
        """S satisfies eq. (1): off-diagonal entries equal the neighbour average."""
        decay = 0.6
        graph = DiGraph.from_edges(edges, num_nodes=9)
        similarity = simrank_matrix(graph, decay=decay, tolerance=1e-12)
        for i in range(graph.num_nodes):
            for j in range(i + 1, graph.num_nodes):
                in_i = graph.in_neighbors(i)
                in_j = graph.in_neighbors(j)
                if in_i.size == 0 or in_j.size == 0:
                    expected = 0.0
                else:
                    block = similarity[np.ix_(in_i, in_j)]
                    expected = decay * block.sum() / (in_i.size * in_j.size)
                assert similarity[i, j] == pytest.approx(expected, abs=1e-6)

    @SLOW
    @given(edges=edge_lists(max_nodes=9, max_edges=25))
    def test_exact_diagonal_entries_in_range(self, edges):
        decay = 0.6
        graph = DiGraph.from_edges(edges, num_nodes=9)
        similarity = simrank_matrix(graph, decay=decay)
        diagonal = exact_diagonal(graph, similarity, decay=decay)
        assert np.all(diagonal >= 1.0 - decay - 1e-9)
        assert np.all(diagonal <= 1.0 + 1e-9)


# --------------------------------------------------------------------------- #
# PPR properties
# --------------------------------------------------------------------------- #
class TestPPRProperties:
    @SLOW
    @given(edges=edge_lists(max_nodes=10, max_edges=30),
           source=st.integers(min_value=0, max_value=9))
    def test_hop_ppr_mass_bounded_by_one(self, edges, source):
        graph = DiGraph.from_edges(edges, num_nodes=10)
        hops = hop_ppr_vectors(graph, source, 20, decay=0.6)
        assert np.all(hops.total >= -1e-15)
        assert hops.total.sum() <= 1.0 + 1e-9

    @SLOW
    @given(edges=edge_lists(max_nodes=10, max_edges=30),
           source=st.integers(min_value=0, max_value=9),
           epsilon=st.sampled_from([1e-1, 1e-2, 1e-3]))
    def test_truncation_error_bounded_per_entry(self, edges, source, epsilon):
        """Lemma 2's premise: truncation changes each entry by < threshold."""
        graph = DiGraph.from_edges(edges, num_nodes=10)
        threshold = sparse_truncation_threshold(epsilon, decay=0.6)
        dense = hop_ppr_vectors(graph, source, 10, decay=0.6)
        truncated = hop_ppr_vectors(graph, source, 10, decay=0.6,
                                    truncation_threshold=threshold)
        for level in range(11):
            difference = dense.hop_dense(level) - truncated.hop_dense(level)
            assert np.all(difference >= -1e-15)
            assert np.all(difference <= threshold + 1e-15)


# --------------------------------------------------------------------------- #
# allocation / sparsification / metric properties
# --------------------------------------------------------------------------- #
class TestNumericProperties:
    @FAST
    @given(vector=probability_vectors(), budget=st.integers(min_value=0, max_value=10_000))
    def test_allocations_are_non_negative_and_cover_positive_entries(self, vector, budget):
        for allocate in (allocate_proportional, allocate_squared):
            allocation, realised = allocate(vector, budget)
            assert np.all(allocation >= 0)
            assert realised == allocation.sum()
            assert np.all(allocation[vector == 0] == 0)
        if budget > 0:
            # Proportional allocation covers every node with positive PPR mass
            # (the squared allocation may round the square of a subnormal to 0).
            allocation, _ = allocate_proportional(vector, budget)
            assert np.all(allocation[vector > 0] >= 1)

    @FAST
    @given(vector=probability_vectors(), budget=st.integers(min_value=1, max_value=10_000),
           cap=st.integers(min_value=1, max_value=500))
    def test_allocation_cap_respected_up_to_minimums(self, vector, budget, cap):
        allocation, realised = allocate_squared(vector, budget, cap=cap)
        assert realised <= cap + np.count_nonzero(vector)

    @FAST
    @given(vector=probability_vectors(),
           threshold=st.floats(min_value=1e-6, max_value=0.5, allow_nan=False))
    def test_sparsify_only_removes_small_entries(self, vector, threshold):
        result = sparsify_vector(vector, threshold)
        removed = (vector != result)
        assert np.all(vector[removed] < threshold)
        assert np.all(result[~removed] == vector[~removed])

    @FAST
    @given(scores=probability_vectors(), reference=probability_vectors(),
           k=st.integers(min_value=1, max_value=20))
    def test_metric_ranges(self, scores, reference, k):
        assert max_error(scores, reference) >= 0.0
        assert 0.0 <= precision_at_k(scores, reference, k) <= 1.0
        assert precision_at_k(reference, reference, k) == 1.0
        nodes = top_k_nodes(reference, k)
        assert len(set(nodes.tolist())) == nodes.shape[0] == min(k, reference.shape[0])

    @FAST
    @given(scores=probability_vectors(), k=st.integers(min_value=1, max_value=19),
           source=st.integers(min_value=0, max_value=19))
    def test_top_k_result_sorted_and_excludes_source(self, scores, k, source):
        result = SingleSourceResult(source=source, scores=scores)
        top = result.top_k(k)
        assert source not in top.nodes
        assert np.all(np.diff(top.scores) <= 1e-12)
