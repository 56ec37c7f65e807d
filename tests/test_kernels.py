"""Equivalence suite: vectorized CSR frontier kernels vs dict-based reference.

Every kernel in ``repro.kernels.frontier`` must reproduce the seed's
pure-Python loops (preserved in ``specs.frontier``) to 1e-12 on
random power-law graphs — including dangling nodes (which power-law directed
graphs produce naturally) and self-loops (injected explicitly).  Property
tests are hypothesis-driven; a few deterministic cases pin the edge cases
(empty frontier, empty graph, single node).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.generators import power_law_graph, preferential_attachment_graph
from repro.graph.transition import TransitionOperator
from repro.kernels import frontier, parallel
from repro.kernels.frontier import (
    csr_gather,
    propagate_batch,
    propagate_batch_transpose,
    propagate_distribution,
    push_frontier,
)
from repro.kernels.sparsevec import SparseVector
from repro.ppr.push import forward_push_hop_ppr, forward_push_hop_ppr_batch
from specs.frontier import (
    _reference_forward_push_hop_ppr,
    _reference_propagate_distribution,
    _reference_propagate_transpose,
    _reference_push_frontier,
    propagate_transpose,
)
from specs.probes import coo_probe_batch

DECAY = 0.6
SQRT_C = float(np.sqrt(DECAY))
TOLERANCE = 1e-12


# --------------------------------------------------------------------------- #
# graph / frontier strategies
# --------------------------------------------------------------------------- #
def _random_graph(seed: int, num_nodes: int, with_self_loops: bool) -> DiGraph:
    """A random power-law graph with dangling nodes and optional self-loops."""
    base = power_law_graph(num_nodes, 3.0, exponent=2.1, directed=True, seed=seed)
    if not with_self_loops:
        return base
    rng = np.random.default_rng(seed + 1)
    loops = rng.choice(num_nodes, size=max(1, num_nodes // 8), replace=False)
    edges = np.vstack([base.edge_array(), np.column_stack([loops, loops])])
    return DiGraph.from_edges(edges, num_nodes=num_nodes, name="power-law+loops")


graph_strategy = st.builds(
    _random_graph,
    seed=st.integers(min_value=0, max_value=2**16),
    num_nodes=st.integers(min_value=2, max_value=80),
    with_self_loops=st.booleans(),
)


def _random_frontier(graph: DiGraph, seed: int, size: int) -> dict:
    rng = np.random.default_rng(seed)
    size = min(size, graph.num_nodes)
    nodes = rng.choice(graph.num_nodes, size=size, replace=False)
    masses = rng.uniform(1e-6, 1.0, size=size)
    return {int(node): float(mass) for node, mass in zip(nodes, masses)}


def _dense(mapping: dict, num_nodes: int) -> np.ndarray:
    vector = np.zeros(num_nodes, dtype=np.float64)
    for node, value in mapping.items():
        vector[node] += value
    return vector


# --------------------------------------------------------------------------- #
# csr_gather
# --------------------------------------------------------------------------- #
class TestCsrGather:
    @settings(max_examples=30, deadline=None)
    @given(graph=graph_strategy, seed=st.integers(0, 2**16))
    def test_matches_naive_slicing(self, graph, seed):
        rng = np.random.default_rng(seed)
        nodes = rng.choice(graph.num_nodes, size=min(10, graph.num_nodes),
                           replace=False).astype(np.int64)
        targets, counts = csr_gather(graph.in_indptr, graph.in_indices, nodes)
        expected = np.concatenate(
            [graph.in_neighbors(int(v)) for v in nodes]
            or [np.empty(0, dtype=np.int64)])
        assert np.array_equal(targets, expected)
        assert np.array_equal(counts, graph.in_degrees[nodes])

    def test_empty_nodes(self, toy_graph):
        targets, counts = csr_gather(toy_graph.in_indptr, toy_graph.in_indices,
                                     np.empty(0, dtype=np.int64))
        assert targets.size == 0 and counts.size == 0


# --------------------------------------------------------------------------- #
# push_frontier
# --------------------------------------------------------------------------- #
class TestPushFrontier:
    @settings(max_examples=40, deadline=None)
    @given(graph=graph_strategy, seed=st.integers(0, 2**16),
           size=st.integers(1, 40), r_max=st.sampled_from([1e-1, 1e-2, 1e-4]),
           expand=st.booleans())
    def test_matches_reference(self, graph, seed, size, r_max, expand):
        frontier = _random_frontier(graph, seed, size)
        level = push_frontier(graph.in_indptr, graph.in_indices,
                              SparseVector.from_dict(frontier),
                              r_max=r_max, sqrt_c=SQRT_C,
                              num_nodes=graph.num_nodes, expand=expand)
        emitted, nxt, dropped, absorbed, pushed, traversed = \
            _reference_push_frontier(graph, frontier, r_max=r_max,
                                     sqrt_c=SQRT_C, expand=expand)
        n = graph.num_nodes
        assert np.max(np.abs(level.emitted.to_dense(n) - _dense(emitted, n)),
                      initial=0.0) < TOLERANCE
        assert np.max(np.abs(level.frontier.to_dense(n) - _dense(nxt, n)),
                      initial=0.0) < TOLERANCE
        assert level.dropped_mass == pytest.approx(dropped, abs=TOLERANCE)
        assert level.absorbed_mass == pytest.approx(absorbed, abs=TOLERANCE)
        assert level.pushed_entries == pushed
        assert level.traversed_edges == traversed

    def test_empty_frontier(self, toy_graph):
        level = push_frontier(toy_graph.in_indptr, toy_graph.in_indices,
                              SparseVector.empty(), r_max=1e-3, sqrt_c=SQRT_C,
                              num_nodes=toy_graph.num_nodes)
        assert level.emitted.nnz == 0 and level.frontier.nnz == 0
        assert level.dropped_mass == 0.0 and level.traversed_edges == 0

    def test_mass_conservation_single_level(self, collab_graph):
        frontier = _random_frontier(collab_graph, 3, 20)
        total_in = sum(frontier.values())
        level = push_frontier(collab_graph.in_indptr, collab_graph.in_indices,
                              SparseVector.from_dict(frontier),
                              r_max=1e-2, sqrt_c=SQRT_C,
                              num_nodes=collab_graph.num_nodes)
        total_out = (level.emitted.sum() + level.frontier.sum() +
                     level.dropped_mass + level.absorbed_mass)
        assert total_out == pytest.approx(total_in, abs=1e-12)


# --------------------------------------------------------------------------- #
# propagate_distribution / propagate_transpose
# --------------------------------------------------------------------------- #
class TestPropagate:
    @settings(max_examples=40, deadline=None)
    @given(graph=graph_strategy, seed=st.integers(0, 2**16), size=st.integers(1, 40))
    def test_distribution_matches_reference(self, graph, seed, size):
        frontier = _random_frontier(graph, seed, size)
        spread, traversed = propagate_distribution(
            graph.in_indptr, graph.in_indices, SparseVector.from_dict(frontier),
            num_nodes=graph.num_nodes)
        expected, expected_traversed = _reference_propagate_distribution(
            graph, frontier)
        assert np.max(np.abs(spread.to_dense(graph.num_nodes) -
                             _dense(expected, graph.num_nodes)),
                      initial=0.0) < TOLERANCE
        assert traversed == expected_traversed

    @settings(max_examples=40, deadline=None)
    @given(graph=graph_strategy, seed=st.integers(0, 2**16), size=st.integers(1, 40))
    def test_transpose_matches_reference(self, graph, seed, size):
        frontier = _random_frontier(graph, seed, size)
        spread, traversed = propagate_transpose(
            graph.out_indptr, graph.out_indices, graph.in_degrees,
            SparseVector.from_dict(frontier), num_nodes=graph.num_nodes)
        expected, expected_traversed = _reference_propagate_transpose(
            graph, frontier)
        assert np.max(np.abs(spread.to_dense(graph.num_nodes) -
                             _dense(expected, graph.num_nodes)),
                      initial=0.0) < TOLERANCE
        assert traversed == expected_traversed

    def test_transpose_matches_dense_operator(self, collab_graph):
        """Pᵀ kernel vs the scipy matrix the seed's probes used."""
        from repro.graph.transition import TransitionOperator
        operator = TransitionOperator(collab_graph, DECAY)
        frontier = _random_frontier(collab_graph, 5, 15)
        dense_in = _dense(frontier, collab_graph.num_nodes)
        spread, _ = propagate_transpose(
            collab_graph.out_indptr, collab_graph.out_indices,
            collab_graph.in_degrees, SparseVector.from_dict(frontier),
            num_nodes=collab_graph.num_nodes)
        assert np.max(np.abs(spread.to_dense(collab_graph.num_nodes) -
                             operator.matrix_t @ dense_in)) < TOLERANCE


# --------------------------------------------------------------------------- #
# batched variants
# --------------------------------------------------------------------------- #
class TestBatchedPropagate:
    @settings(max_examples=25, deadline=None)
    @given(graph=graph_strategy, seed=st.integers(0, 2**16),
           batch=st.integers(1, 6), transpose=st.booleans())
    def test_matches_per_item_reference(self, graph, seed, batch, transpose):
        distributions = [_random_frontier(graph, seed + b, 1 + (seed + b) % 20)
                         for b in range(batch)]
        rows = np.concatenate([np.full(len(d), b, dtype=np.int64)
                               for b, d in enumerate(distributions)])
        cols = np.concatenate([np.fromiter(sorted(d), dtype=np.int64)
                               for d in distributions])
        vals = np.concatenate([np.array([d[k] for k in sorted(d)])
                               for d in distributions])
        if transpose:
            out_rows, out_cols, out_vals, traversed = propagate_batch_transpose(
                graph.out_indptr, graph.out_indices, graph.in_degrees,
                rows, cols, vals, num_nodes=graph.num_nodes)
            per_item = [_reference_propagate_transpose(graph, d)
                        for d in distributions]
        else:
            out_rows, out_cols, out_vals, traversed = propagate_batch(
                graph.in_indptr, graph.in_indices, rows, cols, vals,
                num_nodes=graph.num_nodes)
            per_item = [_reference_propagate_distribution(graph, d)
                        for d in distributions]
        assert traversed == sum(cost for _, cost in per_item)
        for b, (expected, _) in enumerate(per_item):
            mask = out_rows == b
            got = np.zeros(graph.num_nodes)
            got[out_cols[mask]] = out_vals[mask]
            assert np.max(np.abs(got - _dense(expected, graph.num_nodes)),
                          initial=0.0) < TOLERANCE


# --------------------------------------------------------------------------- #
# probe kernel: COO steps, dense lanes and the switch between them
# --------------------------------------------------------------------------- #
def _probe_runs(graph, nodes, weights, steps, threshold, monkeypatch):
    """The kernel's answer with the dense switch at step 0, never and at the
    default fill, plus the COO-only spec's."""
    operator = TransitionOperator(graph, DECAY)
    runs = {}
    for label, fill in (("dense", 0.0), ("coo", np.inf),
                        ("default", frontier.DENSE_PROBE_FILL)):
        monkeypatch.setattr(frontier, "DENSE_PROBE_FILL", fill)
        out = np.zeros(graph.num_nodes)
        frontier.accumulate_probes(operator, nodes, weights, steps, threshold,
                                   out)
        runs[label] = out
    spec = np.zeros(graph.num_nodes)
    coo_probe_batch(operator, spec, nodes, weights, steps, threshold)
    runs["spec"] = spec
    return runs


class TestProbeKernel:
    """Dense lanes add the same floats in the same order as the COO steps,
    so the switch step never changes a bit."""

    @settings(max_examples=40, deadline=None)
    @given(graph=graph_strategy, seed=st.integers(0, 2**16),
           steps=st.integers(0, 8),
           threshold=st.sampled_from([0.0, 1e-4, 1e-2, 1e-1]))
    def test_switch_step_changes_no_bit(self, graph, seed, steps, threshold):
        rng = np.random.default_rng(seed)
        lanes = int(rng.integers(1, 2 * graph.num_nodes + 1))
        nodes = rng.integers(0, graph.num_nodes, size=lanes)   # repeats too
        weights = rng.uniform(1e-3, 2.0, size=lanes)
        with pytest.MonkeyPatch.context() as monkeypatch:
            runs = _probe_runs(graph, nodes, weights, steps, threshold,
                               monkeypatch)
        for label in ("dense", "coo", "default"):
            assert np.array_equal(runs[label], runs["spec"]), label

    @pytest.mark.parametrize("threshold", [0.0, 1e-3])
    def test_in_degree_zero_and_repeated_edges(self, monkeypatch, threshold):
        """Node 0 has no in-edge (its dense row divides by 1), nodes 3 and 5
        no out-edge, and 1 → 2 is stored twice, so its sum adds the same
        mass twice on both sides."""
        edges = [(0, 1), (0, 2), (1, 2), (1, 2), (2, 3), (2, 4), (4, 2),
                 (1, 5), (4, 4)]
        graph = DiGraph.from_edges(edges, num_nodes=6, name="probe-edges",
                                   deduplicate=False)
        assert graph.in_degrees[0] == 0
        nodes = np.arange(6, dtype=np.int64)
        weights = np.linspace(0.5, 1.5, 6)
        for steps in range(6):
            runs = _probe_runs(graph, nodes, weights, steps, threshold,
                               monkeypatch)
            for label in ("dense", "coo", "default"):
                assert np.array_equal(runs[label], runs["spec"]), (label, steps)

    def test_lane_chunks_change_no_bit(self, monkeypatch):
        """Three lanes per dense chunk: each chunk continues the running sum
        in lane order, as one chunk does."""
        graph = _random_graph(7, 60, with_self_loops=True)
        rng = np.random.default_rng(3)
        nodes = rng.integers(0, 60, size=20)
        weights = rng.uniform(0.1, 1.0, size=20)
        one_chunk = _probe_runs(graph, nodes, weights, 5, 1e-3, monkeypatch)
        monkeypatch.setattr(parallel, "DENSE_LANE_BYTES", 8 * 60 * 3)
        chunked = _probe_runs(graph, nodes, weights, 5, 1e-3, monkeypatch)
        assert np.array_equal(chunked["dense"], one_chunk["dense"])
        assert np.array_equal(chunked["dense"], one_chunk["spec"])

    def test_empty_batch_adds_nothing(self):
        graph = _random_graph(1, 20, with_self_loops=False)
        out = np.ones(20)
        frontier.accumulate_probes(TransitionOperator(graph, DECAY),
                                   np.empty(0, dtype=np.int64),
                                   np.empty(0), 3, 1e-3, out)
        assert np.array_equal(out, np.ones(20))


# --------------------------------------------------------------------------- #
# full push: vectorized vs seed loop, batch vs single
# --------------------------------------------------------------------------- #
class TestForwardPushEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(graph=graph_strategy, source_pick=st.integers(0, 2**16),
           num_hops=st.integers(0, 12), r_max=st.sampled_from([1e-1, 1e-3, 1e-5]))
    def test_matches_reference_implementation(self, graph, source_pick,
                                              num_hops, r_max):
        source = source_pick % graph.num_nodes
        result = forward_push_hop_ppr(graph, source, num_hops, r_max, decay=DECAY)
        estimates, residual, pushed = _reference_forward_push_hop_ppr(
            graph, source, num_hops, r_max, decay=DECAY)
        assert len(result.levels) == len(estimates)
        for level, expected in zip(result.levels, estimates):
            assert np.max(np.abs(level.to_dense(graph.num_nodes) -
                                 _dense(expected, graph.num_nodes)),
                          initial=0.0) < TOLERANCE
        assert result.residual_mass == pytest.approx(residual, abs=TOLERANCE)
        assert result.pushed_entries == pushed

    @settings(max_examples=15, deadline=None)
    @given(graph=graph_strategy, seed=st.integers(0, 2**16),
           num_hops=st.integers(0, 10))
    def test_batch_matches_single_source(self, graph, seed, num_hops):
        rng = np.random.default_rng(seed)
        sources = rng.choice(graph.num_nodes,
                             size=min(4, graph.num_nodes), replace=False)
        batched = forward_push_hop_ppr_batch(graph, sources, num_hops, 1e-3,
                                             decay=DECAY)
        for source, result in zip(sources, batched):
            single = forward_push_hop_ppr(graph, int(source), num_hops, 1e-3,
                                          decay=DECAY)
            assert np.max(np.abs(result.total_dense(graph.num_nodes) -
                                 single.total_dense(graph.num_nodes)),
                          initial=0.0) < TOLERANCE
            assert result.residual_mass == pytest.approx(
                single.residual_mass, abs=TOLERANCE)
            assert result.pushed_entries == single.pushed_entries

    def test_batch_empty_sources(self, toy_graph):
        assert forward_push_hop_ppr_batch(toy_graph, [], 4, 1e-3) == []


# --------------------------------------------------------------------------- #
# SparseVector container behaviour
# --------------------------------------------------------------------------- #
class TestSparseVector:
    def test_from_dict_roundtrip(self):
        mapping = {7: 0.25, 2: 0.5, 11: 0.125}
        vector = SparseVector.from_dict(mapping)
        assert np.array_equal(vector.indices, [2, 7, 11])
        assert vector.to_dict() == mapping
        assert vector.sum() == pytest.approx(0.875)

    def test_from_pairs_sums_duplicates(self):
        vector = SparseVector.from_pairs([3, 1, 3], [0.5, 1.0, 0.25])
        assert np.array_equal(vector.indices, [1, 3])
        assert np.allclose(vector.values, [1.0, 0.75])

    def test_filter_and_scale(self):
        vector = SparseVector.from_dict({0: 0.5, 1: 1e-6, 2: 0.25})
        filtered = vector.filtered(1e-3)
        assert np.array_equal(filtered.indices, [0, 2])
        assert np.allclose(filtered.scaled(2.0).values, [1.0, 0.5])

    def test_memory_bytes_is_array_payload(self):
        vector = SparseVector.from_dict({i: float(i + 1) for i in range(10)})
        assert vector.memory_bytes() == 10 * (8 + 8)

    def test_empty(self):
        empty = SparseVector.empty()
        assert len(empty) == 0 and not empty and empty.sum() == 0.0

    def test_equality_compares_contents(self):
        first = SparseVector.from_dict({1: 0.5, 4: 0.25})
        second = SparseVector.from_dict({1: 0.5, 4: 0.25})
        third = SparseVector.from_dict({1: 0.5, 4: 0.75})
        assert first == second
        assert first != third
        assert first != "not a vector"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([1, 2]), np.array([1.0]))

    def test_sparsify_to_vector_matches_dense_truncation(self):
        from repro.core.sparse import sparsify_to_vector, sparsify_vector
        rng = np.random.default_rng(9)
        dense = rng.uniform(0.0, 1e-2, size=200)
        threshold = 2e-3
        vector = sparsify_to_vector(dense, threshold)
        assert np.array_equal(vector.to_dense(200), sparsify_vector(dense, threshold))
