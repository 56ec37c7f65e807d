"""Equivalence suite: level-synchronous multi-propagation vs sequential paths.

The :class:`MultiPropagation` engine interleaves B independent propagations
over shared levels; everything built on it must match the sequential
schedule it replaced:

* lane-for-lane the engine reproduces :func:`propagate_distribution` *bit
  for bit*, including the per-lane edge accounting, lanes wider than the
  engine's narrow cap, dangling nodes, empty frontiers and B = 1 (the
  transpose kernels keep their own bit-identity suite in
  ``tests/test_kernels.py``);
* the batched Algorithm 3 exploration
  (:func:`repro.diagonal.local._exploit_deterministic_batch`), which decides
  ℓ(k) once per level, matches the fetch-by-fetch spec
  (:mod:`specs.algorithm3`): identical ℓ(k) and a bit-identical
  deterministic mass — with or without a shared cache, under cache
  eviction, with the dense Lemma 4 rows split into one-state groups, and at
  the budgets where simpler level rules drift;
* PRSim's batched hub index build matches the per-hub reference walk
  (supports exact, values ≤ 1e-12), and its per-level CSR index round-trips
  through the flat COO file layout bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.diagonal import local
from repro.diagonal.local import (
    DistributionCache,
    _exploit_deterministic_batch,
    estimate_diagonal_local_batch,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import power_law_graph
from repro.kernels.frontier import propagate_distribution
from repro.kernels.multiprop import MultiPropagation
from repro.kernels.sparsevec import SparseVector
from repro.randomwalk.engine import SqrtCWalkEngine
from specs.algorithm3 import (
    BudgetWindow,
    ReferenceCache,
    _explore_reference,
    exploit_deterministic_reference,
    first_meeting_probabilities,
    level_charges,
    z_level_reference,
)
from specs.probes import build_hub_vectors_reference, flat_hub_index

DECAY = 0.6


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
    num_nodes=st.integers(min_value=2, max_value=60),
    with_self_loops=st.booleans(),
)


def _random_lanes(graph: DiGraph, seed: int, num_lanes: int):
    """Per-lane random sparse frontiers (some lanes deliberately empty)."""
    rng = np.random.default_rng(seed)
    frontiers = []
    for lane in range(num_lanes):
        size = int(rng.integers(0, min(graph.num_nodes, 10) + 1))
        nodes = np.sort(rng.choice(graph.num_nodes, size=size, replace=False))
        values = rng.uniform(1e-6, 1.0, size=size)
        frontiers.append(SparseVector(nodes.astype(np.int64), values))
    return frontiers


def _seed_engine(engine: MultiPropagation, frontiers) -> None:
    rows = np.concatenate([np.full(f.nnz, lane, dtype=np.int64)
                           for lane, f in enumerate(frontiers)])
    cols = np.concatenate([f.indices for f in frontiers])
    vals = np.concatenate([f.values for f in frontiers])
    engine.seed(rows, cols, vals)


class TestMultiPropagationKernel:
    @settings(max_examples=40, deadline=None)
    @given(graph=graph_strategy,
           seed=st.integers(min_value=0, max_value=2**16),
           num_lanes=st.integers(min_value=1, max_value=7),
           steps=st.integers(min_value=1, max_value=3))
    def test_forward_matches_sequential_bitwise(self, graph, seed, num_lanes, steps):
        frontiers = _random_lanes(graph, seed, num_lanes)
        engine = MultiPropagation(graph, num_lanes)
        _seed_engine(engine, frontiers)
        expected = list(frontiers)
        for _ in range(steps):
            edges = engine.step()
            for lane in range(num_lanes):
                advanced, cost = propagate_distribution(
                    graph.in_indptr, graph.in_indices, expected[lane],
                    num_nodes=graph.num_nodes)
                expected[lane] = advanced
                assert int(edges[lane]) == cost
                assert engine.frontier(lane) == advanced

    def test_wide_lanes_match_sequential_bitwise(self):
        # 300 nodes put the narrow cap at 128 entries: lane 0 starts wider
        # and advances through the per-lane kernel, the rest share the
        # stacked scatter.
        graph = power_law_graph(300, 6.0, exponent=2.1, directed=True, seed=5)
        rng = np.random.default_rng(5)
        wide = np.sort(rng.choice(graph.num_nodes, size=200, replace=False))
        frontiers = [SparseVector(wide.astype(np.int64),
                                  rng.uniform(1e-6, 1.0, size=200))]
        frontiers += _random_lanes(graph, 6, 3)
        assert frontiers[0].nnz > max(128, graph.num_nodes >> 4)
        engine = MultiPropagation(graph, len(frontiers))
        _seed_engine(engine, frontiers)
        expected = list(frontiers)
        for _ in range(3):
            edges = engine.step()
            for lane in range(len(frontiers)):
                advanced, cost = propagate_distribution(
                    graph.in_indptr, graph.in_indices, expected[lane],
                    num_nodes=graph.num_nodes)
                expected[lane] = advanced
                assert int(edges[lane]) == cost
                assert engine.frontier(lane) == advanced

    def test_terminate_drops_lanes(self, directed_graph):
        frontiers = _random_lanes(directed_graph, 11, 3)
        engine = MultiPropagation(directed_graph, 3)
        _seed_engine(engine, frontiers)
        engine.terminate(np.array([1]))
        assert engine.frontier(1).nnz == 0
        assert engine.frontier(0) == frontiers[0]
        assert engine.frontier(2) == frontiers[2]

    def test_dangling_frontier_dies_with_zero_cost(self):
        graph = DiGraph.from_edges([(0, 1), (2, 3)])   # nodes 0, 2 dangling
        engine = MultiPropagation(graph, 2)
        engine.seed(np.arange(2), np.array([0, 1]), np.ones(2))
        edges = engine.step()
        assert edges[0] == 0                      # lane at dangling node 0
        assert engine.frontier(0).nnz == 0
        assert engine.frontier(1) == SparseVector(
            np.array([0]), np.array([1.0]))       # node 1's in-neighbour
        # an all-empty engine keeps stepping harmlessly
        engine.terminate(np.array([1]))
        assert np.array_equal(engine.step(), np.zeros(2, dtype=np.int64))
        assert engine.rows.size == 0


class TestBatchedExploitEquivalence:
    @pytest.fixture(scope="class")
    def walk_graph(self):
        return power_law_graph(300, 4.0, exponent=2.1, directed=True, seed=23)

    def test_matches_reference_with_shared_cache(self, walk_graph):
        heavy = np.argsort(-walk_graph.in_degrees)[:30]
        heavy = heavy[walk_graph.in_degrees[heavy] > 1]
        rng = np.random.default_rng(1)
        pairs = rng.integers(32, 3000, heavy.shape[0])
        requests = list(zip(heavy.tolist(), pairs.tolist()))
        batch = _exploit_deterministic_batch(
            walk_graph, DistributionCache(walk_graph), requests,
            decay=DECAY, max_level=20)
        shared_reference = ReferenceCache(walk_graph)
        for (node, num_pairs), (chosen, mass) in zip(requests, batch):
            for cache in (None, shared_reference):
                ref_chosen, ref_mass = exploit_deterministic_reference(
                    walk_graph, node, num_pairs, decay=DECAY, max_level=20,
                    cache=cache)
                assert chosen == ref_chosen, f"ℓ(k) drifted for node {node}"
                assert mass == ref_mass

    def test_z_levels_match_reference_bitwise(self, walk_graph):
        """Each state of one fused batch has the spec's Z_ℓ(k, ·), bit for
        bit, at every level it completes: a reordered subtraction moves
        values by an ulp that the masses they sum to can absorb."""
        heavy = np.argsort(-walk_graph.in_degrees)[:30]
        heavy = heavy[walk_graph.in_degrees[heavy] > 1]
        pairs = np.random.default_rng(1).integers(32, 3000, heavy.shape[0])
        budgets = 2.0 * pairs / float(np.sqrt(DECAY))
        states = [local._ExploitState(int(node), float(budget))
                  for node, budget in zip(heavy, budgets)]
        local._explore_levels(walk_graph, DistributionCache(walk_graph),
                              states, decay=DECAY, max_level=20)
        shared_reference = ReferenceCache(walk_graph)
        for state, budget in zip(states, budgets.tolist()):
            reference, _ = _explore_reference(
                walk_graph, state.node, BudgetWindow(budget), decay=DECAY,
                max_level=20, cache=shared_reference)
            assert len(state.z_levels) == len(reference)
            for (nodes, values), (ref_nodes, ref_values) in zip(
                    state.z_levels, reference):
                assert np.array_equal(nodes, ref_nodes)
                assert np.array_equal(values, ref_values)

    def test_exhaustion_boundaries_match_reference(self, walk_graph):
        # Sweep tight budgets across one heavy node so the spec's exhaustion
        # fires at many different points within a level.
        node = int(np.argmax(walk_graph.in_degrees))
        for num_pairs in range(32, 600, 17):
            batch = _exploit_deterministic_batch(
                walk_graph, DistributionCache(walk_graph),
                [(node, num_pairs)], decay=DECAY, max_level=20)[0]
            reference = exploit_deterministic_reference(
                walk_graph, node, num_pairs, decay=DECAY, max_level=20)
            assert batch[0] == reference[0]
            assert batch[1] == reference[1]

    def test_repeat_on_warm_cache_is_identical(self, walk_graph):
        node = int(np.argmax(walk_graph.in_degrees))
        cache = DistributionCache(walk_graph)
        first = _exploit_deterministic_batch(
            walk_graph, cache, [(node, 500)], decay=DECAY, max_level=20)[0]
        repeat = _exploit_deterministic_batch(
            walk_graph, cache, [(node, 500), (node, 500)],
            decay=DECAY, max_level=20)
        assert repeat[0] == first and repeat[1] == first

    def test_entry_local_rides_batched_exploration(self, collab_graph):
        """The production estimate of a heavy node is built on the spec's
        ℓ(k) and mass: its tail walks skip exactly ℓ(k) non-stop steps with
        R′ = min(R, ⌈R·c^ℓ(k)/(1 − c)⌉) pairs, and
        D(k, k) = 1 − mass − c^ℓ(k) · met / R′.  At R = 100 (ℓ(k) = 1) the
        min keeps R′ = R; at R = 3,000 (ℓ(k) = 3) the tail walks ⌈0.54·R⌉.
        Both tails meet at least once, so the divisor shows."""
        node = int(np.argmax(collab_graph.in_degrees))
        calls = []

        class RecordingEngine(SqrtCWalkEngine):
            def pair_meet_counts(self, start_nodes, pair_counts, **options):
                met = super().pair_meet_counts(start_nodes, pair_counts,
                                               **options)
                calls.append((start_nodes, pair_counts,
                              options["skip_steps"], met))
                return met

        for num_pairs, level in ((100, 1), (3000, 3)):
            chosen, mass = exploit_deterministic_reference(
                collab_graph, node, num_pairs, decay=DECAY, max_level=20)
            assert chosen == level
            walked = min(num_pairs, int(np.ceil(
                num_pairs * DECAY ** chosen / (1.0 - DECAY))))
            assert (walked == num_pairs) == (level == 1)
            allocation = np.zeros(collab_graph.num_nodes, dtype=np.int64)
            allocation[node] = num_pairs
            calls.clear()
            diagonal = estimate_diagonal_local_batch(
                collab_graph, [allocation], decay=DECAY,
                engine=RecordingEngine(collab_graph, DECAY, seed=3))[0]
            (starts, pair_counts, skip_steps, met), = calls
            assert starts.tolist() == [node]
            assert np.asarray(pair_counts).tolist() == [walked]
            assert np.asarray(skip_steps).tolist() == [chosen]
            assert met[0] > 0
            expected = 1.0 - mass - DECAY ** chosen * met[0] / walked
            assert diagonal[node] == pytest.approx(expected, abs=1e-12)

    def test_first_meeting_matches_reference_recursion(self, directed_graph):
        node = int(np.argmax(directed_graph.in_degrees))
        produced = first_meeting_probabilities(directed_graph, node, 5,
                                               decay=DECAY)
        cache = ReferenceCache(directed_graph)
        window = BudgetWindow(None)
        z_levels = []
        for level in range(1, 6):
            z_levels.append(z_level_reference(cache, window, node, level,
                                              z_levels, DECAY))
        for level_dict, (indices, values) in zip(produced, z_levels):
            assert level_dict == dict(zip(indices.tolist(), values.tolist()))


class TestLevelBoundaryRule:
    """ℓ(k) where simpler level-boundary rules drift from the spec.

    The batch completes level ℓ iff C(ℓ−1) + Σ e_ℓ − e_ℓ(last) < budget.
    "C(ℓ) ≤ budget" gives up the levels the spec completes by overshooting
    on its last charge (budget in (C(ℓ) − e_ℓ(last), C(ℓ))), and
    "C(ℓ−1) < budget" completes the levels the spec abandons on an earlier
    charge.
    """

    def test_overshooting_budgets_match_reference(self):
        graph = power_law_graph(120, 4.0, exponent=2.1, directed=True, seed=7)
        node = int(np.argmax(graph.in_degrees))
        charges = level_charges(graph, node, decay=DECAY, max_level=6)
        spent = np.cumsum([sum(level) for level in charges])
        overshoot = [(total - level[-1], total)
                     for total, level in zip(spent[1:], charges[1:])]
        requests = [(node, num_pairs) for num_pairs in range(32, 720)]
        batch = _exploit_deterministic_batch(
            graph, DistributionCache(graph), requests, decay=DECAY,
            max_level=6)
        cache = ReferenceCache(graph)
        hits = 0
        for (_, num_pairs), (chosen, mass) in zip(requests, batch):
            budget = 2.0 * num_pairs / np.sqrt(DECAY)
            hits += any(lo < budget < hi for lo, hi in overshoot)
            reference = exploit_deterministic_reference(
                graph, node, num_pairs, decay=DECAY, max_level=6, cache=cache)
            assert chosen == reference[0], f"ℓ(k) drifted at R = {num_pairs}"
            assert mass == reference[1]
        assert hits, "no budget fell where the last charge overshoots"

    @settings(max_examples=40, deadline=None)
    @given(graph=graph_strategy,
           node_seed=st.integers(min_value=0, max_value=2**16),
           pair_counts=st.lists(st.integers(min_value=1, max_value=50)
                                | st.integers(min_value=1, max_value=3000),
                                min_size=1, max_size=6))
    def test_random_budgets_match_reference(self, graph, node_seed,
                                            pair_counts):
        node = node_seed % graph.num_nodes
        requests = [(node, num_pairs) for num_pairs in pair_counts]
        batch = _exploit_deterministic_batch(
            graph, DistributionCache(graph), requests, decay=DECAY,
            max_level=8)
        for (_, num_pairs), (chosen, mass) in zip(requests, batch):
            reference = exploit_deterministic_reference(
                graph, node, num_pairs, decay=DECAY, max_level=8)
            assert chosen == reference[0]
            assert mass == reference[1]


class TestDistributionCacheBatchedPaths:
    @pytest.fixture(scope="class")
    def walk_graph_small(self):
        return power_law_graph(200, 4.0, exponent=2.1, directed=True, seed=29)

    def test_prefetch_materialises_bitwise_levels(self, directed_graph):
        starts = np.argsort(-directed_graph.in_degrees)[:6].astype(np.int64)
        steps = np.array([3, 1, 4, 2, 3, 1], dtype=np.int64)
        batched = DistributionCache(directed_graph)
        batched.prefetch(starts, steps)
        sequential = ReferenceCache(directed_graph)
        window = BudgetWindow(None)
        for start, target in zip(starts.tolist(), steps.tolist()):
            for level in range(target + 1):
                assert batched.peek(start, level) == \
                    sequential.distribution(start, level, window)
        # prefetching again is a no-op (nothing to extend)
        bytes_before = batched.memory_bytes()
        batched.prefetch(starts, steps)
        assert batched.memory_bytes() == bytes_before

    def test_gather_stacked_matches_distribution(self, directed_graph):
        starts = np.sort(np.argsort(-directed_graph.in_degrees)[:5]).astype(np.int64)
        cache = DistributionCache(directed_graph)
        cache.prefetch(starts, np.full(5, 2, dtype=np.int64))
        lengths, indices, values = cache.gather_stacked(starts, 2)
        offset = 0
        for start, length in zip(starts.tolist(), lengths.tolist()):
            vector = cache.peek(start, 2)
            assert vector == SparseVector(indices[offset:offset + length],
                                          values[offset:offset + length])
            offset += length

    def test_gather_stacked_requires_prefetch(self, directed_graph):
        cache = DistributionCache(directed_graph)
        cache.prefetch(np.array([1], dtype=np.int64),
                       np.array([1], dtype=np.int64))
        with pytest.raises(KeyError):
            cache.gather_stacked(np.array([0], dtype=np.int64), 1)

    def test_memory_bytes_counts_one_copy(
            self, directed_graph, monkeypatch):
        """Every materialised level (depth ≥ 1) is stored once, in its
        depth's store, so ``memory_bytes()`` (what
        :data:`local.CACHE_MAX_BYTES` caps) is those levels, 32 bytes of
        bookkeeping per level and the stores' unused capacity.  Reading adds
        nothing; a depth that grows keeps what it holds where it is, and
        its unused capacity stays below what it holds; a crossed cap
        evicts."""
        hubs = np.sort(np.argsort(-directed_graph.in_degrees)[:8]).astype(np.int64)
        cache = DistributionCache(directed_graph)

        def stored_bytes(starts, depth):
            return sum(cache.peek(start, step).memory_bytes() + 32
                       for start in starts.tolist()
                       for step in range(1, depth + 1))

        def unused_bytes():
            return sum(16 * (store.indices.shape[0] - store.size)
                       for store in cache._stores.values())

        first, rest = hubs[:5], hubs[5:]
        cache.prefetch(first, np.full(first.size, 3, dtype=np.int64))
        held = stored_bytes(first, 3)
        assert unused_bytes() == 0
        assert cache.memory_bytes() == held
        levels = {(start, depth): cache.peek(start, depth)
                  for start in first.tolist() for depth in (1, 2, 3)}
        offsets = {depth: cache._locate(first, depth)[:, 0]
                   for depth in (1, 2, 3)}
        cache.gather_stacked(first, 2)
        cache.support_costs(first, np.full(first.size, 3, dtype=np.int64))
        assert cache.memory_bytes() == held
        # Depths 1 and 2 grow by three more starts.  What they held stays
        # where it was, and is counted once.
        cache.prefetch(rest, np.full(rest.size, 2, dtype=np.int64))
        held = stored_bytes(first, 3) + stored_bytes(rest, 2)
        assert cache.memory_bytes() == held + unused_bytes()
        for depth in (1, 2):
            store = cache._stores[depth]
            assert 16 * (store.indices.shape[0] - store.size) < 16 * store.size
        for depth, before in offsets.items():
            assert np.array_equal(cache._locate(first, depth)[:, 0], before)
        for (start, depth), vector in levels.items():
            assert cache.peek(start, depth) == vector
        total = cache.memory_bytes()
        monkeypatch.setattr(local, "CACHE_MAX_BYTES", total)
        cache._maybe_evict()
        assert cache.memory_bytes() == total
        monkeypatch.setattr(local, "CACHE_MAX_BYTES", total - 1)
        cache._maybe_evict()
        assert cache.memory_bytes() == 0
        cache.prefetch(first, np.full(first.size, 3, dtype=np.int64))
        for (start, depth), vector in levels.items():
            assert cache.peek(start, depth) == vector

    def test_eviction_never_changes_outcomes(self, directed_graph,
                                             monkeypatch):
        node = int(np.argmax(directed_graph.in_degrees))
        roomy = _exploit_deterministic_batch(
            directed_graph, DistributionCache(directed_graph), [(node, 256)],
            decay=DECAY, max_level=20)
        monkeypatch.setattr(local, "CACHE_MAX_BYTES", 1)   # evict always
        tight = _exploit_deterministic_batch(
            directed_graph, DistributionCache(directed_graph), [(node, 256)],
            decay=DECAY, max_level=20)
        assert tight == roomy

    def test_mid_batch_eviction_keeps_windows_exact(self, walk_graph_small,
                                                    monkeypatch):
        """Eviction between levels changes no ℓ(k) and no mass.

        An evicted level re-materialises before the next one is decided,
        so a whole multi-node batch under a 1-byte cap matches the run that
        never evicts.
        """
        heavy = np.argsort(-walk_graph_small.in_degrees)[:25]
        heavy = heavy[walk_graph_small.in_degrees[heavy] > 1]
        requests = [(int(node), pairs) for node in heavy
                    for pairs in (64, 900)]
        roomy = _exploit_deterministic_batch(
            walk_graph_small, DistributionCache(walk_graph_small), requests,
            decay=DECAY, max_level=20)
        monkeypatch.setattr(local, "CACHE_MAX_BYTES", 1)
        tight = _exploit_deterministic_batch(
            walk_graph_small, DistributionCache(walk_graph_small), requests,
            decay=DECAY, max_level=20)
        assert roomy == tight

    def test_one_state_groups_match_one_group(self, walk_graph_small,
                                              monkeypatch):
        """The dense Lemma 4 rows of a group of states fit in
        :data:`local.CACHE_MAX_BYTES`: a cap of one row runs every state in
        a group of its own, with the same ℓ(k) and mass as one group."""
        heavy = np.argsort(-walk_graph_small.in_degrees)[:25]
        heavy = heavy[walk_graph_small.in_degrees[heavy] > 1]
        requests = [(int(node), pairs) for node in heavy
                    for pairs in (64, 900)]
        groups = []
        original = local._run_level_fused

        def recording(cache, states, *args):
            groups.append(len(states))
            return original(cache, states, *args)

        monkeypatch.setattr(local, "_run_level_fused", recording)
        one_group = _exploit_deterministic_batch(
            walk_graph_small, DistributionCache(walk_graph_small), requests,
            decay=DECAY, max_level=20)
        assert max(groups) > 1
        groups.clear()
        monkeypatch.setattr(local, "CACHE_MAX_BYTES",
                            8 * walk_graph_small.num_nodes)
        one_state_groups = _exploit_deterministic_batch(
            walk_graph_small, DistributionCache(walk_graph_small), requests,
            decay=DECAY, max_level=20)
        assert set(groups) == {1}
        assert one_state_groups == one_group


class TestPRSimBatchedBuild:
    @pytest.fixture(scope="class")
    def prepared(self, directed_graph):
        from repro.baselines.prsim import PRSim
        return PRSim(directed_graph, epsilon=1e-2, hub_fraction=0.15,
                     seed=11).preprocess()

    def test_hub_vectors_match_reference(self, prepared):
        """Dense-lane build: supports exact, values ≤ 1e-12 vs the per-hub walk.

        The dense engine's matrix product orders the float additions
        differently from the sum-then-divide kernel, so values agree to
        ~1e-15 per level rather than bit-for-bit; the stored supports (and
        hence index size and pruning decisions) must be identical.  The
        per-level CSR index is compared in its flat file layout.
        """
        iterations = prepared.num_iterations()
        threshold = (1.0 - prepared._operator.sqrt_c) ** 2 * prepared.epsilon
        flat = flat_hub_index(prepared)
        reference = build_hub_vectors_reference(
            prepared, prepared._hubs, iterations, threshold)
        for built, expected in zip(flat[:3], reference[:3]):
            assert np.array_equal(built, expected)
        assert np.max(np.abs(flat[3] - reference[3])) <= 1e-12
        rebuilt = prepared._build_hub_vectors(prepared._hubs, iterations,
                                              threshold)
        assert len(rebuilt) == len(prepared._hub_levels) == iterations + 1
        for stored, built in zip(prepared._hub_levels, rebuilt):
            assert stored.shape == (prepared.graph.num_nodes,
                                    prepared._hubs.shape[0])
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(stored, name),
                                      getattr(built, name))

    def test_flat_payload_roundtrip_bit_identical(self, prepared, directed_graph):
        from repro.baselines.prsim import PRSim
        payload = {key: np.array(value)
                   for key, value in prepared._index_payload().items()}
        restored = PRSim(directed_graph, epsilon=1e-2, hub_fraction=0.15,
                         seed=11)
        restored._restore_index(payload)
        restored._prepared = True
        again = restored._index_payload()
        assert again.keys() == payload.keys()
        for key, expected in payload.items():
            assert np.array_equal(again[key], expected), key
            assert again[key].dtype == expected.dtype, key
        for stored, expected in zip(restored._hub_levels, prepared._hub_levels):
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(stored, name),
                                      getattr(expected, name))
        before = prepared.single_source(3).scores
        after = restored.single_source(3).scores
        assert np.array_equal(before, after)

    def test_restore_rejects_out_of_range_entries(self, prepared, directed_graph):
        from repro.baselines.base import IndexPersistenceError
        from repro.baselines.prsim import PRSim
        for field, bad in (("hub_levels", 10_000), ("hub_cols", -1),
                           ("hub_cols", directed_graph.num_nodes)):
            payload = dict(prepared._index_payload())
            if payload[field].size == 0:
                continue
            corrupted = payload[field].copy()
            corrupted[0] = bad
            payload[field] = corrupted
            restored = PRSim(directed_graph, epsilon=1e-2, hub_fraction=0.15,
                             seed=11)
            with pytest.raises(IndexPersistenceError):
                restored._restore_index(payload)

    def test_restore_canonicalises_shuffled_payload(self, prepared, directed_graph):
        from repro.baselines.prsim import PRSim
        payload = prepared._index_payload()
        rng = np.random.default_rng(0)
        permutation = rng.permutation(payload["hub_cols"].shape[0])
        shuffled = dict(payload)
        for key in ("hub_positions", "hub_levels", "hub_cols", "hub_vals"):
            shuffled[key] = payload[key][permutation]
        restored = PRSim(directed_graph, epsilon=1e-2, hub_fraction=0.15,
                         seed=11)
        restored._restore_index(shuffled)
        for key, expected in payload.items():
            assert np.array_equal(restored._index_payload()[key], expected), key

    def test_hub_pass_matches_dense_accumulation(self, prepared, directed_graph):
        """The per-level G_ℓᵀ @ w_ℓ hub pass equals the per-(hub, level)
        dense loop over the flat index."""
        from repro.ppr.hop_ppr import hop_ppr_vectors
        source = 3
        iterations = prepared.num_iterations()
        hop_ppr = hop_ppr_vectors(directed_graph, source, iterations,
                                  decay=prepared.decay,
                                  operator=prepared._operator)
        scale = 1.0 / (1.0 - prepared._operator.sqrt_c) ** 2
        positions, levels, cols, vals = flat_hub_index(prepared)
        expected = np.zeros(directed_graph.num_nodes)
        for position, hub in enumerate(prepared._hubs.tolist()):
            for level in range(iterations + 1):
                sel = (positions == position) & (levels == level)
                if not sel.any():
                    continue
                dense = np.zeros(directed_graph.num_nodes)
                dense[cols[sel]] = vals[sel]
                expected += scale * prepared._diagonal[hub] * \
                    hop_ppr.hop_dense(level)[hub] * dense
        produced = np.zeros(directed_graph.num_nodes)
        hub_diagonal = scale * prepared._diagonal[prepared._hubs]
        for level, hub_level in enumerate(prepared._hub_levels):
            produced += hub_level @ (
                hub_diagonal * hop_ppr.hop_dense(level)[prepared._hubs])
        assert np.max(np.abs(produced - expected)) < 1e-12