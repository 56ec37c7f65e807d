"""Tests for the ExactSim algorithm: accuracy against PowerMethod ground truth."""

import numpy as np
import pytest

from repro.baselines.power_method import simrank_matrix
from repro.core.config import ExactSimConfig
from repro.core.exactsim import ExactSim
from repro.core.result import SingleSourceResult, TopKResult
from repro.core.sampling import total_sample_budget
from repro.graph.datasets import load_dataset
from repro.metrics.accuracy import max_error, precision_at_k
from repro.ppr.hop_ppr import hop_ppr_vectors

DECAY = 0.6


class TestAccuracy:
    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-3])
    def test_error_within_epsilon_collab(self, collab_graph, collab_simrank, epsilon):
        config = ExactSimConfig(epsilon=epsilon, decay=DECAY, seed=17,
                                max_total_samples=200_000)
        result = ExactSim(collab_graph, config).single_source(3)
        assert max_error(result.scores, collab_simrank[3]) <= epsilon

    def test_error_within_epsilon_directed(self, directed_graph, directed_simrank):
        config = ExactSimConfig(epsilon=1e-2, decay=DECAY, seed=23, max_total_samples=200_000)
        result = ExactSim(directed_graph, config).single_source(7)
        assert max_error(result.scores, directed_simrank[7]) <= 1e-2

    def test_basic_variant_error_within_epsilon(self, collab_graph, collab_simrank):
        config = ExactSimConfig.basic(epsilon=1e-2, decay=DECAY, seed=29,
                                      max_total_samples=200_000)
        result = ExactSim(collab_graph, config).single_source(5)
        assert max_error(result.scores, collab_simrank[5]) <= 1e-2

    def test_toy_graph_exact_structure(self, toy_graph, toy_simrank):
        config = ExactSimConfig(epsilon=1e-3, decay=DECAY, seed=3)
        result = ExactSim(toy_graph, config).single_source(2)
        assert max_error(result.scores, toy_simrank[2]) <= 1e-3

    def test_dangling_source_trivial_answer(self, toy_graph):
        # Node 0 has no in-neighbours: S(0, j) = 1 iff j = 0.
        config = ExactSimConfig(epsilon=1e-3, decay=DECAY, seed=3)
        result = ExactSim(toy_graph, config).single_source(0)
        expected = np.zeros(toy_graph.num_nodes)
        expected[0] = 1.0
        assert np.allclose(result.scores, expected, atol=1e-9)

    def test_error_decreases_with_epsilon(self, collab_graph, collab_simrank):
        errors = []
        for epsilon in (1e-1, 1e-2, 1e-3):
            config = ExactSimConfig(epsilon=epsilon, decay=DECAY, seed=31,
                                    max_total_samples=200_000)
            result = ExactSim(collab_graph, config).single_source(11)
            errors.append(max_error(result.scores, collab_simrank[11]))
        assert errors[0] >= errors[-1]

    def test_top_k_matches_ground_truth(self, collab_graph, collab_simrank):
        config = ExactSimConfig(epsilon=1e-3, decay=DECAY, seed=37, max_total_samples=200_000)
        result = ExactSim(collab_graph, config).single_source(9)
        assert precision_at_k(result.scores, collab_simrank[9], 20, exclude=9) == 1.0

    def test_scores_are_probabilities(self, collab_graph):
        config = ExactSimConfig(epsilon=1e-2, decay=DECAY, seed=41)
        result = ExactSim(collab_graph, config).single_source(0)
        assert np.all(result.scores >= 0.0)
        assert np.all(result.scores <= 1.0)
        assert result.scores[0] == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("variant", [ExactSimConfig, ExactSimConfig.basic],
                             ids=["exactsim", "exactsim-basic"])
    def test_source_score_is_one(self, directed_graph, variant):
        """S(i, i) = 1 by definition.  Back-substitution only comes close:
        both variants estimate S(3, 3) on this graph just below 1."""
        config = variant(epsilon=1e-2, decay=DECAY, seed=5)
        assert ExactSim(directed_graph, config).single_source(3).scores[3] == 1.0


class TestVariants:
    def test_optimized_not_worse_than_basic_at_same_cap(self, collab_graph, collab_simrank):
        cap = 60_000
        source = 13
        optimized = ExactSim(collab_graph, ExactSimConfig(
            epsilon=1e-2, decay=DECAY, seed=43, max_total_samples=cap)).single_source(source)
        basic = ExactSim(collab_graph, ExactSimConfig.basic(
            epsilon=1e-2, decay=DECAY, seed=43, max_total_samples=cap)).single_source(source)
        optimized_error = max_error(optimized.scores, collab_simrank[source])
        basic_error = max_error(basic.scores, collab_simrank[source])
        # Lemma 3: at an equal realised budget the π²-allocation has a variance
        # bound smaller by ‖π‖⁴; allow slack for randomness.
        assert optimized_error <= basic_error * 3 + 1e-3

    def test_sparse_linearization_changes_little(self, collab_graph, collab_simrank):
        source = 2
        common = dict(epsilon=1e-2, decay=DECAY, seed=47, max_total_samples=50_000,
                      use_local_exploitation=False, use_squared_sampling=True)
        dense = ExactSim(collab_graph, ExactSimConfig(
            use_sparse_linearization=False, **common)).single_source(source)
        sparse = ExactSim(collab_graph, ExactSimConfig(
            use_sparse_linearization=True, **common)).single_source(source)
        assert max_error(dense.scores, collab_simrank[source]) <= 1e-2
        assert max_error(sparse.scores, collab_simrank[source]) <= 1e-2
        # Sparse variant stores strictly fewer PPR entries.
        assert sparse.stats["ppr_nonzero_entries"] <= dense.stats["ppr_nonzero_entries"]
        assert sparse.stats["ppr_memory_bytes"] <= dense.stats["ppr_memory_bytes"]

    def test_determinism_with_seed(self, collab_graph):
        config = ExactSimConfig(epsilon=1e-2, decay=DECAY, seed=53, max_total_samples=30_000)
        first = ExactSim(collab_graph, config).single_source(4)
        second = ExactSim(collab_graph, config).single_source(4)
        assert np.array_equal(first.scores, second.scores)

    def test_algorithm_label_reflects_variant(self, collab_graph):
        optimized = ExactSim(collab_graph, ExactSimConfig(
            epsilon=1e-1, seed=1, max_total_samples=10_000)).single_source(0)
        basic = ExactSim(collab_graph, ExactSimConfig.basic(
            epsilon=1e-1, seed=1, max_total_samples=10_000)).single_source(0)
        assert optimized.algorithm == "exactsim"
        assert basic.algorithm == "exactsim-basic"


class TestStatsAndInterfaces:
    def test_stats_keys_present(self, collab_graph):
        config = ExactSimConfig(epsilon=1e-2, decay=DECAY, seed=59, max_total_samples=20_000)
        result = ExactSim(collab_graph, config).single_source(6)
        for key in ("iterations", "sample_budget", "samples_realised", "nodes_sampled",
                    "ppr_squared_norm", "ppr_memory_bytes", "extra_memory_bytes"):
            assert key in result.stats

    def test_sample_cap_is_recorded(self, collab_graph):
        config = ExactSimConfig(epsilon=1e-4, decay=DECAY, seed=61, max_total_samples=5_000)
        result = ExactSim(collab_graph, config).single_source(6)
        assert result.stats["samples_capped"] == 1.0
        assert result.stats["samples_realised"] <= 5_000 + collab_graph.num_nodes

    def test_cap_that_lands_below_itself_is_recorded(self, collab_graph):
        """A cap that scaled the allocation down is recorded wherever the
        realised total lands: at ε = 1e-2 source 5's floored allocation
        realises 4,950 pairs under the 5,000 cap, and a pair on that source,
        read off the same single-source pass, carries the flag too."""
        config = ExactSimConfig(epsilon=1e-2, decay=DECAY, seed=7,
                                max_total_samples=5_000)
        engine = ExactSim(collab_graph, config)
        single = engine.single_source(5).stats
        pair = engine.single_pair(5, 9).stats
        assert single["samples_realised"] < 5_000
        assert single["samples_capped"] == 1.0
        assert pair["samples_capped"] == 1.0

    def test_pair_is_an_entry_of_the_single_source_vector(self, collab_graph):
        """A pair answer is the source's vector read at the target, so it
        keeps the vector's ε guarantee: two fresh engines of one seeded
        config agree to the bit, pair by pair."""
        config = ExactSimConfig(epsilon=1e-2, decay=DECAY, seed=7,
                                max_total_samples=20_000)
        pairs = [(5, 9), (0, 3), (12, 5), (5, 5), (30, 2)]
        by_pair = ExactSim(collab_graph, config)
        by_source = ExactSim(collab_graph, config)
        for source, target in pairs:
            pair = by_pair.single_pair(source, target)
            vector = by_source.single_source(source)
            assert pair.score == vector.scores[target]
            assert "native_single_pair" not in pair.stats
            assert pair.stats["derived_from_single_source"] == 1.0

    def test_invalid_source_rejected(self, collab_graph):
        engine = ExactSim(collab_graph, ExactSimConfig(epsilon=1e-1))
        with pytest.raises(ValueError):
            engine.single_source(collab_graph.num_nodes)

    def test_query_seconds_recorded(self, collab_graph):
        result = ExactSim(collab_graph, ExactSimConfig(
            epsilon=1e-1, seed=1, max_total_samples=5_000)).single_source(0)
        assert result.query_seconds > 0.0

    def test_top_k_method(self, collab_graph):
        engine = ExactSim(collab_graph, ExactSimConfig(
            epsilon=1e-2, seed=1, max_total_samples=20_000))
        top = engine.top_k(3, k=10)
        assert isinstance(top, TopKResult)
        assert top.k == 10
        assert 3 not in top.nodes

    def test_convenience_functions(self, collab_graph, collab_simrank):
        """The optimized and basic presets answer through one engine API."""
        result = ExactSim(collab_graph, ExactSimConfig.optimized_config(
            epsilon=1e-2, seed=7, max_total_samples=50_000)).single_source(1)
        assert isinstance(result, SingleSourceResult)
        assert max_error(result.scores, collab_simrank[1]) <= 1e-2
        basic = ExactSim(collab_graph, ExactSimConfig.basic(
            epsilon=1e-1, seed=7, max_total_samples=20_000)).single_source(1)
        assert basic.algorithm == "exactsim-basic"
        top = ExactSim(collab_graph, ExactSimConfig(
            epsilon=1e-2, seed=7, max_total_samples=2_000_000)).top_k(1, k=5)
        assert top.k == 5


class TestAllocationBeyondLevelZero:
    """Phase 2 allocates by π_i − π_i⁰: level 0 feeds only S(i, i) = 1."""

    @pytest.mark.parametrize("variant", ["optimized", "basic"])
    def test_source_pairs_follow_its_return_mass(self, toy_graph, monkeypatch,
                                                 variant):
        """Node 5 of the toy graph has no return path, so it gets 0 pairs
        on itself; node 2 lies on the cycle 2 → 3 → 4 → 2 and gets
        ⌈R·(π_2(2) − (1 − √c))²⌉ (⌈R·(π_2(2) − (1 − √c))⌉ basic) uncapped,
        in a batch and in the single-source pass a pair query reads."""
        make = (ExactSimConfig if variant == "optimized"
                else ExactSimConfig.basic)
        config = make(epsilon=0.2, decay=DECAY, seed=3, max_total_samples=None)
        engine = ExactSim(toy_graph, config)
        recorded = []
        original = engine._diagonal_from_allocations

        def recording(allocations):
            recorded.extend(allocation.copy() for allocation in allocations)
            return original(allocations)

        monkeypatch.setattr(engine, "_diagonal_from_allocations", recording)
        engine.single_source_batch([5, 2])
        engine.single_pair(2, 3)
        no_return, on_cycle, pair = recorded
        assert no_return[5] == 0 and no_return.sum() > 0
        budget = total_sample_budget(toy_graph.num_nodes,
                                     config.effective_epsilon, decay=DECAY,
                                     failure_constant=config.failure_constant)
        weight = hop_ppr_vectors(
            toy_graph, 2, config.num_iterations(), decay=DECAY,
            truncation_threshold=config.truncation_threshold()).total[2] \
            - (1.0 - config.sqrt_c)
        assert weight > 0.0
        scaled = budget * weight * weight if variant == "optimized" \
            else budget * weight
        assert on_cycle[2] == int(np.ceil(scaled))
        assert pair[2] == on_cycle[2]


class TestBenchmarkConfigExactness:
    def test_gq_sources_within_epsilon(self):
        """At perfbench's ``exactsim-gq`` config (GQ, ε = 1e-4, the 5×10⁵
        pair cap, ℓ(k) ≤ 8, seed 7), 48 sources in batches of 8, one per
        in-degree stratum, land within ε of PowerMethod.  Allocating by π_i
        (level 0 included) with every tail walking R(k) pairs read
        1.2–1.7e-4 here."""
        graph = load_dataset("GQ")
        truth = simrank_matrix(graph, decay=DECAY, tolerance=1e-12)
        config = ExactSimConfig(epsilon=1e-4, decay=DECAY, seed=7,
                                max_total_samples=500_000, max_walk_steps=64,
                                max_exploit_level=8, failure_constant=6.0)
        engine = ExactSim(graph, config)
        rng = np.random.default_rng(5)
        order = np.lexsort((rng.random(graph.num_nodes), graph.in_degrees))
        strata = [rng.permutation(part)[:6]
                  for part in np.array_split(order, 8)]
        worst = 0.0
        for round_index in range(6):
            batch = [int(part[round_index]) for part in strata]
            for result in engine.single_source_batch(batch):
                worst = max(worst, max_error(result.scores,
                                             truth[result.source]))
        assert worst <= 1e-4, worst


class TestResultTypes:
    def test_top_k_ordering_and_source_exclusion(self, collab_graph, collab_simrank):
        result = SingleSourceResult(source=2, scores=collab_simrank[2].copy())
        top = result.top_k(10)
        assert 2 not in top.nodes
        assert np.all(np.diff(top.scores) <= 1e-12)
        included = result.top_k(10, include_source=True)
        assert included.nodes[0] == 2

    def test_top_k_ranks_by_score_and_never_lists_the_source(self):
        result = SingleSourceResult(source=1, scores=np.array([0.2, 1.0, 0.5]))
        top = result.top_k(3)
        assert top.nodes.tolist() == [2, 0]
        assert top.scores.tolist() == [0.5, 0.2]
        included = result.top_k(3, include_source=True)
        assert included.nodes.tolist() == [1, 2, 0]
        assert included.scores.tolist() == [1.0, 0.5, 0.2]
        # A 1-node graph has no node to rank but the source.
        lone = SingleSourceResult(source=0, scores=np.array([1.0]))
        assert lone.top_k(1).k == 0
        assert lone.top_k(1, include_source=True).nodes.tolist() == [0]

    def test_top_k_k_larger_than_n(self, toy_graph, toy_simrank):
        result = SingleSourceResult(source=1, scores=toy_simrank[1].copy())
        top = result.top_k(100)
        assert top.k == toy_graph.num_nodes - 1
        assert 1 not in top.nodes

    def test_top_k_invalid_k(self, toy_simrank):
        result = SingleSourceResult(source=0, scores=toy_simrank[0].copy())
        with pytest.raises(ValueError):
            result.top_k(0)

    def test_similarity_and_max_error_against(self, toy_simrank):
        result = SingleSourceResult(source=0, scores=toy_simrank[0].copy())
        assert result.similarity(0) == 1.0
        assert result.max_error_against(toy_simrank[0]) == 0.0
        with pytest.raises(ValueError):
            result.max_error_against(np.zeros(3))

    def test_precision_against(self, toy_simrank):
        result = SingleSourceResult(source=0, scores=toy_simrank[0].copy())
        top = result.top_k(3)
        assert top.precision_against(top) == 1.0
        assert isinstance(top.as_pairs(), list)


class TestBatchedQueries:
    """The vectorized single_source_batch path (batched push + batched Pᵀ)."""

    def test_batch_accuracy_within_epsilon(self, collab_graph, collab_simrank):
        epsilon = 1e-2
        config = ExactSimConfig(epsilon=epsilon, decay=DECAY, seed=17,
                                max_total_samples=200_000)
        sources = [0, 3, 12, 40]
        results = ExactSim(collab_graph, config).single_source_batch(sources)
        assert [r.source for r in results] == sources
        for result in results:
            assert max_error(result.scores, collab_simrank[result.source]) <= epsilon
            assert result.query_seconds > 0.0
            assert result.stats["batch_size"] == float(len(sources))

    def test_batch_close_to_sequential(self, collab_graph):
        config = ExactSimConfig(epsilon=5e-2, decay=DECAY, seed=3,
                                max_total_samples=50_000)
        sources = [1, 7]
        sequential = [ExactSim(collab_graph, config).single_source(s)
                      for s in sources]
        batched = ExactSim(collab_graph, config).single_source_batch(sources)
        for loop_result, batch_result in zip(sequential, batched):
            assert np.max(np.abs(loop_result.scores - batch_result.scores)) <= 0.1

    def test_batch_basic_variant(self, collab_graph, collab_simrank):
        config = ExactSimConfig.basic(epsilon=5e-2, decay=DECAY, seed=9,
                                      max_total_samples=50_000)
        results = ExactSim(collab_graph, config).single_source_batch([4])
        assert results[0].algorithm == "exactsim-basic"
        assert max_error(results[0].scores, collab_simrank[4]) <= 5e-2

    def test_empty_batch(self, collab_graph):
        assert ExactSim(collab_graph).single_source_batch([]) == []

    def test_batch_rejects_invalid_source(self, collab_graph):
        with pytest.raises(Exception):
            ExactSim(collab_graph).single_source_batch([0, collab_graph.num_nodes])


class TestAlgorithmInterface:
    """ExactSim as a first-class SimRankAlgorithm."""

    def test_subclasses_base(self, collab_graph):
        from repro.baselines.base import SimRankAlgorithm
        engine = ExactSim(collab_graph)
        assert isinstance(engine, SimRankAlgorithm)
        assert not engine.index_based
        assert engine.index_bytes() == 0
        assert engine.name == "exactsim"

    def test_basic_config_changes_name(self, collab_graph):
        engine = ExactSim(collab_graph, ExactSimConfig.basic(epsilon=1e-1))
        assert engine.name == "exactsim-basic"

    def test_shares_graph_context(self, collab_graph):
        from repro.graph.context import GraphContext
        context = GraphContext.shared(collab_graph)
        engine = ExactSim(collab_graph)
        assert engine.context is context
        assert engine._operator is context.operator(DECAY)


class TestExactPhaseOneAtScale:
    """Phase 1 is exact on graphs of any size, not only on small ones.

    5,000 nodes is above the 4,096 where phase 1 once switched to a local
    push that dropped every residual below Lemma 2's threshold."""

    @pytest.fixture(scope="class")
    def large_graph(self):
        from repro.graph.generators import power_law_graph
        return power_law_graph(5_000, 4.0, directed=False, seed=33)

    @pytest.mark.parametrize("variant", [ExactSimConfig, ExactSimConfig.basic],
                             ids=["exactsim", "exactsim-basic"])
    def test_batch_hops_equal_per_source_hops(self, large_graph, variant):
        from repro.ppr.hop_ppr import hop_ppr_batch, hop_ppr_vectors

        config = variant(epsilon=5e-2, decay=DECAY, seed=5,
                         max_total_samples=5_000)
        threshold = config.truncation_threshold()
        sources = [3, 11]
        engine = ExactSim(large_graph, config)
        iterations = config.num_iterations()
        references = [hop_ppr_vectors(large_graph, source, iterations,
                                      decay=DECAY,
                                      truncation_threshold=threshold,
                                      operator=engine._operator)
                      for source in sources]
        batched = hop_ppr_batch(engine._operator, sources, iterations, threshold)
        for hop_ppr, reference in zip(batched, references):
            assert hop_ppr.truncated == (threshold is not None)
            assert np.array_equal(hop_ppr.total, reference.total)
            for level in range(iterations + 1):
                assert np.array_equal(hop_ppr.hop_dense(level),
                                      reference.hop_dense(level))
        for result, reference in zip(engine.single_source_batch(sources),
                                     references):
            assert result.stats["ppr_squared_norm"] == reference.squared_norm
            assert (result.stats["ppr_nonzero_entries"]
                    == reference.nonzero_entries())


class TestPairAccuracy:
    """``single_pair``, an entry of the source's single-source vector, lands
    within ε of PowerMethod at hubs."""

    @pytest.fixture(scope="class")
    def hub_pairs(self):
        from repro.baselines.power_method import simrank_matrix
        from repro.graph.generators import power_law_graph

        graph = power_law_graph(2_000, 3.2, exponent=2.3, directed=False,
                                seed=505)
        truth = simrank_matrix(graph, decay=DECAY, tolerance=1e-6)
        hubs = np.argsort(-graph.in_degrees, kind="stable")[:6]
        pairs = [(int(hub), int(graph.in_neighbors(int(hub))[0]))
                 for hub in hubs]
        return graph, truth, pairs

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    def test_hub_pairs_within_epsilon(self, hub_pairs, epsilon):
        graph, truth, pairs = hub_pairs
        engine = ExactSim(graph, ExactSimConfig(epsilon=epsilon, decay=DECAY,
                                                seed=7))
        errors = [abs(engine.single_pair(i, j).score - truth[i, j])
                  for i, j in pairs]
        assert max(errors) <= epsilon
