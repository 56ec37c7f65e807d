"""Tests for the baseline algorithms against PowerMethod ground truth."""

import numpy as np
import pytest

from repro.baselines.linearization import LinearizationSimRank
from repro.baselines.monte_carlo import MonteCarloSimRank
from repro.baselines.parsim import ParSim
from repro.baselines.power_method import PowerMethod, simrank_matrix
from repro.baselines.probesim import ProbeSim
from repro.baselines.prsim import PRSim
from repro.baselines.sling import SLING
from repro.kernels.frontier import accumulate_probes
from repro.metrics.accuracy import max_error, precision_at_k
from specs.probes import probe as probe_spec
from specs.probes import (probesim_single_source_reference,
                          prsim_single_source_reference)

DECAY = 0.6


class TestEpsilonValidation:
    @pytest.mark.parametrize("epsilon", [0.0, -1e-3, float("nan"), float("inf")])
    @pytest.mark.parametrize("cls", [SLING, PRSim, LinearizationSimRank])
    def test_constructor_rejects_bad_epsilon(self, cls, epsilon, collab_graph):
        with pytest.raises(ValueError, match="epsilon"):
            cls(collab_graph, epsilon=epsilon)


class TestSampleCountValidation:
    @pytest.mark.parametrize("cls", [SLING, LinearizationSimRank])
    def test_constructor_rejects_bad_samples_per_node(self, cls, collab_graph):
        for samples in (0, -5):
            with pytest.raises(ValueError, match="samples_per_node"):
                cls(collab_graph, samples_per_node=samples)
        with pytest.raises(TypeError, match="samples_per_node"):
            cls(collab_graph, samples_per_node=2.5)


class TestPowerMethod:
    def test_diagonal_is_one(self, collab_simrank):
        assert np.allclose(np.diag(collab_simrank), 1.0)

    def test_values_in_unit_interval(self, collab_simrank):
        assert collab_simrank.min() >= 0.0
        assert collab_simrank.max() <= 1.0 + 1e-12

    def test_symmetry(self, collab_simrank):
        assert np.allclose(collab_simrank, collab_simrank.T, atol=1e-10)

    def test_simrank_definition_holds(self, toy_graph, toy_simrank):
        """Verify eq. (1) directly on the toy graph for a non-trivial pair."""
        c = DECAY
        # S(3, 5): I(3) = {2}, I(5) = {1}; definition gives c·S(2, 1)/1.
        expected = c * toy_simrank[2, 1]
        assert toy_simrank[3, 5] == pytest.approx(expected, abs=1e-9)

    def test_more_iterations_tighten_error(self, toy_graph):
        coarse = simrank_matrix(toy_graph, decay=DECAY, max_iterations=3)
        fine = simrank_matrix(toy_graph, decay=DECAY, max_iterations=60)
        # The iteration is monotone non-decreasing towards the fixed point.
        assert np.all(fine - coarse >= -1e-12)

    def test_single_source_and_pair_interfaces(self, collab_graph, collab_simrank):
        oracle = PowerMethod(collab_graph, decay=DECAY).preprocess()
        result = oracle.single_source(4)
        assert np.allclose(result.scores, collab_simrank[4])
        assert oracle.pair(4, 7) == pytest.approx(collab_simrank[4, 7])
        assert oracle.index_bytes() == collab_simrank.nbytes
        assert oracle.preprocessing_seconds > 0.0

    def test_lazy_preprocess_on_matrix_access(self, toy_graph):
        oracle = PowerMethod(toy_graph, decay=DECAY)
        assert not oracle.prepared
        _ = oracle.matrix
        assert oracle._matrix is not None

    def test_empty_graph(self):
        from repro.graph.digraph import DiGraph
        assert simrank_matrix(DiGraph.empty(0)).shape == (0, 0)

    def test_peak_memory_is_three_results(self):
        """Each iteration releases the old S before its second product and
        scales in place, so the tracemalloc peak stays ≤ 3.5× the result on
        a 1,000-node graph (5.0× when the old S outlived the product)."""
        import tracemalloc

        from repro.graph.generators import power_law_graph

        graph = power_law_graph(1000, 6.0, exponent=2.1, seed=3)
        tracemalloc.start()
        try:
            result = simrank_matrix(graph, decay=DECAY, tolerance=1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * result.nbytes, peak / result.nbytes


class TestMonteCarlo:
    def test_accuracy_improves_with_more_walks(self, collab_graph, collab_simrank):
        source = 5
        errors = []
        for walks in (20, 200):
            algorithm = MonteCarloSimRank(collab_graph, decay=DECAY, walks_per_node=walks,
                                          walk_length=10, seed=3)
            result = algorithm.single_source(source)
            errors.append(max_error(result.scores, collab_simrank[source]))
        assert errors[1] <= errors[0]

    def test_reasonable_error_with_many_walks(self, collab_graph, collab_simrank):
        algorithm = MonteCarloSimRank(collab_graph, decay=DECAY, walks_per_node=400,
                                      walk_length=12, seed=7)
        result = algorithm.single_source(9)
        assert max_error(result.scores, collab_simrank[9]) < 0.12

    def test_source_score_is_one(self, collab_graph):
        algorithm = MonteCarloSimRank(collab_graph, decay=DECAY, walks_per_node=10, seed=1)
        assert algorithm.single_source(3).scores[3] == 1.0

    def test_index_accounting(self, collab_graph):
        algorithm = MonteCarloSimRank(collab_graph, decay=DECAY, walks_per_node=10,
                                      walk_length=5, seed=1)
        assert algorithm.index_bytes() == 0
        algorithm.preprocess()
        # The int32 walk store, plus its int32 inverse: one bucket start per
        # (step, replica, position) and the end, one member per live walk.
        store = (5 + 1) * 10 * collab_graph.num_nodes * 4
        starts = (5 * 10 * collab_graph.num_nodes + 1) * 4
        members = np.count_nonzero(algorithm._index[1:] >= 0) * 4
        assert algorithm.index_bytes() == store + starts + members
        assert algorithm.preprocessing_seconds > 0.0

    def test_index_based_flag(self, collab_graph):
        assert MonteCarloSimRank(collab_graph).index_based
        assert "index-based" in MonteCarloSimRank(collab_graph).describe()


class TestLinearization:
    def test_accuracy_with_generous_samples(self, collab_graph, collab_simrank):
        algorithm = LinearizationSimRank(collab_graph, decay=DECAY, epsilon=1e-3,
                                         samples_per_node=3000, seed=5)
        result = algorithm.single_source(8)
        assert max_error(result.scores, collab_simrank[8]) < 0.03

    def test_accuracy_improves_with_samples(self, collab_graph, collab_simrank):
        source = 2
        errors = []
        for samples in (5, 2000):
            algorithm = LinearizationSimRank(collab_graph, decay=DECAY, epsilon=1e-3,
                                             samples_per_node=samples, seed=11)
            errors.append(max_error(algorithm.single_source(source).scores,
                                    collab_simrank[source]))
        assert errors[1] <= errors[0]

    @pytest.mark.parametrize("seed", [7, 8, 10])
    def test_source_score_is_one(self, collab_graph, seed):
        """S(i, i) = 1 by definition.  The linearized sum reaches it only
        with the exact D: at 60 pairs per node the raw S(7, 7) of this graph
        lands on either side of 1 depending on the seed, and the clip to
        [0, 1] only mends the high side."""
        algorithm = LinearizationSimRank(collab_graph, samples_per_node=60,
                                         seed=seed)
        assert algorithm.single_source(7).scores[7] == 1.0

    def test_default_samples_derived_from_epsilon(self, collab_graph):
        algorithm = LinearizationSimRank(collab_graph, epsilon=1e-1, seed=1)
        assert algorithm.samples_per_node >= 1
        assert algorithm.samples_per_node <= 20_000

    def test_index_is_diagonal_vector(self, collab_graph):
        algorithm = LinearizationSimRank(collab_graph, samples_per_node=10, seed=1)
        algorithm.preprocess()
        assert algorithm.index_bytes() == collab_graph.num_nodes * 8


class TestParSim:
    def test_high_precision_despite_biased_diagonal(self, collab_graph, collab_simrank):
        """The paper's observation: ParSim's top-k precision is high on small graphs."""
        algorithm = ParSim(collab_graph, decay=DECAY, iterations=25)
        result = algorithm.single_source(6)
        assert precision_at_k(result.scores, collab_simrank[6], 10, exclude=6) >= 0.8

    def test_error_plateau_above_exactsim(self, collab_graph, collab_simrank):
        """ParSim cannot reach small MaxError because D=(1−c)I is biased."""
        algorithm = ParSim(collab_graph, decay=DECAY, iterations=40)
        result = algorithm.single_source(6)
        error = max_error(result.scores, collab_simrank[6], exclude=6)
        assert error > 1e-3          # plateau well above ExactSim's achievable error

    def test_more_iterations_do_not_increase_truncation_error(
            self, collab_graph, collab_simrank):
        short = ParSim(collab_graph, decay=DECAY, iterations=2).single_source(1)
        long = ParSim(collab_graph, decay=DECAY, iterations=30).single_source(1)
        assert max_error(long.scores, collab_simrank[1]) <= \
            max_error(short.scores, collab_simrank[1]) + 1e-6

    def test_index_free(self, collab_graph):
        algorithm = ParSim(collab_graph, iterations=3)
        assert not algorithm.index_based
        assert algorithm.index_bytes() == 0

    def test_source_score_one(self, collab_graph):
        assert ParSim(collab_graph, iterations=5).single_source(0).scores[0] == 1.0


class TestPRSim:
    def test_accuracy(self, collab_graph, collab_simrank):
        algorithm = PRSim(collab_graph, decay=DECAY, epsilon=1e-2, hub_fraction=0.2, seed=3)
        result = algorithm.single_source(10)
        assert max_error(result.scores, collab_simrank[10], exclude=10) < 0.08

    def test_error_shrinks_with_epsilon(self, collab_graph, collab_simrank):
        source = 4
        coarse = PRSim(collab_graph, decay=DECAY, epsilon=1e-1, hub_fraction=0.1, seed=9)
        fine = PRSim(collab_graph, decay=DECAY, epsilon=1e-2, hub_fraction=0.1, seed=9)
        coarse_error = max_error(coarse.single_source(source).scores, collab_simrank[source],
                                 exclude=source)
        fine_error = max_error(fine.single_source(source).scores, collab_simrank[source],
                               exclude=source)
        assert fine_error <= coarse_error + 0.01

    def test_index_grows_with_hub_fraction(self, collab_graph):
        small = PRSim(collab_graph, epsilon=1e-1, hub_fraction=0.05, seed=1).preprocess()
        large = PRSim(collab_graph, epsilon=1e-1, hub_fraction=0.3, seed=1).preprocess()
        assert large.index_bytes() > small.index_bytes()

    def test_preprocessing_recorded(self, collab_graph):
        algorithm = PRSim(collab_graph, epsilon=1e-1, seed=1).preprocess()
        assert algorithm.preprocessing_seconds > 0.0
        assert algorithm.prepared


class TestProbeSim:
    def test_accuracy_with_many_walks(self, collab_graph, collab_simrank):
        algorithm = ProbeSim(collab_graph, decay=DECAY, num_walks=800,
                             probe_threshold=1e-5, seed=3)
        result = algorithm.single_source(12)
        assert max_error(result.scores, collab_simrank[12], exclude=12) < 0.12

    def test_error_shrinks_with_walks(self, collab_graph, collab_simrank):
        source = 3
        coarse = ProbeSim(collab_graph, decay=DECAY, num_walks=30, seed=5)
        fine = ProbeSim(collab_graph, decay=DECAY, num_walks=1000, seed=5)
        coarse_error = max_error(coarse.single_source(source).scores,
                                 collab_simrank[source], exclude=source)
        fine_error = max_error(fine.single_source(source).scores,
                               collab_simrank[source], exclude=source)
        assert fine_error <= coarse_error + 0.02

    def test_index_free_and_top_k(self, collab_graph, collab_simrank):
        algorithm = ProbeSim(collab_graph, decay=DECAY, num_walks=500, seed=7)
        assert not algorithm.index_based
        top = algorithm.top_k(2, k=10)
        truth_top = set(np.argsort(-collab_simrank[2])[1:11].tolist())
        overlap = len(set(int(v) for v in top.nodes) & truth_top)
        assert overlap >= 5


class TestProbeSimBatchedProbes:
    """The batched probe accumulation must match sequential per-node probes."""

    def test_batched_probe_accumulation_matches_sequential(self, collab_graph):
        algorithm = ProbeSim(collab_graph, decay=DECAY, num_walks=50,
                             probe_threshold=1e-4, seed=11)
        num_nodes = collab_graph.num_nodes
        rng = np.random.default_rng(4)
        counts = np.zeros(num_nodes, dtype=np.int64)
        counts[rng.choice(num_nodes, size=25, replace=False)] = \
            rng.integers(1, 5, size=25)
        meeting_nodes = np.flatnonzero(counts)
        scale = 1.0 / ((1.0 - algorithm._operator.sqrt_c) * algorithm.num_walks)
        weights = (scale * (1.0 - algorithm._operator.sqrt_c)
                   * counts[meeting_nodes] * algorithm._diagonal[meeting_nodes])
        for level in (0, 1, 3):
            batched = np.zeros(num_nodes, dtype=np.float64)
            accumulate_probes(algorithm._operator, meeting_nodes, weights,
                              level, algorithm.probe_threshold, batched)
            sequential = np.zeros(num_nodes, dtype=np.float64)
            for node in meeting_nodes:
                probe = probe_spec(algorithm, int(node), level)
                probe.add_into(sequential, scale * counts[node] *
                               algorithm._diagonal[node])
            assert np.allclose(batched, sequential, atol=1e-12), \
                f"probe batch diverged at level {level}"

    def test_batched_probe_empty_meeting_set(self, collab_graph):
        algorithm = ProbeSim(collab_graph, decay=DECAY, num_walks=10, seed=1)
        scores = np.zeros(collab_graph.num_nodes)
        accumulate_probes(algorithm._operator, np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.float64), 2,
                          algorithm.probe_threshold, scores)
        assert not scores.any()


class TestQueryPathsMatchFlatSpecs:
    """PRSim's per-level CSR hub products and both methods' probe kernel
    against the flat-COO ``np.bincount`` hub pass and the COO-only probe
    batches they replaced (``specs.probes``): the probes bit for bit;
    PRSim's single-source sums the hub levels in another order, so within
    1e-15 on identical supports."""

    GRAPHS = ("toy_graph", "directed_graph", "collab_graph")

    @pytest.mark.parametrize("graph_name", GRAPHS)
    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-3])
    def test_prsim_matches_flat_spec(self, request, graph_name, epsilon):
        graph = request.getfixturevalue(graph_name)
        algorithm = PRSim(graph, decay=DECAY, epsilon=epsilon,
                          hub_fraction=0.1, seed=5).preprocess()
        for source in range(0, graph.num_nodes, max(1, graph.num_nodes // 12)):
            scores = algorithm.single_source(source).scores
            reference = prsim_single_source_reference(algorithm, source)
            assert np.array_equal(scores > 0.0, reference > 0.0)
            assert np.max(np.abs(scores - reference)) <= 1e-15

    @pytest.mark.parametrize("graph_name", GRAPHS)
    @pytest.mark.parametrize("probe_threshold", [1e-1, 1e-2, 1e-3, 0.0])
    def test_probesim_matches_coo_spec(self, request, graph_name,
                                       probe_threshold):
        graph = request.getfixturevalue(graph_name)
        config = dict(decay=DECAY, num_walks=100, max_steps=8,
                      probe_threshold=probe_threshold, seed=5)
        for source in range(0, graph.num_nodes, max(1, graph.num_nodes // 8)):
            scores = ProbeSim(graph, **config).single_source(source).scores
            reference = probesim_single_source_reference(
                ProbeSim(graph, **config), source)
            assert np.array_equal(scores, reference)