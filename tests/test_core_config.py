"""Unit tests for ExactSimConfig, sampling allocation and sparse helpers."""

import numpy as np
import pytest

from repro.core.config import EPSILON_EXACT, ExactSimConfig
from repro.core.sampling import (
    allocate_proportional,
    allocate_squared,
    total_sample_budget,
)
from repro.core.sparse import (
    sparse_truncation_threshold,
    sparsify_vector,
)
from repro.diagonal.basic import estimate_diagonal_basic
from repro.ppr.hop_ppr import hop_ppr_vectors

DECAY = 0.6
SQRT_C = np.sqrt(DECAY)


def max_surviving_entries(epsilon: float, *, decay: float = DECAY) -> int:
    """Lemma 2's pigeonhole bound: the hop vectors of one source sum to at
    most 1, so at most 1/((1 − √c)²ε) of their entries reach (1 − √c)²ε."""
    return int(np.ceil(1.0 / sparse_truncation_threshold(epsilon, decay=decay)))


class TestConfig:
    def test_defaults_are_optimized(self):
        config = ExactSimConfig()
        assert config.optimized
        assert config.use_sparse_linearization
        assert config.use_squared_sampling
        assert config.use_local_exploitation

    def test_basic_constructor(self):
        config = ExactSimConfig.basic(epsilon=1e-3)
        assert not config.optimized
        assert config.epsilon == 1e-3

    def test_epsilon_exact_constant(self):
        assert EPSILON_EXACT == 1e-7

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            ExactSimConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            ExactSimConfig(epsilon=float("inf"))

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            ExactSimConfig(decay=1.0)

    def test_invalid_caps(self):
        with pytest.raises(ValueError):
            ExactSimConfig(max_total_samples=0)
        with pytest.raises(ValueError):
            ExactSimConfig(max_walk_steps=0)
        with pytest.raises(ValueError):
            ExactSimConfig(max_exploit_level=0)
        for name in ("max_total_samples", "max_walk_steps", "max_exploit_level"):
            for value in (2.5, -3, float("nan"), True):
                with pytest.raises(ValueError, match=name):
                    ExactSimConfig(**{name: value})

    def test_integral_float_caps_become_ints(self):
        config = ExactSimConfig(max_total_samples=1e5, max_walk_steps=3.0,
                                max_exploit_level=np.int64(2))
        assert (config.max_total_samples, config.max_walk_steps,
                config.max_exploit_level) == (100_000, 3, 2)
        assert all(type(value) is int for value in (
            config.max_total_samples, config.max_walk_steps,
            config.max_exploit_level))

    def test_num_iterations_formula(self):
        config = ExactSimConfig(epsilon=1e-4, use_sparse_linearization=False)
        expected = int(np.ceil(np.log(2.0 / 1e-4) / np.log(1.0 / DECAY)))
        assert config.num_iterations() == expected

    def test_effective_epsilon_halved_with_sparse(self):
        sparse_config = ExactSimConfig(epsilon=1e-3, use_sparse_linearization=True)
        dense_config = ExactSimConfig(epsilon=1e-3, use_sparse_linearization=False)
        assert sparse_config.effective_epsilon == pytest.approx(5e-4)
        assert dense_config.effective_epsilon == pytest.approx(1e-3)
        assert sparse_config.num_iterations() >= dense_config.num_iterations()

    def test_truncation_threshold(self):
        config = ExactSimConfig(epsilon=1e-3)
        expected = (1.0 - SQRT_C) ** 2 * 5e-4
        assert config.truncation_threshold() == pytest.approx(expected)
        assert ExactSimConfig(epsilon=1e-3,
                              use_sparse_linearization=False).truncation_threshold() is None

    def test_with_epsilon_and_seed_are_copies(self):
        config = ExactSimConfig(epsilon=1e-2, seed=1)
        other = config.with_epsilon(1e-3).with_seed(9)
        assert other.epsilon == 1e-3 and other.seed == 9
        assert config.epsilon == 1e-2 and config.seed == 1

    def test_frozen(self):
        config = ExactSimConfig()
        with pytest.raises(Exception):
            config.epsilon = 0.5  # type: ignore[misc]


class TestSampleBudget:
    def test_formula(self):
        budget = total_sample_budget(1000, 1e-2, decay=DECAY, failure_constant=6.0)
        expected = 6.0 * np.log(1000) / ((1.0 - SQRT_C) ** 4 * 1e-4)
        assert budget == int(np.ceil(expected))

    def test_budget_grows_with_precision(self):
        assert total_sample_budget(1000, 1e-3) > total_sample_budget(1000, 1e-2)

    def test_budget_grows_logarithmically_with_n(self):
        small = total_sample_budget(1_000, 1e-2)
        large = total_sample_budget(1_000_000, 1e-2)
        assert large < 3 * small

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            total_sample_budget(0, 1e-2)
        with pytest.raises(ValueError):
            total_sample_budget(10, 0.0)


class TestAllocation:
    def setup_method(self):
        rng = np.random.default_rng(1)
        raw = rng.random(50)
        self.ppr = raw / raw.sum()

    def test_proportional_covers_budget(self):
        allocation, realised = allocate_proportional(self.ppr, 10_000)
        assert realised >= 10_000               # ceilings only add samples
        assert realised == allocation.sum()
        assert np.all(allocation >= 0)

    def test_proportional_respects_zero_entries(self):
        ppr = self.ppr.copy()
        ppr[:10] = 0.0
        allocation, _ = allocate_proportional(ppr, 1_000)
        assert np.all(allocation[:10] == 0)

    def test_squared_total_is_roughly_budget_times_norm(self):
        budget = 100_000
        allocation, realised = allocate_squared(self.ppr, budget)
        norm = float(np.dot(self.ppr, self.ppr))
        assert realised == allocation.sum()
        assert realised <= budget * norm + self.ppr.size
        assert realised >= budget * norm

    def test_squared_allocates_fewer_samples_than_proportional(self):
        budget = 100_000
        _, realised_proportional = allocate_proportional(self.ppr, budget)
        _, realised_squared = allocate_squared(self.ppr, budget)
        assert realised_squared < realised_proportional

    def test_cap_is_respected(self):
        allocation, realised = allocate_proportional(self.ppr, 10_000_000, cap=5_000)
        # Every positive-PPR node keeps at least one sample, so the realised
        # total can exceed the cap only by the number of such nodes.
        assert realised <= 5_000 + np.count_nonzero(self.ppr)
        assert np.all(allocation[self.ppr > 0] >= 1)

    def test_cap_squared(self):
        allocation, realised = allocate_squared(self.ppr, 10_000_000, cap=5_000)
        assert realised <= 5_000 + np.count_nonzero(self.ppr)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            allocate_proportional(self.ppr, -1)
        with pytest.raises(ValueError):
            allocate_squared(self.ppr, -1)

    def test_check_allocation(self, toy_graph):
        """Algorithm 2 refuses an allocation of the wrong length or with a
        negative entry."""
        diagonal = estimate_diagonal_basic(toy_graph, np.ones(6), seed=1)
        assert diagonal.shape == (6,)
        with pytest.raises(ValueError):
            estimate_diagonal_basic(toy_graph, np.ones(5), seed=1)
        with pytest.raises(ValueError):
            estimate_diagonal_basic(toy_graph, -np.ones(6), seed=1)


class TestSparseHelpers:
    def test_threshold_formula(self):
        assert sparse_truncation_threshold(1e-3, decay=DECAY) == \
            pytest.approx((1.0 - SQRT_C) ** 2 * 1e-3)

    def test_sparsify_vector(self):
        vector = np.array([0.5, 1e-6, 0.2, 0.0])
        result = sparsify_vector(vector, 1e-3)
        assert result.tolist() == [0.5, 0.0, 0.2, 0.0]
        # Original untouched.
        assert vector[1] == 1e-6

    def test_max_surviving_entries_bound(self, collab_graph):
        """Truncated at (1 − √c)²ε, the hop vectors of every source keep at
        most Lemma 2's bound of entries, though untruncated they hold more."""
        epsilon = 0.1
        bound = max_surviving_entries(epsilon)
        threshold = sparse_truncation_threshold(epsilon, decay=DECAY)
        for source in range(0, collab_graph.num_nodes, 17):
            full = hop_ppr_vectors(collab_graph, source, 30, decay=DECAY)
            kept = hop_ppr_vectors(collab_graph, source, 30, decay=DECAY,
                                   truncation_threshold=threshold)
            assert full.nonzero_entries() > bound >= kept.nonzero_entries()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sparse_truncation_threshold(0.0)
        with pytest.raises(ValueError):
            sparsify_vector(np.ones(3), 0.0)
