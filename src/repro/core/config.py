"""Configuration object for the ExactSim algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.utils.validation import (check_integer, check_positive,
                                    check_probability)

#: The paper's exactness target: additive error at most 1e-7 (float precision).
EPSILON_EXACT = 1e-7


@dataclass(frozen=True)
class ExactSimConfig:
    """All tunables of Algorithm 1 and its optimizations.

    Parameters
    ----------
    epsilon:
        Maximum additive error ε.  The paper's "exact" setting is
        ``EPSILON_EXACT`` (1e-7); larger values trade accuracy for speed
        exactly as in Figures 1/5.
    decay:
        SimRank decay factor c (paper uses 0.6 in all experiments).
    use_sparse_linearization:
        Truncate ℓ-hop PPR entries below (1 − √c)²·(ε/2), reducing the extra
        space from O(n log 1/ε) to O(1/ε) (Lemma 2).  When enabled the error
        parameter driving L and R is halved so the total guarantee is still ε.
    use_squared_sampling:
        Allocate walk-pair samples proportionally to π_i(k)² instead of
        π_i(k), scaling the total budget down by ‖π_i‖² (Lemma 3).
    use_local_exploitation:
        Estimate D(k, k) with Algorithm 3 (deterministic local exploration +
        tail sampling) instead of plain Algorithm 2.
    max_total_samples:
        Practical cap on the total number of walk pairs.  The paper's C++
        implementation runs ~1e13 pairs for ε = 1e-7; a pure-Python substrate
        cannot, so budgets above the cap are clamped (and the result records
        that the cap was hit in ``stats['samples_capped']``).  ``None``
        disables the cap and restores the paper's theoretical guarantee.
    max_walk_steps:
        Hard cap on √c-walk length.  Walks longer than ~60 steps have
        probability < c^60 ≈ 1e-13 and contribute nothing at float precision.
    max_exploit_level:
        Cap on the deterministic exploration depth ℓ(k) of Algorithm 3.
    failure_constant:
        The constant in R = failure_constant · log n / ((1 − √c)⁴ ε²);
        the paper's analysis uses 6 (Bernstein + union bound over n² pairs).
    seed:
        Seed for every random choice the algorithm makes.
    """

    epsilon: float = 1e-4
    decay: float = 0.6
    use_sparse_linearization: bool = True
    use_squared_sampling: bool = True
    use_local_exploitation: bool = True
    max_total_samples: Optional[int] = 500_000
    max_walk_steps: int = 64
    max_exploit_level: int = 8
    failure_constant: float = 6.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        check_probability(self.decay, "decay", inclusive_low=False, inclusive_high=False)
        check_positive(self.failure_constant, "failure_constant")
        # Counts and caps: integral (3.0 becomes 3, 2.5 and True raise) and
        # at least 1.  The dataclass is frozen, hence object.__setattr__.
        counts = ["max_walk_steps", "max_exploit_level"]
        if self.max_total_samples is not None:
            counts.append("max_total_samples")
        for name in counts:
            count = check_integer(getattr(self, name), name)
            if count < 1:
                raise ValueError(f"'{name}' must be at least 1, got {count}")
            object.__setattr__(self, name, count)

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def sqrt_c(self) -> float:
        return float(np.sqrt(self.decay))

    @property
    def optimized(self) -> bool:
        """True when any of the three optimizations is enabled."""
        return (self.use_sparse_linearization or self.use_squared_sampling
                or self.use_local_exploitation)

    @property
    def effective_epsilon(self) -> float:
        """The ε driving L and R: halved when sparse linearization is on (Lemma 2)."""
        return self.epsilon / 2.0 if self.use_sparse_linearization else self.epsilon

    def num_iterations(self) -> int:
        """L = ⌈log_{1/c}(2/ε)⌉ — the truncation depth of Algorithm 1, line 1."""
        return int(np.ceil(np.log(2.0 / self.effective_epsilon) / np.log(1.0 / self.decay)))

    def truncation_threshold(self) -> Optional[float]:
        """The sparse-linearization threshold (1 − √c)²·ε_eff, or None if disabled."""
        if not self.use_sparse_linearization:
            return None
        return (1.0 - self.sqrt_c) ** 2 * self.effective_epsilon

    @classmethod
    def basic(cls, epsilon: float = 1e-4, **overrides) -> "ExactSimConfig":
        """The basic ExactSim variant (no optimizations), as in Figure 9."""
        defaults = dict(epsilon=epsilon, use_sparse_linearization=False,
                        use_squared_sampling=False, use_local_exploitation=False)
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def optimized_config(cls, epsilon: float = 1e-4, **overrides) -> "ExactSimConfig":
        """The fully optimized variant (the paper's default 'ExactSim')."""
        return cls(epsilon=epsilon, **overrides)

    def with_epsilon(self, epsilon: float) -> "ExactSimConfig":
        return replace(self, epsilon=epsilon)

    def with_seed(self, seed: Optional[int]) -> "ExactSimConfig":
        return replace(self, seed=seed)


__all__ = ["ExactSimConfig", "EPSILON_EXACT"]
