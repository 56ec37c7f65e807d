"""The ExactSim core algorithm (the paper's primary contribution)."""

from repro.core.config import ExactSimConfig
from repro.core.result import SingleSourceResult, TopKResult
from repro.core.sampling import (
    total_sample_budget,
    allocate_proportional,
    allocate_squared,
)
from repro.core.sparse import (
    sparse_truncation_threshold,
    sparsify_to_vector,
    sparsify_vector,
)
from repro.core.exactsim import ExactSim

__all__ = [
    "ExactSimConfig",
    "SingleSourceResult",
    "TopKResult",
    "total_sample_budget",
    "allocate_proportional",
    "allocate_squared",
    "sparse_truncation_threshold",
    "sparsify_to_vector",
    "sparsify_vector",
    "ExactSim",
]
