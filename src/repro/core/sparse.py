"""Sparse-linearization helpers (Lemma 2).

Storing all L ≈ log_{1/c}(2/ε) ℓ-hop PPR vectors densely costs O(n·log 1/ε)
memory — several times the graph itself (Table 3, "Basic ExactSim" row).
Lemma 2 shows that zeroing every entry below (1 − √c)²·ε keeps the extra
additive error at ε while capping the number of surviving entries at
1 / ((1 − √c)²ε) in total, because all hop vectors together sum to at most 1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.sparsevec import SparseVector
from repro.utils.validation import check_positive, check_probability


def sparse_truncation_threshold(epsilon: float, *, decay: float = 0.6) -> float:
    """The Lemma 2 threshold (1 − √c)²·ε below which hop-PPR entries are dropped."""
    check_positive(epsilon, "epsilon")
    check_probability(decay, "decay", inclusive_low=False, inclusive_high=False)
    sqrt_c = float(np.sqrt(decay))
    return (1.0 - sqrt_c) ** 2 * epsilon


def sparsify_vector(vector: np.ndarray, threshold: float) -> np.ndarray:
    """Return a copy of ``vector`` with entries strictly below ``threshold`` zeroed."""
    check_positive(threshold, "threshold")
    result = np.array(vector, dtype=np.float64, copy=True)
    result[result < threshold] = 0.0
    return result


def sparsify_to_vector(vector: np.ndarray, threshold: float) -> SparseVector:
    """Lemma 2 truncation straight into the kernels' array-backed form.

    Equivalent to ``SparseVector.from_dense(sparsify_vector(vector,
    threshold))`` without materialising the intermediate dense copy: the
    surviving entries feed directly into the CSR frontier kernels.
    """
    check_positive(threshold, "threshold")
    dense = np.asarray(vector, dtype=np.float64)
    kept = np.flatnonzero(dense >= threshold)
    return SparseVector(kept.astype(np.int64), dense[kept])


__all__ = [
    "sparse_truncation_threshold",
    "sparsify_vector",
    "sparsify_to_vector",
]
