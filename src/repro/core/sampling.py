"""Walk-pair sample budgets and per-node allocations (Algorithm 1 / Lemma 3).

The basic ExactSim algorithm draws a total of

    R = failure_constant · log n / ((1 − √c)⁴ · ε²)

pairs of √c-walks and spends ⌈R·π_i(k)⌉ of them on node k.  The optimized
variant exploits Lemma 3: allocating ⌈R·π_i(k)²⌉ pairs instead concentrates
the work on the heavy PPR entries and shrinks the realised total to roughly
R·‖π_i‖², a dramatic saving on power-law graphs where ‖π_i‖² ≪ 1.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive, check_probability


def total_sample_budget(num_nodes: int, epsilon: float, *, decay: float = 0.6,
                        failure_constant: float = 6.0) -> int:
    """The paper's total walk-pair budget R = 6·log n / ((1 − √c)⁴ ε²)."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    check_positive(epsilon, "epsilon")
    check_probability(decay, "decay", inclusive_low=False, inclusive_high=False)
    sqrt_c = float(np.sqrt(decay))
    budget = failure_constant * np.log(max(num_nodes, 2)) / ((1.0 - sqrt_c) ** 4 * epsilon ** 2)
    return int(np.ceil(budget))


def allocate_proportional(ppr: np.ndarray, total_budget: int, *,
                          cap: Optional[int] = None) -> Tuple[np.ndarray, int]:
    """Basic allocation: R(k) = ⌈R·π_i(k)⌉ (Algorithm 1, line 8).

    Returns the per-node allocation and the realised total (which exceeds R by
    at most the number of non-zero PPR entries because of the ceilings).  With
    ``cap`` the allocation is rescaled to about the cap
    (:func:`cap_allocation`) — the practical concession a pure-Python
    substrate needs for very small ε, recorded by the caller in the result
    stats.
    """
    ppr = np.asarray(ppr, dtype=np.float64)
    if total_budget < 0:
        raise ValueError("total_budget must be non-negative")
    allocation = np.ceil(total_budget * ppr).astype(np.int64)
    allocation[ppr <= 0.0] = 0
    return cap_allocation(allocation, ppr, cap)


def allocate_squared(ppr: np.ndarray, total_budget: int, *,
                     cap: Optional[int] = None) -> Tuple[np.ndarray, int]:
    """Optimized allocation: R(k) = ⌈R·π_i(k)²⌉ (Lemma 3).

    The realised total is approximately R·‖π_i‖²; on scale-free graphs this is
    orders of magnitude below R while keeping the variance bound of Lemma 1.
    """
    ppr = np.asarray(ppr, dtype=np.float64)
    if total_budget < 0:
        raise ValueError("total_budget must be non-negative")
    allocation = np.ceil(total_budget * ppr * ppr).astype(np.int64)
    allocation[ppr <= 0.0] = 0
    return cap_allocation(allocation, ppr, cap)


def cap_allocation(allocation: np.ndarray, ppr: np.ndarray,
                   cap: Optional[int]) -> Tuple[np.ndarray, int]:
    """``allocation`` scaled down to about ``cap`` pairs if it asks for more.

    Returns the allocation and its realised total.  Each count is scaled by
    cap/total and floored, and every node with π_i(k) > 0 whose count
    floors to 0 keeps one pair, so the realised total can land below the
    cap or pass it by at most the number of such nodes.  Callers that need
    to know whether the cap bound compare the uncapped total with it.
    """
    realised = int(allocation.sum())
    if cap is not None and realised > cap:
        scale = cap / float(realised)
        allocation = np.floor(allocation * scale).astype(np.int64)
        # Keep at least one sample on every node that originally had some.
        allocation[(allocation == 0) & (ppr > 0.0)] = 1
        realised = int(allocation.sum())
    return allocation, realised


__all__ = [
    "total_sample_budget",
    "allocate_proportional",
    "allocate_squared",
    "cap_allocation",
]
