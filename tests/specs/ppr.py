"""Dense reference PPR vectors the hop-PPR tests compare against.

:func:`repro.ppr.hop_ppr.hop_ppr_vectors` and
:func:`repro.ppr.hop_ppr.hop_ppr_batch` compute the paper's ℓ-hop PPR
vectors π_i^ℓ = (1 − √c)·(√c P)^ℓ·e_i.  The functions here reach the same
quantities by other routes — the unstopped hitting probabilities, the hop
sum iterated to convergence, and power iteration on the restart equation —
so the tests can check the library against them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.transition import TransitionOperator
from repro.utils.validation import (
    check_node_index,
    check_positive,
    check_probability,
    check_vector_length,
)


def hitting_probability_vectors(graph: DiGraph, source: int, num_hops: int, *,
                                decay: float = 0.6,
                                operator: Optional[TransitionOperator] = None
                                ) -> np.ndarray:
    """The ℓ-hop hitting-probability vectors h_i^ℓ = (√c P)^ℓ e_i (dense).

    These differ from the ℓ-hop PPR vectors only by the missing (1 − √c)
    stopping factor (Table 1).
    """
    source = check_node_index(source, graph.num_nodes, "source")
    ops = operator if operator is not None else TransitionOperator(graph, decay)
    current = np.zeros(graph.num_nodes, dtype=np.float64)
    current[source] = 1.0
    rows = [current.copy()]
    for _ in range(num_hops):
        current = ops.decayed_backward(current)
        rows.append(current.copy())
    return np.vstack(rows)


def ppr_vector(graph: DiGraph, source: int, *, decay: float = 0.6,
               tolerance: float = 1e-12, max_hops: int = 200,
               operator: Optional[TransitionOperator] = None) -> np.ndarray:
    """The full Personalized PageRank vector π_i = Σ_ℓ π_i^ℓ to high precision.

    Iterates hops until the remaining walk mass (which decays as c^{ℓ/2})
    drops below ``tolerance``.
    """
    source = check_node_index(source, graph.num_nodes, "source")
    check_positive(tolerance, "tolerance")
    ops = operator if operator is not None else TransitionOperator(graph, decay)
    residual_factor = 1.0 - ops.sqrt_c
    current = np.zeros(graph.num_nodes, dtype=np.float64)
    current[source] = 1.0
    total = np.zeros(graph.num_nodes, dtype=np.float64)
    for _ in range(max_hops):
        total += residual_factor * current
        current = ops.decayed_backward(current)
        if current.sum() < tolerance:
            break
    return total


def personalized_pagerank_power(graph: DiGraph, restart: np.ndarray, *,
                                alpha: float = 0.2, tolerance: float = 1e-12,
                                max_iterations: int = 500,
                                operator: Optional[TransitionOperator] = None,
                                decay: float = 0.6) -> np.ndarray:
    """Personalized PageRank with restart distribution ``restart`` on reverse edges.

    Solves π = α·restart + (1 − α)·P·π by power iteration, where ``P`` is the
    reverse transition matrix (the direction √c-walks move).  With
    α = 1 − √c this equals Σ_ℓ (1 − √c)(√c P)^ℓ restart, i.e. the PPR vectors
    used throughout the paper.
    """
    restart = check_vector_length(np.asarray(restart, dtype=np.float64),
                                  graph.num_nodes, "restart")
    check_probability(alpha, "alpha", inclusive_low=False, inclusive_high=False)
    ops = operator if operator is not None else TransitionOperator(graph, decay)

    rank = restart.copy()
    for _ in range(max_iterations):
        updated = alpha * restart + (1.0 - alpha) * ops.step_backward(rank)
        if np.abs(updated - rank).sum() < tolerance:
            rank = updated
            break
        rank = updated
    return rank


__all__ = ["hitting_probability_vectors", "personalized_pagerank_power", "ppr_vector"]
