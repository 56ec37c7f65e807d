"""Global PageRank by power iteration.

PRSim's average-case complexity is stated in terms of ‖π‖² where π is the
*global* PageRank vector; PRSim picks its hubs by it, and the dataset-report
example prints it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.utils.validation import check_probability, check_positive


def pagerank(graph: DiGraph, *, damping: float = 0.85, tolerance: float = 1e-10,
             max_iterations: int = 200) -> np.ndarray:
    """Standard PageRank by power iteration (forward edges, dangling → uniform)."""
    check_probability(damping, "damping", inclusive_low=False, inclusive_high=False)
    check_positive(tolerance, "tolerance")
    num_nodes = graph.num_nodes
    if num_nodes == 0:
        return np.zeros(0, dtype=np.float64)

    out_degrees = graph.out_degrees.astype(np.float64)
    adjacency = graph.to_scipy_adjacency()
    with np.errstate(divide="ignore"):
        inverse_out = np.where(out_degrees > 0, 1.0 / np.maximum(out_degrees, 1.0), 0.0)
    dangling = out_degrees == 0

    rank = np.full(num_nodes, 1.0 / num_nodes, dtype=np.float64)
    teleport = np.full(num_nodes, 1.0 / num_nodes, dtype=np.float64)
    for _ in range(max_iterations):
        weighted = rank * inverse_out
        spread = adjacency.T @ weighted
        dangling_mass = rank[dangling].sum() / num_nodes
        updated = damping * (spread + dangling_mass) + (1.0 - damping) * teleport
        if np.abs(updated - rank).sum() < tolerance:
            rank = updated
            break
        rank = updated
    return rank


__all__ = ["pagerank"]
