"""Dict-based reference implementations of the frontier kernels.

These are the seed's original pure-Python loops, preserved verbatim as
*executable specifications*: ``tests/test_kernels.py`` asserts that the array kernels in
:mod:`repro.kernels.frontier` reproduce them to 1e-12 on random power-law
graphs including dangling nodes and self-loops.  They are deliberately slow —
never call them from production paths.

One array kernel lives here too: :func:`propagate_transpose`, the
single-vector ``Pᵀ`` step that only the per-node probe specs
(``specs.probes``) walk; the library batches it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.digraph import DiGraph
from repro.kernels.frontier import _scatter_add, csr_gather
from repro.kernels.sparsevec import SparseVector

Distribution = Dict[int, float]


def _reference_propagate_distribution(graph: DiGraph, distribution: Distribution
                                      ) -> Tuple[Distribution, int]:
    """One non-stop reverse-walk step (the seed's ``diagonal.local._propagate``)."""
    spread: Distribution = defaultdict(float)
    traversed = 0
    indptr = graph.in_indptr
    indices = graph.in_indices
    for node, probability in distribution.items():
        start, stop = indptr[node], indptr[node + 1]
        degree = int(stop - start)
        if degree == 0:
            continue
        share = probability / degree
        traversed += degree
        for neighbor in indices[start:stop].tolist():
            spread[neighbor] += share
    return dict(spread), traversed


def _reference_propagate_transpose(graph: DiGraph, distribution: Distribution
                                   ) -> Tuple[Distribution, int]:
    """One ``Pᵀ`` step, receiver-by-receiver: (Pᵀx)(j) = Σ_{k∈I(j)} x(k)/d_in(j).

    Mirrors the seed's dense ``matrix_t @ current`` probes (ProbeSim, PRSim)
    entry by entry: mass travels along out-edges and is normalized by the
    receiver's in-degree.
    """
    spread: Distribution = defaultdict(float)
    traversed = 0
    in_degrees = graph.in_degrees
    for node, probability in distribution.items():
        for receiver in graph.out_neighbors(node).tolist():
            spread[receiver] += probability / float(in_degrees[receiver])
            traversed += 1
    return dict(spread), traversed


def propagate_transpose(out_indptr: np.ndarray, out_indices: np.ndarray,
                        in_degrees: np.ndarray, frontier: SparseVector, *,
                        num_nodes: int) -> Tuple[SparseVector, int]:
    """One ``Pᵀ`` step of one sparse vector, on the array kernels.

    The single-lane form of
    :func:`repro.kernels.frontier.propagate_batch_transpose`, which the
    library's probes batch; the per-node probe specs (``specs.probes``)
    walk it one vector at a time.  Contributions are scatter-added per
    receiver first and divided by ``d_in`` once at the end.
    """
    targets, counts = csr_gather(out_indptr, out_indices, frontier.indices)
    contributions = np.repeat(frontier.values, counts)
    new_idx, new_vals = _scatter_add(targets, contributions, num_nodes)
    return (SparseVector(new_idx, new_vals / in_degrees[new_idx]),
            int(counts.sum()))


def _reference_propagate_batch(graph: DiGraph,
                               batch: List[Distribution]
                               ) -> Tuple[List[Distribution], int]:
    """B independent reverse-walk steps — the spec for ``propagate_batch``."""
    results: List[Distribution] = []
    traversed = 0
    for distribution in batch:
        spread, cost = _reference_propagate_distribution(graph, distribution)
        results.append(spread)
        traversed += cost
    return results, traversed


__all__ = [
    "Distribution",
    "_reference_propagate_batch",
    "_reference_propagate_distribution",
    "_reference_propagate_transpose",
    "propagate_transpose",
]
