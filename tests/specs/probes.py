"""Sequential reverse walks of PRSim and ProbeSim — the executable specs.

PRSim builds its hub index with one dense ``Pᵀ``-times-dense product per
level for all hubs at once (:meth:`repro.baselines.prsim.PRSim.
_build_hub_vectors`), and ProbeSim pushes the probes of every meeting node of
a level through shared CSR slices at once (:meth:`repro.baselines.probesim.
ProbeSim._accumulate_probe_batch`).  The functions here keep the loops those
batches replaced — one frontier walk per hub, one probe per node — and take
the algorithm instance whose operator, graph and thresholds they read.
``tests/test_multiprop.py`` and ``tests/test_baselines.py`` pin the batched
paths against them, and ``benchmarks/bench_index.py`` times the hub build
against them.
"""

from __future__ import annotations

from typing import List

import numpy as np
from scipy import sparse

from repro.baselines.prsim import HubIndex, PRSim
from repro.baselines.probesim import ProbeSim
from repro.kernels.frontier import propagate_transpose
from repro.kernels.sparsevec import SparseVector


def reverse_hop_vectors(prsim: PRSim, node: int, iterations: int,
                        threshold: float) -> List[sparse.csr_matrix]:
    """π_·^ℓ(node) over all source nodes, truncated below ``threshold``.

    Uses the symmetry π_j^ℓ(k) = (1 − √c)·((√c Pᵀ)^ℓ e_k)(j): one sparse
    frontier walk from ``node`` yields the whole column of the index.
    The frontier itself is propagated exactly (only the stored snapshots
    are pruned, as in the seed's dense implementation).
    """
    sqrt_c = prsim._operator.sqrt_c
    graph = prsim.graph
    num_nodes = graph.num_nodes
    frontier = SparseVector(np.array([node], dtype=np.int64),
                            np.array([1.0], dtype=np.float64))
    vectors: List[sparse.csr_matrix] = []
    for level in range(iterations + 1):
        hop = frontier.scaled(1.0 - sqrt_c).filtered(threshold)
        vectors.append(sparse.csr_matrix(
            (hop.values, (np.zeros(hop.nnz, dtype=np.int64), hop.indices)),
            shape=(1, num_nodes)))
        if level == iterations:
            break
        frontier, _ = propagate_transpose(
            graph.out_indptr, graph.out_indices,
            graph.in_degrees, frontier, num_nodes=num_nodes)
        frontier = frontier.scaled(sqrt_c)
    return vectors


def build_hub_vectors_reference(prsim: PRSim, hubs: np.ndarray,
                                iterations: int, threshold: float) -> HubIndex:
    """Sequential per-hub build flattened to the canonical flat layout."""
    position_parts: List[np.ndarray] = []
    level_parts: List[np.ndarray] = []
    col_parts: List[np.ndarray] = []
    val_parts: List[np.ndarray] = []
    for position, hub in enumerate(hubs.tolist()):
        for level, vector in enumerate(
                reverse_hop_vectors(prsim, int(hub), iterations, threshold)):
            nnz = vector.nnz
            position_parts.append(np.full(nnz, position, dtype=np.int64))
            level_parts.append(np.full(nnz, level, dtype=np.int64))
            col_parts.append(vector.indices.astype(np.int64))
            val_parts.append(vector.data.astype(np.float64))
    concat = (lambda parts, dtype: np.concatenate(parts)
              if parts else np.empty(0, dtype=dtype))
    return (concat(position_parts, np.int64), concat(level_parts, np.int64),
            concat(col_parts, np.int64), concat(val_parts, np.float64))


def probe(probesim: ProbeSim, node: int, level: int) -> SparseVector:
    """π_·^level(node) as a sparse vector (truncated reverse probe)."""
    sqrt_c = probesim._operator.sqrt_c
    graph = probesim.graph
    frontier = SparseVector(np.array([node], dtype=np.int64),
                            np.array([1.0], dtype=np.float64))
    for _ in range(level):
        frontier, _ = propagate_transpose(
            graph.out_indptr, graph.out_indices,
            graph.in_degrees, frontier, num_nodes=graph.num_nodes)
        frontier = frontier.scaled(sqrt_c)
        if probesim.probe_threshold > 0.0:
            frontier = frontier.filtered(probesim.probe_threshold)
    return frontier.scaled(1.0 - sqrt_c)


__all__ = ["build_hub_vectors_reference", "probe", "reverse_hop_vectors"]
