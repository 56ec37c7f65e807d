"""Sequential reverse walks and flat-COO query paths of PRSim and ProbeSim —
the executable specs.

PRSim builds its hub index with one dense ``Pᵀ``-times-dense product per
level for all hubs at once (:meth:`repro.baselines.prsim.PRSim.
_build_hub_vectors`) and reads it as one ``G_ℓᵀ @ w_ℓ`` product per level;
both methods push the probes of every candidate node of a level through
:func:`repro.kernels.frontier.accumulate_probes`, which switches from COO
steps to dense lanes once a batch fills.  The functions here keep what those
paths replaced:

* one frontier walk per hub (:func:`build_hub_vectors_reference`) and one
  probe per node (:func:`probe`);
* the query paths that read the hub index as flat COO triplets with one
  weighted ``np.bincount`` and run every probe batch as COO steps
  (:func:`coo_probe_batch`, :func:`prsim_single_source_reference`,
  :func:`probesim_single_source_reference`).

They take the algorithm instance whose operator, graph, index and
thresholds they read.  ``tests/test_multiprop.py``, ``tests/test_kernels.py``
and ``tests/test_baselines.py`` pin the batched paths against them, and
``benchmarks/bench_index.py`` times the hub build against them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy import sparse

from repro.baselines.prsim import PRSim
from repro.baselines.probesim import ProbeSim
from repro.graph.transition import TransitionOperator
from repro.kernels.frontier import propagate_batch_transpose
from repro.kernels.sparsevec import SparseVector
from repro.ppr.hop_ppr import hop_ppr_vectors
from specs.frontier import propagate_transpose

#: The flat hub index, PRSim's file layout: (positions, levels, columns,
#: values) sorted by (position, level, column).  ``positions`` indexes into
#: the hub array.
HubIndex = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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


def flat_hub_index(prsim: PRSim) -> HubIndex:
    """The prepared instance's hub index in its flat file layout."""
    payload = prsim._index_payload()
    return (payload["hub_positions"], payload["hub_levels"],
            payload["hub_cols"], payload["hub_vals"])


def coo_probe_batch(operator: TransitionOperator, scores: np.ndarray,
                    nodes: np.ndarray, weights: np.ndarray, steps: int,
                    threshold: float) -> None:
    """Add ``Σ_b weights[b]·(prune ∘ √c Pᵀ)^steps e_{nodes[b]}`` to ``scores``
    with COO steps only: the probe loop both methods ran before the dense
    switch (no pruning when ``threshold <= 0``)."""
    if nodes.size == 0:
        return
    sqrt_c = operator.sqrt_c
    graph = operator.graph
    num_nodes = graph.num_nodes
    rows = np.arange(nodes.shape[0], dtype=np.int64)
    cols = nodes.astype(np.int64, copy=False)
    vals = np.ones(nodes.shape[0], dtype=np.float64)
    for _ in range(steps):
        if rows.size == 0:
            return
        rows, cols, vals, _ = propagate_batch_transpose(
            graph.out_indptr, graph.out_indices, graph.in_degrees,
            rows, cols, vals, num_nodes=num_nodes)
        vals *= sqrt_c
        if threshold > 0.0:
            keep = vals >= threshold
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
    scores += np.bincount(cols, weights=vals * weights[rows],
                          minlength=num_nodes)


def _prsim_probe_level(prsim: PRSim, scores: np.ndarray, level: int,
                       hop_vector: np.ndarray, is_hub: np.ndarray) -> None:
    residual = 1.0 - prsim._operator.sqrt_c
    threshold = residual * prsim.epsilon
    candidates = np.flatnonzero((hop_vector > threshold) & ~is_hub)
    scale = 1.0 / residual ** 2
    weights = (scale * residual * prsim._diagonal[candidates]
               * hop_vector[candidates])
    coo_probe_batch(prsim._operator, scores, candidates, weights, level,
                    threshold)


def prsim_single_source_reference(prsim: PRSim, source: int) -> np.ndarray:
    """PRSim's single-source scores: the whole hub contribution as one
    weighted ``np.bincount`` over the flat index, then each level's COO
    probe batch."""
    prsim.ensure_prepared()
    num_nodes = prsim.graph.num_nodes
    iterations = prsim.num_iterations()
    hop_ppr = hop_ppr_vectors(prsim.graph, source, iterations,
                              decay=prsim.decay, operator=prsim._operator)
    scale = 1.0 / (1.0 - prsim._operator.sqrt_c) ** 2
    hubs = prsim._hubs
    scores = np.zeros(num_nodes, dtype=np.float64)
    is_hub = np.zeros(num_nodes, dtype=bool)
    is_hub[hubs] = True
    positions, levels, cols, vals = flat_hub_index(prsim)
    if cols.size:
        hub_mass = np.empty((hubs.shape[0], iterations + 1), dtype=np.float64)
        for level in range(iterations + 1):
            hub_mass[:, level] = hop_ppr.hop_dense(level)[hubs]
        entry_weights = (scale * prsim._diagonal[hubs])[positions] \
            * hub_mass[positions, levels]
        scores += np.bincount(cols, weights=vals * entry_weights,
                              minlength=num_nodes)
    for level in range(iterations + 1):
        _prsim_probe_level(prsim, scores, level, hop_ppr.hop_dense(level),
                           is_hub)
    np.clip(scores, 0.0, 1.0, out=scores)
    scores[source] = 1.0
    return scores


def probesim_single_source_reference(probesim: ProbeSim,
                                     source: int) -> np.ndarray:
    """ProbeSim's single-source scores with every step's probes as COO
    steps.  Draws the source walks from the instance's engine, so compare it
    with a second instance built at the same seed."""
    levels = probesim._engine.visit_count_steps(
        np.array([source], dtype=np.int64),
        np.array([probesim.num_walks], dtype=np.int64),
        max_steps=probesim.max_steps)
    scores = np.zeros(probesim.graph.num_nodes, dtype=np.float64)
    sqrt_c = probesim._operator.sqrt_c
    scale = 1.0 / ((1.0 - sqrt_c) * probesim.num_walks)
    for step, (meeting_nodes, counts) in enumerate(levels):
        weights = (scale * (1.0 - sqrt_c) * counts
                   * probesim._diagonal[meeting_nodes])
        coo_probe_batch(probesim._operator, scores, meeting_nodes, weights,
                        step, probesim.probe_threshold)
    np.clip(scores, 0.0, 1.0, out=scores)
    scores[source] = 1.0
    return scores


__all__ = ["HubIndex", "build_hub_vectors_reference", "coo_probe_batch",
           "flat_hub_index", "probe", "prsim_single_source_reference",
           "probesim_single_source_reference",
           "reverse_hop_vectors"]
