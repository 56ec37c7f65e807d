"""ℓ-hop Personalized PageRank vectors.

The paper (Table 1) defines the ℓ-hop PPR vector of node ``v_i`` as

    π_i^ℓ = (1 − √c) · (√c P)^ℓ · e_i,

i.e. π_i^ℓ(k) is the probability that a √c-walk from ``v_i`` stops at node
``v_k`` after exactly ℓ steps.  ExactSim (Algorithm 1, lines 2-5) iterates
these vectors up to L = ⌈log_{1/c}(2/ε)⌉ and keeps all of them in memory for
the back-substitution of lines 9-12; the *sparse linearization* optimisation
(Lemma 2) truncates entries below (1 − √c)²ε to cap that memory at O(1/ε).

This module provides both the dense and the truncated (sparse) form behind a
single :class:`HopPPR` container so the core algorithm can switch between
them with a flag.  :func:`hop_ppr_batch` is ExactSim's phase 1: every
source of a batch as one dense lane, propagated exactly, with the truncation
applied only to what is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.sparse import sparsify_to_vector
from repro.graph.digraph import DiGraph
from repro.graph.transition import TransitionOperator
from repro.kernels.parallel import dense_lane_levels, lane_rows, pruned_rows
from repro.kernels.sparsevec import SparseVector
from repro.utils.validation import check_node_index, check_positive, check_positive_int


@dataclass
class HopPPR:
    """The ℓ-hop PPR vectors of one source node, for ℓ = 0 … L.

    ``hops[ℓ]`` is a 1-D array (dense mode) or an array-backed
    :class:`~repro.kernels.SparseVector` (sparse mode) of length ``n``.
    ``total`` is π_i = Σ_ℓ π_i^ℓ as a dense array, which Algorithm 1 needs
    for the sample allocation.
    """

    source: int
    decay: float
    num_hops: int
    hops: List[object]
    total: np.ndarray
    truncated: bool = False
    truncation_threshold: float = 0.0

    def hop_dense(self, level: int) -> np.ndarray:
        """Hop ``level`` as a dense array regardless of storage mode."""
        if level < 0 or level > self.num_hops:
            raise ValueError(f"hop level {level} outside 0..{self.num_hops}")
        vector = self.hops[level]
        if isinstance(vector, np.ndarray):
            return vector
        return vector.to_dense(self.total.shape[0])

    @property
    def squared_norm(self) -> float:
        """‖π_i‖² = Σ_k π_i(k)² — the variance-reduction factor of Lemma 3."""
        return float(np.dot(self.total, self.total))

    def nonzero_entries(self) -> int:
        """Total number of stored entries across all hop vectors."""
        count = 0
        for vector in self.hops:
            if isinstance(vector, np.ndarray):
                count += int(np.count_nonzero(vector))
            else:
                count += vector.nnz
        return count

    def memory_bytes(self) -> int:
        """Bytes used by the stored hop vectors (dense counts full arrays)."""
        total = int(self.total.nbytes)
        for vector in self.hops:
            if isinstance(vector, np.ndarray):
                total += int(vector.nbytes)
            else:
                total += vector.memory_bytes()
        return total


def hop_ppr_vectors(graph: DiGraph, source: int, num_hops: int, *, decay: float = 0.6,
                    truncation_threshold: Optional[float] = None,
                    operator: Optional[TransitionOperator] = None) -> HopPPR:
    """Compute π_source^ℓ for ℓ = 0 … ``num_hops``.

    Parameters
    ----------
    truncation_threshold:
        If given, entries of each hop vector strictly below the threshold are
        dropped and the vectors are stored sparsely (Lemma 2's sparse
        linearization uses (1 − √c)²ε).  ``None`` keeps dense vectors.
    operator:
        Optional pre-built :class:`TransitionOperator` so repeated calls share
        the cached transition matrix.
    """
    source = check_node_index(source, graph.num_nodes, "source")
    num_hops = check_positive_int(num_hops, "num_hops", minimum=0)
    if truncation_threshold is not None:
        check_positive(truncation_threshold, "truncation_threshold")

    ops = operator if operator is not None else TransitionOperator(graph, decay)
    sqrt_c = ops.sqrt_c
    residual_factor = 1.0 - sqrt_c

    current = np.zeros(graph.num_nodes, dtype=np.float64)
    current[source] = 1.0

    hops: List[object] = []
    total = np.zeros(graph.num_nodes, dtype=np.float64)
    for _ in range(num_hops + 1):
        hop_vector = residual_factor * current
        total += hop_vector
        if truncation_threshold is None:
            hops.append(hop_vector)
        else:
            hops.append(sparsify_to_vector(hop_vector, truncation_threshold))
        current = ops.decayed_backward(current)

    return HopPPR(source=source, decay=decay, num_hops=num_hops, hops=hops, total=total,
                  truncated=truncation_threshold is not None,
                  truncation_threshold=truncation_threshold or 0.0)


def hop_ppr_batch(operator: TransitionOperator, sources: Sequence[int],
                  num_hops: int, threshold: Optional[float]) -> List[HopPPR]:
    """:func:`hop_ppr_vectors` for every source at once, bit for bit.

    Each source is one unit lane of
    :func:`~repro.kernels.parallel.dense_lane_levels`, advanced by one
    ``√c·P @ X`` product per level; scipy's CSR-times-dense product
    accumulates each column in the mat-vec's order, so lane ``b`` reproduces
    ``hop_ppr_vectors(..., truncation_threshold=threshold)`` for
    ``sources[b]`` exactly.  Propagation is exact: ``threshold`` (Lemma 2's,
    or ``None`` for dense hops) decides only which entries each stored hop
    keeps, never what the next level receives.  A level's hops are the rows
    of one (lanes × n) copy (:func:`~repro.kernels.parallel.lane_rows`), and
    the sparse ones are cut from it by the pruning rule of the SLING and
    PRSim builds (:func:`~repro.kernels.parallel.pruned_rows`).
    """
    num_hops = check_positive_int(num_hops, "num_hops", minimum=0)
    if threshold is not None:
        check_positive(threshold, "threshold")
    num_nodes = operator.graph.num_nodes
    starts = np.array([check_node_index(s, num_nodes, "source") for s in sources],
                      dtype=np.int64)
    residual_factor = 1.0 - operator.sqrt_c
    hops: List[List[object]] = [[] for _ in range(starts.shape[0])]
    totals = np.zeros((starts.shape[0], num_nodes), dtype=np.float64)
    for first, _, state in dense_lane_levels(operator.matrix, starts, num_hops,
                                             operator.sqrt_c):
        rows = lane_rows(state, residual_factor)                 # (lanes, n)
        totals[first:first + rows.shape[0]] += rows
        if threshold is None:
            for b, row in enumerate(rows, first):
                hops[b].append(row)
            continue
        level = pruned_rows(rows, threshold)
        for b, (lo, hi) in enumerate(zip(level.indptr[:-1], level.indptr[1:]), first):
            hops[b].append(SparseVector(level.indices[lo:hi], level.data[lo:hi]))

    return [HopPPR(source=int(source), decay=operator.decay, num_hops=num_hops,
                   hops=hops[b], total=totals[b],
                   truncated=threshold is not None,
                   truncation_threshold=threshold or 0.0)
            for b, source in enumerate(starts)]


__all__ = ["HopPPR", "hop_ppr_batch", "hop_ppr_vectors"]
