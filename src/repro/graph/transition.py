"""(Reverse) transition matrix and the matrix-vector operators ExactSim needs.

The paper (Table 1 and §2) works with the *reverse* transition matrix ``P``:

    P(i, j) = 1 / d_in(v_j)   if v_i ∈ I(v_j),     0 otherwise.

``P @ e_i`` therefore spreads probability mass from node ``i`` uniformly over
its in-neighbours — exactly one step of a √c-walk (before applying the √c
survival factor).  The transpose ``Pᵀ`` pushes mass forward again and is the
operator applied in the back-substitution of Algorithm 1 (lines 9-12).

Nodes with no in-neighbour yield an all-zero column: walk mass starting there
simply dies, matching the behaviour of a √c-walk that stops when it cannot
move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from repro.graph.digraph import DiGraph


def reverse_transition_matrix(graph: DiGraph, dtype=np.float64) -> sparse.csr_matrix:
    """Build the sparse reverse transition matrix ``P`` of ``graph``.

    Column ``j`` holds ``1 / d_in(j)`` at the rows of ``j``'s in-neighbours.
    The result is returned in CSR format so both ``P @ x`` and ``P.T @ x``
    are efficient.
    """
    num_nodes = graph.num_nodes
    in_degrees = graph.in_degrees
    # Entry list: for each node j and each in-neighbour i of j, P[i, j] = 1/din(j).
    cols = np.repeat(np.arange(num_nodes, dtype=np.int64), in_degrees)
    rows = graph.in_indices
    with np.errstate(divide="ignore"):
        inv_deg = np.where(in_degrees > 0, 1.0 / np.maximum(in_degrees, 1), 0.0)
    data = np.repeat(inv_deg, in_degrees).astype(dtype, copy=False)
    matrix = sparse.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes), dtype=dtype)
    matrix.sum_duplicates()
    return matrix


@dataclass
class TransitionOperator:
    """Cached access to ``P``, ``Pᵀ`` and their √c-scaled products.

    ExactSim and every baseline repeatedly compute ``√c · P @ x`` (one hop of
    the ℓ-hop PPR recursion) and ``√c · Pᵀ @ x`` (one hop of the linearized
    back-substitution).  This wrapper keeps both CSR matrices alive so the
    per-iteration cost is a single sparse mat-vec.
    """

    graph: DiGraph
    decay: float = 0.6
    _forward: Optional[sparse.csr_matrix] = None
    _backward: Optional[sparse.csr_matrix] = None
    _adjacency: Optional[sparse.csr_matrix] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay factor c must lie in (0, 1), got {self.decay}")

    @property
    def sqrt_c(self) -> float:
        """√c — the per-step survival probability of a √c-walk."""
        return float(np.sqrt(self.decay))

    @property
    def matrix(self) -> sparse.csr_matrix:
        """The reverse transition matrix ``P`` (built lazily, cached)."""
        if self._forward is None:
            self._forward = reverse_transition_matrix(self.graph)
        return self._forward

    @property
    def matrix_t(self) -> sparse.csr_matrix:
        """``Pᵀ`` in CSR form (cached separately so mat-vecs stay row-major)."""
        if self._backward is None:
            self._backward = self.matrix.T.tocsr()
        return self._backward

    @property
    def in_adjacency(self) -> sparse.csr_matrix:
        """The unweighted in-adjacency: row ``j`` holds a 1 per edge
        ``k → j``, in the graph's ascending in-CSR order (built lazily,
        cached).  The probe kernel's dense steps multiply by it."""
        if self._adjacency is None:
            num_nodes = self.graph.num_nodes
            self._adjacency = sparse.csr_matrix(
                (np.ones(self.graph.in_indices.shape[0], dtype=np.float64),
                 self.graph.in_indices, self.graph.in_indptr),
                shape=(num_nodes, num_nodes))
        return self._adjacency

    # ------------------------------------------------------------------ #
    # operators
    # ------------------------------------------------------------------ #
    def step_backward(self, vector: np.ndarray) -> np.ndarray:
        """One reverse-walk hop: ``P @ vector`` (no decay applied)."""
        return self.matrix @ vector

    def step_forward(self, vector: np.ndarray) -> np.ndarray:
        """One forward hop: ``Pᵀ @ vector`` (no decay applied)."""
        return self.matrix_t @ vector

    def decayed_backward(self, vector: np.ndarray) -> np.ndarray:
        """``√c · P @ vector`` — the hop used by the ℓ-hop PPR recursion."""
        return self.sqrt_c * (self.matrix @ vector)

    def decayed_forward(self, vector: np.ndarray) -> np.ndarray:
        """``√c · Pᵀ @ vector`` — the hop used by the linearized back-substitution."""
        return self.sqrt_c * (self.matrix_t @ vector)

    def memory_bytes(self) -> int:
        total = 0
        for matrix in (self._forward, self._backward, self._adjacency):
            if matrix is not None:
                total += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        return int(total)


__all__ = ["reverse_transition_matrix", "TransitionOperator"]
