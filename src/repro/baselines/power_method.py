"""PowerMethod — the classic O(n²) exact all-pairs SimRank algorithm.

Jeh & Widom's iteration in the matrix form used by the paper (§2.1):

    S_{t+1} = (c · Pᵀ · S_t · P) ∨ I,        S_0 = I,

where ``∨`` is the element-wise maximum (equivalently: compute the product
and overwrite the diagonal with 1).  After L iterations the additive error is
at most c^L, so L = ⌈log_{1/c}(1/ε)⌉ iterations reach any target precision.

This is the ground-truth oracle for the small graphs of Figures 1-4 and for
the entire unit-test suite; its O(n²) memory restricts it to graphs with a
few thousand nodes, which is precisely the limitation that motivates
ExactSim.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.baselines.base import QUERY_SINGLE_PAIR, IndexPersistenceError, SimRankAlgorithm
from repro.core.result import SinglePairResult, SingleSourceResult
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.graph.transition import TransitionOperator
from repro.utils.timing import Timer
from repro.utils.validation import check_node_index, check_positive


def simrank_matrix(graph: DiGraph, *, decay: float = 0.6, tolerance: float = 1e-10,
                   max_iterations: int = 100,
                   operator: Optional[TransitionOperator] = None) -> np.ndarray:
    """The exact SimRank matrix of ``graph`` by the power method.

    Iterates until the worst-case remaining error c^t drops below
    ``tolerance`` (or ``max_iterations`` is hit).  Memory is O(n²), about
    three n × n float64 arrays at the peak; intended for ground-truth
    computation on small graphs only.
    """
    check_positive(tolerance, "tolerance")
    num_nodes = graph.num_nodes
    if num_nodes == 0:
        return np.zeros((0, 0), dtype=np.float64)

    if operator is None:
        operator = TransitionOperator(graph, decay)
    transition = operator.matrix          # P (sparse)
    similarity = np.eye(num_nodes, dtype=np.float64)
    iterations = min(max_iterations,
                     int(np.ceil(np.log(1.0 / tolerance) / np.log(1.0 / decay))) + 1)
    for _ in range(iterations):
        # S <- c * Pᵀ S P, computed as two sparse-dense products.  The old S
        # is released before the second product and the scale is applied in
        # place, so no product runs beside an extra n² array.
        right = similarity @ transition
        del similarity
        similarity = np.asarray(transition.T @ right)
        del right
        similarity *= decay
        np.fill_diagonal(similarity, 1.0)
    return similarity


class PowerMethod(SimRankAlgorithm):
    """All-pairs SimRank oracle; single-source queries read one matrix column."""

    name = "power-method"
    index_based = True
    #: A pair query is one matrix cell read (no row copy; see :meth:`pair`).
    native_capabilities = frozenset({QUERY_SINGLE_PAIR})

    def __init__(self, graph: DiGraph, *, decay: float = 0.6, tolerance: float = 1e-10,
                 max_iterations: int = 100, context: Optional[GraphContext] = None):
        super().__init__(graph, decay=decay, context=context)
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self._matrix: Optional[np.ndarray] = None

    def _build_index(self) -> None:
        self._matrix = simrank_matrix(self.graph, decay=self.decay,
                                      tolerance=self.tolerance,
                                      max_iterations=self.max_iterations,
                                      operator=self._operator_for_graph())

    # ------------------------------------------------------------------ #
    # persistence: the index is the full SimRank matrix
    # ------------------------------------------------------------------ #
    def _index_payload(self) -> Dict[str, np.ndarray]:
        assert self._matrix is not None
        return {"matrix": self._matrix}

    def _restore_index(self, payload: Mapping[str, np.ndarray]) -> None:
        matrix = np.asarray(payload["matrix"], dtype=np.float64)
        expected = (self.graph.num_nodes, self.graph.num_nodes)
        if matrix.shape != expected:
            raise IndexPersistenceError("similarity matrix has incompatible shape")
        self._matrix = matrix

    @property
    def matrix(self) -> np.ndarray:
        """The full SimRank matrix (preprocessing runs on first access)."""
        if self._matrix is None:
            self.preprocess()
        assert self._matrix is not None
        return self._matrix

    def single_source(self, source: int) -> SingleSourceResult:
        source = check_node_index(source, self.graph.num_nodes, "source")
        timer = Timer()
        with timer:
            scores = self.matrix[source].copy()
        return SingleSourceResult(source=source, scores=scores, algorithm=self.name,
                                  query_seconds=timer.elapsed,
                                  preprocessing_seconds=self.preprocessing_seconds,
                                  stats={"index_bytes": float(self.index_bytes())})

    def pair(self, node_a: int, node_b: int) -> float:
        """S(a, b) directly from the matrix."""
        node_a = check_node_index(node_a, self.graph.num_nodes, "node_a")
        node_b = check_node_index(node_b, self.graph.num_nodes, "node_b")
        return float(self.matrix[node_a, node_b])

    def single_pair(self, source: int, target: int) -> SinglePairResult:
        """Typed single-pair answer: one cell of the precomputed matrix."""
        self.ensure_prepared()
        timer = Timer()
        with timer:
            score = self.pair(source, target)
        return SinglePairResult(source=source, target=int(target), score=score,
                                algorithm=self.name, query_seconds=timer.elapsed,
                                preprocessing_seconds=self.preprocessing_seconds,
                                stats={"native_single_pair": 1.0})

    def index_bytes(self) -> int:
        return int(self._matrix.nbytes) if self._matrix is not None else 0


__all__ = ["PowerMethod", "simrank_matrix"]
