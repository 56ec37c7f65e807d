"""Linearization — Maehara et al.'s single-source method.

The method rests on the same linearized identity ExactSim uses,
S = Σ_ℓ c^ℓ (P^ℓ)ᵀ D P^ℓ, but obtains the diagonal correction matrix D in a
*preprocessing* phase by plain Monte-Carlo: every node simulates
``samples_per_node`` pairs of √c-walks (Algorithm 2 applied uniformly), which
is the O(n·log n/ε²) term that prevents the method from reaching the
exactness regime (§2.2).  Queries then run the same back-substitution as
ExactSim with the precomputed D.

``samples_per_node`` plays the role of the error parameter ε in the paper's
sweeps: the D estimation error scales as 1/sqrt(samples_per_node).

Pair and top-k queries take the entry or the top k of the single-source
vector, as the paper answers top-k (§1).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.baselines.base import (IndexPersistenceError, SimRankAlgorithm,
                                  check_unit_interval, truncation_depth)
from repro.core.result import SingleSourceResult
from repro.diagonal.basic import estimate_diagonal_basic
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.kernels.parallel import parallel_spmm
from repro.randomwalk.engine import SqrtCWalkEngine
from repro.utils.deadline import active_deadline
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer
from repro.utils.validation import (check_node_index, check_positive,
                                    check_positive_int)


class LinearizationSimRank(SimRankAlgorithm):
    """Linearized SimRank with an MC-preprocessed diagonal correction matrix."""

    name = "linearization"
    index_based = True
    #: Both query types are derived from :meth:`single_source`.  A top-k
    #: that deepened the back-substitution until the k-th score gap
    #: certified its set was slower than the full-depth pass on every
    #: measured graph but one (README's routing table).
    native_capabilities = frozenset()

    def __init__(self, graph: DiGraph, *, decay: float = 0.6, epsilon: float = 1e-3,
                 samples_per_node: Optional[int] = None, seed: SeedLike = None,
                 context: Optional[GraphContext] = None):
        super().__init__(graph, decay=decay, context=context)
        self.epsilon = check_positive(epsilon, "epsilon")
        if samples_per_node is None:
            # The paper's setting: O(log n / ε²) pairs per node; the constant is
            # scaled down so sweeps stay tractable on the Python substrate.
            samples_per_node = int(np.ceil(np.log(max(graph.num_nodes, 2)) /
                                           max(self.epsilon, 1e-6) ** 2))
            samples_per_node = min(samples_per_node, 20_000)
        self.samples_per_node = check_positive_int(samples_per_node, "samples_per_node")
        self._seed = seed
        self._on_graph_rebound()
        self._diagonal: Optional[np.ndarray] = None

    def num_iterations(self) -> int:
        return truncation_depth(self.epsilon, self.decay)

    # ------------------------------------------------------------------ #
    # preprocessing: estimate D everywhere
    # ------------------------------------------------------------------ #
    def _build_index(self) -> None:
        allocation = np.full(self.graph.num_nodes, self.samples_per_node, dtype=np.int64)
        self._diagonal = estimate_diagonal_basic(
            self.graph, allocation, decay=self.decay, engine=self._engine)

    def _on_graph_rebound(self) -> None:
        self._engine = SqrtCWalkEngine(self.graph, self.decay, seed=self._seed)
        self._operator = self._operator_for_graph()

    # ------------------------------------------------------------------ #
    # persistence: the index is the estimated diagonal
    # ------------------------------------------------------------------ #
    def _index_payload(self) -> Dict[str, np.ndarray]:
        assert self._diagonal is not None
        return {"diagonal": self._diagonal,
                "samples_per_node": np.int64(self.samples_per_node)}

    def _restore_index(self, payload: Mapping[str, np.ndarray]) -> None:
        diagonal = np.asarray(payload["diagonal"], dtype=np.float64)
        if diagonal.shape != (self.graph.num_nodes,):
            raise IndexPersistenceError("diagonal has incompatible length")
        check_unit_interval(diagonal, "diagonal")
        samples_per_node = check_positive_int(
            np.asarray(payload["samples_per_node"]).item(), "samples_per_node")
        self._diagonal = diagonal
        self.samples_per_node = samples_per_node

    # ------------------------------------------------------------------ #
    # query: same back-substitution as ExactSim, with the global D
    # ------------------------------------------------------------------ #
    def single_source(self, source: int) -> SingleSourceResult:
        return self.single_source_batch([source])[0]

    #: Sources processed per batched-query chunk: the batch keeps
    #: (iterations + 1) dense (num_nodes × chunk) hop planes alive, so the
    #: chunk bounds that working set to a few tens of MB on the large graphs.
    _BATCH_CHUNK = 64

    def single_source_batch(self, sources: Sequence[int]) -> List[SingleSourceResult]:
        """Back-substitute the whole batch with one mat-mat product per level.

        A chunk of B sources shares every ``√c P`` hop and every ``√c Pᵀ``
        back-substitution step as a single sparse-times-dense product over an
        (n, B) matrix; scipy's CSR kernel accumulates each output column in
        the same order as a per-source mat-vec, so a source's scores do not
        depend on which other sources share its batch.
        """
        source_ids = [check_node_index(s, self.graph.num_nodes, "source")
                      for s in sources]
        if not source_ids:
            return []
        self.ensure_prepared()
        assert self._diagonal is not None
        iterations = self.num_iterations()
        sqrt_c = self._operator.sqrt_c
        residual = 1.0 - sqrt_c
        scaled_diagonal = (1.0 / residual) * self._diagonal[:, np.newaxis]
        timer = Timer()
        columns: List[np.ndarray] = []
        bounds = np.zeros(len(source_ids), dtype=np.float64)
        depths = np.full(len(source_ids), iterations, dtype=np.int64)
        with timer:
            deadline = active_deadline()
            for chunk_start in range(0, len(source_ids), self._BATCH_CHUNK):
                chunk = source_ids[chunk_start:chunk_start + self._BATCH_CHUNK]
                planes = np.zeros((self.graph.num_nodes, len(chunk)),
                                  dtype=np.float64)
                planes[chunk, np.arange(len(chunk))] = 1.0
                hops: List[np.ndarray] = []
                depth = iterations
                for level in range(iterations + 1):
                    if deadline is not None and level > 0 and deadline.expired():
                        # Hop building is the truncation point under a
                        # deadline: the back-substitution consumes hops
                        # deepest-first, so its prefix is *not* a valid
                        # partial answer, but running the full substitution
                        # at a shallower depth d is.  Every term of the
                        # linearized sum is non-negative, and the level-m
                        # term (m > d) is entrywise at most max(D)·
                        # ‖walk_{d+1}‖₁·(√c)^{m−d−1}·(√c)^m, so the answer is
                        # low by at most max(D)·‖walk_{d+1}‖₁·(√c)^{d+1}/(1 − c),
                        # taken per source from each column's own surviving
                        # walk mass.  Hop 0 always completes, so the overrun
                        # past an expired deadline is one back-substitution
                        # at the truncated depth.
                        depth = level - 1
                        window = slice(chunk_start, chunk_start + len(chunk))
                        depths[window] = depth
                        bounds[window] = (float(self._diagonal.max())
                                          * planes.sum(axis=0)
                                          * sqrt_c ** (depth + 1)
                                          / (1.0 - self.decay))
                        break
                    hops.append(residual * planes)
                    planes = sqrt_c * parallel_spmm(
                        self._operator.matrix, planes)
                current = scaled_diagonal * hops[depth]
                for level in range(1, depth + 1):
                    current = sqrt_c * parallel_spmm(
                        self._operator.matrix_t, current)
                    current += scaled_diagonal * hops[depth - level]
                np.clip(current, 0.0, 1.0, out=current)
                # S(i, i) = 1 by definition; the linearized sum reaches it
                # only with the exact D.
                current[chunk, np.arange(len(chunk))] = 1.0
                columns.extend(current[:, position].copy()
                               for position in range(len(chunk)))
        share = timer.elapsed / len(source_ids)
        results: List[SingleSourceResult] = []
        for position, (source, scores) in enumerate(zip(source_ids, columns)):
            stats = {"samples_per_node": float(self.samples_per_node),
                     "iterations": float(depths[position]),
                     "index_bytes": float(self.index_bytes())}
            if depths[position] < iterations:
                stats["degraded"] = 1.0
                stats["certified_bound"] = float(bounds[position])
            results.append(SingleSourceResult(
                source=source, scores=scores, algorithm=self.name,
                query_seconds=share,
                preprocessing_seconds=self.preprocessing_seconds,
                stats=stats))
        return results

    def index_bytes(self) -> int:
        return int(self._diagonal.nbytes) if self._diagonal is not None else 0


__all__ = ["LinearizationSimRank"]
