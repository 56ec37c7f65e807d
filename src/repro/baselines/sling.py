"""SLING — an index-based single-source SimRank baseline (Tian & Xiao).

SLING (related work, §2.1) precomputes two ingredients at indexing time:

1. an ε-approximation of every diagonal correction entry D(k, k) via
   Monte-Carlo walk pairs (the O(n·log n/ε²) preprocessing term the paper
   criticises), and
2. truncated *reverse* hop-PPR vectors for every node — the probabilities
   h_j^ℓ(k) that a √c-walk from j is at k after ℓ steps — stored sparsely.

At query time S(i, j) is assembled from the stored vectors through the same
ℓ-hop identity ExactSim uses, so queries are fast but the index is large:
this reproduces SLING's position in the index-size/accuracy trade-off
(large index, fast queries, preprocessing far too expensive for exactness).

The implementation shares the library's substrates; the ``epsilon`` knob
controls the truncation threshold and the per-node D samples, as in the
original system.  With every node a source and no per-step truncation the
reverse hop-probability propagation is dense within a few levels (GQ's
running matrix holds all n² entries from level 6 on), so it runs on the
dense-lane kernel PRSim's hub build shares
(:func:`repro.kernels.parallel.pruned_lane_levels`): every node is a unit
lane of a (num_nodes × lanes) state advanced by one ``P``-times-dense
product per level, in chunks of at most 64 MB.  It builds in a third of
the time of a scipy sparse × sparse product on GQ and a quarter on DB;
that product is the executable spec in ``tests/specs/hop_matrices.py``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.baselines.base import (
    QUERY_SINGLE_PAIR,
    QUERY_TOP_K,
    IndexPersistenceError,
    SimRankAlgorithm,
    check_unit_interval,
    truncation_depth,
)
from repro.core.result import (
    SinglePairResult,
    SingleSourceResult,
    TopKResult,
    top_k_set_certified,
)
from repro.diagonal.basic import estimate_diagonal_basic
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.kernels.parallel import parallel_spmm, pruned_lane_levels
from repro.randomwalk.engine import SqrtCWalkEngine
from repro.utils.deadline import active_deadline
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer
from repro.utils.validation import (check_node_index, check_positive,
                                    check_positive_int)


class SLING(SimRankAlgorithm):
    """Index-based SimRank with precomputed reverse hop-probability vectors."""

    name = "sling"
    index_based = True
    #: Pairs intersect the two nodes' stored rows of every level in one
    #: sorted pass (no mat-vec at all); top-k stops accumulating levels once
    #: the k-th score gap exceeds the remaining c^ℓ tail (see
    #: :meth:`single_pair` / :meth:`top_k`).
    native_capabilities = frozenset({QUERY_SINGLE_PAIR, QUERY_TOP_K})

    def __init__(self, graph: DiGraph, *, decay: float = 0.6, epsilon: float = 1e-2,
                 samples_per_node: Optional[int] = None, seed: SeedLike = None,
                 context: Optional[GraphContext] = None):
        super().__init__(graph, decay=decay, context=context)
        self.epsilon = check_positive(epsilon, "epsilon")
        if samples_per_node is None:
            samples_per_node = min(int(np.ceil(1.0 / max(self.epsilon, 1e-6))), 10_000)
        self.samples_per_node = check_positive_int(samples_per_node, "samples_per_node")
        self._seed = seed
        self._diagonal: Optional[np.ndarray] = None
        # _hop_matrices[ℓ] is a CSR matrix H_ℓ with H_ℓ[k, j] ≈ (√c Pᵀ)^ℓ[k, j],
        # i.e. row k holds the level-ℓ reverse hop probabilities of node k.
        self._hop_matrices: List[sparse.csr_matrix] = []
        # Per-level column maxima (query-time tail bounds) and the
        # (n + 1) × L table of every level's row starts (pair gathers);
        # rebuilt lazily whenever the hop matrices change.
        self._colmax: Optional[List[np.ndarray]] = None
        self._row_starts: Optional[np.ndarray] = None
        self._on_graph_rebound()

    def num_iterations(self) -> int:
        return truncation_depth(self.epsilon, self.decay)

    # ------------------------------------------------------------------ #
    # preprocessing
    # ------------------------------------------------------------------ #
    def _build_index(self) -> None:
        allocation = np.full(self.graph.num_nodes, self.samples_per_node, dtype=np.int64)
        self._diagonal = estimate_diagonal_basic(
            self.graph, allocation, decay=self.decay, engine=self._engine)

        # Row k of H_ℓ is (√c P)^ℓ e_k, so every node is a unit lane of the
        # shared dense kernel.
        self._hop_matrices = pruned_lane_levels(
            self._operator.matrix, np.arange(self.graph.num_nodes),
            self.num_iterations(), self._operator.sqrt_c,
            (1.0 - self._operator.sqrt_c) * self.epsilon)
        self._colmax = None
        self._row_starts = None

    def _on_graph_rebound(self) -> None:
        self._engine = SqrtCWalkEngine(self.graph, self.decay, seed=self._seed)
        self._operator = self._operator_for_graph()
        self._colmax = None
        self._row_starts = None

    # ------------------------------------------------------------------ #
    # persistence: diagonal + one CSR triple per hop level
    # ------------------------------------------------------------------ #
    def _index_payload(self) -> Dict[str, np.ndarray]:
        assert self._diagonal is not None
        payload: Dict[str, np.ndarray] = {
            "diagonal": self._diagonal,
            "epsilon": np.float64(self.epsilon),
            "samples_per_node": np.int64(self.samples_per_node),
            "num_levels": np.int64(len(self._hop_matrices)),
        }
        for level, matrix in enumerate(self._hop_matrices):
            payload[f"hop{level}_data"] = matrix.data
            payload[f"hop{level}_indices"] = matrix.indices
            payload[f"hop{level}_indptr"] = matrix.indptr
        return payload

    def _restore_index(self, payload: Mapping[str, np.ndarray]) -> None:
        diagonal = np.asarray(payload["diagonal"], dtype=np.float64)
        num_nodes = self.graph.num_nodes
        if diagonal.shape != (num_nodes,):
            raise IndexPersistenceError("diagonal has incompatible length")
        check_unit_interval(diagonal, "diagonal")
        # ε drives the query-time iteration count, so the build's value is
        # adopted, but only once the whole payload has passed: a refused
        # file leaves this instance's config as it was.
        epsilon = check_positive(payload["epsilon"], "epsilon")
        samples_per_node = check_positive_int(
            np.asarray(payload["samples_per_node"]).item(), "samples_per_node")
        num_levels = int(payload["num_levels"])
        expected = max(truncation_depth(epsilon, self.decay) + 1, 0)
        if num_levels != expected:
            raise IndexPersistenceError(
                f"index holds {num_levels} hop levels; ε = {epsilon} "
                f"builds {expected}")
        matrices: List[sparse.csr_matrix] = []
        for level in range(num_levels):
            matrix = sparse.csr_matrix(
                (payload[f"hop{level}_data"], payload[f"hop{level}_indices"],
                 payload[f"hop{level}_indptr"]),
                shape=(num_nodes, num_nodes))
            # Column indices in [0, n) and a non-decreasing indptr: numpy
            # would wrap a negative index and serve a wrong score.  A
            # ValueError here reaches the caller as IndexPersistenceError.
            matrix.check_format(full_check=True)
            # single_pair's sorted-key intersection needs every row's
            # columns strictly ascending, as the build stores them.
            if not matrix.has_canonical_format:
                raise IndexPersistenceError(
                    f"hop level {level} holds an unsorted or repeated column")
            check_unit_interval(matrix.data, f"hop level {level}")
            matrices.append(matrix)
        self.epsilon = epsilon
        self.samples_per_node = samples_per_node
        self._diagonal = diagonal
        self._hop_matrices = matrices
        self._colmax = None
        self._row_starts = None

    # ------------------------------------------------------------------ #
    # query
    # ------------------------------------------------------------------ #
    def single_source(self, source: int) -> SingleSourceResult:
        return self.single_source_batch([source])[0]

    def single_pair(self, source: int, target: int) -> SinglePairResult:
        """S(source, target) from the stored index: one sorted intersection.

        The identity S(i, j) = Σ_ℓ Σ_k H_ℓ[i, k]·D(k, k)·H_ℓ[j, k] touches
        only the two nodes' stored rows — no ``H_ℓ @ v`` product over the
        whole graph.  Keyed ℓ·n + k, a node's rows of all levels form one
        ascending list (levels ascend, and every stored row's columns ascend
        strictly), so one binary-search pass finds the shared (level,
        column) keys of every level at once.
        """
        source = check_node_index(source, self.graph.num_nodes, "source")
        target = check_node_index(target, self.graph.num_nodes, "target")
        self.ensure_prepared()
        assert self._diagonal is not None
        timer = Timer()
        with timer:
            score = 1.0 if source == target else 0.0
            if source != target and self._hop_matrices:
                keys_i, values_i = self._keyed_row(source)
                keys_j, values_j = self._keyed_row(target)
                if keys_i.size > keys_j.size:
                    keys_i, values_i, keys_j, values_j = (
                        keys_j, values_j, keys_i, values_i)
                if keys_i.size:
                    # Search the shorter list in the longer; a key past the
                    # end is pointed at the last key, which it cannot equal.
                    at = np.minimum(np.searchsorted(keys_j, keys_i),
                                    keys_j.size - 1)
                    shared = keys_j[at] == keys_i
                    columns = keys_i[shared] % self.graph.num_nodes
                    score = float(np.clip(np.dot(
                        values_i[shared] * self._diagonal[columns],
                        values_j[at[shared]]), 0.0, 1.0))
        return SinglePairResult(source=source, target=target, score=score,
                                algorithm=self.name, query_seconds=timer.elapsed,
                                preprocessing_seconds=self.preprocessing_seconds,
                                stats={"native_single_pair": 1.0,
                                       "epsilon": self.epsilon})

    def _keyed_row(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """The node's stored rows of every level as one list keyed ℓ·n + k.

        Returns the ascending keys and the values H_ℓ[node, k] beside them.
        The (n + 1) × L table of row starts bounds the row on every level
        from one lookup; it is stacked from the levels' ``indptr`` arrays
        once per index.
        """
        if self._row_starts is None:
            starts = np.empty((self.graph.num_nodes + 1, len(self._hop_matrices)),
                              dtype=np.int64)
            for level, matrix in enumerate(self._hop_matrices):
                starts[:, level] = matrix.indptr
            self._row_starts = starts
        lows, highs = self._row_starts[node], self._row_starts[node + 1]
        rows = list(zip(self._hop_matrices, lows.tolist(), highs.tolist()))
        columns = np.concatenate([matrix.indices[low:high]
                                  for matrix, low, high in rows])
        values = np.concatenate([matrix.data[low:high]
                                 for matrix, low, high in rows])
        keys = np.repeat(np.arange(len(rows), dtype=np.int64)
                         * self.graph.num_nodes, highs - lows)
        keys += columns
        return keys, values

    def _level_column_maxima(self) -> List[np.ndarray]:
        """Per-level column maxima of the hop matrices (cached per index).

        ``colmax[ℓ][k] = max_j H_ℓ[j, k]`` bounds how much *any* node's
        score can gain from meeting mass at k on level ℓ; one O(nnz) pass
        per index build serves every subsequent top-k query's tail bounds.
        """
        if self._colmax is None or len(self._colmax) != len(self._hop_matrices):
            colmax: List[np.ndarray] = []
            for matrix in self._hop_matrices:
                level_max = np.zeros(self.graph.num_nodes, dtype=np.float64)
                if matrix.nnz:
                    np.maximum.at(level_max, matrix.indices, matrix.data)
                colmax.append(level_max)
            self._colmax = colmax
        return self._colmax

    def top_k(self, source: int, k: int = 500) -> TopKResult:
        """Top-k with per-level early stopping under an exact suffix tail.

        The single-source accumulation adds one non-negative level term at
        a time, and the level-m term is entrywise at most
        T_m = Σ_k H_m[source, k]·D(k)·colmax_m(k) — computable for *all*
        remaining levels up front from the stored source rows and the
        cached per-level column maxima (within ~2× of the true maximum in
        practice, orders sharper than the a-priori c^m bound).  The loop
        stops as soon as the current k-th best score leads the (k+1)-th by
        the remaining Σ T_m: the final top-k *set* can no longer change,
        and the scores carry at most that (certified-small) truncation on
        top of the method's ε error.
        """
        source = check_node_index(source, self.graph.num_nodes, "source")
        self.ensure_prepared()
        assert self._diagonal is not None
        timer = Timer()
        num_levels = len(self._hop_matrices)
        levels_used = num_levels
        set_certified = False
        degraded = False
        with timer:
            deadline = active_deadline()
            colmax = self._level_column_maxima()
            term_bounds = np.empty(num_levels, dtype=np.float64)
            for level, hop_matrix in enumerate(self._hop_matrices):
                start, stop = hop_matrix.indptr[source], hop_matrix.indptr[source + 1]
                cols = hop_matrix.indices[start:stop]
                term_bounds[level] = float(np.sum(
                    hop_matrix.data[start:stop] * self._diagonal[cols]
                    * colmax[level][cols]))
            # tails[ℓ] = Σ_{m ≥ ℓ} T_m: the most the levels from ℓ on can add.
            tails = np.concatenate([np.cumsum(term_bounds[::-1])[::-1], [0.0]])

            scores = np.zeros(self.graph.num_nodes, dtype=np.float64)
            for level, hop_matrix in enumerate(self._hop_matrices):
                if deadline is not None and level > 0 and deadline.expired():
                    # Degraded stop: the accumulated prefix is a certified
                    # under-estimate; tails[level] bounds the entrywise error.
                    levels_used = level
                    degraded = True
                    break
                start, stop = hop_matrix.indptr[source], hop_matrix.indptr[source + 1]
                if start != stop:
                    source_cols = hop_matrix.indices[start:stop]
                    weighted = np.zeros(self.graph.num_nodes, dtype=np.float64)
                    weighted[source_cols] = (hop_matrix.data[start:stop] *
                                             self._diagonal[source_cols])
                    scores += hop_matrix @ weighted
                if level + 1 < num_levels and tails[level + 1] < 1.0 \
                        and top_k_set_certified(
                            scores, k, float(tails[level + 1]), exclude=source):
                    levels_used = level + 1
                    set_certified = True
                    break
            np.clip(scores, 0.0, 1.0, out=scores)
            scores[source] = 1.0
            answer = SingleSourceResult(source=source, scores=scores,
                                        algorithm=self.name).top_k(k)
        answer.query_seconds = timer.elapsed
        answer.stats = {"native_top_k": 1.0, "levels_used": float(levels_used),
                        "levels_total": float(num_levels),
                        "certified": float(set_certified)}
        if degraded:
            answer.stats["degraded"] = 1.0
            answer.stats["certified_bound"] = float(tails[levels_used])
        return answer

    #: Sources processed per batched-query chunk: bounds the dense
    #: (num_nodes × chunk) work matrices to a few MB on the large graphs.
    _BATCH_CHUNK = 256

    def single_source_batch(self, sources: Sequence[int]) -> List[SingleSourceResult]:
        """Answer the whole batch with one sparse-times-dense product per level.

        With H_ℓ = (√c Pᵀ)^ℓ the identity (7) reduces to
        S(i, j) = Σ_ℓ Σ_k H_ℓ[i, k] · D(k, k) · H_ℓ[j, k]: the (1 − √c)
        factors of the two π^ℓ vectors cancel the 1/(1 − √c)².  For a chunk
        of B sources, level ℓ contributes ``H_ℓ @ W`` where column b of the
        (n, B) matrix ``W`` is the stored row H_ℓ[source_b] weighted by D;
        scipy's CSR-times-dense kernel walks the hop matrix once for all B
        columns.  Each output column is the same sequence of additions a
        per-source mat-vec performs, so a source's scores do not depend on
        which other sources share its batch.
        """
        source_ids = [check_node_index(s, self.graph.num_nodes, "source")
                      for s in sources]
        if not source_ids:
            return []
        self.ensure_prepared()
        assert self._diagonal is not None
        timer = Timer()
        num_nodes = self.graph.num_nodes
        num_levels = len(self._hop_matrices)
        columns: List[np.ndarray] = []
        bounds = np.zeros(len(source_ids), dtype=np.float64)
        truncated_at = np.full(len(source_ids), num_levels, dtype=np.int64)
        with timer:
            deadline = active_deadline()
            for chunk_start in range(0, len(source_ids), self._BATCH_CHUNK):
                chunk = source_ids[chunk_start:chunk_start + self._BATCH_CHUNK]
                scores = np.zeros((num_nodes, len(chunk)), dtype=np.float64)
                for level, hop_matrix in enumerate(self._hop_matrices):
                    if deadline is not None and level > 0 and deadline.expired():
                        # Every level term is non-negative, so stopping here
                        # leaves a certified *under*-estimate whose entrywise
                        # error is at most the skipped levels' tail.  Level 0
                        # always completes, and later chunks still get their
                        # level-0 term, so no source comes back empty.
                        window = slice(chunk_start, chunk_start + len(chunk))
                        truncated_at[window] = level
                        bounds[window] = self._truncation_tail_batch(chunk, level)
                        break
                    # Gather the chunk's stored rows through indptr slices:
                    # scipy's fancy row indexing costs as much as the
                    # product itself for small batches.
                    weighted = np.zeros((num_nodes, len(chunk)), dtype=np.float64)
                    for position, source in enumerate(chunk):
                        row = slice(hop_matrix.indptr[source],
                                    hop_matrix.indptr[source + 1])
                        cols = hop_matrix.indices[row]
                        weighted[cols, position] = (hop_matrix.data[row]
                                                    * self._diagonal[cols])
                    if not weighted.any():
                        continue
                    # Column-blocked threaded product; bit-identical to the
                    # serial ``hop_matrix @ weighted`` (kernels/parallel).
                    scores += parallel_spmm(hop_matrix, weighted)
                np.clip(scores, 0.0, 1.0, out=scores)
                columns.extend(scores[:, position].copy()
                               for position in range(len(chunk)))
        share = timer.elapsed / len(source_ids)
        index_bytes = float(self.index_bytes())
        results: List[SingleSourceResult] = []
        for position, (source, scores) in enumerate(zip(source_ids, columns)):
            scores[source] = 1.0
            stats = {"epsilon": self.epsilon,
                     "samples_per_node": float(self.samples_per_node),
                     "index_bytes": index_bytes}
            if truncated_at[position] < num_levels:
                stats["degraded"] = 1.0
                stats["certified_bound"] = float(bounds[position])
                stats["levels_used"] = float(truncated_at[position])
                stats["levels_total"] = float(num_levels)
            results.append(SingleSourceResult(
                source=source, scores=scores, algorithm=self.name,
                query_seconds=share,
                preprocessing_seconds=self.preprocessing_seconds,
                stats=stats))
        return results

    def _truncation_tail_batch(self, chunk: List[int], from_level: int) -> np.ndarray:
        """Per-source remaining-tail bounds for a degraded batch chunk."""
        assert self._diagonal is not None
        colmax = self._level_column_maxima()
        totals = np.zeros(len(chunk), dtype=np.float64)
        for level in range(from_level, len(self._hop_matrices)):
            rows = self._hop_matrices[level][chunk]
            if rows.nnz == 0:
                continue
            totals += rows @ (self._diagonal * colmax[level])
        return totals

    def index_bytes(self) -> int:
        total = int(self._diagonal.nbytes) if self._diagonal is not None else 0
        for matrix in self._hop_matrices:
            total += int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
        return total


__all__ = ["SLING"]
