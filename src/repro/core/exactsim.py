"""ExactSim — probabilistic exact single-source SimRank (Algorithm 1).

The algorithm has three phases:

1. **Hop-PPR phase** (lines 2-5): iterate π_i^ℓ = √c·P·π_i^{ℓ-1} for
   ℓ = 0 … L with L = ⌈log_{1/c}(2/ε)⌉, keeping every hop vector (densely or
   sparsely truncated per Lemma 2) plus their sum π_i.
2. **Diagonal phase** (lines 6-8): distribute a total walk-pair budget
   R = 6·log n/((1 − √c)⁴ε²) over the nodes — proportionally to π_i(k)
   (basic) or π_i(k)² (optimized, Lemma 3) — and estimate D(k, k) for every
   node that received samples, with Algorithm 2 (basic) or Algorithm 3
   (optimized, local deterministic exploitation).
3. **Back-substitution phase** (lines 9-13): s⁰ = D̂·π_i^L/(1 − √c), then
   s^ℓ = √c·Pᵀ·s^{ℓ-1} + D̂·π_i^{L-ℓ}/(1 − √c); the answer is s^L.

The result is, with probability at least 1 − 1/n, within additive ε of the
true single-source SimRank vector (Theorem 1).

:class:`ExactSim` is a full member of the
:class:`~repro.baselines.base.SimRankAlgorithm` hierarchy (index-free), so
the registry, the harness and the CLI treat it exactly like the baselines.
:meth:`~ExactSim.single_source_batch` is the one implementation of the
three phases, vectorized over the batch: phase 1 runs all sources through
one dense ``P @ X`` product per level on small graphs or the batched
local-push kernel (:func:`repro.ppr.push.forward_push_hop_ppr_batch`) on
large ones, phase 2 samples the whole batch in one aggregated walk-engine
call, and phase 3 back-substitutes every source at once with
sparse-times-dense-matrix products.  :meth:`~ExactSim.single_source` is a
batch of one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.base import QUERY_SINGLE_PAIR, SimRankAlgorithm
from repro.core.config import ExactSimConfig
from repro.core.result import SinglePairResult, SingleSourceResult
from repro.core.sampling import allocate_proportional, allocate_squared, total_sample_budget
from repro.diagonal.basic import estimate_diagonal_basic_batch
from repro.diagonal.local import DistributionCache, estimate_diagonal_local_batch
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.kernels.parallel import parallel_spmm
from repro.ppr.hop_ppr import HopPPR
from repro.ppr.push import forward_push_hop_ppr_batch
from repro.randomwalk.engine import SqrtCWalkEngine
from repro.utils.timing import Timer
from repro.utils.validation import check_node_index


class ExactSim(SimRankAlgorithm):
    """Reusable ExactSim query engine bound to one graph and one configuration.

    Construction is cheap (the transition matrix is built lazily on the first
    query, and shared through the :class:`GraphContext`); every
    :meth:`single_source_batch` call runs the full Algorithm 1 for its
    sources, and :meth:`single_source` is the batch of one.  The engine is
    what the experiment harness instantiates once per (dataset, ε) grid
    point.

    Example
    -------
    >>> from repro.graph.generators import power_law_graph
    >>> graph = power_law_graph(200, 4.0, seed=1)
    >>> engine = ExactSim(graph, ExactSimConfig(epsilon=1e-3, seed=7))
    >>> result = engine.single_source(0)
    >>> 0.99 <= result.scores[0] <= 1.0 + 1e-9
    True
    """

    name = "exactsim"
    index_based = False
    #: A pair query runs only the two hop-PPR pushes and the per-level
    #: weighted dots over their shared support — no back-substitution over
    #: the whole graph (see :meth:`single_pair`).
    native_capabilities = frozenset({QUERY_SINGLE_PAIR})

    def __init__(self, graph: DiGraph, config: Optional[ExactSimConfig] = None, *,
                 context: Optional[GraphContext] = None):
        self.config = config if config is not None else ExactSimConfig()
        super().__init__(graph, decay=self.config.decay, context=context)
        self.name = "exactsim" if self.config.optimized else "exactsim-basic"
        self._on_graph_rebound()

    def _on_graph_rebound(self) -> None:
        # Graph-derived snapshots, rebuilt whenever the instance moves to
        # another graph version so it answers exactly like a fresh one.
        self._operator = self._operator_for_graph()
        self._engine = SqrtCWalkEngine(self.graph, self.config.decay,
                                       seed=self.config.seed)
        # Heavy-node visit-distribution cache for Algorithm 3, shared across
        # the sources of a batch and across successive queries of this engine
        # (the distributions are deterministic per graph, so reuse is exact).
        # Its byte cap (repro.diagonal.local.CACHE_MAX_BYTES) bounds peak
        # memory even mid-batch: it evicts between exploration levels, which
        # changes no result.
        self._distribution_cache = DistributionCache(self.graph)

    # ------------------------------------------------------------------ #
    # public queries
    # ------------------------------------------------------------------ #
    def single_source(self, source: int) -> SingleSourceResult:
        return self.single_source_batch([source])[0]

    def single_source_batch(self, sources: Sequence[int]) -> List[SingleSourceResult]:
        """Answer one query per source with shared vectorized phases.

        Phase 1 computes the hop-PPR vectors of *all* sources at once
        (:meth:`_hop_ppr_batch`: a dense product per level on small graphs,
        a batched local push over shared CSR slices on large ones).  Phase 2
        samples the diagonal of the whole batch through the count-aggregated
        walk engine: the per-node allocations of every source join one
        pair-meeting simulation (light nodes and Algorithm 3 tails each form
        a single engine call), and the heavy nodes' deterministic
        explorations share one visit-distribution cache across sources.
        Phase 3 back-substitutes every source simultaneously: L
        sparse-times-dense ``Pᵀ @ S`` products over an (n, B) score matrix.

        The per-result ``query_seconds`` splits the shared phase cost evenly
        across the batch, so a batch of one reports its whole cost.
        """
        source_ids = [check_node_index(s, self.graph.num_nodes, "source")
                      for s in sources]
        if not source_ids:
            return []
        config = self.config
        num_iterations = config.num_iterations()

        shared_timer = Timer()
        with shared_timer:
            hop_pprs = self._hop_ppr_batch(source_ids, num_iterations)

        phase2_timer = Timer()
        with phase2_timer:
            diagonals, per_source_stats = self._estimate_diagonal_batch(hop_pprs)

        back_timer = Timer()
        with back_timer:
            score_columns = self._back_substitute_batch(hop_pprs, diagonals)

        shared_share = (shared_timer.elapsed + phase2_timer.elapsed
                        + back_timer.elapsed) / len(source_ids)
        results: List[SingleSourceResult] = []
        for position, source in enumerate(source_ids):
            hop_ppr = hop_pprs[position]
            scores = score_columns[position]
            # S(i, i) = 1 by definition; the estimate only comes close.
            scores[source] = 1.0
            stats = dict(per_source_stats[position])
            stats["iterations"] = float(num_iterations)
            stats["ppr_squared_norm"] = hop_ppr.squared_norm
            stats["ppr_memory_bytes"] = float(hop_ppr.memory_bytes())
            stats["ppr_nonzero_entries"] = float(hop_ppr.nonzero_entries())
            stats["result_memory_bytes"] = float(scores.nbytes)
            stats["extra_memory_bytes"] = (stats["ppr_memory_bytes"]
                                           + float(diagonals[position].nbytes)
                                           + float(scores.nbytes))
            stats["batch_size"] = float(len(source_ids))
            results.append(SingleSourceResult(
                source=source, scores=scores, algorithm=self.name,
                query_seconds=shared_share,
                stats=stats))
        return results

    def single_pair(self, source: int, target: int) -> SinglePairResult:
        """Answer S(source, target) with pair-local work only.

        Via the ℓ-hop identity S(i, j) = Σ_ℓ Σ_k π_i^ℓ(k)·D(k,k)·π_j^ℓ(k)
        / (1 − √c)², a pair needs exactly two phase-1 hop-PPR pushes (source
        and target) and the diagonal estimates on their *shared* support —
        phase 3's L back-substitution passes over the whole graph never run,
        and the phase-2 walk budget is allocated only to nodes both walks
        can actually meet at (nodes outside the target's reachable set
        contribute nothing to this one entry).
        """
        source = check_node_index(source, self.graph.num_nodes, "source")
        target = check_node_index(target, self.graph.num_nodes, "target")
        config = self.config
        timer = Timer()
        stats: Dict[str, float] = {"native_single_pair": 1.0}
        with timer:
            if source == target:
                score = 1.0
            else:
                num_iterations = config.num_iterations()
                threshold = config.truncation_threshold()
                if threshold is not None:
                    # Frontier-proportional local pushes (one batched call
                    # for both endpoints): a pair pays for the two nodes'
                    # actual neighbourhoods, not for L dense passes over the
                    # graph — this is where the pair path beats the derived
                    # fallback, whose phase 3 stays dense regardless.
                    pushes = forward_push_hop_ppr_batch(
                        self.graph, [source, target], num_iterations,
                        threshold, decay=config.decay)
                    hop_i = self._hop_ppr_from_push(pushes[0], num_iterations)
                    hop_j = self._hop_ppr_from_push(pushes[1], num_iterations)
                else:
                    # Basic variant: no truncation, the dense phase 1.
                    hop_i, hop_j = self._hop_ppr_batch_dense(
                        [source, target], num_iterations)
                # Allocate exactly as the single-source pass would (same
                # per-node R(k), hence the same D̂(k) accuracy and the same
                # Algorithm 3 exploration depths), then drop the nodes the
                # target cannot meet the source at: D(k, k) enters this
                # entry through the product π_i(k)·π_j(k), so their samples
                # would be pure waste.  Restricting the *support* instead of
                # re-normalising the budget keeps the pair's error within
                # the single-source bound while strictly shrinking phase 2.
                allocation, alloc_stats = self._allocate_samples(hop_i.total)
                allocation = np.where(hop_j.total > 0.0, allocation, 0)
                stats.update(alloc_stats)
                stats["samples_realised"] = float(allocation.sum())
                stats["pair_support"] = float(np.count_nonzero(allocation))
                if not np.any(hop_j.total > 0.0):
                    score = 0.0
                else:
                    diagonal = self._diagonal_from_allocations([allocation])[0]
                    scale = 1.0 / (1.0 - config.sqrt_c) ** 2
                    score = scale * sum(
                        self._pair_level_dot(hop_i.hops[level],
                                             hop_j.hops[level], diagonal)
                        for level in range(num_iterations + 1))
                    score = float(np.clip(score, 0.0, 1.0))
                stats["iterations"] = float(num_iterations)
        return SinglePairResult(source=source, target=target, score=score,
                                algorithm=self.name, query_seconds=timer.elapsed,
                                stats=stats)

    @staticmethod
    def _pair_level_dot(hop_i, hop_j, diagonal: np.ndarray) -> float:
        """Σ_k hop_i(k) · diagonal(k) · hop_j(k) for dense/sparse hop vectors."""
        if isinstance(hop_i, np.ndarray) and isinstance(hop_j, np.ndarray):
            return float(np.einsum("k,k,k->", hop_i, diagonal, hop_j))
        if isinstance(hop_i, np.ndarray):
            hop_i, hop_j = hop_j, hop_i
        if hop_i.nnz == 0:
            return 0.0
        if isinstance(hop_j, np.ndarray):
            gathered = hop_j[hop_i.indices]
            return float(np.dot(hop_i.values * diagonal[hop_i.indices], gathered))
        # Both sparse: evaluate the shorter support against the other.
        if hop_j.nnz < hop_i.nnz:
            hop_i, hop_j = hop_j, hop_i
        return float(np.sum(hop_i.values * diagonal[hop_i.indices]
                            * hop_j.gather(hop_i.indices)))

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #
    #: Below this node count the batched phase 1 runs as one dense
    #: ``P @ X`` matrix product per level (bit-identical per column to
    #: :func:`hop_ppr_vectors`); above it, the frontier-proportional
    #: batched push kernel wins (measured 3-4× on the 12k-node graphs).
    _DENSE_BATCH_MAX_NODES = 4096

    def _hop_ppr_batch(self, source_ids: List[int], num_iterations: int
                       ) -> List[HopPPR]:
        """Phase 1 for the whole batch: shared-CSR push or dense matmul.

        The push kernel needs a positive truncation threshold, so it only
        serves configurations with sparse linearization on; the basic
        (untruncated) variant always takes the dense path, whose columns are
        bit-identical to :func:`hop_ppr_vectors` — batching must never
        smuggle the Lemma 2 truncation into the basic algorithm.
        """
        threshold = self.config.truncation_threshold()
        if threshold is None or self.graph.num_nodes <= self._DENSE_BATCH_MAX_NODES:
            return self._hop_ppr_batch_dense(source_ids, num_iterations)
        pushes = forward_push_hop_ppr_batch(self.graph, source_ids,
                                            num_iterations, threshold,
                                            decay=self.config.decay)
        return [self._hop_ppr_from_push(push, num_iterations) for push in pushes]

    def _hop_ppr_batch_dense(self, source_ids: List[int], num_iterations: int
                             ) -> List[HopPPR]:
        """Dense batched phase 1: one ``√c·P @ X`` product per level.

        Column ``b`` reproduces :func:`hop_ppr_vectors` for source ``b``
        bit-for-bit (scipy's CSR-times-dense product accumulates each column
        in the same order as the mat-vec), including the Lemma 2 per-hop
        sparsification when it is enabled.  The sparsification itself is
        batched: one boolean mask over the transposed (B, n) hop matrix
        yields every column's surviving entries in a single pass (row-major
        ``nonzero`` order is exactly each column's ascending node order), so
        no per-column Python loop touches the dense data.
        """
        from repro.kernels.sparsevec import SparseVector

        config = self.config
        threshold = config.truncation_threshold()
        num_nodes = self.graph.num_nodes
        batch_size = len(source_ids)
        sqrt_c = config.sqrt_c
        residual_factor = 1.0 - sqrt_c
        matrix = self._operator.matrix

        current = np.zeros((num_nodes, batch_size), dtype=np.float64)
        current[source_ids, np.arange(batch_size)] = 1.0
        hops_per_source: List[List[object]] = [[] for _ in range(batch_size)]
        totals = np.zeros((num_nodes, batch_size), dtype=np.float64)
        for _ in range(num_iterations + 1):
            hop_matrix = residual_factor * current
            totals += hop_matrix
            by_source = np.ascontiguousarray(hop_matrix.T)      # (B, n)
            if threshold is None:
                for b in range(batch_size):
                    hops_per_source[b].append(by_source[b])
            else:
                mask = by_source >= threshold
                rows, cols = np.nonzero(mask)                    # row-major order
                values = by_source[mask]                         # same order
                splits = np.searchsorted(rows, np.arange(1, batch_size))
                for b, (idx, val) in enumerate(zip(np.split(cols, splits),
                                                   np.split(values, splits))):
                    hops_per_source[b].append(
                        SparseVector(idx.astype(np.int64), val))
            current = sqrt_c * parallel_spmm(matrix, current)

        return [HopPPR(source=source, decay=config.decay, num_hops=num_iterations,
                       hops=hops_per_source[b],
                       total=np.ascontiguousarray(totals[:, b]),
                       truncated=threshold is not None,
                       truncation_threshold=threshold or 0.0)
                for b, source in enumerate(source_ids)]

    def _hop_ppr_from_push(self, push, num_iterations: int) -> HopPPR:
        """Wrap a batched-push result in the :class:`HopPPR` container."""
        total = np.zeros(self.graph.num_nodes, dtype=np.float64)
        for level in push.levels:
            level.add_into(total)
        return HopPPR(source=push.source, decay=self.config.decay,
                      num_hops=num_iterations, hops=list(push.levels), total=total,
                      truncated=True, truncation_threshold=push.r_max)

    def _allocate_samples(self, total_weights: np.ndarray
                          ) -> tuple[np.ndarray, Dict[str, float]]:
        """Phase 2 sample allocation over ``total_weights``; returns (R(·), stats).

        ``total_weights`` is π_i for a single-source query; the pair query
        passes π_i restricted to the target's reachable support.
        """
        config = self.config
        budget = total_sample_budget(self.graph.num_nodes, config.effective_epsilon,
                                     decay=config.decay,
                                     failure_constant=config.failure_constant)
        cap = config.max_total_samples
        if config.use_squared_sampling:
            allocation, realised = allocate_squared(total_weights, budget, cap=cap)
        else:
            allocation, realised = allocate_proportional(total_weights, budget, cap=cap)
        stats = {
            "sample_budget": float(budget),
            "samples_realised": float(realised),
            "samples_capped": float(1.0 if (cap is not None and realised >= cap) else 0.0),
            "nodes_sampled": float(int(np.count_nonzero(allocation))),
        }
        return allocation, stats

    def _estimate_diagonal_batch(self, hop_pprs: List[HopPPR]
                                 ) -> tuple[List[np.ndarray], List[Dict[str, float]]]:
        """Phase 2 for the whole batch in one count-aggregated engine call.

        All sources' allocations feed the batched diagonal estimators: every
        (source, node) sample allocation becomes one origin of a single
        aggregated pair-meeting simulation, and — on the optimized path — the
        heavy nodes' Algorithm 3 explorations share one visit-distribution
        cache across the batch (a hub allocated by several sources pays for
        its local neighbourhood once).
        """
        allocations: List[np.ndarray] = []
        per_source_stats: List[Dict[str, float]] = []
        for hop_ppr in hop_pprs:
            allocation, stats = self._allocate_samples(hop_ppr.total)
            allocations.append(allocation)
            per_source_stats.append(stats)

        diagonals = self._diagonal_from_allocations(allocations)
        cache_bytes = float(self._distribution_cache.memory_bytes())
        for diagonal, stats in zip(diagonals, per_source_stats):
            stats["diagonal_memory_bytes"] = float(diagonal.nbytes)
            stats["distribution_cache_bytes"] = cache_bytes
        return diagonals, per_source_stats

    def _diagonal_from_allocations(self, allocations: List[np.ndarray]
                                   ) -> List[np.ndarray]:
        """Estimate D̂ for every allocation (Algorithm 2 or 3 per the config)."""
        config = self.config
        if config.use_local_exploitation:
            return estimate_diagonal_local_batch(
                self.graph, allocations, decay=config.decay,
                max_level=config.max_exploit_level,
                max_steps=config.max_walk_steps, engine=self._engine,
                cache=self._distribution_cache)
        return estimate_diagonal_basic_batch(
            self.graph, allocations, decay=config.decay,
            max_steps=config.max_walk_steps, engine=self._engine)

    def _back_substitute_batch(self, hop_pprs: List[HopPPR],
                               diagonals: List[np.ndarray]) -> List[np.ndarray]:
        """Phase 3 for the whole batch: L sparse ``Pᵀ @ S`` matrix products.

        ``S`` stacks one column per source, seeded with D̂·π^L/(1 − √c);
        each level applies √c·Pᵀ and adds D̂·π^{L−ℓ}/(1 − √c).  scipy's
        CSR-times-dense product computes every column with the same
        accumulation order as a per-source mat-vec, so a column does not
        depend on which other sources share the batch.
        """
        config = self.config
        scale = 1.0 / (1.0 - config.sqrt_c)
        sqrt_c = config.sqrt_c
        num_nodes = self.graph.num_nodes
        batch_size = len(hop_pprs)
        num_iterations = hop_pprs[0].num_hops

        current = np.zeros((num_nodes, batch_size), dtype=np.float64)
        for b, hop_ppr in enumerate(hop_pprs):
            self._add_weighted_hop(current, b, hop_ppr, num_iterations,
                                   scale, diagonals[b])
        matrix_t = self._operator.matrix_t
        for level in range(1, num_iterations + 1):
            current = sqrt_c * parallel_spmm(matrix_t, current)
            for b, hop_ppr in enumerate(hop_pprs):
                self._add_weighted_hop(current, b, hop_ppr,
                                       num_iterations - level, scale, diagonals[b])
        np.clip(current, 0.0, 1.0, out=current)
        return [np.ascontiguousarray(current[:, b]) for b in range(batch_size)]

    @staticmethod
    def _add_weighted_hop(current: np.ndarray, column: int, hop_ppr: HopPPR,
                          level: int, scale: float, diagonal: np.ndarray) -> None:
        """``current[:, column] += scale · D̂ · π^level`` using the sparse hop."""
        hop = hop_ppr.hops[level]
        if isinstance(hop, np.ndarray):
            current[:, column] += scale * diagonal * hop
        else:
            current[hop.indices, column] += scale * diagonal[hop.indices] * hop.values


__all__ = ["ExactSim"]
