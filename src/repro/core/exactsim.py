"""ExactSim — probabilistic exact single-source SimRank (Algorithm 1).

The algorithm has three phases:

1. **Hop-PPR phase** (lines 2-5): iterate π_i^ℓ = √c·P·π_i^{ℓ-1} for
   ℓ = 0 … L with L = ⌈log_{1/c}(2/ε)⌉ exactly, keeping every hop vector
   (densely, or sparsely truncated per Lemma 2: the threshold decides which
   entries are stored, never what propagates) plus their sum π_i.
2. **Diagonal phase** (lines 6-8): distribute a total walk-pair budget
   R = 6·log n/((1 − √c)⁴ε²) over the nodes — proportionally to
   π_i(k) − π_i⁰(k) (basic) or its square (optimized, Lemma 3), since level
   0 feeds only S(i, i) = 1 — and estimate D(k, k) for every node that
   received samples, with Algorithm 2 (basic) or Algorithm 3 (optimized,
   local deterministic exploitation).
3. **Back-substitution phase** (lines 9-13): s⁰ = D̂·π_i^L/(1 − √c), then
   s^ℓ = √c·Pᵀ·s^{ℓ-1} + D̂·π_i^{L-ℓ}/(1 − √c); the answer is s^L.

The result is, with probability at least 1 − 1/n, within additive ε of the
true single-source SimRank vector (Theorem 1).

:class:`ExactSim` is a full member of the
:class:`~repro.baselines.base.SimRankAlgorithm` hierarchy (index-free), so
the registry, the harness and the CLI treat it exactly like the baselines.
:meth:`~ExactSim.single_source_batch` is the one implementation of the
three phases, vectorized over the batch: phase 1 runs all sources through
one dense ``P @ X`` product per level at every graph size
(:func:`repro.ppr.hop_ppr.hop_ppr_batch`, bit-identical per source to
:func:`repro.ppr.hop_ppr.hop_ppr_vectors`), phase 2 samples the whole batch
in one aggregated walk-engine call, and phase 3 back-substitutes every
source at once with sparse-times-dense-matrix products.
:meth:`~ExactSim.single_source` is a batch of one.  A pair or top-k answer
is read off the source's vector (the base class's ``single_pair`` and
``top_k``, and the service planner's coalesced pass), so it keeps the
vector's ε guarantee: a pair-local path that skipped phase 3 cost
0.96–1.04× of a full pass (median per graph and ε) and was removed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.base import SimRankAlgorithm
from repro.core.config import ExactSimConfig
from repro.core.result import SingleSourceResult
from repro.core.sampling import (allocate_proportional, allocate_squared,
                                 cap_allocation, total_sample_budget)
from repro.diagonal.basic import estimate_diagonal_basic_batch
from repro.diagonal.local import DistributionCache, estimate_diagonal_local_batch
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.kernels.parallel import parallel_spmm
from repro.ppr.hop_ppr import HopPPR, hop_ppr_batch
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

        Phase 1 computes the exact hop-PPR vectors of *all* sources at once
        (:func:`~repro.ppr.hop_ppr.hop_ppr_batch`: one dense ``√c·P @ X``
        product per level, whatever the graph size).  Phase 2 samples the
        diagonal of the whole batch through the count-aggregated walk
        engine: the per-node allocations of every source join one
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
            hop_pprs = hop_ppr_batch(self._operator, source_ids, num_iterations,
                                     config.truncation_threshold())

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

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #
    def _allocate_samples(self, hop_ppr: HopPPR
                          ) -> tuple[np.ndarray, Dict[str, float]]:
        """Phase 2 sample allocation for one source; returns (R(·), stats).

        Lemma 3 weighs D̂(k) by π_i(k) because D̂(k)'s error reaches S(i, j)
        through Σ_ℓ π_i^ℓ(k)·π_j^ℓ(k) / (1 − √c)², which its bound caps by
        max_ℓ π_j^ℓ(k) · Σ_ℓ π_i^ℓ(k).  For j ≠ i the ℓ = 0 term vanishes at
        every k, since π_i⁰ = (1 − √c)·e_i and π_j⁰ = (1 − √c)·e_j.  So the
        cap holds with Σ_{ℓ≥1} π_i^ℓ(k) = π_i(k) − π_i⁰(k) in place of π_i(k),
        and so does every bound Lemma 3 builds on it; S(i, i) is set to 1,
        not estimated.  The allocation is therefore by π_i − π_i⁰: the
        source's weight drops by 1 − √c, exactly the level-0 entry
        :func:`~repro.ppr.hop_ppr.hop_ppr_batch` adds first, so a source no
        walk returns to gets 0 pairs.

        ``samples_capped`` is 1 whenever ``max_total_samples`` scaled the
        allocation down, wherever the realised total lands.
        """
        config = self.config
        weights = hop_ppr.total.copy()
        weights[hop_ppr.source] -= 1.0 - config.sqrt_c
        budget = total_sample_budget(self.graph.num_nodes, config.effective_epsilon,
                                     decay=config.decay,
                                     failure_constant=config.failure_constant)
        allocate = (allocate_squared if config.use_squared_sampling
                    else allocate_proportional)
        allocation, requested = allocate(weights, budget)
        cap = config.max_total_samples
        allocation, realised = cap_allocation(allocation, weights, cap)
        stats = {
            "sample_budget": float(budget),
            "samples_realised": float(realised),
            "samples_capped": float(cap is not None and requested > cap),
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
            allocation, stats = self._allocate_samples(hop_ppr)
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
