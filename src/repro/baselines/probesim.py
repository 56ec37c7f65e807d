"""ProbeSim — index-free sampling + local probing (Liu et al.).

ProbeSim answers a single-source query without any precomputation: it samples
√c-walks from the source and, for every node the walk visits, *probes* the
graph to find which other nodes would meet the walk there.  Our reproduction
uses the ℓ-hop PPR identity directly: writing h_i^ℓ = (√c P)^ℓ e_i for the
walk's occupancy distribution,

    S(i, j) = Σ_ℓ Σ_k  h_i^ℓ(k) · π_j^ℓ(k) · D(k, k) / (1 − √c),

so an unbiased estimator samples W_ℓ ~ (walk position at step ℓ, if alive)
and adds π_·^ℓ(W_ℓ) · D(W_ℓ, W_ℓ)/(1 − √c) — a reverse probe of depth ℓ from
the visited node — to the score vector.  ``num_walks`` controls the variance
and is the method's accuracy knob (the paper's query-time O(n log n/ε²) term
comes precisely from this sampling).

All probes of one step are issued *simultaneously* through
:func:`repro.kernels.frontier.accumulate_probes`, the probe kernel PRSim's
on-the-fly phase shares: the step's meeting nodes are the lanes of one
batch, advanced as COO triplets through shared CSR slices (the ``Pᵀ``
direction) while the batch is sparse and as dense (num_nodes × lanes)
chunks once its entries fill a fixed share of them.  Both regimes add the
same floats in the same order, so the answer does not depend on where the
batch switches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import QUERY_SINGLE_PAIR, SimRankAlgorithm
from repro.core.result import SinglePairResult, SingleSourceResult
from repro.ppr.hop_ppr import hop_ppr_vectors
from repro.diagonal.parsim_approx import parsim_diagonal
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.kernels.frontier import accumulate_probes
from repro.randomwalk.engine import SqrtCWalkEngine
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer
from repro.utils.validation import check_node_index, check_positive_int


class ProbeSim(SimRankAlgorithm):
    """Index-free sampling/probing single-source SimRank."""

    name = "probesim"
    index_based = False
    #: A pair query samples the source walks as usual but replaces the
    #: graph-wide reverse probes with one forward hop-PPR push from the
    #: target (see :meth:`single_pair`).
    native_capabilities = frozenset({QUERY_SINGLE_PAIR})

    def __init__(self, graph: DiGraph, *, decay: float = 0.6, num_walks: int = 200,
                 max_steps: int = 12, probe_threshold: float = 1e-4,
                 seed: SeedLike = None, context: Optional[GraphContext] = None):
        super().__init__(graph, decay=decay, context=context)
        self.num_walks = check_positive_int(num_walks, "num_walks")
        self.max_steps = check_positive_int(max_steps, "max_steps")
        self.probe_threshold = float(probe_threshold)
        self._seed = seed
        self._on_graph_rebound()

    def _on_graph_rebound(self) -> None:
        self._operator = self._operator_for_graph()
        self._engine = SqrtCWalkEngine(self.graph, self.decay, seed=self._seed)
        # ProbeSim uses the cheap diagonal approximation with exact trivial nodes.
        self._diagonal = parsim_diagonal(self.graph, decay=self.decay,
                                         exact_trivial_nodes=True)

    def single_source(self, source: int) -> SingleSourceResult:
        source = check_node_index(source, self.graph.num_nodes, "source")
        timer = Timer()
        with timer:
            # The sampling phase never needs walk identities — only how many
            # walks occupy each node per step — so it runs on the
            # count-aggregated frontier: per-step cost is bounded by the
            # distinct visited nodes, not by ``num_walks``.
            levels = self._engine.visit_count_steps(
                np.array([source], dtype=np.int64),
                np.array([self.num_walks], dtype=np.int64),
                max_steps=self.max_steps)
            scores = np.zeros(self.graph.num_nodes, dtype=np.float64)
            scale = 1.0 / ((1.0 - self._operator.sqrt_c) * self.num_walks)
            for step, (meeting_nodes, counts) in enumerate(levels):
                # counts[r] walks occupy meeting_nodes[r] at this step.
                weights = (scale * (1.0 - self._operator.sqrt_c) * counts
                           * self._diagonal[meeting_nodes])
                accumulate_probes(self._operator, meeting_nodes, weights, step,
                                  self.probe_threshold, scores)
            np.clip(scores, 0.0, 1.0, out=scores)
            scores[source] = 1.0
        return SingleSourceResult(source=source, scores=scores, algorithm=self.name,
                                  query_seconds=timer.elapsed,
                                  stats={"num_walks": float(self.num_walks),
                                         "max_steps": float(self.max_steps)})

    def single_pair(self, source: int, target: int) -> SinglePairResult:
        """Estimate S(source, target) with pair-local probing work only.

        The estimator is unchanged — sample the source's √c-walk occupancy
        h_i^ℓ and weight each visited node k by π_·^ℓ(k)·D(k)/(1 − √c) — but
        only the ``target`` entry of every probe is needed, and
        π_target^ℓ(k) over all k is one *forward* hop-PPR push from the
        target (π_j^ℓ(k) = (1 − √c)·((√c Pᵀ)^ℓ e_k)(j) by the walk
        symmetry).  The per-step batched reverse expansion over the whole
        graph never runs; its cost collapses to one push plus per-step
        sparse gathers over the visited nodes.
        """
        source = check_node_index(source, self.graph.num_nodes, "source")
        target = check_node_index(target, self.graph.num_nodes, "target")
        timer = Timer()
        with timer:
            if source == target:
                score = 1.0
            else:
                levels = self._engine.visit_count_steps(
                    np.array([source], dtype=np.int64),
                    np.array([self.num_walks], dtype=np.int64),
                    max_steps=self.max_steps)
                # The derived path prunes raw walk masses at probe_threshold;
                # hop-PPR entries carry an extra (1 − √c) stopping factor, so
                # the equivalent hop cut-off is (1 − √c)·probe_threshold.
                sqrt_c = self._operator.sqrt_c
                threshold = ((1.0 - sqrt_c) * self.probe_threshold
                             if self.probe_threshold > 0.0 else None)
                hop_target = hop_ppr_vectors(
                    self.graph, target, self.max_steps, decay=self.decay,
                    truncation_threshold=threshold, operator=self._operator)
                scale = 1.0 / ((1.0 - sqrt_c) * self.num_walks)
                score = 0.0
                for step, (meeting_nodes, counts) in enumerate(levels):
                    if meeting_nodes.size == 0:
                        continue
                    pi_target = self._gather_hop(hop_target.hops[step],
                                                 meeting_nodes)
                    score += scale * float(np.sum(
                        counts * self._diagonal[meeting_nodes] * pi_target))
                score = float(np.clip(score, 0.0, 1.0))
        return SinglePairResult(source=source, target=target, score=score,
                                algorithm=self.name, query_seconds=timer.elapsed,
                                stats={"native_single_pair": 1.0,
                                       "num_walks": float(self.num_walks),
                                       "max_steps": float(self.max_steps)})

    @staticmethod
    def _gather_hop(hop, nodes: np.ndarray) -> np.ndarray:
        """``hop[nodes]`` for a dense array or sorted-index sparse hop vector."""
        if isinstance(hop, np.ndarray):
            return hop[nodes]
        return hop.gather(nodes)


__all__ = ["ProbeSim"]
