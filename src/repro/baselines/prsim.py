"""PRSim — partial-index SimRank for power-law graphs (Wei et al.).

PRSim rewrites SimRank through ℓ-hop Personalized PageRank (the identity our
eq. (7) reproduction also uses):

    S(i, j) = 1/(1 − √c)² · Σ_ℓ Σ_k  π_i^ℓ(k) · π_j^ℓ(k) · D(k, k).

To avoid the O(n²) cost of materialising π_j^ℓ(k) for every (j, k), PRSim
precomputes, for a set of *hub* nodes k (chosen by PageRank, covering the
heavy entries), the reverse vectors π_·^ℓ(k) over all j — one truncated
reverse propagation per hub — together with an MC estimate of D(k, k).
At query time the contribution of hub nodes is read from the index, while
the contribution of the remaining nodes is computed on the fly with the same
reverse propagation at a coarser truncation threshold (this plays the role
of PRSim's probe sampling: cheap, ε-accurate handling of the light tail).

The ``epsilon`` knob drives the index truncation threshold, the on-the-fly
threshold and the per-hub D samples, reproducing the preprocessing-time /
index-size / accuracy trade-off of Figures 3, 4, 7 and 8.  Pair and top-k
queries take the entry or the top k of the single-source vector, as the
paper answers top-k (§1).

Index construction is batched: *all* hubs' reverse hop vectors advance
level-synchronously as the columns of dense (num_nodes × hubs) states —
one ``Pᵀ``-times-dense product per level per chunk of at most 64 MB
(:func:`repro.kernels.parallel.pruned_lane_levels`, the kernel SLING's hop
matrices share; exact hub frontiers saturate toward the reachable set
within a few levels, exactly the regime where the dense product beats any
frontier-proportional scatter).  Each level's pruned snapshot is stored as
one CSR matrix G_ℓ with a row per hub, so a query reads the hub part of
level ℓ as one ``G_ℓᵀ @ w_ℓ`` product.  The per-hub sequential walk survives
in ``tests/specs/probes.py`` (the executable spec ``tests/test_multiprop.py``
pins the batched build against: identical supports, values ≤ 1e-12).
On disk the index is flat COO triplets ``(hub position, level, column,
value)`` sorted by (position, level, column), converted to and from the
per-level matrices on save and load.
At query time the on-the-fly probes of *all* candidate meeting nodes of a
level run as one batch of :func:`repro.kernels.frontier.accumulate_probes`,
the probe kernel ProbeSim shares: COO steps while the batch is sparse,
dense lanes once it fills.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np
from scipy import sparse

from repro.baselines.base import (IndexPersistenceError, SimRankAlgorithm,
                                  check_unit_interval, truncation_depth)
from repro.core.result import SingleSourceResult
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.kernels.frontier import accumulate_probes
from repro.kernels.parallel import pruned_lane_levels
from repro.ppr.hop_ppr import hop_ppr_vectors
from repro.ppr.pagerank import pagerank
from repro.randomwalk.engine import SqrtCWalkEngine
from repro.utils.deadline import active_deadline
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer
from repro.utils.validation import (check_node_index, check_positive,
                                    check_probability)


class PRSim(SimRankAlgorithm):
    """Partial-index PRSim with hub-node reverse-PPR index."""

    name = "prsim"
    index_based = True
    #: Both query types are derived from :meth:`single_source`.  A top-k
    #: that stopped at the first level certifying its set tied with or lost
    #: to the full pass on every measured graph (README's routing table).
    native_capabilities = frozenset()

    def __init__(self, graph: DiGraph, *, decay: float = 0.6, epsilon: float = 1e-3,
                 hub_fraction: float = 0.1, seed: SeedLike = None,
                 context: Optional[GraphContext] = None):
        super().__init__(graph, decay=decay, context=context)
        self.epsilon = check_positive(epsilon, "epsilon")
        self.hub_fraction = check_probability(hub_fraction, "hub_fraction",
                                              inclusive_low=False)
        self._seed = seed
        self._on_graph_rebound()
        self._hubs: Optional[np.ndarray] = None
        # _hub_levels[ℓ] is G_ℓᵀ, an (n × hubs) CSC matrix whose column p
        # holds π_j^ℓ(hubs[p]) over the nodes j where it is ≥ the index
        # threshold: its arrays are the CSR arrays of the hubs × n G_ℓ.
        self._hub_levels: List[sparse.csc_matrix] = []
        self._diagonal: Optional[np.ndarray] = None

    def num_iterations(self) -> int:
        return truncation_depth(self.epsilon, self.decay)

    # ------------------------------------------------------------------ #
    # preprocessing
    # ------------------------------------------------------------------ #
    def _build_hub_vectors(self, hubs: np.ndarray, iterations: int,
                           threshold: float) -> List[sparse.csc_matrix]:
        """All hubs' truncated reverse hop vectors, as one G_ℓᵀ per level.

        The exact (unpruned) hub walks saturate toward the reachable set
        within a few levels, which is precisely the regime where a dense
        state wins: :func:`repro.kernels.parallel.pruned_lane_levels`
        carries the hubs as the unit columns of (num_nodes × hubs) chunks
        advanced by one ``Pᵀ``-times-dense product per level, and stores
        each level's (1 − √c)-scaled snapshot, pruned below ``threshold``,
        as one CSR row per hub.  Supports match the sequential per-hub walk
        (``tests/specs/probes.py``) exactly and values to ≤1e-12 (the matrix
        product multiplies by the edge weight before adding, where the
        frontier kernel sums first and divides once); the equivalence suite
        pins both.
        """
        sqrt_c = self._operator.sqrt_c
        return [level.T for level in pruned_lane_levels(
            self._operator.matrix_t, hubs, iterations, sqrt_c, threshold,
            snapshot_scale=1.0 - sqrt_c)]

    def _build_index(self) -> None:
        num_nodes = self.graph.num_nodes
        iterations = self.num_iterations()
        rank = pagerank(self.graph)
        num_hubs = max(1, int(np.ceil(self.hub_fraction * num_nodes)))
        hubs = np.argsort(-rank)[:num_hubs].astype(np.int64)
        threshold = (1.0 - self._operator.sqrt_c) ** 2 * self.epsilon

        diagonal = np.full(num_nodes, 1.0 - self.decay, dtype=np.float64)
        diagonal[self.graph.in_degrees == 0] = 1.0
        samples = max(16, min(int(np.ceil(1.0 / self.epsilon)), 5_000))
        hub_levels = self._build_hub_vectors(hubs, iterations, threshold)
        # All hubs' D(k, k) estimates ride one count-aggregated engine call:
        # every hub is an origin carrying the full per-hub pair budget, so the
        # MC cost no longer scales with the hub count times the sample count.
        sampled = hubs[self.graph.in_degrees[hubs] > 1]
        if sampled.size:
            met = self._engine.pair_meet_counts(
                sampled, np.full(sampled.shape[0], samples, dtype=np.int64))
            diagonal[sampled] = 1.0 - met / float(samples)
        self._hubs = hubs
        self._hub_levels = hub_levels
        self._diagonal = diagonal

    def _on_graph_rebound(self) -> None:
        self._engine = SqrtCWalkEngine(self.graph, self.decay, seed=self._seed)
        self._operator = self._operator_for_graph()

    # ------------------------------------------------------------------ #
    # persistence: hubs + diagonal + the hub index as flat COO triplets
    # ------------------------------------------------------------------ #
    def _index_payload(self) -> Dict[str, np.ndarray]:
        """The hub index as flat COO sorted by (hub position, level, column).

        Stacking the levels' G_ℓ and reading their rows in (position, level)
        order yields the triplets in that order without a sort.
        """
        assert self._hubs is not None and self._diagonal is not None
        num_levels, num_hubs = len(self._hub_levels), self._hubs.shape[0]
        by_position = np.arange(num_levels * num_hubs).reshape(
            num_levels, num_hubs).T.ravel()
        stacked = sparse.vstack([level.T for level in self._hub_levels],
                                format="csr")[by_position]
        keys = np.repeat(np.arange(num_levels * num_hubs, dtype=np.int64),
                         np.diff(stacked.indptr))
        positions, levels = np.divmod(keys, num_levels)
        return {
            "hubs": self._hubs,
            "diagonal": self._diagonal,
            "epsilon": np.float64(self.epsilon),
            "hub_fraction": np.float64(self.hub_fraction),
            "hub_positions": positions,
            "hub_levels": levels,
            "hub_cols": stacked.indices.astype(np.int64),
            "hub_vals": stacked.data,
        }

    def _restore_index(self, payload: Mapping[str, np.ndarray]) -> None:
        num_nodes = self.graph.num_nodes
        diagonal = np.asarray(payload["diagonal"], dtype=np.float64)
        if diagonal.shape != (num_nodes,):
            raise IndexPersistenceError("diagonal has incompatible length")
        check_unit_interval(diagonal, "diagonal")
        # ε and the hub set are properties of the stored index: the query-time
        # iteration depth and thresholds must match the build, so adopt them,
        # but only once the whole payload has passed: a refused file leaves
        # this instance's config as it was.
        epsilon = check_positive(payload["epsilon"], "epsilon")
        hub_fraction = check_probability(payload["hub_fraction"],
                                         "hub_fraction", inclusive_low=False)
        hubs = np.asarray(payload["hubs"], dtype=np.int64)
        iterations = truncation_depth(epsilon, self.decay)
        if hubs.size and (hubs.min() < 0 or hubs.max() >= num_nodes):
            raise IndexPersistenceError("hub ids lie outside the graph")
        if np.unique(hubs).size != hubs.size:
            raise IndexPersistenceError("hub ids repeat")

        positions = np.asarray(payload["hub_positions"], dtype=np.int64)
        levels = np.asarray(payload["hub_levels"], dtype=np.int64)
        cols = np.asarray(payload["hub_cols"], dtype=np.int64)
        vals = np.asarray(payload["hub_vals"], dtype=np.float64)
        if not (positions.shape == levels.shape == cols.shape == vals.shape):
            raise IndexPersistenceError("hub index arrays have mismatched shapes")
        if positions.size and (positions.min() < 0
                               or positions.max() >= hubs.shape[0]):
            raise IndexPersistenceError("hub index references unknown hub positions")
        if levels.size and (levels.min() < 0 or levels.max() > iterations):
            raise IndexPersistenceError(
                "hub index references levels beyond the ε iteration depth")
        if cols.size and (cols.min() < 0 or cols.max() >= num_nodes):
            raise IndexPersistenceError("hub index references unknown nodes")
        check_unit_interval(vals, "hub index value")
        # One CSR matrix with a row per (level, position) takes the triplets
        # in any order; its row blocks are the levels' G_ℓ.
        num_hubs = hubs.shape[0]
        stacked = sparse.csr_matrix(
            (vals, (levels * num_hubs + positions, cols)),
            shape=((iterations + 1) * num_hubs, num_nodes))
        if stacked.nnz != vals.size:
            raise IndexPersistenceError("hub index repeats an entry")
        self.epsilon = epsilon
        self.hub_fraction = hub_fraction
        self._hubs = hubs
        self._hub_levels = [
            stacked[level * num_hubs:(level + 1) * num_hubs].T
            for level in range(iterations + 1)]
        self._diagonal = diagonal

    # ------------------------------------------------------------------ #
    # query
    # ------------------------------------------------------------------ #
    def single_source(self, source: int) -> SingleSourceResult:
        source = check_node_index(source, self.graph.num_nodes, "source")
        self.ensure_prepared()
        assert self._hubs is not None and self._diagonal is not None
        timer = Timer()
        with timer:
            num_nodes = self.graph.num_nodes
            iterations = self.num_iterations()
            hop_ppr = hop_ppr_vectors(self.graph, source, iterations, decay=self.decay,
                                      operator=self._operator)
            scale = 1.0 / (1.0 - self._operator.sqrt_c) ** 2
            scores = np.zeros(num_nodes, dtype=np.float64)

            is_hub = np.zeros(num_nodes, dtype=bool)
            is_hub[self._hubs] = True
            # Hub contribution: one G_ℓᵀ @ w_ℓ per level, where hub p's
            # weight is scale·D(hub)·π_source^ℓ(hub).
            hub_diagonal = scale * self._diagonal[self._hubs]
            for level, hub_level in enumerate(self._hub_levels):
                if hub_level.nnz:
                    scores += hub_level @ (
                        hub_diagonal * hop_ppr.hop_dense(level)[self._hubs])

            # Non-hub contribution: on-the-fly reverse propagation at a coarser
            # threshold, restricted to nodes the source actually reaches.  All
            # candidate meeting nodes of a level are propagated simultaneously
            # through shared CSR slices by the batched frontier kernel.
            # The hub read-off above is one cheap pass; the probe batches are
            # the expensive part and each level's is a degraded-stop boundary:
            # skipping the probes from level ℓ on leaves an error of at most
            # Σ_{m ≥ ℓ} scale·(1 − √c)·(√c)^m·Σ_{probe k} π_i^m(k)·D(k),
            # since every entry of a probe's level-m reverse hop vector is
            # at most (1 − √c)·(√c)^m.
            deadline = active_deadline()
            sqrt_c = self._operator.sqrt_c
            residual = 1.0 - sqrt_c
            coarse_threshold = residual * self.epsilon
            probes_from = iterations + 1
            bound = 0.0
            for level in range(iterations + 1):
                if deadline is not None and level > 0 and deadline.expired():
                    probes_from = level
                    for skipped in range(level, iterations + 1):
                        hop_vector = hop_ppr.hop_dense(skipped)
                        mask = (hop_vector > coarse_threshold) & ~is_hub
                        bound += (scale * residual * sqrt_c ** skipped
                                  * float(np.sum(hop_vector[mask]
                                                 * self._diagonal[mask])))
                    break
                hop_vector = hop_ppr.hop_dense(level)
                self._accumulate_probes(scores, level, hop_vector, is_hub)
            np.clip(scores, 0.0, 1.0, out=scores)
            scores[source] = 1.0
        stats = {"epsilon": self.epsilon,
                 "num_hubs": float(self._hubs.shape[0]),
                 "index_bytes": float(self.index_bytes())}
        if probes_from <= iterations:
            stats["degraded"] = 1.0
            stats["certified_bound"] = bound
            stats["levels_used"] = float(probes_from)
            stats["levels_total"] = float(iterations + 1)
        return SingleSourceResult(source=source, scores=scores, algorithm=self.name,
                                  query_seconds=timer.elapsed,
                                  preprocessing_seconds=self.preprocessing_seconds,
                                  stats=stats)

    def _accumulate_probes(self, scores: np.ndarray, level: int,
                           hop_vector: np.ndarray, is_hub: np.ndarray) -> None:
        """Add Σ_k scale·D(k,k)·π_i^level(k)·π_·^level(k) over the level's
        non-hub nodes k with π_i^level(k) above the coarse threshold.

        Each candidate's reverse walk runs ``level`` steps of
        :func:`repro.kernels.frontier.accumulate_probes`, pruned below the
        same coarse threshold after every step.
        """
        assert self._diagonal is not None
        residual = 1.0 - self._operator.sqrt_c
        threshold = residual * self.epsilon
        candidates = np.flatnonzero((hop_vector > threshold) & ~is_hub)
        if candidates.size == 0:
            return
        scale = 1.0 / residual ** 2
        weights = (scale * residual * self._diagonal[candidates]
                   * hop_vector[candidates])
        accumulate_probes(self._operator, candidates, weights, level,
                          threshold, scores)

    def index_bytes(self) -> int:
        total = int(self._diagonal.nbytes) if self._diagonal is not None else 0
        if self._hubs is not None:
            total += int(self._hubs.nbytes)
        for level in self._hub_levels:
            total += int(level.data.nbytes + level.indices.nbytes
                         + level.indptr.nbytes)
        return total


__all__ = ["PRSim"]
