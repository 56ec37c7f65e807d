"""The √c-walk engine: compacted per-walk and count-aggregated simulation.

A √c-walk (paper §2, "MC") is a random walk on the *reverse* edges of the
graph: at each step it moves to a uniformly random in-neighbour with
probability √c and stops with probability 1 − √c; it also stops when the
current node has no in-neighbour.  SimRank is the probability that two
independent √c-walks started from the two query nodes visit the same node at
the same step (eq. 2), and the diagonal correction matrix is
D(k, k) = 1 − Pr[two √c-walks from k meet at step ≥ 1].

Two mechanisms keep the simulation cost proportional to the *live* work
instead of the batch width:

* **Alive compaction** — the trajectory-recording paths
  (:meth:`SqrtCWalkEngine.walks_from`, :meth:`~SqrtCWalkEngine.walks_from_nodes`)
  keep an index array of walks that are still alive, advance only those, and
  scatter positions back into the trajectory matrix.  Under the √c decay the
  live set shrinks geometrically, so the total step cost is
  O(Σ_t alive_t) ≈ O(num_walks / (1 − √c)) instead of
  O(num_walks · max_steps).
* **Count aggregation** — the observable-only paths (visit counts, pair
  meetings) never need walk identities, so walks occupying the same state
  collapse into ``(state, count)`` pairs advanced with binomial/multinomial
  draws by the kernels in :mod:`repro.randomwalk.aggregate`.  The per-step
  cost is bounded by the number of *distinct occupied states*, which makes
  the single-source ``num_walks ≫ |reachable set|`` regimes of ExactSim's
  phase 2 and the diagonal estimators orders of magnitude cheaper.  Pair
  states spread out within a few steps (about one pair per ``(origin, u,
  v)`` state from step 3 on GQ), so a pair walk finishes one slot per pair
  once its states average fewer than
  :data:`~repro.randomwalk.aggregate.PER_PAIR_BELOW` pairs; from there a
  step costs the live pairs and no sort.

The pre-compaction full-width engine survives in ``tests/specs/walks.py``
— the executable specification the statistical-equivalence tests pin this
engine against.
Seeded runs of this engine are deterministic (same seed ⇒ bit-identical
results), but the RNG consumption pattern differs from the reference engine,
so the two produce different (equally distributed) sample paths.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from repro.graph.digraph import DiGraph
from repro.randomwalk.aggregate import advance_frontier, group_sum, pair_meet_counts
from repro.randomwalk.walkbatch import WalkBatch
from repro.utils.deadline import CHECKPOINT_WALK_BATCH, checkpoint
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_node_index, check_positive_int, check_probability

#: Per-step occupancy of an aggregated walk ensemble: (occupied nodes, counts).
CountFrontier = Tuple[np.ndarray, np.ndarray]


class SqrtCWalkEngine:
    """Compacted / count-aggregated simulation of √c-walks on a :class:`DiGraph`.

    Parameters
    ----------
    graph:
        The graph to walk on (walks move to *in*-neighbours).
    decay:
        The SimRank decay factor ``c``; the per-step survival probability is
        ``√c``.
    seed:
        Seed or generator for reproducible simulation.
    """

    def __init__(self, graph: DiGraph, decay: float = 0.6, *, seed: SeedLike = None):
        self.graph = graph
        self.decay = check_probability(decay, "decay", inclusive_low=False, inclusive_high=False)
        self.sqrt_c = float(np.sqrt(self.decay))
        self.rng = ensure_rng(seed)
        self._indptr = graph.in_indptr
        self._indices = graph.in_indices
        self._in_degrees = graph.in_degrees

    # ------------------------------------------------------------------ #
    # compacted trajectory simulation
    # ------------------------------------------------------------------ #
    def _record_walks(self, start: np.ndarray, max_steps: int) -> WalkBatch:
        """Compacted simulation of one √c-walk per ``start`` entry.

        Only live walks flip coins and draw neighbours: ``alive`` holds the
        original walk indices of the survivors and ``current`` their compacted
        positions, so each step costs O(alive) array work.
        """
        num_walks = start.shape[0]
        positions = np.full((max_steps + 1, num_walks), -1, dtype=np.int64)
        positions[0] = start
        lengths = np.zeros(num_walks, dtype=np.int64)
        alive = np.arange(num_walks, dtype=np.int64)
        current = start.copy()
        for step in range(1, max_steps + 1):
            if alive.size == 0:
                break
            checkpoint(CHECKPOINT_WALK_BATCH)
            survive = self.rng.random(alive.shape[0]) < self.sqrt_c
            alive, current = alive[survive], current[survive]
            movable = self._in_degrees[current] > 0
            alive, current = alive[movable], current[movable]
            if alive.size == 0:
                break
            degrees = self._in_degrees[current]
            offsets = (self.rng.random(current.shape[0]) * degrees).astype(np.int64)
            current = self._indices[self._indptr[current] + offsets]
            positions[step, alive] = current
            lengths[alive] = step
        return WalkBatch(positions=positions, lengths=lengths)

    def walks_from(self, node: int, num_walks: int, *, max_steps: int = 64) -> WalkBatch:
        """Simulate ``num_walks`` √c-walks from ``node`` recording full trajectories."""
        node = check_node_index(node, self.graph.num_nodes)
        num_walks = check_positive_int(num_walks, "num_walks")
        max_steps = check_positive_int(max_steps, "max_steps")
        return self._record_walks(np.full(num_walks, node, dtype=np.int64), max_steps)

    def walks_from_nodes(self, nodes: np.ndarray, *, max_steps: int = 64) -> WalkBatch:
        """Simulate one √c-walk per entry of ``nodes`` (entries may repeat)."""
        start = np.asarray(nodes, dtype=np.int64)
        if start.ndim != 1:
            raise ValueError("nodes must be a one-dimensional array of start nodes")
        if start.size and (start.min() < 0 or start.max() >= self.graph.num_nodes):
            raise ValueError("start node out of range")
        return self._record_walks(start.copy(), max_steps)

    # ------------------------------------------------------------------ #
    # count-aggregated ensemble simulation
    # ------------------------------------------------------------------ #
    def visit_count_steps(self, start_nodes: np.ndarray, start_counts: np.ndarray,
                          *, max_steps: int = 64) -> List[CountFrontier]:
        """Aggregated per-step occupancy of a pooled √c-walk ensemble.

        ``start_counts[i]`` walks start at ``start_nodes[i]``; the returned
        list holds one ``(nodes, counts)`` frontier per step ``0 … t_max``
        (``counts`` sums to the number of walks still alive at that step; the
        list stops early once every walk has died).  Walk identities are never
        materialised, so the cost per step is bounded by the number of
        distinct occupied nodes — the aggregation win for the
        ``num_walks ≫ |reachable set|`` sampling regimes.
        """
        nodes = np.asarray(start_nodes, dtype=np.int64)
        counts = np.asarray(start_counts, dtype=np.int64)
        if nodes.shape != counts.shape or nodes.ndim != 1:
            raise ValueError("start_nodes and start_counts must be matching 1-d arrays")
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.graph.num_nodes):
            raise ValueError("start node out of range")
        if np.any(counts < 0):
            raise ValueError("start_counts must be non-negative")
        live = counts > 0
        (nodes,), counts = group_sum(counts[live], nodes[live])
        levels: List[CountFrontier] = [(nodes, counts)]
        for _ in range(max_steps):
            if nodes.size == 0:
                break
            checkpoint(CHECKPOINT_WALK_BATCH)
            nodes, counts = advance_frontier(
                self.rng, self._indptr, self._indices, self._in_degrees,
                nodes, counts, self.sqrt_c)
            if nodes.size == 0:
                break
            levels.append((nodes, counts))
        return levels

    # ------------------------------------------------------------------ #
    # aggregated pair meetings
    # ------------------------------------------------------------------ #
    def pair_meet_counts(self, start_nodes: np.ndarray, pair_counts: np.ndarray, *,
                         max_steps: int = 64,
                         skip_steps: Union[int, np.ndarray] = 0) -> np.ndarray:
        """How many of ``pair_counts[p]`` walk pairs from ``start_nodes[p]`` meet.

        Both walks of every pair start at the origin's node; entry ``p`` of
        the result counts the pairs that meet at some step ≥ 1 (strictly
        after the per-origin non-stop prefix when ``skip_steps`` is set —
        pairs meeting inside the prefix are disqualified, matching the
        Algorithm 3 tail-estimator semantics).  Each pair's first
        post-prefix coin is drawn before it moves, and only the pairs that
        survive it walk the prefix: binomial thinning, so the counts keep
        their distribution (:mod:`repro.randomwalk.aggregate`).  One
        aggregated simulation serves all origins at once, in chunks of at
        most :data:`~repro.randomwalk.aggregate.PAIR_CHUNK` pairs on the
        kernel thread pool: the counts are bit-identical at any thread
        count, and a call of at most that many pairs draws only from
        :attr:`rng`.
        """
        starts = np.asarray(start_nodes, dtype=np.int64)
        return self.pair_meet_counts_from(starts, starts, pair_counts,
                                          max_steps=max_steps, skip_steps=skip_steps)

    def pair_meet_counts_from(self, first_nodes: np.ndarray, second_nodes: np.ndarray,
                              pair_counts: np.ndarray, *, max_steps: int = 64,
                              skip_steps: Union[int, np.ndarray] = 0) -> np.ndarray:
        """General form of :meth:`pair_meet_counts` with distinct start pairs.

        Entry ``p`` simulates ``pair_counts[p]`` pairs with the first walk
        from ``first_nodes[p]`` and the second from ``second_nodes[p]`` — the
        eq. (2) estimator for S(i, j) uses one ``(i, j)`` origin.
        """
        first = np.asarray(first_nodes, dtype=np.int64)
        second = np.asarray(second_nodes, dtype=np.int64)
        counts = np.asarray(pair_counts, dtype=np.int64)
        if not (first.shape == second.shape == counts.shape) or first.ndim != 1:
            raise ValueError("start and count arrays must be matching 1-d arrays")
        for arr in (first, second):
            if arr.size and (arr.min() < 0 or arr.max() >= self.graph.num_nodes):
                raise ValueError("start node out of range")
        if np.any(counts < 0):
            raise ValueError("pair_counts must be non-negative")
        skip = np.broadcast_to(np.asarray(skip_steps, dtype=np.int64), first.shape)
        if np.any(skip < 0):
            raise ValueError("skip_steps must be non-negative")
        max_steps = check_positive_int(max_steps, "max_steps")
        return pair_meet_counts(self.rng, self._indptr, self._indices,
                                self._in_degrees, self.decay, first, second,
                                counts, max_steps=max_steps,
                                skip_steps=np.ascontiguousarray(skip))


__all__ = ["CountFrontier", "SqrtCWalkEngine", "WalkBatch"]
