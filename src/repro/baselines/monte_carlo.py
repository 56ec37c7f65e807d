"""MC — the Monte-Carlo walk-index baseline (Fogaras & Rácz).

Preprocessing simulates ``walks_per_node`` √c-walks of at most ``walk_length``
steps from every node and stores the full trajectories as the index.  A
single-source query for node ``i`` pairs up the r-th stored walk of ``i`` with
the r-th stored walk of every other node ``j`` and reports the fraction of
pairs that meet (same node, same step) as the estimate of S(i, j).

Only the cells (step t ≥ 1, replica r) where the source's own walk is still
alive can hold a meeting, so the query does not scan every stored walk.  It
reads an inverse of the store instead: for each cell, the nodes grouped by
the position of their r-th walk, one bucket per live source cell.  Its cost
follows the source's live walks and the meetings they find, not L·r·n.  The
inverse is derived from the store whenever the store is built or restored,
so preprocessing and index loads pay for it, not a query; it is never
persisted, and :meth:`MonteCarloSimRank.index_bytes` counts it.

The two knobs ``(walk_length, walks_per_node)`` are exactly the ``(L, r)``
parameters the paper sweeps from (5, 50) to (5000, 50000); the method's
O(n·log n/ε²) preprocessing is the complexity term that makes it infeasible
at the exactness target.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.baselines.base import (QUERY_SINGLE_PAIR, IndexPersistenceError,
                                  SimRankAlgorithm)
from repro.core.result import SinglePairResult, SingleSourceResult
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.randomwalk.engine import SqrtCWalkEngine
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer
from repro.utils.validation import check_node_index, check_positive_int


class MonteCarloSimRank(SimRankAlgorithm):
    """Walk-index Monte-Carlo single-source SimRank."""

    name = "mc"
    index_based = True
    #: A pair query compares the two nodes' stored walks only — O(L·r)
    #: instead of the O(L·r·n) all-columns sweep (see :meth:`single_pair`).
    native_capabilities = frozenset({QUERY_SINGLE_PAIR})

    def __init__(self, graph: DiGraph, *, decay: float = 0.6, walks_per_node: int = 100,
                 walk_length: int = 10, seed: SeedLike = None,
                 context: Optional[GraphContext] = None):
        super().__init__(graph, decay=decay, context=context)
        self.walks_per_node = check_positive_int(walks_per_node, "walks_per_node")
        self.walk_length = check_positive_int(walk_length, "walk_length")
        self._seed = seed
        self._on_graph_rebound()
        # Index layout: positions[t, r, v] = node visited at step t by the r-th
        # walk started from v (−1 once the walk has stopped).
        self._index: Optional[np.ndarray] = None
        # The store grouped by position, set with it (:func:`_walk_inverse`).
        self._inverse: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # preprocessing
    # ------------------------------------------------------------------ #
    #: Cap on int64 trajectory elements materialised per compacted engine
    #: call (~64 MB); bounds the build's peak memory above the int32 store.
    _MAX_CHUNK_ELEMENTS = 8_000_000

    def _build_index(self) -> None:
        num_nodes = self.graph.num_nodes
        # Chunked compacted build: each chunk simulates several replicas of
        # every node in one engine call (walk w = r·n + v, so the trajectory
        # matrix reshapes straight into the (step, replica, node) layout),
        # and the engine only touches walks still alive at each step.  The
        # chunk size caps the transient int64 trajectory batch so peak
        # memory stays within a constant factor of the int32 store itself.
        starts = np.arange(num_nodes, dtype=np.int64)
        per_chunk = max(1, self._MAX_CHUNK_ELEMENTS
                        // max(1, (self.walk_length + 1) * num_nodes))
        index = np.full((self.walk_length + 1, self.walks_per_node, num_nodes),
                        -1, dtype=np.int32)
        for first in range(0, self.walks_per_node, per_chunk):
            replicas = min(per_chunk, self.walks_per_node - first)
            batch = self._engine.walks_from_nodes(np.tile(starts, replicas),
                                                  max_steps=self.walk_length)
            index[:, first:first + replicas, :] = batch.positions.reshape(
                self.walk_length + 1, replicas, num_nodes).astype(np.int32)
        self._index = index
        self._inverse = _walk_inverse(index)

    def _on_graph_rebound(self) -> None:
        # Walk engines snapshot the CSR arrays at construction; a fresh
        # seeded engine makes the rebuild match a new instance bit for bit.
        self._engine = SqrtCWalkEngine(self.graph, self.decay, seed=self._seed)

    # ------------------------------------------------------------------ #
    # persistence: the walk store is one dense int32 array
    # ------------------------------------------------------------------ #
    def _index_payload(self) -> Dict[str, np.ndarray]:
        assert self._index is not None
        return {"walks": self._index}

    def _restore_index(self, payload: Mapping[str, np.ndarray]) -> None:
        walks = np.asarray(payload["walks"], dtype=np.int32)
        num_nodes = self.graph.num_nodes
        if walks.ndim != 3 or walks.shape[2] != num_nodes:
            raise IndexPersistenceError("walk store has incompatible shape")
        # A build stores the start and at least one step, of at least one
        # replica: with no replica every score would be 0/0.
        if walks.shape[0] < 2 or walks.shape[1] < 1:
            raise IndexPersistenceError(
                f"walk store of shape {walks.shape} holds no step or no replica")
        # Positions are nodes or −1: anything else would move scores
        # silently, and the inverse indexes its buckets by position.
        if walks.size and (walks.min() < -1 or walks.max() >= num_nodes):
            raise IndexPersistenceError(
                "walk store holds a position outside [-1, n)")
        inverse = _walk_inverse(walks)
        # Adopt the stored walk parameters: they are properties of the index.
        self.walk_length = int(walks.shape[0] - 1)
        self.walks_per_node = int(walks.shape[1])
        self._index = walks
        self._inverse = inverse

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def single_source(self, source: int) -> SingleSourceResult:
        source = check_node_index(source, self.graph.num_nodes, "source")
        self.ensure_prepared()
        assert self._index is not None and self._inverse is not None
        timer = Timer()
        with timer:
            starts, members = self._inverse
            replicas, num_nodes = self.walks_per_node, self.graph.num_nodes
            # A pair (source walk r, walk r of node j) meets if at some step
            # t ≥ 1 both are alive on the same node, i.e. j is in the bucket
            # of one of the source's live cells (t, r).
            source_walks = self._index[1:, :, source]
            steps, rows = np.nonzero(source_walks >= 0)
            keys = (steps * replicas + rows) * num_nodes + source_walks[steps, rows]
            lows = starts[keys]
            sizes = starts[keys + 1] - lows
            ends = np.cumsum(sizes)
            # One gather reads the buckets back to back.
            met_nodes = members[np.arange(ends[-1] if ends.size else 0)
                                + np.repeat(lows - ends + sizes, sizes)]
            met = np.zeros(replicas * num_nodes, dtype=bool)
            met[np.repeat(rows * num_nodes, sizes) + met_nodes] = True
            # Whole counts over R: the same floats as the mean of met's rows.
            scores = np.bincount(np.flatnonzero(met) % num_nodes,
                                 minlength=num_nodes) / replicas
            scores[source] = 1.0
        return SingleSourceResult(source=source, scores=scores.astype(np.float64),
                                  algorithm=self.name, query_seconds=timer.elapsed,
                                  preprocessing_seconds=self.preprocessing_seconds,
                                  stats={"walks_per_node": float(self.walks_per_node),
                                         "walk_length": float(self.walk_length),
                                         "index_bytes": float(self.index_bytes())})

    def single_pair(self, source: int, target: int) -> SinglePairResult:
        """S(source, target) from the two nodes' stored walks alone.

        Pairs the r-th source walk with the r-th target walk exactly as the
        full query does for every column, but touches only the two (L, r)
        trajectory slices: O(walk_length · walks_per_node) instead of the
        full O(walk_length · walks_per_node · n) sweep.
        """
        source = check_node_index(source, self.graph.num_nodes, "source")
        target = check_node_index(target, self.graph.num_nodes, "target")
        self.ensure_prepared()
        assert self._index is not None
        timer = Timer()
        with timer:
            if source == target:
                score = 1.0
            else:
                source_walks = self._index[:, :, source]
                target_walks = self._index[:, :, target]
                met = np.zeros(self.walks_per_node, dtype=bool)
                for step in range(1, self.walk_length + 1):
                    met |= ((source_walks[step] >= 0)
                            & (source_walks[step] == target_walks[step]))
                score = float(met.mean())
        return SinglePairResult(source=source, target=target, score=score,
                                algorithm=self.name, query_seconds=timer.elapsed,
                                preprocessing_seconds=self.preprocessing_seconds,
                                stats={"native_single_pair": 1.0,
                                       "walks_per_node": float(self.walks_per_node),
                                       "walk_length": float(self.walk_length)})

    def index_bytes(self) -> int:
        """The walk store's bytes plus its inverse's, which queries read."""
        if self._index is None or self._inverse is None:
            return 0
        starts, members = self._inverse
        return int(self._index.nbytes + starts.nbytes + members.nbytes)


def _walk_inverse(index: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The walk store ``index[t, r, v]`` grouped by position.

    Returns ``(starts, members)``: bucket ``((t − 1)·R + r)·n + p`` holds, in
    ascending order, the nodes j whose r-th walk is on node p at step
    t ≥ 1, ``members[starts[key]:starts[key + 1]]``.  Stopped walks (−1)
    are in no bucket.  One counting pass and one sort per step build it,
    so the transient arrays stay the size of one step of the store.
    """
    steps, replicas, num_nodes = index.shape[0] - 1, index.shape[1], index.shape[2]
    step_keys = replicas * num_nodes
    # Offsets reach the count of live walks, at most steps·R·n.
    starts = np.zeros(steps * step_keys + 1,
                      dtype=np.int32 if steps * step_keys < 2**31 else np.int64)
    members = []
    filled = 0
    for step in range(1, steps + 1):
        positions = index[step].reshape(-1)
        alive = np.flatnonzero(positions >= 0)
        nodes = alive % num_nodes
        # alive − j is r·n, so this is the bucket r·n + p of the step.
        keys = alive - nodes
        keys += positions[alive]
        ends = starts[(step - 1) * step_keys + 1:step * step_keys + 1]
        np.cumsum(np.bincount(keys, minlength=step_keys), out=ends)
        ends += filled
        # Sorting the distinct values key·n + j orders the buckets and each
        # bucket's members in one pass.
        keys *= num_nodes
        keys += nodes
        keys.sort()
        members.append((keys % num_nodes).astype(np.int32))
        filled += alive.size
    return starts, np.concatenate(members)


__all__ = ["MonteCarloSimRank"]
