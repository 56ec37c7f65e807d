"""Per-walk reference implementation of the √c-walk engine.

This is the pre-compaction engine preserved verbatim as an *executable
specification*, mirroring :mod:`specs.frontier`: every step advances
the full walk batch width with one coin flip and one neighbour draw per walk,
regardless of how many walks are still alive.  The production engine in
:mod:`repro.randomwalk.engine` compacts to the live frontier and aggregates
identical walk states into counts; ``tests/test_randomwalk_aggregate.py``
pins the two to each other statistically (same graph, same walk parameters ⇒
visit-count and meeting-probability distributions agree within sampling
tolerance).

Deliberately slow — never call it from production paths.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.randomwalk.walkbatch import WalkBatch
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_node_index, check_positive_int, check_probability


class ReferenceWalkEngine:
    """Full-width per-walk simulation of √c-walks (the executable spec)."""

    def __init__(self, graph: DiGraph, decay: float = 0.6, *, seed: SeedLike = None):
        self.graph = graph
        self.decay = check_probability(decay, "decay", inclusive_low=False, inclusive_high=False)
        self.sqrt_c = float(np.sqrt(self.decay))
        self.rng = ensure_rng(seed)
        self._indptr = graph.in_indptr
        self._indices = graph.in_indices
        self._in_degrees = graph.in_degrees

    # ------------------------------------------------------------------ #
    # single-step kernel
    # ------------------------------------------------------------------ #
    def _advance(self, current: np.ndarray, survive: np.ndarray) -> np.ndarray:
        """Advance live walks one step; returns the new positions (−1 = stopped).

        ``current`` holds node ids with −1 marking already-stopped walks;
        ``survive`` is a boolean array saying which walks won the √c coin flip
        this step.
        """
        next_positions = np.full_like(current, -1)
        alive = (current >= 0) & survive
        if not alive.any():
            return next_positions
        nodes = current[alive]
        degrees = self._in_degrees[nodes]
        movable = degrees > 0
        if movable.any():
            mover_nodes = nodes[movable]
            mover_degrees = degrees[movable]
            offsets = (self.rng.random(mover_nodes.shape[0]) * mover_degrees).astype(np.int64)
            destinations = self._indices[self.graph.in_indptr[mover_nodes] + offsets]
            alive_idx = np.flatnonzero(alive)
            next_positions[alive_idx[movable]] = destinations
        return next_positions

    # ------------------------------------------------------------------ #
    # public simulation APIs
    # ------------------------------------------------------------------ #
    def walks_from(self, node: int, num_walks: int, *, max_steps: int = 64) -> WalkBatch:
        """Simulate ``num_walks`` √c-walks from ``node`` recording full trajectories."""
        node = check_node_index(node, self.graph.num_nodes)
        num_walks = check_positive_int(num_walks, "num_walks")
        max_steps = check_positive_int(max_steps, "max_steps")

        positions = np.full((max_steps + 1, num_walks), -1, dtype=np.int64)
        positions[0] = node
        lengths = np.zeros(num_walks, dtype=np.int64)
        current = positions[0].copy()
        for step in range(1, max_steps + 1):
            if not (current >= 0).any():
                break
            survive = self.rng.random(num_walks) < self.sqrt_c
            current = self._advance(current, survive)
            positions[step] = current
            lengths[current >= 0] = step
        return WalkBatch(positions=positions, lengths=lengths)

    def walks_from_nodes(self, nodes: np.ndarray, *, max_steps: int = 64) -> WalkBatch:
        """Simulate one √c-walk per entry of ``nodes`` (entries may repeat)."""
        start = np.asarray(nodes, dtype=np.int64)
        if start.ndim != 1:
            raise ValueError("nodes must be a one-dimensional array of start nodes")
        if start.size and (start.min() < 0 or start.max() >= self.graph.num_nodes):
            raise ValueError("start node out of range")
        num_walks = start.shape[0]
        positions = np.full((max_steps + 1, num_walks), -1, dtype=np.int64)
        positions[0] = start
        lengths = np.zeros(num_walks, dtype=np.int64)
        current = start.copy()
        for step in range(1, max_steps + 1):
            if not (current >= 0).any():
                break
            survive = self.rng.random(num_walks) < self.sqrt_c
            current = self._advance(current, survive)
            positions[step] = current
            lengths[current >= 0] = step
        return WalkBatch(positions=positions, lengths=lengths)

    def pair_meet_counts(self, start_nodes: np.ndarray, pair_counts: np.ndarray,
                         *, max_steps: int = 64, skip_steps: int = 0) -> np.ndarray:
        """How many of ``pair_counts[p]`` walk pairs from ``start_nodes[p]`` meet.

        Every pair is simulated walk by walk in one full-width batch.  A pair
        "meets" if the two walks occupy the same node at the same step
        ``t ≥ 1`` while both are still alive.  With ``skip_steps > 0`` the
        walks do not flip the stopping coin during their first ``skip_steps``
        steps (they stop only at dead ends) — this is the "non-stop prefix"
        behaviour Algorithm 3 needs for estimating the tail
        Σ_{ℓ>ℓ(k)} Z_ℓ(k).  In that mode a pair whose walks already met during
        the prefix is excluded (its first meeting belongs to the
        deterministically computed part), and only meetings strictly after the
        prefix are counted.
        """
        starts = np.asarray(start_nodes, dtype=np.int64)
        counts = np.asarray(pair_counts, dtype=np.int64)
        if starts.shape != counts.shape or starts.ndim != 1:
            raise ValueError("start_nodes and pair_counts must be matching 1-d arrays")
        if starts.size and (starts.min() < 0 or starts.max() >= self.graph.num_nodes):
            raise ValueError("start node out of range")
        origin = np.repeat(np.arange(starts.shape[0], dtype=np.int64), counts)
        num_pairs = origin.shape[0]
        first = starts[origin]
        second = first.copy()
        met = np.zeros(num_pairs, dtype=bool)
        met_in_prefix = np.zeros(num_pairs, dtype=bool)
        for step in range(1, max_steps + 1):
            active = (first >= 0) & (second >= 0) & ~met
            if not active.any():
                break
            if step <= skip_steps:
                survive_first = np.ones(num_pairs, dtype=bool)
                survive_second = np.ones(num_pairs, dtype=bool)
            else:
                survive_first = self.rng.random(num_pairs) < self.sqrt_c
                survive_second = self.rng.random(num_pairs) < self.sqrt_c
            first = self._advance(first, survive_first)
            second = self._advance(second, survive_second)
            same_node = (first >= 0) & (first == second)
            if step <= skip_steps:
                met_in_prefix |= same_node
            else:
                met |= same_node & ~met_in_prefix
        return np.bincount(origin[met], minlength=starts.shape[0]).astype(np.int64)


__all__ = ["ReferenceWalkEngine"]
