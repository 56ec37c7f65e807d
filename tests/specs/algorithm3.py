"""Sequential Algorithm 3 exploration — the executable specification.

The production path interleaves the Lemma 4 recursions of many heavy nodes
level-synchronously and decides each node's ℓ(k) once per level
(:func:`repro.diagonal.local._exploit_deterministic_batch`).  This module
keeps the paper's schedule instead — one node at a time, one ``(q',
remaining)`` distribution fetch at a time, every fetch charged to the edge
counter E_k and the recursion abandoned mid-level once E_k reaches
2·R(k)/√c ("goto OUTLOOP") — with its own window and cache built on
:func:`repro.kernels.frontier.propagate_distribution`, so the equivalence
suite (``tests/test_multiprop.py``) compares two formulations: ℓ(k) must
match exactly, the deterministic mass to 1e-12.

The reference is also what ``benchmarks/bench_index.py`` times the batched
heavy-node phase against, so the recorded speedups compare two live code
paths, not a live path against a memory.

:func:`first_meeting_probabilities` runs the production level loop for one
node under an unlimited budget, for the tests that check the recursion
against closed forms and the exact D.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.diagonal.local import (
    DistributionCache,
    _ExploitState,
    _explore_levels,
)
from repro.graph.digraph import DiGraph
from repro.kernels.frontier import propagate_distribution
from repro.kernels.sparsevec import SparseVector
from repro.utils.validation import check_node_index, check_positive_int


class BudgetExhausted(Exception):
    """Raised by :meth:`ReferenceCache.distribution` when E_k is spent."""


class BudgetWindow:
    """One node's edge counter E_k and the depths it has paid per start.

    ``charges`` logs every charge in order, so a test can see where each
    level's charges fall against a budget.
    """

    def __init__(self, edge_budget: Optional[float]):
        self.edge_budget = edge_budget
        self.traversed_edges = 0
        self.paid: Dict[int, int] = {}
        self.charges: List[int] = []


class ReferenceCache:
    """Per-start distribution levels, one :func:`propagate_distribution` each.

    Shareable across windows: each window pays for every level it fetches,
    whatever the cache already holds.
    """

    def __init__(self, graph: DiGraph):
        self._graph = graph
        self._levels: Dict[int, List[SparseVector]] = {}
        self._costs: Dict[int, List[int]] = {}

    def distribution(self, start: int, steps: int,
                     window: BudgetWindow) -> SparseVector:
        """Level-``steps`` distribution of ``start``, charged to ``window``.

        Each depth the window has not paid for is charged, shallowest first,
        with the edges its propagation traversed; before every charge (and
        before propagating a depth nobody has materialised yet),
        :class:`BudgetExhausted` is raised if the window's budget is spent.
        """
        levels = self._levels.setdefault(start, [SparseVector(
            np.array([start], dtype=np.int64), np.array([1.0]))])
        costs = self._costs.setdefault(start, [0])
        budget = window.edge_budget
        # A window pays for depths in order, so every depth it has paid
        # for is materialised.
        for depth in range(window.paid.get(start, 0) + 1, steps + 1):
            if budget is not None and window.traversed_edges >= budget:
                raise BudgetExhausted()
            if depth == len(levels):
                extended, cost = propagate_distribution(
                    self._graph.in_indptr, self._graph.in_indices,
                    levels[-1], num_nodes=self._graph.num_nodes)
                levels.append(extended)
                costs.append(cost)
            window.traversed_edges += costs[depth]
            window.charges.append(costs[depth])
            window.paid[start] = depth
        return levels[steps]


def z_level_reference(cache: ReferenceCache, window: BudgetWindow,
                      node: int, level: int,
                      z_levels: List[Tuple[np.ndarray, np.ndarray]],
                      decay: float) -> Tuple[np.ndarray, np.ndarray]:
    """One Lemma 4 level with the scalar per-``q'`` fetch loop.

    Semantically identical to one state's share of
    :func:`repro.diagonal.local._run_level_fused`; the inner loop walks the
    previous levels' ``(q', Z)`` pairs in Python and fetches each
    distribution through :meth:`ReferenceCache.distribution`, charging the
    window one fetch at a time.
    """
    from_k = cache.distribution(node, level, window)
    z_indices = from_k.indices.copy()
    z_values = (decay ** level) * from_k.values * from_k.values
    for first_meeting_level in range(1, level):
        prev_indices, prev_values = z_levels[first_meeting_level - 1]
        remaining = level - first_meeting_level
        factor = decay ** remaining
        index_parts: List[np.ndarray] = []
        weight_parts: List[np.ndarray] = []
        for q_prime, z_value in zip(prev_indices.tolist(), prev_values.tolist()):
            if z_value <= 0.0:
                continue
            from_q_prime = cache.distribution(q_prime, remaining, window)
            index_parts.append(from_q_prime.indices)
            weight_parts.append(z_value * from_q_prime.values * from_q_prime.values)
        if not index_parts or z_indices.size == 0:
            continue
        support = np.concatenate(index_parts)
        weights = np.concatenate(weight_parts)
        positions = np.searchsorted(z_indices, support)
        positions = np.minimum(positions, z_indices.shape[0] - 1)
        hit = z_indices[positions] == support
        if hit.any():
            np.subtract.at(z_values, positions[hit], factor * weights[hit])
    keep = z_values > 0.0
    return z_indices[keep], z_values[keep]


def _explore_reference(graph: DiGraph, node: int, window: BudgetWindow, *,
                       decay: float, max_level: int,
                       cache: Optional[ReferenceCache]
                       ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]],
                                  List[int]]:
    """Run the recursion until ``window`` is spent; return Z and level ends.

    The second list holds, per complete level, how many of
    ``window.charges`` had been made when it completed.
    """
    if cache is None:
        cache = ReferenceCache(graph)
    z_levels: List[Tuple[np.ndarray, np.ndarray]] = []
    level_ends: List[int] = []
    for level in range(1, max_level + 1):
        try:
            z_levels.append(z_level_reference(cache, window, node, level,
                                              z_levels, decay))
        except BudgetExhausted:
            # Paper's "goto OUTLOOP": the level under construction is
            # discarded and ℓ(k) stays at the last fully computed level.
            break
        level_ends.append(len(window.charges))
    return z_levels, level_ends


def exploit_deterministic_reference(graph: DiGraph, node: int, num_pairs: int,
                                    *, decay: float = 0.6, max_level: int = 20,
                                    cache: Optional[ReferenceCache] = None
                                    ) -> Tuple[int, float]:
    """The deterministic half of Algorithm 3 for one node, sequentially.

    Opens a fresh :class:`BudgetWindow` (budget 2·R(k)/√c) and runs the
    Lemma 4 recursion until the edge budget is spent.  Returns
    ``(chosen_level, deterministic_mass)``.  A shared ``cache`` changes only
    wall-clock, never the outcome: the window charges cached levels.
    """
    window = BudgetWindow(2.0 * num_pairs / float(np.sqrt(decay)))
    z_levels, _ = _explore_reference(graph, node, window, decay=decay,
                                     max_level=max_level, cache=cache)
    deterministic_mass = float(sum(values.sum() for _, values in z_levels))
    return len(z_levels), deterministic_mass


def level_charges(graph: DiGraph, node: int, *, decay: float = 0.6,
                  max_level: int = 20) -> List[List[int]]:
    """Every level's charges, in the order the unbudgeted recursion makes them."""
    window = BudgetWindow(None)
    _, level_ends = _explore_reference(graph, node, window, decay=decay,
                                       max_level=max_level, cache=None)
    bounds = [0] + level_ends
    return [window.charges[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def first_meeting_probabilities(graph: DiGraph, node: int, max_level: int, *,
                                decay: float = 0.6) -> List[Dict[int, float]]:
    """Z_ℓ(node, ·) for ℓ = 1 … ``max_level`` via the Lemma 4 recursion.

    The Algorithm 3 level loop (:func:`repro.diagonal.local._explore_levels`)
    for one node under an unlimited budget, so every level up to
    ``max_level`` is computed.  Intended for small neighbourhoods and for the
    tests that validate the recursion against brute-force enumeration.
    """
    node = check_node_index(node, graph.num_nodes)
    max_level = check_positive_int(max_level, "max_level")
    state = _ExploitState(node, math.inf)
    _explore_levels(graph, DistributionCache(graph), [state], decay=decay,
                    max_level=max_level)
    return [dict(zip(indices.tolist(), values.tolist()))
            for indices, values in state.z_levels]


__all__ = ["BudgetExhausted", "BudgetWindow", "ReferenceCache",
           "exploit_deterministic_reference", "first_meeting_probabilities",
           "level_charges", "z_level_reference"]
