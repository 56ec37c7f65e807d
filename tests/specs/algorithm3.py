"""Sequential Algorithm 3 exploration — the executable specification.

The production path interleaves the Lemma 4 recursions of many heavy nodes
level-synchronously over one batched multi-propagation
(:func:`repro.diagonal.local._exploit_deterministic_batch`).  This module
keeps the pre-batching schedule — one node at a time, one ``(q', remaining)``
distribution fetch at a time — exactly as the scalar recursion traverses it,
mirroring :mod:`specs.frontier` and :mod:`specs.walks`: an executable spec
the equivalence suite pins the batched path against
(``tests/test_multiprop.py``: ℓ(k), deterministic mass and the per-window
edge accounting must match bit for bit).

The reference is also what ``benchmarks/bench_index.py`` times the batched
heavy-node phase against, so the recorded speedups compare two live code
paths, not a live path against a memory.

:func:`first_meeting_probabilities` runs the production level loop for one
node under an unbudgeted window, for the tests that check the recursion
against closed forms and the exact D.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.diagonal.local import (
    BudgetExhausted,
    BudgetWindow,
    DistributionCache,
    _ExploitState,
    _explore_levels,
)
from repro.graph.digraph import DiGraph
from repro.utils.validation import check_node_index, check_positive_int


def z_level_reference(cache: DistributionCache, window: BudgetWindow,
                      node: int, level: int,
                      z_levels: List[Tuple[np.ndarray, np.ndarray]],
                      decay: float) -> Tuple[np.ndarray, np.ndarray]:
    """One Lemma 4 level with the scalar per-``q'`` fetch loop.

    Semantically identical to one state's share of
    :func:`repro.diagonal.local._run_level_fused`; the inner loop walks the
    previous level's ``(q', Z)`` pairs in Python and
    fetches each distribution through :meth:`DistributionCache.distribution`
    (charging the window one fetch at a time), which is the order the
    batched ``charge``/``gather_stacked`` path replays.
    """
    from_k = cache.distribution(node, level, window=window)
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
            from_q_prime = cache.distribution(q_prime, remaining, window=window)
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


def exploit_deterministic_reference(graph: DiGraph, node: int, num_pairs: int,
                                    *, decay: float = 0.6, max_level: int = 20,
                                    cache: Optional[DistributionCache] = None
                                    ) -> Tuple[int, float, int]:
    """The deterministic half of Algorithm 3 for one node, sequentially.

    Opens a fresh :class:`BudgetWindow` (budget 2·R(k)/√c) and runs the
    Lemma 4 recursion until the edge budget is spent.  Returns
    ``(chosen_level, deterministic_mass, traversed_edges)``.  A shared
    ``cache`` changes only wall-clock, never the outcome: the window charges
    cached levels.
    """
    if cache is None:
        cache = DistributionCache(graph)
    sqrt_c = float(np.sqrt(decay))
    edge_budget = 2.0 * num_pairs / sqrt_c
    window = BudgetWindow(edge_budget)
    z_levels: List[Tuple[np.ndarray, np.ndarray]] = []
    chosen_level = 0
    for level in range(1, max_level + 1):
        if window.traversed_edges >= edge_budget:
            break
        try:
            z_current = z_level_reference(cache, window, node, level,
                                          z_levels, decay)
        except BudgetExhausted:
            # Paper's "goto OUTLOOP": the level under construction is
            # discarded and ℓ(k) stays at the last fully computed level.
            break
        z_levels.append(z_current)
        chosen_level = level
    deterministic_mass = float(sum(values.sum() for _, values in z_levels))
    return chosen_level, deterministic_mass, window.traversed_edges


def first_meeting_probabilities(graph: DiGraph, node: int, max_level: int, *,
                                decay: float = 0.6) -> List[Dict[int, float]]:
    """Z_ℓ(node, ·) for ℓ = 1 … ``max_level`` via the Lemma 4 recursion.

    The Algorithm 3 level loop (:func:`repro.diagonal.local._explore_levels`)
    for one node under an unbudgeted window, so every level up to
    ``max_level`` is computed.  Intended for small neighbourhoods and for the
    tests that validate the recursion against brute-force enumeration.
    """
    node = check_node_index(node, graph.num_nodes)
    max_level = check_positive_int(max_level, "max_level")
    state = _ExploitState(node, BudgetWindow(None))
    _explore_levels(graph, DistributionCache(graph), [state], decay=decay,
                    max_level=max_level)
    return [dict(zip(indices.tolist(), values.tolist()))
            for indices, values in state.z_levels]


__all__ = ["exploit_deterministic_reference", "first_meeting_probabilities",
           "z_level_reference"]
