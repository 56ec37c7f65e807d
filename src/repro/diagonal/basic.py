"""Basic Monte-Carlo estimation of the diagonal correction matrix (Algorithm 2).

Given a per-node sample allocation R(k) (produced by
:mod:`repro.core.sampling`), each D(k, k) is estimated by the fraction of
R(k) simulated pairs of √c-walks from ``k`` that never meet.  Nodes with
R(k) = 0 receive the ParSim default 1 − c, which is exact for nodes with a
single in-neighbour and harmless for nodes the allocation deems irrelevant to
the query (their π_i(k) is zero, so they never enter the estimator of
Theorem 1).

The whole allocation is simulated in one pair-walk engine call: each sampled
node is one origin carrying its pair count, and the kernel collapses pairs in
equal states while many share one, so early steps cost the distinct occupied
pair states, not the realised sample total (see
:mod:`repro.randomwalk.aggregate` for when it switches to one slot per
pair).  :func:`estimate_diagonal_basic_batch` extends the same single call
across every source of an ExactSim ``single_source_batch``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.graph.digraph import DiGraph
from repro.randomwalk.engine import SqrtCWalkEngine
from repro.utils.rng import SeedLike
from repro.utils.validation import check_vector_length


def _checked_allocation(graph: DiGraph, allocations: np.ndarray) -> np.ndarray:
    allocations = check_vector_length(np.asarray(allocations), graph.num_nodes,
                                      "allocations")
    if np.any(allocations < 0):
        raise ValueError("allocations must be non-negative")
    return allocations.astype(np.int64)


def _default_diagonal(graph: DiGraph, decay: float) -> np.ndarray:
    diagonal = np.full(graph.num_nodes, 1.0 - decay, dtype=np.float64)
    diagonal[graph.in_degrees == 0] = 1.0
    return diagonal


def _apply_pair_meetings(walker: SqrtCWalkEngine, diagonals: Sequence[np.ndarray],
                         node_lists: Sequence[np.ndarray],
                         count_lists: Sequence[np.ndarray],
                         max_steps: int) -> None:
    """Algorithm 2 for several per-source node/count selections in one call.

    Concatenates every (source, node, R) origin into a single aggregated
    pair-meeting simulation and scatters ``1 − met/R`` back into each
    source's diagonal.  Shared by the basic batch estimator and the
    light-node stage of the Algorithm 3 batch.
    """
    offsets = np.cumsum([0] + [nodes.shape[0] for nodes in node_lists])
    if offsets[-1] == 0:
        return
    met = walker.pair_meet_counts(np.concatenate(node_lists),
                                  np.concatenate(count_lists),
                                  max_steps=max_steps)
    for position, (diagonal, nodes, counts) in enumerate(
            zip(diagonals, node_lists, count_lists)):
        if nodes.size:
            slot = slice(offsets[position], offsets[position + 1])
            diagonal[nodes] = 1.0 - met[slot] / counts


def estimate_diagonal_basic(graph: DiGraph, allocations: np.ndarray, *,
                            decay: float = 0.6, max_steps: int = 64,
                            seed: SeedLike = None,
                            engine: Optional[SqrtCWalkEngine] = None) -> np.ndarray:
    """Estimate the full diagonal D with Algorithm 2 under ``allocations``.

    Parameters
    ----------
    allocations:
        Integer array of length ``n``; entry ``k`` is the number of walk
        pairs R(k) to spend on node ``k``.
    Returns
    -------
    numpy.ndarray
        Array ``d`` of length ``n`` with the estimated diagonal entries.
    """
    walker = engine if engine is not None else SqrtCWalkEngine(graph, decay, seed=seed)
    return estimate_diagonal_basic_batch(graph, [allocations], decay=decay,
                                         max_steps=max_steps, engine=walker)[0]


def estimate_diagonal_basic_batch(graph: DiGraph,
                                  allocations_list: Sequence[np.ndarray], *,
                                  decay: float = 0.6, max_steps: int = 64,
                                  seed: SeedLike = None,
                                  engine: Optional[SqrtCWalkEngine] = None
                                  ) -> List[np.ndarray]:
    """Algorithm 2 for several allocations (one per batched source) at once.

    Every (source, node) pair with a positive allocation becomes one origin of
    a single count-aggregated pair-meeting call, so a whole
    ``single_source_batch`` pays for one simulation whose cost tracks the
    union of occupied pair states rather than the summed sample budgets.
    Trivial nodes (0 or 1 in-neighbour) are exact without samples, as in the
    sequential estimator.
    """
    allocations_list = [_checked_allocation(graph, a) for a in allocations_list]
    walker = engine if engine is not None else SqrtCWalkEngine(graph, decay, seed=seed)
    in_degrees = graph.in_degrees
    node_ids = np.arange(graph.num_nodes, dtype=np.int64)

    diagonals = [_default_diagonal(graph, decay) for _ in allocations_list]
    node_lists: List[np.ndarray] = []
    count_lists: List[np.ndarray] = []
    for allocations in allocations_list:
        sampled = (allocations > 0) & (in_degrees > 1)
        node_lists.append(node_ids[sampled])
        count_lists.append(allocations[sampled])
    _apply_pair_meetings(walker, diagonals, node_lists, count_lists, max_steps)
    return diagonals


__all__ = ["estimate_diagonal_basic", "estimate_diagonal_basic_batch"]
