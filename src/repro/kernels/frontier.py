"""Vectorized CSR frontier kernels (push / propagate / batched propagate).

All three kernels share one discipline: the *frontier* — the set of nodes
currently holding probability mass — is a :class:`~repro.kernels.sparsevec.
SparseVector`, and one level of expansion is performed with whole-array
operations only:

1. **slice gather** — the CSR adjacency rows of every frontier node are
   concatenated in one shot (:func:`csr_gather`) with ``np.repeat`` driving
   the per-row offsets, so no Python loop ever touches an edge;
2. **share broadcast** — each node's outgoing share ``mass / degree`` is
   replicated across its slice with ``np.repeat``;
3. **scatter-add** — contributions are summed per target either with a dense
   ``np.bincount`` (small graphs / dense frontiers) or a sort-based
   ``np.unique`` reduction (large graphs / sparse frontiers), both exact;
4. **masking** — threshold filtering (the push ``r_max`` rule, Lemma 2
   truncation) is a boolean mask over the value array instead of a per-node
   ``if``.

The cost of one level is therefore O(frontier edges) vectorized work — the
same asymptotics as the seed's dict loops with a ~10-100× smaller constant.
The original loops survive in ``tests/specs/frontier.py`` as executable
specifications; ``tests/test_kernels.py`` pins the two to each other at
1e-12 on random power-law graphs with dangling nodes and self-loops.

:func:`accumulate_probes`, the probe loop of ProbeSim and PRSim, leaves
this discipline once a batch fills a few percent of num_nodes × lanes:
dense lanes through one sparse-times-dense product are then cheaper, and
keep the COO steps' bits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Tuple

import numpy as np

from repro.kernels import parallel
from repro.kernels.sparsevec import SparseVector

if TYPE_CHECKING:
    from repro.graph.transition import TransitionOperator

# Dense scatter (np.bincount over the full key space) beats the sort-based
# reduction whenever the key space is not much larger than the number of
# contributions; beyond this bound we switch to np.unique so the work stays
# proportional to the frontier, not the graph.
_DENSE_SCATTER_CAP = 1 << 22


def csr_gather(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR slices ``indices[indptr[v]:indptr[v+1]]`` of ``nodes``.

    Returns ``(targets, counts)`` where ``targets`` is the concatenation of
    every node's adjacency row (in ``nodes`` order) and ``counts[i]`` is the
    degree of ``nodes[i]``.  Pure ``np.repeat`` arithmetic — no Python loop.
    """
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return indices[np.repeat(starts, counts) + offsets], counts


def _scatter_add(keys: np.ndarray, weights: np.ndarray, key_space: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Sum ``weights`` per key; returns (sorted unique keys, sums).

    Chooses between a dense ``np.bincount`` over the whole key space and a
    sort-based ``np.unique`` reduction depending on which is cheaper.
    """
    if keys.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if key_space <= max(4 * keys.size, 4096) and key_space <= _DENSE_SCATTER_CAP:
        dense = np.bincount(keys, weights=weights, minlength=key_space)
        out_keys = np.flatnonzero(dense)
        return out_keys.astype(np.int64, copy=False), dense[out_keys]
    out_keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=weights, minlength=out_keys.shape[0])
    return out_keys, sums


class PushLevel(NamedTuple):
    """Outcome of one :func:`push_frontier` level."""

    emitted: SparseVector        # (1 − √c)·mass recorded at this level
    frontier: SparseVector       # residual forwarded to the next level
    dropped_mass: float          # sub-threshold mass removed by the r_max mask
    absorbed_mass: float         # mass lost at dangling nodes (plus the
                                 # horizon tail when expand=False)
    pushed_entries: int          # nodes that passed the threshold
    traversed_edges: int         # CSR entries gathered at this level


def push_frontier(indptr: np.ndarray, indices: np.ndarray, frontier: SparseVector,
                  *, r_max: float, sqrt_c: float, num_nodes: int,
                  expand: bool = True) -> PushLevel:
    """One level of Andersen-Chung-Lang style local push, vectorized.

    Every frontier entry with ``mass >= r_max`` emits ``(1 − √c)·mass`` as an
    estimate and forwards ``√c·mass/d(v)`` to each CSR neighbour; entries
    below the threshold are dropped (their total is reported so callers can
    do exact mass accounting).  With ``expand=False`` (the final hop) the
    surviving continuation mass ``√c·mass`` is reported as absorbed instead
    of being forwarded.
    """
    below = frontier.values < r_max
    dropped = float(frontier.values[below].sum())
    nodes = frontier.indices[~below]
    mass = frontier.values[~below]

    emitted = SparseVector(nodes, (1.0 - sqrt_c) * mass)
    pushed = int(nodes.shape[0])
    if not expand:
        return PushLevel(emitted, SparseVector.empty(), dropped,
                         float(sqrt_c * mass.sum()), pushed, 0)

    targets, counts = csr_gather(indptr, indices, nodes)
    dangling = counts == 0
    absorbed = float(sqrt_c * mass[dangling].sum())
    shares = np.repeat(sqrt_c * mass / np.maximum(counts, 1), counts)
    next_idx, next_vals = _scatter_add(targets, shares, num_nodes)
    return PushLevel(emitted, SparseVector(next_idx, next_vals), dropped,
                     absorbed, pushed, int(counts.sum()))


def propagate_distribution(indptr: np.ndarray, indices: np.ndarray,
                           frontier: SparseVector, *, num_nodes: int
                           ) -> Tuple[SparseVector, int]:
    """One non-stop reverse-walk step of a sparse distribution.

    Each entry spreads ``probability / d(v)`` to every CSR neighbour of
    ``v``; mass at degree-0 (dangling) nodes disappears, matching a √c-walk
    that stops because it cannot move.  Returns the new distribution and the
    number of edges traversed (the cost counter E_k of Algorithm 3).
    """
    targets, counts = csr_gather(indptr, indices, frontier.indices)
    shares = np.repeat(frontier.values / np.maximum(counts, 1), counts)
    new_idx, new_vals = _scatter_add(targets, shares, num_nodes)
    return SparseVector(new_idx, new_vals), int(counts.sum())


class BatchPushLevel(NamedTuple):
    """Outcome of one :func:`push_frontier_batch` level.

    The emitted estimates and the next frontier are COO triplets (batch row,
    node, value); the accounting fields are per-row arrays of length
    ``num_rows`` so callers can do exact mass accounting per source.
    """

    emit_rows: np.ndarray
    emit_cols: np.ndarray
    emit_values: np.ndarray
    rows: np.ndarray             # next frontier (empty when expand=False)
    cols: np.ndarray
    values: np.ndarray
    dropped_mass: np.ndarray     # per-row sub-threshold mass
    absorbed_mass: np.ndarray    # per-row dangling (+ horizon tail) mass
    pushed_entries: np.ndarray   # per-row entries that passed the threshold
    traversed_edges: int


def push_frontier_batch(indptr: np.ndarray, indices: np.ndarray,
                        rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                        *, r_max: float, sqrt_c: float, num_nodes: int,
                        num_rows: int, expand: bool = True) -> BatchPushLevel:
    """One local-push level of B stacked sources through shared CSR slices.

    The batched analogue of :func:`push_frontier` with identical mass
    accounting per batch row — the ``sum(estimates) + residual == 1``
    invariant is enforced here for both the single-source and the batched
    push so the rule lives in exactly one module.
    """
    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0, dtype=np.float64)
    below = values < r_max
    dropped = np.bincount(rows[below], weights=values[below], minlength=num_rows)
    rows, cols, values = rows[~below], cols[~below], values[~below]
    emit = (rows, cols, (1.0 - sqrt_c) * values)
    pushed = np.bincount(rows, minlength=num_rows)
    if not expand:
        absorbed = np.bincount(rows, weights=sqrt_c * values, minlength=num_rows)
        return BatchPushLevel(*emit, empty_i, empty_i, empty_f,
                              dropped, absorbed, pushed, 0)
    counts = indptr[cols + 1] - indptr[cols]
    dangling = counts == 0
    absorbed = np.bincount(rows[dangling], weights=sqrt_c * values[dangling],
                           minlength=num_rows)
    next_rows, next_cols, next_vals, traversed = propagate_batch(
        indptr, indices, rows, cols, sqrt_c * values, num_nodes=num_nodes)
    return BatchPushLevel(*emit, next_rows, next_cols, next_vals,
                          dropped, absorbed, pushed, traversed)


def propagate_batch(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray, values: np.ndarray, *, num_nodes: int
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One reverse-walk step of B stacked distributions through shared CSR slices.

    The batch is a COO triplet (``rows`` = batch ids, ``cols`` = node ids,
    ``values`` = probabilities).  All rows are expanded in a single gather —
    the CSR slices are shared across the batch, which is where the batched
    variant beats B independent single-source calls — and contributions are
    re-aggregated per ``(row, col)`` pair.  Returns the new triplet (rows
    sorted, cols sorted within each row) and the total edges traversed.
    """
    targets, counts = csr_gather(indptr, indices, cols)
    shares = np.repeat(values / np.maximum(counts, 1), counts)
    out_rows = np.repeat(rows, counts)
    keys = out_rows * np.int64(num_nodes) + targets
    key_space = int(rows.max() + 1) * num_nodes if rows.size else 0
    agg_keys, agg_vals = _scatter_add(keys, shares, key_space)
    return (agg_keys // num_nodes, agg_keys % num_nodes, agg_vals,
            int(counts.sum()))


def propagate_batch_transpose(out_indptr: np.ndarray, out_indices: np.ndarray,
                              in_degrees: np.ndarray, rows: np.ndarray,
                              cols: np.ndarray, values: np.ndarray, *,
                              num_nodes: int
                              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One ``Pᵀ`` step of B stacked distributions through shared CSR slices.

    ``(Pᵀ x)(j) = Σ_{k ∈ I(j)} x(k) / d_in(j)``: mass at ``k`` travels along
    *out*-edges ``k → j`` and is normalized by the **receiver's** in-degree,
    the direction of the reverse probes of ProbeSim and PRSim.  All rows
    expand along the shared *out*-CSR arrays in a single gather, and
    contributions are re-aggregated per ``(row, receiver)`` key before the
    division.
    """
    targets, counts = csr_gather(out_indptr, out_indices, cols)
    contributions = np.repeat(values, counts)
    out_rows = np.repeat(rows, counts)
    keys = out_rows * np.int64(num_nodes) + targets
    key_space = int(rows.max() + 1) * num_nodes if rows.size else 0
    agg_keys, agg_vals = _scatter_add(keys, contributions, key_space)
    new_cols = agg_keys % num_nodes
    return (agg_keys // num_nodes, new_cols, agg_vals / in_degrees[new_cols],
            int(counts.sum()))


#: A probe batch leaves the COO steps of :func:`accumulate_probes` for dense
#: lanes once its entries reach this share of num_nodes × lanes.
DENSE_PROBE_FILL = 0.05


def accumulate_probes(operator: "TransitionOperator", nodes: np.ndarray,
                      weights: np.ndarray, steps: int, threshold: float,
                      out: np.ndarray) -> None:
    """Add ``Σ_b weights[b] · (prune ∘ √c Pᵀ)^steps e_{nodes[b]}`` to ``out``.

    Each node is one lane, a reverse probe whose entries below ``threshold``
    are dropped after every step (none when ``threshold <= 0``).  A batch
    runs as COO triplets (lane, node, mass) until its entries reach
    :data:`DENSE_PROBE_FILL` of num_nodes × lanes, then as dense chunks of
    at most ``DENSE_LANE_BYTES``: one ``parallel_spmm`` with the unweighted
    in-adjacency, whose rows list the in-neighbours in the ascending order
    the COO scatter-add meets them and whose 1s multiply exactly, then the
    same divide by in-degree, ``√c`` scale and prune.  The weighted lanes
    are added one at a time in lane order, as the final ``np.bincount``
    adds them, so the answer has the same bits whichever step switches.
    """
    lanes = nodes.shape[0]
    graph = operator.graph
    num_nodes = graph.num_nodes
    sqrt_c = operator.sqrt_c
    rows = np.arange(lanes, dtype=np.int64)
    cols = nodes.astype(np.int64, copy=False)
    vals = np.ones(lanes, dtype=np.float64)
    for step in range(steps):
        if rows.size == 0:
            return
        if rows.size >= DENSE_PROBE_FILL * num_nodes * lanes:
            _accumulate_dense_probes(operator, rows, cols, vals, weights,
                                     steps - step, threshold, out)
            return
        rows, cols, vals, _ = propagate_batch_transpose(
            graph.out_indptr, graph.out_indices, graph.in_degrees,
            rows, cols, vals, num_nodes=num_nodes)
        vals *= sqrt_c
        if threshold > 0.0:
            keep = vals >= threshold
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
    out += np.bincount(cols, weights=vals * weights[rows], minlength=num_nodes)


def _accumulate_dense_probes(operator: "TransitionOperator", rows: np.ndarray,
                             cols: np.ndarray, vals: np.ndarray,
                             weights: np.ndarray, steps: int,
                             threshold: float, out: np.ndarray) -> None:
    """The rest of :func:`accumulate_probes` on dense lane chunks."""
    graph = operator.graph
    num_nodes = graph.num_nodes
    sqrt_c = operator.sqrt_c
    adjacency = operator.in_adjacency
    # An in-degree-0 node receives nothing, so dividing by 1 keeps its 0.
    divisor = np.maximum(graph.in_degrees, 1).astype(np.float64)[:, None]
    lanes = weights.shape[0]
    per_chunk = max(1, parallel.DENSE_LANE_BYTES // (8 * max(num_nodes, 1)))
    total = np.zeros(num_nodes, dtype=np.float64)
    for low in range(0, lanes, per_chunk):
        high = min(low + per_chunk, lanes)
        first, last = np.searchsorted(rows, (low, high))
        state = np.zeros((num_nodes, high - low), dtype=np.float64)
        state[cols[first:last], rows[first:last] - low] = vals[first:last]
        for _ in range(steps):
            state = parallel.parallel_spmm(adjacency, state)
            state /= divisor
            state *= sqrt_c
            if threshold > 0.0:
                np.multiply(state, state >= threshold, out=state)
        for lane, weight in zip(state.T, weights[low:high]):
            total += lane * weight
    out += total


__all__ = [
    "BatchPushLevel",
    "DENSE_PROBE_FILL",
    "PushLevel",
    "accumulate_probes",
    "csr_gather",
    "propagate_batch",
    "propagate_batch_transpose",
    "propagate_distribution",
    "push_frontier",
    "push_frontier_batch",
]
