"""Count-aggregated √c-walk kernels.

The Monte-Carlo phases of the paper (MC/ProbeSim sampling, the Algorithm 2/3
diagonal estimators, ExactSim phase 2) all simulate ensembles of memoryless
walks whose *individual identities never matter* — every consumer reduces the
ensemble to visit counts per (node, step) or to meeting counts per start
node.  That makes the walks exchangeable, so instead of advancing one array
slot per walk the kernels here collapse all walks occupying the same state
into a single ``(state, count)`` pair and advance the pair with closed-form
distributions:

* the √c stopping coin over ``m`` collapsed walks is one ``Binomial(m, √c)``
  draw instead of ``m`` uniforms;
* the uniform neighbour choice of ``m`` collapsed walks at a node of
  in-degree ``d`` is one ``Multinomial(m, 1/d, …, 1/d)`` draw over the CSR
  slice instead of ``m`` categorical draws (READS/SLING-style walk pooling).

Per aggregated step the cost is bounded by the number of *distinct occupied
states* (plus the touched CSR slices), not by the number of simulated walks —
the decisive regime for ExactSim's single-source sampling where
``num_walks`` dwarfs the reachable neighbourhood.  It stops paying once the
walks spread thinner than the states: a regroup that merges ~1 pair per
state is a sort bought for nothing, which is why pair walks switch phase
(below).

All kernels draw from a caller-supplied :class:`numpy.random.Generator`, so
identical seeds reproduce identical results bit for bit.

Chunked pair walks
------------------
:func:`pair_meet_counts` cuts the origins' pair counts, in input order, into
consecutive chunks of at most :data:`PAIR_CHUNK` pairs, splitting an origin
that straddles a boundary (exact in distribution: pairs are independent).
Chunk 0 draws from the caller's generator and chunk ``c ≥ 1`` from the
``c``-th child of one ``Generator.spawn`` call, so every draw depends on the
input alone: answers are bit-identical at any thread count, and a call of at
most :data:`PAIR_CHUNK` pairs is exactly the caller's serial stream.  Chunks
run on the kernel thread pool (:func:`repro.kernels.parallel.run_blocks`),
one per thread at a time, so :data:`PAIR_CHUNK`, the thread count and the
graph bound the peak walk state before any work starts.

Two phases per chunk
--------------------
A chunk starts count-aggregated: pairs in the same ``(origin, u, v)`` state
are one row with a count, moved by binomial and multinomial draws and merged
again by a sort.  The walks spread out quickly (on GQ's Linearization build
the regrouped states hold 148 pairs each after step 1, 3.6 after step 2,
1.3 after step 3 and at most 1.06 later), so once they average fewer than
:data:`PER_PAIR_BELOW` pairs the chunk is expanded with ``np.repeat`` to one
slot per pair and finished by a sort-free loop whose step costs O(live
pairs).  Both phases draw from the chunk's own stream, check the deadline
every step and keep the prefix, ``max_steps`` and dangling-node rules, and
the expansion holds at most :data:`PAIR_CHUNK` pairs.

The first post-prefix coin comes first
--------------------------------------
A pair with a non-stop prefix of ``s`` steps (Algorithm 3's ℓ(k); 0 for
plain Algorithm 2) flips no coin during the prefix, flips its first one
(both walks survive: probability c) at step ``s + 1`` and is counted only
if it meets after the prefix.  The 1 − c of pairs that lose that coin can
never be counted, so walking them through the prefix buys nothing.  A
chunk therefore draws every origin's step-``s + 1`` coin when it starts,
one ``Binomial(m, c)`` per origin, and walks only the survivors: they move
through steps 1 … s + 1 without a coin, flip one per step from ``s + 2``
on, and count meetings from ``s + 1`` on; a meeting inside the prefix
still disqualifies the pair.  The coins are independent of the moves, so
this is binomial thinning: each origin's met count has the same
distribution as when the coin is flipped at step ``s + 1``, and only the
order of the draws moves.  At ``s = 0`` the up-front draw is the one step
1 made before, so a chunk whose survivors still start count-aggregated
keeps its stream bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels import parallel
from repro.utils.deadline import CHECKPOINT_WALK_BATCH, checkpoint

_EMPTY_INT = np.empty(0, dtype=np.int64)

#: Most walk pairs one chunk of :func:`pair_meet_counts` simulates.  Smaller
#: chunks collapse fewer equal pair states; at 2**19 a 5e5-pair single-source
#: diagonal fits one chunk and loses its second thread.
PAIR_CHUNK = 1 << 18

#: Pairs per occupied state below which a chunk of :func:`pair_meet_counts`
#: stops count-aggregating and walks one slot per pair.  Chosen from a
#: one-thread sweep on GQ (Linearization build and an 8-source ExactSim
#: batch): 2, 4 and 8 left sorts that merge little, 12 to 32 tied, 64 and
#: "always" expand chunks whose states still merge many pairs.
PER_PAIR_BELOW = 16


def group_sum(counts: np.ndarray, *keys: np.ndarray
              ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Aggregate ``counts`` by the composite ``keys``.

    Returns ``(unique_keys, summed_counts)`` with the unique key tuples in
    lexicographic order (last key varies slowest, matching ``np.lexsort``).
    Keys must be non-negative.  When the key ranges fit one int64 the keys are
    packed into a single sort key (≈3× cheaper than a multi-array lexsort);
    otherwise the generic lexsort path runs.
    """
    if counts.size == 0:
        return tuple(np.asarray(k, dtype=np.int64) for k in keys), _EMPTY_INT
    keys64 = [np.asarray(k, dtype=np.int64) for k in keys]
    packed = _pack_keys(keys64)
    if packed is not None:
        order = np.argsort(packed)
        sorted_packed = packed[order]
        boundary = np.empty(sorted_packed.shape[0], dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_packed[1:], sorted_packed[:-1], out=boundary[1:])
    else:
        order = np.lexsort(keys64)
        boundary = np.zeros(counts.shape[0], dtype=bool)
        boundary[0] = True
        for key in keys64:
            sorted_key = key[order]
            boundary[1:] |= sorted_key[1:] != sorted_key[:-1]
    group_ids = np.cumsum(boundary) - 1
    sums = np.bincount(group_ids, weights=counts[order]).astype(np.int64)
    firsts = order[np.flatnonzero(boundary)]
    return tuple(key[firsts] for key in keys64), sums


def _pack_keys(keys64) -> Optional[np.ndarray]:
    """Pack multiple non-negative keys into one int64 sort key, or ``None``.

    The last key is the most significant digit, matching ``np.lexsort``'s
    lexicographic order.
    """
    if len(keys64) == 1:
        return keys64[0]
    spans = [int(key.max()) + 1 for key in keys64]
    width = 1
    for span in spans[:-1]:
        width *= span
    if width * spans[-1] >= 2 ** 62:
        return None
    packed = keys64[-1]
    for key, span in zip(reversed(keys64[:-1]), reversed(spans[:-1])):
        packed = packed * span + key
    return packed


def multinomial_split(rng: np.random.Generator, indptr: np.ndarray,
                      indices: np.ndarray, nodes: np.ndarray, counts: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distribute ``counts[i]`` walks at ``nodes[i]`` uniformly over in-neighbours.

    Returns ``(rows, destinations, split_counts)`` where ``rows`` indexes back
    into the input state arrays; only non-zero splits are emitted.  The caller
    must guarantee ``counts > 0`` and in-degree > 0 for every state.

    Two regimes per state, chosen to bound the work by
    ``min(count, degree)``:

    * **dense** (``count ≥ degree``): one multinomial draw over the node's
      CSR slice.  States are grouped into power-of-two *degree buckets* —
      the per-state probability vector is padded with zero-probability
      categories up to the next power of two — so one batched
      ``Generator.multinomial`` call (2-D ``pvals``) serves every state of a
      bucket and the Python-level group count is O(log d_max) instead of
      O(#distinct degrees) on heavy-tailed graphs.  Padded categories draw
      exactly zero walks (their probability is 0), so the marginal over the
      real neighbours is the same uniform multinomial, at ≤2× the column
      work.
    * **sparse** (``count < degree``): expanding the multinomial would touch
      more edges than there are walks (hub nodes with a handful of walkers),
      so each walk draws its edge offset directly — O(count), never worse
      than the per-walk engine.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    degrees = indptr[nodes + 1] - indptr[nodes]

    row_parts = []
    dest_parts = []
    count_parts = []

    sparse = counts < degrees
    if sparse.any():
        sparse_rows = np.flatnonzero(sparse)
        walk_rows = np.repeat(sparse_rows, counts[sparse_rows])
        walk_nodes = nodes[walk_rows]
        walk_degrees = degrees[walk_rows]
        offsets = (rng.random(walk_rows.shape[0]) * walk_degrees).astype(np.int64)
        dests = indices[indptr[walk_nodes] + offsets]
        row_parts.append(walk_rows)
        dest_parts.append(dests)
        count_parts.append(np.ones(walk_rows.shape[0], dtype=np.int64))

    dense = ~sparse
    if dense.any():
        dense_rows = np.flatnonzero(dense)
        dense_degrees = degrees[dense_rows]
        # Power-of-two degree buckets: ⌈log2 d⌉ is exact in float for any
        # representable degree, so bucket boundaries never misplace a state.
        buckets = np.int64(1) << np.ceil(
            np.log2(dense_degrees.astype(np.float64))).astype(np.int64)
        order = np.argsort(buckets, kind="stable")
        dense_rows = dense_rows[order]
        dense_degrees = dense_degrees[order]
        buckets = buckets[order]
        boundaries = np.flatnonzero(np.diff(buckets)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [dense_rows.shape[0]]))
        for lo, hi in zip(starts, ends):
            width = int(buckets[lo])
            group_rows = dense_rows[lo:hi]
            group_counts = counts[group_rows]
            group_degrees = dense_degrees[lo:hi]
            if width == 1:
                splits = group_counts[:, np.newaxis]
                pad = np.zeros(group_rows.shape[0], dtype=np.int64)
            else:
                # Pad at the *front*: numpy's multinomial assigns any
                # floating-point leftover of the sequential binomial draws to
                # the LAST category, which must therefore be a real
                # neighbour.  Zero-probability front columns draw exactly
                # zero walks.
                pad = width - group_degrees
                lanes = np.arange(width, dtype=np.int64)
                pvals = (lanes[np.newaxis, :] >= pad[:, np.newaxis]) \
                    / group_degrees[:, np.newaxis].astype(np.float64)
                splits = rng.multinomial(group_counts, pvals)
            base = indptr[nodes[group_rows]]
            # Column j maps to neighbour j − pad; padded columns hold zero
            # walks, so their clamped gather offsets are masked out below.
            positions = np.clip(base[:, np.newaxis]
                                + np.arange(width, dtype=np.int64)
                                - pad[:, np.newaxis],
                                0, indices.shape[0] - 1)
            dests = indices[positions.ravel()]
            flat = splits.ravel().astype(np.int64)
            keep = flat > 0
            row_parts.append(np.repeat(group_rows, width)[keep])
            dest_parts.append(dests[keep])
            count_parts.append(flat[keep])

    if not row_parts:
        return _EMPTY_INT, _EMPTY_INT, _EMPTY_INT
    return (np.concatenate(row_parts), np.concatenate(dest_parts),
            np.concatenate(count_parts))


def advance_frontier(rng: np.random.Generator, indptr: np.ndarray,
                     indices: np.ndarray, in_degrees: np.ndarray,
                     nodes: np.ndarray, counts: np.ndarray, survival: float
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """One aggregated √c-walk step of a ``(nodes, counts)`` frontier.

    Each of the collapsed walks survives independently with probability
    ``survival`` (pass 1.0 for a non-stop prefix step); survivors at dangling
    nodes stop regardless.  Returns the aggregated next frontier.
    """
    counts = np.asarray(counts, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    if survival < 1.0:
        counts = rng.binomial(counts, survival)
    keep = (counts > 0) & (in_degrees[nodes] > 0)
    nodes, counts = nodes[keep], counts[keep]
    if nodes.size == 0:
        return _EMPTY_INT, _EMPTY_INT
    _, dests, split = multinomial_split(rng, indptr, indices, nodes, counts)
    (unique_dests,), sums = group_sum(split, dests)
    return unique_dests, sums


def pair_meet_counts(rng: np.random.Generator, indptr: np.ndarray,
                     indices: np.ndarray, in_degrees: np.ndarray,
                     decay: float, first: np.ndarray, second: np.ndarray,
                     counts: np.ndarray, *, max_steps: int,
                     skip_steps: np.ndarray) -> np.ndarray:
    """Aggregated pair-of-√c-walks meeting counts, one entry per origin.

    Entry ``p`` simulates ``counts[p]`` independent pairs of √c-walks started
    at ``(first[p], second[p])`` and reports how many of them meet (same node,
    same step ≥ 1).  ``skip_steps[p]`` is the per-origin non-stop prefix of
    Algorithm 3: during the first ``skip_steps[p]`` steps neither walk flips
    the stopping coin, meetings inside the prefix disqualify the pair, and
    only meetings strictly after the prefix are counted.

    A pair whose meeting is still possible survives a post-prefix step with
    probability ``c = (√c)²`` (both coins), and each walk moves to a uniform
    in-neighbour.  Pairs where either walk reaches a dangling node can never
    meet again and are dropped.  The first post-prefix coin of every pair
    (step ``skip_steps[p] + 1``) is drawn before the pair moves at all, one
    ``Binomial(counts, c)`` per origin, and only its survivors walk: the
    coins are independent of the moves, so this binomial thinning leaves
    every met count's distribution as it is (module docstring).

    Each chunk of at most :data:`PAIR_CHUNK` pairs runs on its own stream
    (see the module docstring); met counts sum per origin.  While a chunk's
    ``(origin, u, v)`` states hold :data:`PER_PAIR_BELOW` or more pairs on
    average, identical states collapse into one counted row: the coins are
    binomial draws, the moves two multinomial splits (first over ``u``'s
    in-edges, then over ``v``'s), and a sort merges the moved rows, so a step
    costs O(distinct states).  Below that the chunk finishes one slot per
    pair, one uniform per coin and per move, at O(live pairs) per step.
    """
    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    skip_steps = np.asarray(skip_steps, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if ends.size else 0
    num_chunks = -(-total // PAIR_CHUNK)
    streams = [rng] + (rng.spawn(num_chunks - 1) if num_chunks > 1 else [])

    def _chunk(index: int) -> Tuple[int, np.ndarray]:
        # Origins lo..hi-1 hold the pairs [low, high); m is each one's share.
        low, high = index * PAIR_CHUNK, min(total, (index + 1) * PAIR_CHUNK)
        lo = int(np.searchsorted(ends, low, side="right"))
        hi = int(np.searchsorted(starts, high, side="left"))
        m = np.minimum(ends[lo:hi], high) - np.maximum(starts[lo:hi], low)
        u, v, skip = first[lo:hi], second[lo:hi], skip_steps[lo:hi]
        met = np.zeros(hi - lo, dtype=np.int64)
        origin = np.arange(hi - lo, dtype=np.int64)
        # Step skip + 1's coin, drawn before any move: only its survivors
        # walk (binomial thinning; see the module docstring).
        m = streams[index].binomial(m, decay)
        live = m > 0
        origin, u, v, m = origin[live], u[live], v[live], m[live]
        for step in range(1, max_steps + 1):
            if m.size == 0:
                break
            if m.sum() < PER_PAIR_BELOW * m.size:
                _walk_per_pair(streams[index], indptr, indices, in_degrees,
                               decay, skip, met, step, max_steps,
                               np.repeat(origin, m),
                               np.repeat(np.stack((u, v)), m, axis=1))
                break
            checkpoint(CHECKPOINT_WALK_BATCH)
            origin, u, v, m = _pair_step(streams[index], indptr, indices,
                                         in_degrees, decay, skip, step,
                                         origin, u, v, m)
            if m.size == 0:
                break
            origin, u, v, m = _regroup(m, origin, u, v)
            # Meetings: count post-prefix ones, drop prefix ones entirely.
            same = u == v
            if same.any():
                met_origin = origin[same]
                after = skip[met_origin] < step
                np.add.at(met, met_origin[after], m[same][after])
                origin, u, v, m = origin[~same], u[~same], v[~same], m[~same]
        return lo, met

    met = np.zeros(first.shape[0], dtype=np.int64)
    for lo, part in parallel.run_blocks(_chunk, range(num_chunks)):
        met[lo:lo + part.size] += part
    return met


def _pair_step(rng: np.random.Generator, indptr: np.ndarray,
               indices: np.ndarray, in_degrees: np.ndarray, decay: float,
               skip_steps: np.ndarray, step: int, origin: np.ndarray,
               u: np.ndarray, v: np.ndarray, m: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pre-regroup pair move: survival coins, then both neighbour splits.

    Returns the moved (still unaggregated) ``(origin, u, v, m)`` arrays.
    """
    # Survival: both coins at once (probability c) from step skip + 2 on;
    # step skip + 1's coin was drawn when the chunk started.
    survivors = m.copy()
    flipping = skip_steps[origin] + 1 < step
    if flipping.any():
        survivors[flipping] = rng.binomial(m[flipping], decay)
    keep = (survivors > 0) & (in_degrees[u] > 0) & (in_degrees[v] > 0)
    origin, u, v, m = origin[keep], u[keep], v[keep], survivors[keep]
    if m.size == 0:
        return origin, u, v, m
    # Move the first walk of every pair, then the second.  No aggregation
    # in between: splitting the counts of duplicate intermediate states
    # separately is distributionally identical to splitting their sum
    # (multinomial additivity), and the post-move regroup collapses both.
    rows, dest_u, split = multinomial_split(rng, indptr, indices, u, m)
    origin, v, u, m = origin[rows], v[rows], dest_u, split
    rows, dest_v, split = multinomial_split(rng, indptr, indices, v, m)
    return origin[rows], u[rows], dest_v, split


def _walk_per_pair(rng: np.random.Generator, indptr: np.ndarray,
                   indices: np.ndarray, in_degrees: np.ndarray, decay: float,
                   skip_steps: np.ndarray, met: np.ndarray, first_step: int,
                   max_steps: int, origin: np.ndarray, walks: np.ndarray
                   ) -> None:
    """Finish a chunk's walks one array slot per pair, from ``first_step`` on.

    ``origin[p]`` is pair ``p``'s origin and ``walks[:, p]`` the nodes of its
    two walks.  A step moves every walk by one uniform in-neighbour offset,
    adds the post-prefix meetings into ``met`` and compacts once, dropping
    the pairs that met, reached a dangling node or lose the next step's
    survival coin (one uniform per pair, drawn from step ``skip + 2`` on:
    step ``skip + 1``'s coin was drawn when the chunk started).  No sort
    runs: states this thin would merge almost nothing.
    """
    last_prefix = int(skip_steps.max(initial=0))

    def survivors(step: int, origin: np.ndarray, walks: np.ndarray
                  ) -> np.ndarray:
        """Pairs with no walk at a dangling node that survive ``step``'s coin."""
        alive = (in_degrees.take(walks) > 0).all(axis=0)
        if step > last_prefix + 1:
            return alive & (rng.random(alive.size) < decay)
        flipping = np.flatnonzero(alive & (skip_steps.take(origin) + 1 < step))
        alive[flipping] = rng.random(flipping.size) < decay
        return alive

    keep = survivors(first_step, origin, walks)
    for step in range(first_step, max_steps + 1):
        rows = np.flatnonzero(keep)
        if rows.size == 0:
            return
        origin, walks = origin.take(rows), walks.take(rows, axis=1)
        checkpoint(CHECKPOINT_WALK_BATCH)
        flat = walks.reshape(-1)
        offsets = (rng.random(flat.size) * in_degrees.take(flat)).astype(np.int64)
        walks = indices.take(indptr.take(flat) + offsets).reshape(2, -1)
        same = walks[0] == walks[1]
        counted = (same if step > last_prefix
                   else same & (skip_steps.take(origin) < step))
        met += np.bincount(origin[counted], minlength=met.size)
        if step == max_steps:
            return
        keep = ~same & survivors(step + 1, origin, walks)


def _regroup(split: np.ndarray, origin: np.ndarray, u: np.ndarray, v: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate split pair states back to unique ``(origin, u, v)`` triples."""
    (v_keys, u_keys, origin_keys), sums = group_sum(split, v, u, origin)
    return origin_keys, u_keys, v_keys, sums


__all__ = [
    "PAIR_CHUNK",
    "advance_frontier",
    "group_sum",
    "multinomial_split",
    "pair_meet_counts",
]
