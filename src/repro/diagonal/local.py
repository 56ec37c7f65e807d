"""Local deterministic exploitation for D(k, k) — Algorithm 3 and Lemma 4.

For nodes that receive many samples, the first few steps of all those walk
pairs explore the same local neighbourhood.  Algorithm 3 therefore computes
the first-meeting probabilities

    Z_ℓ(k) = Σ_q Z_ℓ(k, q) = Pr[two √c-walks from k first meet at step ℓ]

*exactly* for ℓ ≤ ℓ(k) via the recursion of Lemma 4,

    Z_ℓ(k, q) = c^ℓ (Pᵀ)^ℓ(k, q)²
                − Σ_{ℓ'=1}^{ℓ-1} Σ_{q'} c^{ℓ-ℓ'} (Pᵀ)^{ℓ-ℓ'}(q', q)² · Z_{ℓ'}(k, q'),

and only estimates the tail Σ_{ℓ > ℓ(k)} Z_ℓ(k) with random walks.  The
target level ℓ(k) is chosen adaptively: the deterministic exploration stops
as soon as the number of traversed edges exceeds 2·R(k)/√c, the expected cost
of simulating the R(k) walk pairs it replaces.

Choosing ℓ(k) at level boundaries
---------------------------------
The paper charges every distribution fetch to an edge counter, stops in the
middle of a level once the counter reaches 2·R(k)/√c ("goto OUTLOOP") and
keeps the last complete level (``tests/specs/algorithm3.py`` runs it that
way, fetch by fetch).  Its charges follow a fixed pattern, so the batch
decides each level before it materialises any of it:

* level ℓ consults the starts S_ℓ = {k} ∪ supp⁺Z_1 ∪ … ∪ supp⁺Z_{ℓ−1}.  A
  start s entered S at level f(s) (0 for k) and is consulted down to depth
  ℓ − f(s), one level deeper than at level ℓ − 1;
* a fetch charges only the depths it has not paid before, so level ℓ
  charges each start once, in the order of (f(s), s): e_ℓ(s) edges, the
  in-degree sum of its depth-(ℓ − f(s) − 1) support (d_in(s) for a start
  that has just entered);
* the counter is checked before every charge and only grows, so level ℓ
  completes iff C(ℓ−1) + Σ_{s ∈ S_ℓ} e_ℓ(s) − e_ℓ(last) < 2·R(k)/√c, where
  *last* is the start with the largest (f(s), s) and C(ℓ−1) is what levels
  1 … ℓ−1 charged.

Neither simpler rule gives the same ℓ(k): "C(ℓ) ≤ budget" gives up levels
the paper completes by overshooting on its last charge, and "C(ℓ−1) <
budget" completes levels the paper abandons on an earlier one
(``tests/test_multiprop.py`` pins both corners).

Batching design
---------------
The recursions of *all* heavy nodes of a batch advance level-synchronously
in :func:`_explore_levels`.  Per level, every state's costs are read off the
per-depth stores of the shared :class:`DistributionCache` (one
``searchsorted`` per depth), the states that complete the level are picked,
and one :class:`repro.kernels.MultiPropagation` prefetch materialises
exactly the distributions they consult: a level that exhausts its budget is
never propagated.  Each materialised distribution is kept once, appended to
its depth's store (sorted start ids, concatenated supports), so a store
that grows re-stacks nothing.

Within one level, the Lemma 4 subtraction is fully vectorized: every state
owns a dense row of n floats, the ``(q', remaining)`` supports of all states
come out of one store gather, and the whole ``Σ_{q'} …`` update is one
``np.subtract.at`` into the rows per inner level, at slot ``state·n + q`` —
no per-``q'`` Python loop and no slot search.  States run in contiguous
groups of at most max(1, ``CACHE_MAX_BYTES`` // 8n), so the rows of a
10⁶-node graph take 64 MB, 8 states at a time.

The :class:`DistributionCache` is shared across nodes *and* across the
sources of a ``single_source_batch``: distributions another node already
materialised cost a lookup instead of a propagation.  ℓ(k) never depends on
what the cache holds, because a cost is the in-degree sum of a support,
whether that level was just propagated or found in the cache.

The sampling side rides the count-aggregated walk engine: lightly sampled
nodes form one batched pair-meeting call, and the Algorithm 3 tail estimates
of all heavy nodes are issued as a second batched call with per-origin
non-stop prefixes.

Tails sized by their range
--------------------------
A tail sample is Y ∈ {0, c^ℓ(k)}: c^ℓ(k) if the pair, walked ℓ(k) non-stop
steps, first meets after them.  Its mean is the tail T ≤ 1 − D(k, k), so
Var(Y) ≤ c^ℓ(k)·(1 − D).  A heavy node therefore walks

    R′(k) = min(R(k), ⌈R(k)·c^ℓ(k)/(1 − c)⌉)

tail pairs, not R(k), and estimates T by c^ℓ(k)·met/R′(k).  The min binds
only where c^ℓ(k) ≥ 1 − c (ℓ(k) ≤ 1 at c = 0.6), and there R′ is R(k) and
nothing changes.  Elsewhere R′ ≥ R(k)·c^ℓ(k)/(1 − c), so the mean of R′
samples has variance ≤ c^ℓ(k)(1 − D)/R′ ≤ (1 − c)(1 − D)/R(k)
≤ D(1 − D)/R(k), because D ≥ 1 − c (two √c-walks meet with probability at
most c), and each sample moves it by at most c^ℓ(k)/R′ ≤ (1 − c)/R(k)
≤ 1/R(k).  Both are no worse than those of R(k) plain Algorithm 2 pairs, so
Lemma 3's Bernstein bound holds as it is.  Of the R′ pairs only the ~c·R′
that survive their first post-prefix coin walk the ℓ(k)-step prefix: the
kernel draws that coin up front (:mod:`repro.randomwalk.aggregate`), which
moves the draws but not the distribution of the met count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.digraph import DiGraph
from repro.kernels.multiprop import MultiPropagation, dense_lane_limit
from repro.kernels.sparsevec import SparseVector
from repro.randomwalk.engine import SqrtCWalkEngine
from repro.utils.rng import SeedLike

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)

#: Nodes allocated at least this many walk pairs are explored
#: deterministically (Algorithm 3); lighter ones only sample (Algorithm 2).
MIN_PAIRS_FOR_EXPLOITATION = 32

#: A :class:`DistributionCache` holding more than this many bytes drops all
#: of them, between exploration levels, and the dense Lemma 4 rows of one
#: group of states take at most this many bytes.  Neither changes an ℓ(k) or
#: a mass: eviction changes what is propagated again, the bound how many
#: states share a subtraction pass.
CACHE_MAX_BYTES = 64 * 1024 * 1024


def _reserve(array: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``array`` if ``extra`` more entries fit after its first ``used``, else
    a copy of those entries with at least twice the room, so appending
    copies each entry a bounded number of times on average."""
    if used + extra <= array.shape[0]:
        return array
    grown = np.empty(max(2 * array.shape[0], used + extra), dtype=array.dtype)
    grown[:used] = array[:used]
    return grown


class _DepthStore:
    """Every materialised level-``d`` distribution of a cache, each stored once.

    Supports lie back to back in ``indices``/``values``, in the order the
    prefetch steps that computed them appended them.  ``starts`` is sorted,
    and row i of ``entries`` holds ``starts[i]``'s offset and support size
    there and its support's in-degree sum (Algorithm 3's cost of the next
    level).
    """

    __slots__ = ("indices", "values", "size", "starts", "entries")

    def __init__(self):
        self.indices, self.values, self.size = _EMPTY_I, _EMPTY_F, 0
        self.starts = _EMPTY_I
        self.entries = np.empty((0, 3), dtype=np.int64)

    def append(self, starts: np.ndarray, lengths: np.ndarray,
               costs: np.ndarray, index_parts: List[np.ndarray],
               value_parts: List[np.ndarray]) -> None:
        """Store the distributions of ``starts`` (none stored yet), whose
        supports ``index_parts``/``value_parts`` concatenate in that order."""
        base, extra = self.size, int(lengths.sum())
        self.indices = _reserve(self.indices, base, extra)
        self.values = _reserve(self.values, base, extra)
        np.concatenate(index_parts, out=self.indices[base:base + extra])
        np.concatenate(value_parts, out=self.values[base:base + extra])
        self.size = base + extra
        offsets = base + np.cumsum(lengths) - lengths
        order = np.argsort(starts)
        slots = np.searchsorted(self.starts, starts[order])
        self.starts = np.insert(self.starts, slots, starts[order])
        self.entries = np.insert(
            self.entries, slots,
            np.column_stack((offsets, lengths, costs))[order], axis=0)

    def locate(self, starts: np.ndarray, steps: int) -> np.ndarray:
        """The ``entries`` rows of ``starts``, in order."""
        slots = np.minimum(np.searchsorted(self.starts, starts),
                           max(self.starts.shape[0] - 1, 0))
        if self.starts.shape[0] == 0 \
                or not np.array_equal(self.starts[slots], starts):
            raise KeyError(f"some starts lack a level-{steps} distribution; "
                           "prefetch before gathering")
        return self.entries[slots]

    def nbytes(self) -> int:
        return (self.indices.nbytes + self.values.nbytes + self.starts.nbytes
                + self.entries.nbytes)


class DistributionCache:
    """Lazily extended non-stop walk distributions from arbitrary start nodes.

    Every materialised level-``d`` distribution (d ≥ 1) is kept once, in the
    level-``d`` store its prefetch step appended it to; a start's level-0
    distribution is the start itself and is not stored.  Three batched
    entry points serve the level-synchronous recursion: :meth:`prefetch`
    materialises many ``(start, steps)`` distributions with one
    :class:`MultiPropagation`, :meth:`support_costs` returns the edges one
    more step from each of many ``(start, depth)`` traverses, and
    :meth:`gather_stacked` returns the concatenated level-``steps`` supports
    of many starts.  Both read a store through one ``searchsorted`` over its
    sorted start ids; a store that grows copies nothing it already holds
    except when its capacity doubles.
    """

    def __init__(self, graph: DiGraph):
        self._graph = graph
        self._in_degrees = graph.in_degrees
        self._stores: Dict[int, _DepthStore] = {}
        # The deepest materialised level per node (0: the start itself).
        self._avail = np.zeros(graph.num_nodes, dtype=np.int64)
        # Scratch for prefetch's mask-based dedup (avoids an O(m log m)
        # np.unique per level).
        self._target_scratch = np.full(graph.num_nodes, -1, dtype=np.int64)

    def _maybe_evict(self) -> None:
        """Drop everything once the cache outgrows :data:`CACHE_MAX_BYTES`.

        Called once per exploration level, after the level's costs are read
        off the stores and before its distributions are materialised, so
        peak memory stays bounded even inside a large batch.
        """
        if self.memory_bytes() > CACHE_MAX_BYTES:
            self.clear()

    def peek(self, start: int, steps: int) -> SparseVector:
        """The cached level-``steps`` distribution of ``start``."""
        _, indices, values = self.gather_stacked(
            np.array([start], dtype=np.int64), steps)
        return SparseVector.wrap(indices, values)

    def prefetch(self, starts: np.ndarray, steps: np.ndarray) -> None:
        """Materialise the level-``steps[i]`` distribution of ``starts[i]``.

        One :class:`MultiPropagation` advances every start still missing
        levels — heterogeneous targets interleave over shared levels, one
        stacked scatter per level.  Starts are chunked to
        :func:`dense_lane_limit` lanes per engine so the stacked scatter
        stays in the dense-bincount regime.
        """
        starts = np.asarray(starts, dtype=np.int64)
        steps = np.asarray(steps, dtype=np.int64)
        if starts.size == 0:
            return
        # Mask-based dedup: one scatter-max plus one O(n) scan instead of a
        # sort over the (large, duplicate-heavy) demand list.
        scratch = self._target_scratch
        np.maximum.at(scratch, starts, steps)
        touched = np.flatnonzero(scratch >= 0)
        targets = scratch[touched].copy()
        scratch[touched] = -1
        missing = self._avail[touched] < targets
        # Lanes sorted by depth (then start): in every engine step the
        # lanes of one depth are contiguous.  Lanes are independent, so the
        # order changes no float.
        order = np.argsort(self._avail[touched[missing]], kind="stable")
        pending_starts = touched[missing][order]
        pending_targets = targets[missing][order]
        chunk_lanes = dense_lane_limit(self._graph.num_nodes)
        grown: Dict[int, List[Tuple[np.ndarray, ...]]] = {}
        for chunk_start in range(0, pending_starts.shape[0], chunk_lanes):
            chunk = slice(chunk_start, chunk_start + chunk_lanes)
            self._prefetch_chunk(pending_starts[chunk], pending_targets[chunk],
                                 grown)
        # One append per level, so each store's sorted index merges once,
        # and only now does a start count as materialised: a deadline that
        # interrupts a step leaves the cache as it was.
        for steps in sorted(grown):
            starts, lengths, costs, indices, values = zip(*grown[steps])
            starts = np.concatenate(starts)
            self._stores.setdefault(steps, _DepthStore()).append(
                starts, np.concatenate(lengths), np.concatenate(costs),
                indices, values)
            self._avail[starts] = steps

    def _prefetch_chunk(self, starts: np.ndarray, targets: np.ndarray,
                        grown: Dict[int, List[Tuple[np.ndarray, ...]]]
                        ) -> None:
        num_lanes = starts.shape[0]
        depth = self._avail[starts].copy()
        # One gather per run of equal depth seeds every lane with its
        # deepest materialised level.
        cuts = np.flatnonzero(np.diff(depth)) + 1
        seeds = [self.gather_stacked(part, int(steps)) for part, steps in
                 zip(np.split(starts, cuts), depth[np.r_[0, cuts]].tolist())]
        engine = MultiPropagation(self._graph, num_lanes)
        engine.seed(np.repeat(np.arange(num_lanes, dtype=np.int64),
                              np.concatenate([seed[0] for seed in seeds])),
                    np.concatenate([seed[1] for seed in seeds]),
                    np.concatenate([seed[2] for seed in seeds]),
                    assume_sorted=True)
        # Every remaining lane advances every round (finished lanes are
        # dropped via terminate), so no step pays the dormant-lane merge;
        # each run of equal depth adds one slice of the step to ``grown``.
        while True:
            live = np.flatnonzero(depth < targets)
            if live.size == 0:
                break
            engine.step()
            bounds = engine.lane_bounds()
            costs = np.bincount(engine.rows,
                                weights=self._in_degrees[engine.cols],
                                minlength=num_lanes).astype(np.int64)
            depth[live] += 1
            for run in np.split(live, np.flatnonzero(np.diff(depth[live])) + 1):
                lo, hi = bounds[run[0]], bounds[run[-1] + 1]
                grown.setdefault(int(depth[run[0]]), []).append(
                    (starts[run], bounds[run + 1] - bounds[run], costs[run],
                     engine.cols[lo:hi], engine.values[lo:hi]))
            finished = live[depth[live] >= targets[live]]
            if 0 < finished.size < live.size:
                engine.terminate(finished)

    def _locate(self, starts: np.ndarray, steps: int) -> np.ndarray:
        store = self._stores.get(steps)
        return (_DepthStore() if store is None else store).locate(starts, steps)

    def support_costs(self, starts: np.ndarray, depths: np.ndarray
                      ) -> np.ndarray:
        """Edges one more step from ``(starts[i], depths[i])`` traverses.

        That is the in-degree sum of the level-``depths[i]`` support
        (d_in(s) at depth 0), Algorithm 3's cost of the next level.  Every
        depth above 0 must be materialised.
        """
        starts = np.asarray(starts, dtype=np.int64)
        depths = np.asarray(depths, dtype=np.int64)
        costs = self._in_degrees[starts]
        for depth in np.unique(depths[depths > 0]).tolist():
            chosen = np.flatnonzero(depths == depth)
            costs[chosen] = self._locate(starts[chosen], depth)[:, 2]
        return costs

    def gather_stacked(self, starts: np.ndarray, steps: int
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated level-``steps`` supports of ``starts``, in order.

        Returns ``(lengths, indices, values)``: the per-start support sizes
        and the flat concatenation of every start's sorted support — one
        ``searchsorted`` into the level's store plus one repeat/cumsum flat
        gather, no per-start Python loop.  Every start must already be
        materialised to ``steps`` (:meth:`prefetch` guarantees this).
        """
        starts = np.asarray(starts, dtype=np.int64)
        if steps == 0:
            ones = np.ones(starts.shape[0], dtype=np.int64)
            return ones, starts.copy(), ones.astype(np.float64)
        entries = self._locate(starts, steps)
        lo, lengths = entries[:, 0], entries[:, 1]
        total = int(lengths.sum())
        if total == 0:
            return lengths, _EMPTY_I, _EMPTY_F
        flat = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths) \
            + np.arange(total, dtype=np.int64)
        store = self._stores[steps]
        return lengths, store.indices[flat], store.values[flat]

    def memory_bytes(self) -> int:
        """Bytes the stores hold: each cached distribution once, the unused
        capacity of a store and 32 bytes of bookkeeping per entry."""
        return sum(store.nbytes() for store in self._stores.values())

    def clear(self) -> None:
        """Drop every cached distribution; they re-materialise on request."""
        self._stores = {}
        self._avail[:] = 0


class _ExploitState:
    """Per-node progress of one interleaved Algorithm 3 recursion.

    ``starts`` lists S in the paper's charge order (f(s), s) and ``entered``
    holds each start's f(s); ``spent`` is C(ℓ) of the last complete level.
    """

    __slots__ = ("node", "budget", "spent", "starts", "entered", "z_levels")

    def __init__(self, node: int, budget: float):
        self.node = node
        self.budget = budget
        self.spent = 0
        self.starts = np.array([node], dtype=np.int64)
        self.entered = np.zeros(1, dtype=np.int64)
        self.z_levels: List[Tuple[np.ndarray, np.ndarray]] = []


def _run_level_fused(cache: DistributionCache, states: List[_ExploitState],
                     level: int, decay: float, num_nodes: int) -> None:
    """Advance a group of states' Lemma 4 recursions one level, fused.

    Level ℓ of one state is Z_ℓ(k, q) = c^ℓ (Pᵀ)^ℓ(k, q)² − Σ_{ℓ'<ℓ} Σ_{q'}
    c^{ℓ-ℓ'} (Pᵀ)^{ℓ-ℓ'}(q', q)² · Z_{ℓ'}(k, q').  Each state gets a dense
    row of n floats, so the packed key ``position·n + q`` of a target is its
    slot.  Per inner level ℓ', the states' ``(q', Z)`` pairs concatenate
    state-major, their distributions come out of the cache with one gather,
    and one ``np.subtract.at`` applies every state's ``Σ_{q'} …`` update at
    once; a contribution to a node outside the state's level-ℓ support lands
    in a slot nobody reads.  The supported slots are read back and the
    non-positive ones dropped.  Each slot receives the same contributions in
    the same order as in the sequential spec's per-``q'`` loop
    (``tests/specs/algorithm3.py``), so fusing changes no float, and neither
    does the grouping: :func:`_explore_levels` passes contiguous groups of
    at most max(1, :data:`CACHE_MAX_BYTES` // 8n) states, so the rows of
    one group fit in that cap.
    """
    n = np.int64(num_nodes)
    owners = np.arange(len(states), dtype=np.int64)
    lengths, z_nodes, from_k = cache.gather_stacked(
        np.array([state.node for state in states], dtype=np.int64), level)
    z_keys = np.repeat(owners, lengths) * n + z_nodes
    rows = np.zeros(len(states) * num_nodes)
    rows[z_keys] = (decay ** level) * from_k * from_k
    for first_meeting_level in range(1, level):
        found = [state.z_levels[first_meeting_level - 1] for state in states]
        q_sizes = np.array([q_primes.shape[0] for q_primes, _ in found],
                           dtype=np.int64)
        if not q_sizes.any():
            continue
        remaining = level - first_meeting_level
        q_lengths, support, values = cache.gather_stacked(
            np.concatenate([q_primes for q_primes, _ in found]), remaining)
        if support.size == 0:
            continue
        weights = np.repeat(np.concatenate([z for _, z in found]), q_lengths) \
            * values * values
        targets = np.repeat(np.repeat(owners * n, q_sizes), q_lengths) + support
        np.subtract.at(rows, targets, (decay ** remaining) * weights)
    z_values = rows[z_keys]
    bounds = np.zeros(len(states) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    for position, state in enumerate(states):
        segment_nodes = z_nodes[bounds[position]:bounds[position + 1]]
        segment_values = z_values[bounds[position]:bounds[position + 1]]
        keep = segment_values > 0.0
        state.z_levels.append((segment_nodes[keep], segment_values[keep]))


def _explore_levels(graph: DiGraph, cache: DistributionCache,
                    states: List[_ExploitState], *, decay: float,
                    max_level: int) -> None:
    """Run the states' Lemma 4 recursions one global level at a time.

    Per level: decide which states complete it (the rule in the module
    docstring, from costs the cache already knows), materialise what those
    states consult with one :meth:`DistributionCache.prefetch`, apply their
    Lemma 4 updates with :func:`_run_level_fused` in contiguous groups whose
    dense rows fit in :data:`CACHE_MAX_BYTES`, and add each state's new
    positive Z support to its S.  A state that does not complete a level
    stops there, at ℓ(k) = the last level it completed.
    """
    num_nodes = np.int64(graph.num_nodes)
    group = max(1, CACHE_MAX_BYTES // (8 * graph.num_nodes))
    active = list(states)
    for level in range(1, max_level + 1):
        if not active:
            break
        sizes = np.array([state.starts.shape[0] for state in active],
                         dtype=np.int64)
        ends = np.cumsum(sizes)
        starts = np.concatenate([state.starts for state in active])
        entered = np.concatenate([state.entered for state in active])
        costs = cache.support_costs(starts, level - 1 - entered)
        charged = np.add.reduceat(costs, ends - sizes)
        spent = np.array([state.spent for state in active],
                         dtype=np.int64) + charged
        budgets = np.array([state.budget for state in active],
                           dtype=np.float64)
        completes = spent - costs[ends - 1] < budgets
        active = [state for state, done in zip(active, completes) if done]
        if not active:
            break
        for state, total in zip(active, spent[completes].tolist()):
            state.spent = total
        consulted = np.repeat(completes, sizes)
        starts, entered = starts[consulted], entered[consulted]
        sizes = sizes[completes]
        cache._maybe_evict()
        cache.prefetch(starts, level - entered)
        for first in range(0, len(active), group):
            _run_level_fused(cache, active[first:first + group], level, decay,
                             graph.num_nodes)
        # S_{ℓ+1} = S_ℓ ∪ supp⁺Z_ℓ: the new starts enter at f(s) = ℓ.
        owners = np.arange(len(active), dtype=np.int64)
        members = np.repeat(owners, sizes) * num_nodes + starts
        found = [state.z_levels[-1][0] for state in active]
        candidates = np.repeat(owners, [part.shape[0] for part in found]) \
            * num_nodes + np.concatenate(found)
        fresh = candidates[~np.isin(candidates, members)]
        fresh_owners, fresh_nodes = np.divmod(fresh, num_nodes)
        cuts = np.searchsorted(fresh_owners, np.arange(len(active) + 1))
        for position, state in enumerate(active):
            lo, hi = int(cuts[position]), int(cuts[position + 1])
            if hi > lo:
                state.starts = np.concatenate((state.starts,
                                               fresh_nodes[lo:hi]))
                state.entered = np.concatenate(
                    (state.entered, np.full(hi - lo, level, dtype=np.int64)))


def _exploit_deterministic_batch(graph: DiGraph, cache: DistributionCache,
                                 requests: Sequence[Tuple[int, int]], *,
                                 decay: float, max_level: int
                                 ) -> List[Tuple[int, float]]:
    """The deterministic half of Algorithm 3 for many nodes, level-synchronously.

    ``requests`` holds ``(node, num_pairs)`` pairs; the result list gives
    ``(chosen_level, deterministic_mass)`` per request.  Each distinct
    request explores under its own budget of 2·R(k)/√c edges, and all of
    them advance together in :func:`_explore_levels`; the outcome per node
    is the fetch-by-fetch recursion's of ``tests/specs/algorithm3.py``.
    """
    sqrt_c = float(np.sqrt(decay))
    states: Dict[Tuple[int, int], _ExploitState] = {}
    for node, num_pairs in requests:
        key = (int(node), int(num_pairs))
        if key not in states:
            states[key] = _ExploitState(key[0], 2.0 * key[1] / sqrt_c)
    _explore_levels(graph, cache, list(states.values()), decay=decay,
                    max_level=max_level)
    results = []
    for node, num_pairs in requests:
        state = states[(int(node), int(num_pairs))]
        mass = float(sum(values.sum() for _, values in state.z_levels))
        results.append((len(state.z_levels), mass))
    return results


def _needs_tail(chosen_level: int, num_pairs: int, decay: float) -> bool:
    """Whether the tail beyond ℓ(k) is worth sampling at R(k) = ``num_pairs``.

    The tail is at most c^ℓ(k); when c^ℓ(k)·R(k) < 1 that is below the
    resolution 1/R(k) of R(k) plain pairs and nothing is sampled.  When it
    holds, the tail walks R′(k) = min(R(k), ⌈R(k)·c^ℓ(k)/(1 − c)⌉) pairs
    (module docstring), at least ⌈1/(1 − c)⌉: 3 at c = 0.6.
    """
    return (decay ** chosen_level) * num_pairs >= 1.0


def estimate_diagonal_local_batch(graph: DiGraph,
                                  allocations_list: Sequence[np.ndarray], *,
                                  decay: float = 0.6, max_level: int = 20,
                                  max_steps: int = 64, seed: SeedLike = None,
                                  engine: Optional[SqrtCWalkEngine] = None,
                                  cache: Optional[DistributionCache] = None
                                  ) -> List[np.ndarray]:
    """Algorithm 3 for several allocations (one per batched source) at once.

    Three batched stages serve the whole batch:

    1. every lightly sampled (source, node) pair joins one count-aggregated
       pair-meeting call (plain Algorithm 2);
    2. the deterministic explorations of *all* heavy nodes across *all*
       sources interleave level-synchronously over one shared
       :class:`DistributionCache` (:func:`_exploit_deterministic_batch`):
       one multi-propagation prefetch per level serves every recursion, and
       a heavy node allocated by several sources (or a neighbourhood
       overlapping another's) materialises its distributions once;
    3. the tail estimates of every heavy node across every source form one
       aggregated pair-meeting call with per-origin non-stop prefixes ℓ(k),
       R′(k) pairs per tail (module docstring).
    """
    from repro.diagonal.basic import (_apply_pair_meetings, _checked_allocation,
                                      _default_diagonal)

    checked = [_checked_allocation(graph, allocations)
               for allocations in allocations_list]

    walker = engine if engine is not None else SqrtCWalkEngine(graph, decay, seed=seed)
    if cache is None:
        cache = DistributionCache(graph)
    in_degrees = graph.in_degrees
    node_ids = np.arange(graph.num_nodes, dtype=np.int64)
    diagonals = [_default_diagonal(graph, decay) for _ in checked]

    # Stage 1 — light nodes of every source, one aggregated Algorithm 2 call.
    light_nodes: List[np.ndarray] = []
    light_counts: List[np.ndarray] = []
    for allocations in checked:
        light = ((allocations > 0) & (allocations < MIN_PAIRS_FOR_EXPLOITATION)
                 & (in_degrees > 1))
        light_nodes.append(node_ids[light])
        light_counts.append(allocations[light])
    _apply_pair_meetings(walker, diagonals, light_nodes, light_counts, max_steps)

    # Stage 2 — deterministic exploitation of every heavy node, interleaved
    # level-synchronously over the shared cache.
    heavy_requests: List[Tuple[int, int, int]] = []   # (source idx, node, R)
    for source_index, allocations in enumerate(checked):
        heavy = (allocations >= MIN_PAIRS_FOR_EXPLOITATION) & (in_degrees > 1)
        for node in np.flatnonzero(heavy).tolist():
            heavy_requests.append((source_index, node, int(allocations[node])))
    exploits = _exploit_deterministic_batch(
        graph, cache, [(node, pairs) for _, node, pairs in heavy_requests],
        decay=decay, max_level=max_level)

    tail_sources: List[int] = []
    tail_nodes: List[int] = []
    tail_pairs: List[int] = []
    tail_levels: List[int] = []
    for (source_index, node, num_pairs), (chosen_level, mass) in \
            zip(heavy_requests, exploits):
        diagonals[source_index][node] = min(max(1.0 - mass, 0.0), 1.0)
        if _needs_tail(chosen_level, num_pairs, decay):
            tail_sources.append(source_index)
            tail_nodes.append(node)
            tail_pairs.append(num_pairs)
            tail_levels.append(chosen_level)

    # Stage 3 — all tails in one aggregated call with per-origin prefixes.
    if tail_nodes:
        pairs = np.asarray(tail_pairs, dtype=np.int64)
        levels = np.asarray(tail_levels, dtype=np.int64)
        survival = decay ** levels.astype(np.float64)
        walked = np.minimum(pairs, np.ceil(pairs * survival / (1.0 - decay))
                            .astype(np.int64))
        met = walker.pair_meet_counts(np.asarray(tail_nodes, dtype=np.int64),
                                      walked, max_steps=max_steps,
                                      skip_steps=levels)
        tails = survival * met / walked
        for source_index, node, tail in zip(tail_sources, tail_nodes, tails):
            diagonal = diagonals[source_index]
            diagonal[node] = min(max(diagonal[node] - float(tail), 0.0), 1.0)
    return diagonals


__all__ = [
    "CACHE_MAX_BYTES",
    "DistributionCache",
    "MIN_PAIRS_FOR_EXPLOITATION",
    "estimate_diagonal_local_batch",
]
