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
per-depth level stacks of the shared :class:`DistributionCache` (one
``searchsorted`` per depth), the states that complete the level are picked,
and one :class:`repro.kernels.MultiPropagation` prefetch materialises
exactly the distributions they consult: a level that exhausts its budget is
never propagated.

Within one level, the Lemma 4 subtraction is fully vectorized: the
``(q', remaining)`` distributions of a level live in a per-step *level
stack* (sorted start ids + concatenated supports), so the whole
``Σ_{q'} …`` update is one ``np.searchsorted`` gather plus one
``np.subtract.at`` scatter across all states — no per-``q'`` Python loop.

The :class:`DistributionCache` is shared across nodes *and* across the
sources of a ``single_source_batch``: distributions another node already
materialised cost a lookup instead of a propagation.  ℓ(k) never depends on
what the cache holds, because a cost is the in-degree sum of a support,
whether that level was just propagated or found in the cache.

The sampling side rides the count-aggregated walk engine: lightly sampled
nodes form one batched pair-meeting call, and the Algorithm 3 tail estimates
of all heavy nodes are issued as a second batched call with per-origin
non-stop prefixes.  Of a heavy node's R(k) tail pairs only the ~c·R(k) that
survive their first post-prefix coin walk the ℓ(k)-step prefix: the kernel
draws that coin up front (:mod:`repro.randomwalk.aggregate`), which moves
the draws but not the distribution of the met count, so c^ℓ(k)·met/R(k)
and its Bernstein bound stay as they are.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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

#: A :class:`DistributionCache` holding more than this many bytes of
#: distributions and level stacks drops all of them, between exploration
#: levels.  Dropping changes no ℓ(k) or mass, only what is propagated again.
CACHE_MAX_BYTES = 64 * 1024 * 1024


class _LevelStack(NamedTuple):
    """Every materialised level-``steps`` distribution, sorted by start."""

    start_ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    costs: np.ndarray       # per start: in-degree sum of its support


class DistributionCache:
    """Lazily extended non-stop walk distributions from arbitrary start nodes.

    Three batched entry points serve the level-synchronous recursion:
    :meth:`prefetch` materialises many ``(start, steps)`` distributions with
    one :class:`MultiPropagation`, :meth:`support_costs` returns the edges
    one more step from each of many ``(start, depth)`` traverses, and
    :meth:`gather_stacked` returns the concatenated level-``steps`` supports
    of many starts.  The last two read a per-step stack with one
    ``searchsorted``.
    """

    def __init__(self, graph: DiGraph):
        self._graph = graph
        self._in_degrees = graph.in_degrees
        self._cache: Dict[int, List[SparseVector]] = {}
        # The deepest materialised level per node (−1 = not even the root).
        self._avail = np.full(graph.num_nodes, -1, dtype=np.int64)
        # Per-step (start, vector, nnz, in-degree sum of the support) lists
        # appended as levels materialise, and the stacks compiled from them;
        # a stack is stale exactly when its step's list has grown since it
        # was built.
        self._by_depth: Dict[int, List[Tuple[int, SparseVector, int, int]]] = {}
        self._stacks: Dict[int, Tuple[int, _LevelStack]] = {}
        self._cached_bytes = 0
        # Scratch for prefetch's mask-based dedup (avoids an O(m log m)
        # np.unique per level).
        self._target_scratch = np.full(graph.num_nodes, -1, dtype=np.int64)

    def _maybe_evict(self) -> None:
        """Drop everything once the cache outgrows :data:`CACHE_MAX_BYTES`.

        Called once per exploration level, after the level's costs are read
        off the stacks and before its distributions are materialised, so
        peak memory stays bounded even inside a large batch.
        """
        if self._cached_bytes > CACHE_MAX_BYTES:
            self.clear()

    def peek(self, start: int, steps: int) -> SparseVector:
        """The cached level-``steps`` distribution of ``start``."""
        return self._cache[start][steps]

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
        pending_starts = touched[missing]
        pending_targets = targets[missing]
        chunk_lanes = dense_lane_limit(self._graph.num_nodes)
        for chunk_start in range(0, pending_starts.shape[0], chunk_lanes):
            chunk = slice(chunk_start, chunk_start + chunk_lanes)
            self._prefetch_chunk(pending_starts[chunk], pending_targets[chunk])

    def _prefetch_chunk(self, starts: np.ndarray, targets: np.ndarray) -> None:
        if starts.size == 0:
            return
        num_lanes = starts.shape[0]
        # Vectorized roots for never-seen starts: the unit vectors alias one
        # shared pair of arrays (SparseVector is immutable, so views are safe).
        fresh = starts[self._avail[starts] < 0]
        if fresh.size:
            ones = np.ones(fresh.shape[0], dtype=np.float64)
            roots = self._by_depth.setdefault(0, [])
            degrees = self._in_degrees[fresh].tolist()
            for position, start in enumerate(fresh.tolist()):
                root = SparseVector.wrap(fresh[position:position + 1],
                                         ones[position:position + 1])
                self._cache[start] = [root]
                roots.append((start, root, 1, degrees[position]))
            self._avail[fresh] = 0
            self._cached_bytes += 16 * fresh.shape[0]
        depth = self._avail[starts].copy()
        seeds = [self._cache[int(start)][-1] for start in starts.tolist()]
        sizes = np.array([seed.nnz for seed in seeds], dtype=np.int64)
        engine = MultiPropagation(self._graph, num_lanes)
        engine.seed(np.repeat(np.arange(num_lanes, dtype=np.int64), sizes),
                    np.concatenate([seed.indices for seed in seeds]),
                    np.concatenate([seed.values for seed in seeds]),
                    assume_sorted=True)
        # Every remaining lane advances every round (finished lanes are
        # dropped via terminate), so no step pays the dormant-lane merge.
        start_ids = starts.tolist()
        while True:
            live = depth < targets
            if not live.any():
                break
            engine.step()
            bounds = engine.lane_bounds()
            level_cols, level_vals = engine.cols, engine.values
            costs = np.bincount(engine.rows,
                                weights=self._in_degrees[level_cols],
                                minlength=num_lanes).astype(np.int64).tolist()
            live_lanes = np.flatnonzero(live)
            lane_starts = starts[live_lanes]
            new_depths = self._avail[lane_starts] + 1
            self._avail[lane_starts] = new_depths
            lane_sizes = np.diff(bounds)
            self._cached_bytes += 16 * int(lane_sizes[live_lanes].sum())
            for position, lane in enumerate(live_lanes.tolist()):
                lo, hi = int(bounds[lane]), int(bounds[lane + 1])
                # Slices are views into this level's (immutable) arrays.
                vector = SparseVector.wrap(level_cols[lo:hi],
                                           level_vals[lo:hi])
                start = start_ids[lane]
                self._cache[start].append(vector)
                self._by_depth.setdefault(int(new_depths[position]), []).append(
                    (start, vector, hi - lo, costs[lane]))
            depth[live] += 1
            finished = live & (depth >= targets)
            if finished.any() and (depth < targets).any():
                engine.terminate(np.flatnonzero(finished))

    def _level_stack(self, steps: int) -> _LevelStack:
        entries = self._by_depth.get(steps, ())
        cached = self._stacks.get(steps)
        if cached is not None and cached[0] == len(entries):
            return cached[1]
        if entries:
            ordered = sorted(entries)
            start_ids = np.array([start for start, _, _, _ in ordered],
                                 dtype=np.int64)
            sizes = np.array([size for _, _, size, _ in ordered],
                             dtype=np.int64)
            indptr = np.zeros(len(ordered) + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            cat_indices = np.concatenate([v.indices for _, v, _, _ in ordered])
            cat_values = np.concatenate([v.values for _, v, _, _ in ordered])
            costs = np.array([cost for _, _, _, cost in ordered],
                             dtype=np.int64)
        else:
            start_ids, indptr = _EMPTY_I, np.zeros(1, dtype=np.int64)
            cat_indices, cat_values, costs = _EMPTY_I, _EMPTY_F, _EMPTY_I
        stack = _LevelStack(start_ids, indptr, cat_indices, cat_values, costs)
        # A stack copies its depth's distributions, so it counts against
        # CACHE_MAX_BYTES too, in place of the stale stack it replaces.
        if cached is not None:
            self._cached_bytes -= sum(array.nbytes for array in cached[1])
        self._cached_bytes += sum(array.nbytes for array in stack)
        self._stacks[steps] = (len(entries), stack)
        return stack

    def _stack_positions(self, starts: np.ndarray, steps: int
                         ) -> Tuple[_LevelStack, np.ndarray]:
        stack = self._level_stack(steps)
        start_ids = stack.start_ids
        positions = np.minimum(np.searchsorted(start_ids, starts),
                               max(start_ids.shape[0] - 1, 0))
        if start_ids.shape[0] == 0 \
                or not np.array_equal(start_ids[positions], starts):
            raise KeyError(f"some starts lack a level-{steps} distribution; "
                           "prefetch before gathering")
        return stack, positions

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
            stack, positions = self._stack_positions(starts[chosen], depth)
            costs[chosen] = stack.costs[positions]
        return costs

    def gather_stacked(self, starts: np.ndarray, steps: int
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated level-``steps`` supports of ``starts``, in order.

        Returns ``(lengths, indices, values)``: the per-start support sizes
        and the flat concatenation of every start's sorted support — one
        ``searchsorted`` into the per-step stack plus one repeat/cumsum flat
        gather, no per-start Python loop.  Every start must already be
        materialised to ``steps`` (:meth:`prefetch` guarantees this).
        """
        starts = np.asarray(starts, dtype=np.int64)
        stack, positions = self._stack_positions(starts, steps)
        lo = stack.indptr[positions]
        lengths = stack.indptr[positions + 1] - lo
        total = int(lengths.sum())
        if total == 0:
            return lengths, _EMPTY_I, _EMPTY_F
        offsets = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(lengths) - lengths, lengths)
        flat = np.repeat(lo, lengths) + offsets
        return lengths, stack.indices[flat], stack.values[flat]

    def memory_bytes(self) -> int:
        """Bytes held by every cached distribution and level stack (the cache
        grows with use)."""
        return self._cached_bytes

    def clear(self) -> None:
        """Drop every cached distribution and level stack; they
        re-materialise on request."""
        self._cache = {}
        self._avail[:] = -1
        self._by_depth = {}
        self._stacks = {}
        self._cached_bytes = 0


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
    """Advance every state's Lemma 4 recursion one level, fused across states.

    Level ℓ of one state is Z_ℓ(k, q) = c^ℓ (Pᵀ)^ℓ(k, q)² − Σ_{ℓ'<ℓ} Σ_{q'}
    c^{ℓ-ℓ'} (Pᵀ)^{ℓ-ℓ'}(q', q)² · Z_{ℓ'}(k, q'), and the subtraction runs
    as one pass per inner level ℓ' for all states: their ``(q', Z)`` pairs
    concatenate state-major, their distributions come out of the shared
    level stack with a single gather, and one ``np.subtract.at`` over
    ``state·n + node`` packed keys applies every state's ``Σ_{q'} …`` update
    at once.  Entries that end up non-positive are dropped.  Within one
    state the packed-key subtraction touches the same targets with the same
    contributions in the same order as the sequential spec's per-``q'`` loop
    (``tests/specs/algorithm3.py``), so fusing changes no float.
    """
    node_parts: List[np.ndarray] = []
    value_parts: List[np.ndarray] = []
    for state in states:
        from_k = cache.peek(state.node, level)
        node_parts.append(from_k.indices)
        value_parts.append((decay ** level) * from_k.values * from_k.values)
    sizes = np.array([part.shape[0] for part in node_parts], dtype=np.int64)
    bounds = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    z_nodes = np.concatenate(node_parts)
    z_values = np.concatenate(value_parts)
    z_keys = np.repeat(np.arange(sizes.shape[0], dtype=np.int64),
                       sizes) * np.int64(num_nodes) + z_nodes
    for first_meeting_level in range(1, level):
        remaining = level - first_meeting_level
        positions_parts: List[int] = []
        q_parts: List[np.ndarray] = []
        weight_parts: List[np.ndarray] = []
        for position, state in enumerate(states):
            q_primes, z_weights = state.z_levels[first_meeting_level - 1]
            if q_primes.size:
                positions_parts.append(position)
                q_parts.append(q_primes)
                weight_parts.append(z_weights)
        if not q_parts:
            continue
        q_sizes = np.array([part.shape[0] for part in q_parts], dtype=np.int64)
        owner = np.repeat(np.array(positions_parts, dtype=np.int64), q_sizes)
        lengths, support, values = cache.gather_stacked(
            np.concatenate(q_parts), remaining)
        if support.size == 0:
            continue
        weights = np.repeat(np.concatenate(weight_parts), lengths) \
            * values * values
        target_keys = np.repeat(owner, lengths) * np.int64(num_nodes) + support
        slots = np.searchsorted(z_keys, target_keys)
        slots = np.minimum(slots, max(z_keys.shape[0] - 1, 0))
        hit = z_keys[slots] == target_keys if z_keys.size else \
            np.zeros(target_keys.shape[0], dtype=bool)
        if hit.any():
            factor = decay ** remaining
            np.subtract.at(z_values, slots[hit], factor * weights[hit])
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
    Lemma 4 updates with :func:`_run_level_fused`, and add each state's new
    positive Z support to its S.  A state that does not complete a level
    stops there, at ℓ(k) = the last level it completed.
    """
    num_nodes = np.int64(graph.num_nodes)
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
        _run_level_fused(cache, active, level, decay, graph.num_nodes)
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
    """Whether the tail beyond ℓ(k) is worth sampling at this budget.

    If the surviving-pair probability c^ℓ(k) is already below the resolution
    of the sample budget there is nothing worth sampling.
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
       aggregated pair-meeting call with per-origin non-stop prefixes ℓ(k).
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
        met = walker.pair_meet_counts(np.asarray(tail_nodes, dtype=np.int64),
                                      pairs, max_steps=max_steps,
                                      skip_steps=levels)
        tails = (decay ** levels.astype(np.float64)) * met / pairs
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
