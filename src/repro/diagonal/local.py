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

Batching design
---------------
The recursions of *all* heavy nodes of a batch advance level-synchronously:
:func:`_explore_levels` walks one global level ℓ at a time, and
the distributions any node's level-ℓ step will consult are materialised
up-front by one :class:`repro.kernels.MultiPropagation` prefetch — all
missing ``(start, step)`` distributions extend together, one stacked-COO
scatter per level, instead of one Python-driven propagation per node per
level.  Each node keeps its own :class:`BudgetWindow`: the window charges
every edge the scalar recursion would traverse — prefetched or not, in the
scalar fetch order — so the adaptive ℓ(k) choice is *bit-identical* to the
sequential recursion (preserved as the executable specification in
``tests/specs/algorithm3.py`` and pinned by ``tests/test_multiprop.py``).

The demand fed to the prefetch is *budget-aware*: a node whose window is
near exhaustion only prefetches the prefix of its level's fetch sequence
whose known cost lower bound fits the remaining budget (one-level lookahead
costs are tracked per start), so the batch never materialises far past the
point where the scalar recursion would have stopped.  Under-prediction is
safe — :meth:`DistributionCache.charge` falls back to the exact scalar
schedule, materialising on demand — it only costs the vectorisation of the
last few fetches before exhaustion.

Within one level, the Lemma 4 subtraction is fully vectorized: the
``(q', remaining)`` distributions of a level live in a per-step *level
stack* (sorted start ids + concatenated supports), so the whole
``Σ_{q'} …`` update is one ``np.searchsorted`` gather plus one
``np.subtract.at`` scatter — no per-``q'`` Python loop.  All bookkeeping the
budget accounting needs (materialised depth, cumulative level costs,
one-level-lookahead cost) lives in flat per-node arrays, so charging a whole
fetch batch is array arithmetic, not dictionary walks.

The :class:`DistributionCache` remains shareable across nodes *and* across
the sources of a ``single_source_batch``: distributions another node already
materialised cost a lookup instead of a propagation (the walk-pooling reuse
the compacted sampling substrate exploits elsewhere), while the per-window
accounting keeps every node's ℓ(k) independent of cache warmth.

The sampling side rides the count-aggregated walk engine: lightly sampled
nodes form one batched pair-meeting call, and the Algorithm 3 tail estimates
of all heavy nodes are issued as a second batched call with per-origin
non-stop prefixes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.digraph import DiGraph
from repro.kernels.frontier import propagate_distribution
from repro.kernels.multiprop import MultiPropagation, dense_lane_limit
from repro.kernels.sparsevec import SparseVector
from repro.randomwalk.engine import SqrtCWalkEngine
from repro.utils.rng import SeedLike

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


class BudgetExhausted(Exception):
    """Raised by :class:`DistributionCache` when the edge budget is spent."""


class SparseDepthRecord:
    """Charged-depth-per-node record that stores only touched nodes.

    A budget window charges the cache for a few hundred starts at most (the
    supports of one heavy node's Z-levels), so a dense ``int32[num_nodes]``
    record wastes 4·n bytes per window — ~150 concurrent windows on a
    million-node graph would burn 600 MB of zeros.  This record keeps a
    plain ``dict`` of touched nodes plus a lazily rebuilt sorted-array view
    for the vectorized gathers of the batched charge path; memory is
    O(touched), and the rebuild cost amortises because the hot path gathers
    far more often than it mutates.
    """

    __slots__ = ("_map", "_keys", "_values")

    def __init__(self) -> None:
        self._map: Dict[int, int] = {}
        self._keys: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None

    def get(self, node: int) -> int:
        """The charged depth of ``node`` (0 when never touched)."""
        return self._map.get(node, 0)

    def set(self, node: int, depth: int) -> None:
        self._map[node] = depth
        self._keys = None

    def get_many(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`get` over an int64 node array."""
        if not self._map:
            return np.zeros(nodes.shape[0], dtype=np.int64)
        if self._keys is None:
            keys = np.fromiter(self._map.keys(), dtype=np.int64,
                               count=len(self._map))
            values = np.fromiter(self._map.values(), dtype=np.int64,
                                 count=len(self._map))
            order = np.argsort(keys)
            self._keys, self._values = keys[order], values[order]
        assert self._values is not None
        positions = np.searchsorted(self._keys, nodes)
        valid = positions < self._keys.shape[0]
        depths = np.zeros(nodes.shape[0], dtype=np.int64)
        hit = np.zeros(nodes.shape[0], dtype=bool)
        hit[valid] = self._keys[positions[valid]] == nodes[valid]
        depths[hit] = self._values[positions[hit]]
        return depths

    def set_many(self, nodes: np.ndarray, depth: int) -> None:
        """Vectorized :meth:`set` of one depth for many nodes."""
        update = self._map
        for node in nodes.tolist():
            update[node] = depth
        self._keys = None

    @property
    def touched(self) -> int:
        return len(self._map)

    def memory_bytes(self) -> int:
        """Rough payload: ~50 bytes per dict slot plus the array view."""
        total = 50 * len(self._map)
        if self._keys is not None:
            assert self._values is not None
            total += int(self._keys.nbytes + self._values.nbytes)
        return total


class BudgetWindow:
    """One Algorithm 3 edge-budget window (the per-node cost counter E_k).

    A window owns its own ``traversed_edges`` counter and its own per-node
    record of which cached levels it has already paid for, so many windows
    can charge one shared :class:`DistributionCache` concurrently — the
    level-synchronous batch keeps one window per heavy node while all nodes
    share the cache.  An ``edge_budget`` of ``None`` never exhausts.  The
    depth record is a
    :class:`SparseDepthRecord` over the touched nodes only, so a window's
    footprint scales with the nodes it actually charged — not with the
    graph (the ROADMAP memory condition for million-node graphs).
    """

    __slots__ = ("edge_budget", "traversed_edges", "_depths")

    def __init__(self, edge_budget: Optional[float]):
        self.edge_budget = edge_budget
        self.traversed_edges = 0
        self._depths = SparseDepthRecord()


class DistributionCache:
    """Lazily extended non-stop walk distributions from arbitrary start nodes.

    Budget accounting implements Algorithm 3's cost counter E_k: every edge
    the *scalar* recursion would traverse is charged to the caller's
    :class:`BudgetWindow` — including edges whose distribution is already
    cached from an earlier window — and the cache raises
    :class:`BudgetExhausted` as soon as the window's budget is spent so the
    caller can stop the deterministic exploration mid-level (exactly the
    paper's ``goto OUTLOOP``).

    Charging cached levels keeps the adaptive ℓ(k) choice *identical* to a
    fresh per-node cache (the paper's cost model balances deterministic work
    against the sampling it replaces; a "free" cache would push ℓ(k) ever
    deeper and blow up the recursion's own superlinear cost).  What sharing
    buys is wall-clock: a charged-but-cached level costs one lookup instead
    of a CSR propagation, so heavy nodes with overlapping neighbourhoods —
    and the same node allocated by several batched sources — materialise each
    distribution once per process instead of once per invocation.

    Three batched entry points serve the level-synchronous recursion:
    :meth:`prefetch` materialises many ``(start, steps)`` distributions with
    one :class:`MultiPropagation` (no window is charged — materialisation is
    semantically free), :meth:`charge` applies the scalar-order budget
    accounting for a whole fetch batch as array arithmetic over flat cost
    prefixes, and :meth:`gather_stacked` returns the concatenated
    level-``steps`` supports of many starts with one ``searchsorted`` gather
    from a per-step stack.
    """

    def __init__(self, graph: DiGraph, max_bytes: Optional[int] = None):
        self._graph = graph
        self._in_degrees = graph.in_degrees
        self._cache: Dict[int, List[SparseVector]] = {}
        # Flat bookkeeping, one slot per graph node: the deepest materialised
        # level (−1 = not even the root), the cumulative edge cost of levels
        # 1..d (prefix row, grown on demand), and the exact cost of the next
        # unmaterialised level (the one-level lookahead of the budget-aware
        # demand — for level avail+1 it is the in-degree sum of the current
        # deepest support, known without propagating).
        self._avail = np.full(graph.num_nodes, -1, dtype=np.int64)
        self._prefix = np.zeros((graph.num_nodes, 8), dtype=np.int64)
        self._next_cost = self._in_degrees.astype(np.int64, copy=True)
        # Per-step (start, vector, nnz) lists appended as levels materialise,
        # and the stacks gather_stacked compiles from them; a stack is stale
        # exactly when its step's list has grown since it was built.
        self._by_depth: Dict[int, List[Tuple[int, SparseVector, int]]] = {}
        self._stacks: Dict[int, Tuple[int, Tuple[np.ndarray, np.ndarray,
                                                 np.ndarray, np.ndarray]]] = {}
        self._cached_bytes = 0
        self.max_bytes = max_bytes
        # Scratch for prefetch's mask-based dedup (avoids an O(m log m)
        # np.unique per level).
        self._target_scratch = np.full(graph.num_nodes, -1, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # eviction
    # ------------------------------------------------------------------ #
    def _maybe_evict(self) -> None:
        """Drop every distribution once the cache outgrows ``max_bytes``.

        Called between exploration levels, never mid-recursion, so peak
        memory stays bounded even inside a large batch; eviction changes no
        result, because the edge budget charges cached levels regardless.
        """
        if self.max_bytes is not None and self._cached_bytes > self.max_bytes:
            self.clear()

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #
    def _ensure_root(self, start: int) -> List[SparseVector]:
        levels = self._cache.get(start)
        if levels is None:
            root = SparseVector(np.array([start], dtype=np.int64),
                                np.array([1.0], dtype=np.float64))
            levels = self._cache[start] = [root]
            self._avail[start] = 0
            self._next_cost[start] = self._in_degrees[start]
            self._by_depth.setdefault(0, []).append((start, root, 1))
            self._cached_bytes += root.memory_bytes()
        return levels

    def _append_level(self, start: int, vector: SparseVector, cost: int,
                      next_cost: Optional[int] = None) -> None:
        self._cache[start].append(vector)
        depth = int(self._avail[start]) + 1
        if depth >= self._prefix.shape[1]:
            grown = np.zeros((self._prefix.shape[0], 2 * self._prefix.shape[1]),
                             dtype=np.int64)
            grown[:, :self._prefix.shape[1]] = self._prefix
            self._prefix = grown
        self._prefix[start, depth] = self._prefix[start, depth - 1] + cost
        self._avail[start] = depth
        self._next_cost[start] = (int(self._in_degrees[vector.indices].sum())
                                  if next_cost is None else next_cost)
        self._by_depth.setdefault(depth, []).append((start, vector, vector.nnz))
        self._cached_bytes += vector.memory_bytes()

    def peek(self, start: int, steps: int) -> SparseVector:
        """The cached level-``steps`` distribution of ``start`` (no charging)."""
        return self._cache[start][steps]

    def level_cost(self, start: int, depth: int) -> int:
        """Edges the propagation that produced level ``depth`` traversed."""
        return int(self._prefix[start, depth] - self._prefix[start, depth - 1])

    # ------------------------------------------------------------------ #
    # scalar path: charge + materialise on demand
    # ------------------------------------------------------------------ #
    def distribution(self, start: int, steps: int,
                     window: BudgetWindow) -> SparseVector:
        """Level-``steps`` distribution of ``start``, charged to ``window``.

        Charges already-materialised levels the window has not paid for yet
        (in the same per-level order the scalar recursion would traverse),
        then extends the cache level by level, raising
        :class:`BudgetExhausted` whenever the window's budget is spent before
        a charge.
        """
        start = int(start)
        levels = self._ensure_root(start)
        charged = window._depths.get(start)
        budget = window.edge_budget
        while charged < min(steps, int(self._avail[start])):
            if budget is not None and window.traversed_edges >= budget:
                raise BudgetExhausted()
            charged += 1
            window.traversed_edges += self.level_cost(start, charged)
            window._depths.set(start, charged)
        while self._avail[start] < steps:
            # A window never pays for the same level twice: depths the window
            # already charged before an eviction re-materialise for free (the
            # fresh-cache sequential path charged them exactly once too).
            chargeable = int(self._avail[start]) + 1 > charged
            if chargeable and budget is not None \
                    and window.traversed_edges >= budget:
                raise BudgetExhausted()
            extended, cost = propagate_distribution(
                self._graph.in_indptr, self._graph.in_indices, levels[-1],
                num_nodes=self._graph.num_nodes)
            self._append_level(start, extended, cost)
            if chargeable:
                charged += 1
                window.traversed_edges += cost
                window._depths.set(start, charged)
        return levels[steps]

    # ------------------------------------------------------------------ #
    # batched path: charge / prefetch / stacked gather
    # ------------------------------------------------------------------ #
    def charge(self, window: BudgetWindow, starts: np.ndarray,
               steps: int) -> None:
        """Charge ``window`` for fetching every start's level-``steps`` distribution.

        ``starts`` must be unique and in the scalar fetch order.  The common
        case — every start materialised and the whole batch strictly under
        budget — is one gather over the flat cost prefixes; otherwise the
        exact per-level scalar schedule replays (materialising missing levels
        as it goes), so the raise point and the final ``traversed_edges``
        match the sequential recursion bit for bit.
        """
        starts = np.asarray(starts, dtype=np.int64)
        if starts.size == 0:
            return
        depths = window._depths.get_many(starts)
        need = depths < steps
        budget = window.edge_budget
        # The fast path needs every start materialised to ``steps`` — the
        # already-paid ones too: a window may have paid for levels an
        # eviction dropped, and those must re-materialise (for free) before
        # the caller gathers.
        if np.all(self._avail[starts] >= steps):
            if not need.any():
                return
            selected = starts[need]
            amounts = self._prefix[selected, steps] \
                - self._prefix[selected, depths[need]]
            total = int(amounts.sum())
            if budget is None or window.traversed_edges + total < budget:
                window.traversed_edges += total
                window._depths.set_many(selected, steps)
                return
        for start in starts.tolist():
            self.distribution(start, steps, window)

    def prefetch(self, starts: np.ndarray, steps: np.ndarray) -> None:
        """Materialise ``distribution(starts[i], steps[i])`` for every ``i``.

        One :class:`MultiPropagation` advances every start still missing
        levels — heterogeneous targets interleave over shared levels, one
        stacked scatter per level — and no window is charged
        (materialisation is semantically free; windows pay when they fetch).
        Starts are chunked to :func:`dense_lane_limit` lanes per engine so
        the stacked scatter stays in the dense-bincount regime.
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
            for position, start in enumerate(fresh.tolist()):
                root = SparseVector.wrap(fresh[position:position + 1],
                                         ones[position:position + 1])
                self._cache[start] = [root]
                roots.append((start, root, 1))
            self._avail[fresh] = 0
            self._next_cost[fresh] = self._in_degrees[fresh]
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
            edges = engine.step()
            bounds = engine.lane_bounds()
            level_cols, level_vals = engine.cols, engine.values
            next_costs = np.bincount(engine.rows,
                                     weights=self._in_degrees[level_cols],
                                     minlength=num_lanes).astype(np.int64)
            live_lanes = np.flatnonzero(live)
            lane_starts = starts[live_lanes]
            new_depths = self._avail[lane_starts] + 1
            while int(new_depths.max()) >= self._prefix.shape[1]:
                grown = np.zeros((self._prefix.shape[0],
                                  2 * self._prefix.shape[1]), dtype=np.int64)
                grown[:, :self._prefix.shape[1]] = self._prefix
                self._prefix = grown
            self._prefix[lane_starts, new_depths] = \
                self._prefix[lane_starts, new_depths - 1] + edges[live_lanes]
            self._avail[lane_starts] = new_depths
            self._next_cost[lane_starts] = next_costs[live_lanes]
            lane_sizes = np.diff(bounds)
            self._cached_bytes += 16 * int(lane_sizes[live_lanes].sum())
            for position, lane in enumerate(live_lanes.tolist()):
                lo, hi = int(bounds[lane]), int(bounds[lane + 1])
                # Slices are views into this level's (immutable) arrays.
                vector = SparseVector.wrap(level_cols[lo:hi],
                                           level_vals[lo:hi])
                start = start_ids[lane]
                self._cache[start].append(vector)
                self._by_depth.setdefault(int(new_depths[position]),
                                          []).append((start, vector, hi - lo))
            depth[live] += 1
            finished = live & (depth >= targets)
            if finished.any() and (depth < targets).any():
                engine.terminate(np.flatnonzero(finished))

    def _level_stack(self, steps: int) -> Tuple[np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray]:
        entries = self._by_depth.get(steps, ())
        cached = self._stacks.get(steps)
        if cached is not None and cached[0] == len(entries):
            return cached[1]
        if entries:
            ordered = sorted(entries)
            start_ids = np.array([start for start, _, _ in ordered],
                                 dtype=np.int64)
            sizes = np.array([size for _, _, size in ordered], dtype=np.int64)
            indptr = np.zeros(len(ordered) + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            cat_indices = np.concatenate([v.indices for _, v, _ in ordered])
            cat_values = np.concatenate([v.values for _, v, _ in ordered])
        else:
            start_ids, indptr = _EMPTY_I, np.zeros(1, dtype=np.int64)
            cat_indices, cat_values = _EMPTY_I, _EMPTY_F
        stack = (start_ids, indptr, cat_indices, cat_values)
        self._stacks[steps] = (len(entries), stack)
        return stack

    def gather_stacked(self, starts: np.ndarray, steps: int
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated level-``steps`` supports of ``starts``, in order.

        Returns ``(lengths, indices, values)``: the per-start support sizes
        and the flat concatenation of every start's sorted support — one
        ``searchsorted`` into the per-step stack plus one repeat/cumsum flat
        gather, no per-start Python loop.  Every start must already be
        materialised to ``steps`` (:meth:`prefetch`, or the materialising
        :meth:`charge` slow path, guarantees this).
        """
        starts = np.asarray(starts, dtype=np.int64)
        start_ids, indptr, cat_indices, cat_values = self._level_stack(steps)
        if start_ids.shape[0] == 0:
            raise KeyError(f"no distributions materialised at level {steps}")
        positions = np.minimum(np.searchsorted(start_ids, starts),
                               start_ids.shape[0] - 1)
        if not np.array_equal(start_ids[positions], starts):
            raise KeyError(f"some starts lack a level-{steps} distribution; "
                           "prefetch before gathering")
        lo = indptr[positions]
        lengths = indptr[positions + 1] - lo
        total = int(lengths.sum())
        if total == 0:
            return lengths, _EMPTY_I, _EMPTY_F
        offsets = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(lengths) - lengths, lengths)
        flat = np.repeat(lo, lengths) + offsets
        return lengths, cat_indices[flat], cat_values[flat]

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> int:
        """Bytes held by every cached distribution (the cache grows with use)."""
        return self._cached_bytes

    def clear(self) -> None:
        """Drop every cached distribution (semantically free: only wall-clock).

        Long-lived owners call this to bound memory — the budget accounting
        charges cached levels anyway, so a cleared cache changes no result,
        it only re-materialises distributions on the next request.
        """
        self._cache = {}
        self._avail[:] = -1
        self._prefix[:] = 0
        np.copyto(self._next_cost, self._in_degrees)
        self._by_depth = {}
        self._stacks = {}
        self._cached_bytes = 0


def _demand_for_level(cache: DistributionCache, window: BudgetWindow,
                      node: int, level: int,
                      z_levels: List[Tuple[np.ndarray, np.ndarray]],
                      start_parts: List[np.ndarray],
                      step_parts: List[np.ndarray]) -> None:
    """Append the (start, steps) prefetch demand of one node's level-ℓ step.

    Walks the scalar fetch sequence — ``(node, ℓ)`` first, then each inner
    level's positive-Z supports in order — and appends every fetch whose
    distribution is not materialised yet.  With a budgeted ``window`` the
    walk stops once the *known lower bound* of the window's charges (exact
    costs of materialised levels plus the one-level lookahead cost of each
    unmaterialised start) reaches the remaining budget: the recursion is
    then guaranteed to exhaust at or before that fetch, so nothing past it
    can be consulted this level.  The bound under-counts deeper
    unmaterialised levels, so the cut can only ever be *late* (bounded
    over-materialisation), never early enough to skip a fetch the scalar
    path performs — and even an early cut would merely route that fetch
    through the materialising :meth:`DistributionCache.charge` slow path.
    """
    budget = window.edge_budget
    remaining = np.inf if budget is None \
        else budget - window.traversed_edges
    bound = 0

    def visit_segment(starts: np.ndarray, steps: int) -> bool:
        nonlocal bound
        avail = cache._avail[starts]
        capped = np.clip(avail, 0, steps)
        if budget is None:
            cut = starts.shape[0]
        else:
            window_depths = window._depths.get_many(starts)
            depths = np.minimum(window_depths, capped)
            charges = cache._prefix[starts, capped] \
                - cache._prefix[starts, depths]
            # Lookahead only where the window still owes something: levels it
            # paid before an eviction re-materialise free of charge.
            charges += np.where((avail < steps) & (window_depths < steps),
                                cache._next_cost[starts], 0)
            total = int(charges.sum())
            if bound + total < remaining:
                # The whole segment provably fits: no cut scan needed.
                cut = starts.shape[0]
                bound += total
            else:
                cumulative = bound + np.cumsum(charges)
                over = cumulative >= remaining
                cut = starts.shape[0] if not over.any() \
                    else int(np.flatnonzero(over)[0]) + 1
                bound = int(cumulative[cut - 1]) if cut else bound
        needed = starts[:cut][avail[:cut] < steps]
        if needed.size:
            start_parts.append(needed)
            step_parts.append(np.full(needed.shape[0], steps, dtype=np.int64))
        return cut == starts.shape[0]

    if not visit_segment(np.array([node], dtype=np.int64), level):
        return
    for first_meeting_level in range(1, level):
        prev_indices, prev_values = z_levels[first_meeting_level - 1]
        q_primes = prev_indices[prev_values > 0.0]
        if q_primes.size and not visit_segment(q_primes,
                                               level - first_meeting_level):
            return


class _ExploitState:
    """Per-node progress of one interleaved Algorithm 3 recursion."""

    __slots__ = ("node", "window", "z_levels", "chosen", "alive")

    def __init__(self, node: int, window: BudgetWindow):
        self.node = node
        self.window = window
        self.z_levels: List[Tuple[np.ndarray, np.ndarray]] = []
        self.chosen = 0
        self.alive = True


def _run_level_fused(cache: DistributionCache, states: List[_ExploitState],
                     level: int, decay: float, num_nodes: int) -> None:
    """Advance every state's Lemma 4 recursion one level, fused across states.

    Level ℓ of one state is Z_ℓ(k, q) = c^ℓ (Pᵀ)^ℓ(k, q)² − Σ_{ℓ'<ℓ} Σ_{q'}
    c^{ℓ-ℓ'} (Pᵀ)^{ℓ-ℓ'}(q', q)² · Z_{ℓ'}(k, q'), and the subtraction runs
    as one pass per inner level ℓ' for all states: their ``(q', Z)`` pairs
    concatenate state-major, their distributions come out of the shared
    level stack with a single gather, and one ``np.subtract.at`` over
    ``state·n + node`` packed keys applies every state's ``Σ_{q'} …`` update
    at once.  Entries that end up non-positive are dropped.  Budget
    charging stays per state (each window charges its own fetches in the
    scalar order), so a state that exhausts mid-level dies exactly where the
    sequential recursion would — its discarded level simply stops being
    subtracted into.  Within one state the packed-key subtraction touches
    the same targets with the same contributions in the same order as the
    sequential spec's per-``q'`` loop (``tests/specs/algorithm3.py``), so
    fusing changes no float.
    """
    participants: List[_ExploitState] = []
    node_parts: List[np.ndarray] = []
    value_parts: List[np.ndarray] = []
    for state in states:
        try:
            cache.charge(state.window, np.array([state.node], dtype=np.int64),
                         level)
        except BudgetExhausted:
            state.alive = False
            continue
        from_k = cache.peek(state.node, level)
        participants.append(state)
        node_parts.append(from_k.indices)
        value_parts.append((decay ** level) * from_k.values * from_k.values)
    if not participants:
        return
    sizes = np.array([part.shape[0] for part in node_parts], dtype=np.int64)
    bounds = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    z_nodes = np.concatenate(node_parts)
    z_values = np.concatenate(value_parts)
    z_keys = np.repeat(np.arange(sizes.shape[0], dtype=np.int64),
                       sizes) * np.int64(num_nodes) + z_nodes
    alive = np.ones(len(participants), dtype=bool)
    for first_meeting_level in range(1, level):
        remaining = level - first_meeting_level
        positions_parts: List[int] = []
        q_parts: List[np.ndarray] = []
        weight_parts: List[np.ndarray] = []
        for position, state in enumerate(participants):
            if not alive[position]:
                continue
            prev_indices, prev_values = state.z_levels[first_meeting_level - 1]
            positive = prev_values > 0.0
            q_primes = prev_indices[positive]
            if q_primes.size == 0:
                continue
            try:
                cache.charge(state.window, q_primes, remaining)
            except BudgetExhausted:
                alive[position] = False
                state.alive = False
                continue
            positions_parts.append(position)
            q_parts.append(q_primes)
            weight_parts.append(prev_values[positive])
        if not q_parts:
            continue
        q_sizes = np.array([part.shape[0] for part in q_parts], dtype=np.int64)
        q_cat = np.concatenate(q_parts)
        z_weight_cat = np.concatenate(weight_parts)
        owner = np.repeat(np.array(positions_parts, dtype=np.int64), q_sizes)
        lengths, support, values = cache.gather_stacked(q_cat, remaining)
        if support.size == 0:
            continue
        weights = np.repeat(z_weight_cat, lengths) * values * values
        target_keys = np.repeat(owner, lengths) * np.int64(num_nodes) + support
        slots = np.searchsorted(z_keys, target_keys)
        slots = np.minimum(slots, max(z_keys.shape[0] - 1, 0))
        hit = z_keys[slots] == target_keys if z_keys.size else \
            np.zeros(target_keys.shape[0], dtype=bool)
        if hit.any():
            factor = decay ** remaining
            np.subtract.at(z_values, slots[hit], factor * weights[hit])
    for position, state in enumerate(participants):
        if not alive[position]:
            continue
        segment_nodes = z_nodes[bounds[position]:bounds[position + 1]]
        segment_values = z_values[bounds[position]:bounds[position + 1]]
        keep = segment_values > 0.0
        state.z_levels.append((segment_nodes[keep], segment_values[keep]))
        state.chosen = level


def _explore_levels(graph: DiGraph, cache: DistributionCache,
                    states: List[_ExploitState], *, decay: float,
                    max_level: int) -> None:
    """Run the states' Lemma 4 recursions one global level at a time.

    Per level, the distributions every active state will consult are
    materialised by one batched :meth:`DistributionCache.prefetch` (one
    stacked scatter per propagation level, budget-aware per state), then
    :func:`_run_level_fused` applies every state's Lemma 4 update against
    the shared level stacks, each charging its own :class:`BudgetWindow`.
    A state stops once its window is spent.
    """
    for level in range(1, max_level + 1):
        cache._maybe_evict()
        for state in states:
            window = state.window
            if window.edge_budget is not None \
                    and window.traversed_edges >= window.edge_budget:
                state.alive = False
        active = [state for state in states if state.alive]
        if not active:
            break
        start_parts: List[np.ndarray] = []
        step_parts: List[np.ndarray] = []
        for state in active:
            _demand_for_level(cache, state.window, state.node, level,
                              state.z_levels, start_parts, step_parts)
        if start_parts:
            cache.prefetch(np.concatenate(start_parts),
                           np.concatenate(step_parts))
        # Paper's "goto OUTLOOP" happens inside the fused level: a state
        # whose budget dies mid-level keeps ℓ(k) at the last full level.
        _run_level_fused(cache, active, level, decay, graph.num_nodes)


def _exploit_deterministic_batch(graph: DiGraph, cache: DistributionCache,
                                 requests: Sequence[Tuple[int, int]], *,
                                 decay: float, max_level: int
                                 ) -> List[Tuple[int, float, int]]:
    """The deterministic half of Algorithm 3 for many nodes, level-synchronously.

    ``requests`` holds ``(node, num_pairs)`` pairs; the result list gives
    ``(chosen_level, deterministic_mass, traversed_edges)`` per request.
    Each distinct request explores under its own :class:`BudgetWindow` of
    2·R(k)/√c edges, and all of them advance together in
    :func:`_explore_levels`.  Because every window charges every edge the
    scalar recursion would traverse — cached or not, in the scalar fetch
    order — the outcome per node is bit-identical to the sequential
    recursion of ``tests/specs/algorithm3.py``.
    """
    sqrt_c = float(np.sqrt(decay))
    states: Dict[Tuple[int, int], _ExploitState] = {}
    for node, num_pairs in requests:
        key = (int(node), int(num_pairs))
        if key not in states:
            states[key] = _ExploitState(key[0],
                                        BudgetWindow(2.0 * key[1] / sqrt_c))
    _explore_levels(graph, cache, list(states.values()), decay=decay,
                    max_level=max_level)
    results = []
    for node, num_pairs in requests:
        state = states[(int(node), int(num_pairs))]
        mass = float(sum(values.sum() for _, values in state.z_levels))
        results.append((state.chosen, mass, state.window.traversed_edges))
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
                                  min_pairs_for_exploitation: int = 32,
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
       overlapping another's) pays for its distributions once;
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
        light = ((allocations > 0) & (allocations < min_pairs_for_exploitation)
                 & (in_degrees > 1))
        light_nodes.append(node_ids[light])
        light_counts.append(allocations[light])
    _apply_pair_meetings(walker, diagonals, light_nodes, light_counts, max_steps)

    # Stage 2 — deterministic exploitation of every heavy node, interleaved
    # level-synchronously over the shared cache.
    heavy_requests: List[Tuple[int, int, int]] = []   # (source idx, node, R)
    for source_index, allocations in enumerate(checked):
        heavy = (allocations >= min_pairs_for_exploitation) & (in_degrees > 1)
        for node in np.flatnonzero(heavy).tolist():
            heavy_requests.append((source_index, node, int(allocations[node])))
    exploits = _exploit_deterministic_batch(
        graph, cache, [(node, pairs) for _, node, pairs in heavy_requests],
        decay=decay, max_level=max_level)

    tail_sources: List[int] = []
    tail_nodes: List[int] = []
    tail_pairs: List[int] = []
    tail_levels: List[int] = []
    for (source_index, node, num_pairs), (chosen_level, mass, _) in \
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
    "BudgetExhausted",
    "BudgetWindow",
    "SparseDepthRecord",
    "DistributionCache",
    "estimate_diagonal_local_batch",
]
