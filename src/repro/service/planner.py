"""Capability-aware query planner and caching executor.

The planner is the serving layer's brain: callers hand it typed queries
(:mod:`repro.service.queries`) and it answers each with the method the query
names, taking the first of these routes that applies:

1. **Result cache** — an LRU over answered queries; a repeated query returns
   without touching the compute substrate, and a cached *single-source
   vector* also answers any pair/top-k query on the same source for free
   (``cached-derived``).  Keys incorporate the graph's structural
   fingerprint, so a planner rebuilt over a mutated graph can never serve a
   stale vector.
2. **Native path** — a kind the method lists in
   :attr:`~repro.baselines.base.SimRankAlgorithm.native_capabilities` always
   runs natively (a SLING top-k stops accumulating levels once the k-th gap
   is certified; an MC pair compares the two nodes' stored walks).
3. **Derived path** — every other kind is read off a single-source vector,
   and :meth:`QueryPlanner.answer` *coalesces* the single-source work of a
   whole batch into the vectorized ``single_source_batch`` micro-batch (one
   batch per method and ε), so concurrent requests on one graph share their
   CSR passes exactly as the experiment harness does.  An ExactSim pair is
   an entry of its source's vector, so it keeps that vector's ε guarantee.

**Resilience.** Every route execution runs under three guards:

* a cooperative *deadline* (``deadline_ms``, per planner or per ``answer``
  call): the level-synchronous loops below check it at their boundaries.
  Methods whose partial state is a certified answer (SLING, PRSim,
  Linearization) return a *degraded* result carrying ``stats["degraded"]``
  and a ``certified_bound``; loops without a usable prefix raise, and the
  planner converts that into a structured **timeout** outcome
  (``QueryOutcome.error``) instead of dying.  A timeout is never retried —
  the budget is spent — and degraded results are never cached.
* a per-(method, route) *circuit breaker*: a route that fails repeatedly is
  quarantined and probed with exponential backoff instead of re-failing
  every query (:mod:`repro.service.resilience`).
* an optional deterministic *fault plan* (:mod:`repro.service.faults`) that
  injects failures/latency at exact call ordinals for resilience testing.

On an organic route failure the planner retries once, inside the same
method and ε: a failed (or quarantined) native route falls back to the
coalesced derived pass.  When that pass fails or its breaker refuses it,
each query of the pool comes back as a ``route_failed`` error naming the
method and the source; no other method answers in its place.

Index-based methods auto-load their persisted index from ``index_dir`` on
first touch.  A corrupt or stale index file degrades to a rebuild with a
logged structured warning (and an ``index_load_failures`` counter) — never
an exception on the serving path.  Only the *configured* instance of a
method touches ``index_dir``: an instance built for a per-query ε override
never loads, saves or re-saves the persisted file, and the planner keeps at
most :data:`OVERRIDE_INSTANCES` of them alive (least recently used first
out; an evicted one rebuilds on demand, bit-identically since it is seeded).

**Online updates.**  The planner participates in the versioned update plane
of :mod:`repro.graph.context` / :mod:`repro.graph.updates`:
:meth:`QueryPlanner.apply_updates` pushes an edge batch through the shared
context (WAL-first when a log is attached), after which the planner keeps
serving the *previous* graph version — every answer carries
``stats["graph_version"]`` and ``stats["stale_updates"]`` so clients can see
exactly how stale the snapshot is — until :meth:`QueryPlanner.
complete_repairs` has rebuilt every live index on the new graph (index-free
methods just rebind) and atomically swapped the served graph, cache scope
and version forward at a batch boundary.  On construction with a ``wal``,
the planner replays the log so a crash between acknowledgement and rebuild
loses nothing.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.algorithms import registry
from repro.baselines.base import IndexPersistenceError, SimRankAlgorithm
from repro.core.result import SingleSourceResult, derive_from_single_source
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.graph.updates import EdgeBatch, GraphCheckpoint, UpdateLog
from repro.kernels import parallel as kernel_parallel
from repro.service.faults import (
    ROUTE_DERIVED,
    ROUTE_NATIVE,
    UPDATE_REPAIR,
    UPDATE_SWAP,
    FaultPlan,
)
from repro.service.queries import (
    KIND_SINGLE_PAIR,
    KIND_SINGLE_SOURCE,
    KIND_TOP_K,
    Query,
    QueryResult,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
)
from repro.service.resilience import (
    ERROR_ROUTE_FAILED,
    ERROR_TIMEOUT,
    STATE_CLOSED,
    STATE_OPEN,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    deadline_scope,
    error_record,
)

_LOGGER = logging.getLogger("repro.service.planner")

#: Routes a plan can take (``route`` field of :class:`QueryPlan`), with
#: ``ROUTE_NATIVE`` and ``ROUTE_DERIVED``, the two that run a method (their
#: names live with the fault hooks that fire on them).
ROUTE_CACHED = "cached"
ROUTE_CACHED_DERIVED = "cached-derived"

PathLike = Union[str, Path]

#: How many per-query override instances (a wire ε other than the configured
#: one) a planner keeps alive, least recently used first out.  Each instance
#: can hold an index, and an ExactSim one a distribution cache of up to
#: 64 MB.
OVERRIDE_INSTANCES = 8


@dataclass(frozen=True)
class QueryPlan:
    """How one query will be (or was) executed."""

    method: str
    kind: str
    route: str
    #: True when the derived single-source work rode a coalesced micro-batch.
    batched: bool = False


@dataclass
class QueryOutcome:
    """A plan plus the result it produced — or the structured error instead.

    Exactly one of ``result`` / ``error`` is meaningful: a served query
    carries its result (possibly *degraded*: a certified partial answer, see
    :attr:`degraded`); a failed query carries an error record with a stable
    ``code`` (``timeout`` / ``route_failed``) and ``result is None``.
    """

    query: Query
    plan: QueryPlan
    result: Optional[QueryResult] = None
    error: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def cached(self) -> bool:
        return self.plan.route in (ROUTE_CACHED, ROUTE_CACHED_DERIVED)

    @property
    def degraded(self) -> bool:
        """True when the answer is a deadline-degraded certified partial."""
        return _is_degraded(self.result)


def _is_degraded(result: Optional[QueryResult]) -> bool:
    stats = getattr(result, "stats", None)
    return bool(stats) and stats.get("degraded") == 1.0


@dataclass
class _RouteRun:
    """One guarded route execution: its value, or the timeout instead.

    Both ``value`` and ``timeout`` are ``None`` when the route failed
    (``error``) or its breaker rejected it.
    """

    value: Any = None
    timeout: Optional[DeadlineExceeded] = None
    error: Optional[Exception] = None


class ResultCache:
    """A byte-unaware LRU mapping query keys to results."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, QueryResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[QueryResult]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: QueryResult) -> None:
        if self.max_entries == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class QueryPlanner:
    """Routes typed queries over the algorithm registry for one graph.

    Parameters
    ----------
    graph / context:
        The served graph and its shared :class:`GraphContext` (defaulting to
        the process-wide shared context, so planner instances and direct
        algorithm use share transition matrices).
    default_method:
        Registry name answering queries that do not name a method.
    method_configs:
        Per-method config dicts applied when the planner constructs an
        instance (e.g. ``{"exactsim": {"epsilon": 1e-3, "seed": 7}}``).
    cache_entries:
        LRU capacity of the result cache (0 disables caching).
    index_dir / save_indices:
        When ``index_dir`` is set, persistable methods load their index from
        ``<index_dir>/<graph>.<method>.npz`` on first touch instead of
        rebuilding; with ``save_indices=True`` a freshly built index is
        saved there for the next process.
    index_mmap:
        Attach persisted indices as read-only memory maps
        (``load_index(..., mmap_mode='r')``) instead of materializing them:
        the serving workers of :mod:`repro.service.workers` all share one
        page-cache copy of each index file.
    deadline_ms:
        Default per-route-execution compute budget (None = unbounded); each
        :meth:`answer` call can override it.
    breaker:
        The per-(method, route) circuit breaker; the default trips after 3
        consecutive failures.  Inject one with a fake clock for tests.
    fault_plan:
        Optional deterministic fault injection consulted before every route
        execution (:mod:`repro.service.faults`).
    wal:
        Optional :class:`~repro.graph.updates.UpdateLog`.  When set, every
        :meth:`apply_updates` batch is durably appended before it mutates
        anything, and construction replays the log (then completes repairs)
        so a restart resumes at exactly the acknowledged history.
    """

    def __init__(self, graph: DiGraph, *, context: Optional[GraphContext] = None,
                 default_method: str = "exactsim",
                 method_configs: Optional[Mapping[str, Mapping[str, Any]]] = None,
                 cache_entries: int = 256,
                 index_dir: Optional[PathLike] = None,
                 save_indices: bool = False,
                 index_mmap: bool = False,
                 deadline_ms: Optional[float] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 wal: Optional[UpdateLog] = None):
        self.graph = graph
        self.context = context if context is not None else GraphContext.shared(graph)
        self.default_method = default_method
        self._configs: Dict[str, Dict[str, Any]] = {
            name: dict(config) for name, config in (method_configs or {}).items()}
        self.cache = ResultCache(cache_entries)
        self.index_dir = Path(index_dir) if index_dir is not None else None
        self.save_indices = save_indices
        self.index_mmap = index_mmap
        self.deadline_ms = deadline_ms
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.fault_plan = fault_plan
        self.wal = wal
        # Cache keys are scoped by the graph's structural fingerprint so a
        # result can never outlive the structure it was computed on; the
        # fingerprint/version pair is re-verified on every answer() and
        # advanced only by the atomic swap in complete_repairs().
        self._graph_key = graph.fingerprint().tobytes()
        self._graph_version = self.context.version_of(graph)
        # The configured (or registered) instance of each method name, and
        # the per-query override instances keyed by (method, merged config).
        self._instances: Dict[str, SimRankAlgorithm] = {}
        self._overrides: "OrderedDict[Hashable, SimRankAlgorithm]" = \
            OrderedDict()
        # Methods whose freshly built index should be persisted once an
        # actual query forces the build (never eagerly at construction).
        self._pending_saves: set = set()
        self._counters: Dict[str, int] = {
            "queries": 0, "native_routes": 0, "derived_routes": 0,
            "cache_routes": 0, "coalesced_batches": 0, "coalesced_queries": 0,
            "index_loads": 0, "index_builds_saved": 0,
            "index_load_failures": 0,
            "route_failures": 0,
            "degraded_answers": 0, "deadline_timeouts": 0,
            "breaker_rejections": 0,
            "updates_applied": 0, "wal_replayed": 0,
            "index_repairs": 0, "index_rebuilds": 0,
            "version_swaps": 0, "stale_answers": 0,
            "wal_compactions": 0, "indices_persisted_on_swap": 0,
        }
        if wal is not None:
            replayed = self.context.recover(wal)
            if replayed:
                self._counters["wal_replayed"] += replayed
            self.complete_repairs()

    # ------------------------------------------------------------------ #
    # algorithm instances
    # ------------------------------------------------------------------ #
    def register(self, algorithm: SimRankAlgorithm,
                 name: Optional[str] = None) -> str:
        """Adopt a pre-built algorithm instance (harness/example entry point).

        The instance answers every query naming ``name`` (default: the
        algorithm's own ``name``); its graph must be the planner's.
        """
        if algorithm.graph is not self.graph and algorithm.graph != self.graph:
            raise ValueError("algorithm was built for a different graph")
        key = name if name is not None else algorithm.name
        self._instances[key] = algorithm
        return key

    def instance(self, method: Optional[str] = None,
                 config: Optional[Mapping[str, Any]] = None) -> SimRankAlgorithm:
        """The (cached) algorithm instance answering ``method`` queries.

        Without ``config`` this is the method's configured instance: on
        first construction of a persistable method the planner auto-loads
        its persisted index from ``index_dir`` (and otherwise saves a
        freshly built one there when ``save_indices`` is set).  ``config``
        overrides the planner's per-method config (a wire ε); such an
        override instance never touches ``index_dir``, and the planner keeps
        the :data:`OVERRIDE_INSTANCES` most recently used ones.
        """
        method = method if method is not None else self.default_method
        configured = self._configs.get(method, {})
        if config is not None:
            merged = {**configured, **config}
            if merged != configured:
                key = (method, tuple(sorted(merged.items())))
                algorithm = self._overrides.get(key)
                if algorithm is None:
                    algorithm = registry.create(method, self.graph, merged,
                                                context=self.context)
                    self._overrides[key] = algorithm
                    while len(self._overrides) > OVERRIDE_INSTANCES:
                        self._overrides.popitem(last=False)
                else:
                    self._overrides.move_to_end(key)
                return algorithm
        algorithm = self._instances.get(method)
        if algorithm is None:
            algorithm = registry.create(method, self.graph, dict(configured),
                                        context=self.context)
            self._maybe_load_index(method, algorithm)
            self._instances[method] = algorithm
        return algorithm

    def _maybe_load_index(self, method: str, algorithm: SimRankAlgorithm) -> None:
        if self.index_dir is None or not registry.get_spec(method).supports_persistence:
            return
        path = self.index_dir / f"{self.graph.name}.{method}.npz"
        if path.exists():
            try:
                algorithm.load_index(
                    path, mmap_mode="r" if self.index_mmap else None)
                self._counters["index_loads"] += 1
                return
            except IndexPersistenceError as error:
                # Corrupt/stale/mismatched file: degrade to a fresh build.
                self._counters["index_load_failures"] += 1
                _LOGGER.warning(
                    "index-load-failed method=%s path=%s error=%r; "
                    "falling back to an in-process rebuild", method, path, error)
        if self.save_indices:
            self._pending_saves.add(method)

    def _flush_pending_save(self, method: str,
                            algorithm: SimRankAlgorithm) -> None:
        """Persist a freshly built index once a query has paid for the build.

        Only the configured instance saves: an override instance's index
        was built at another ε and must not replace the method's file.
        """
        if method in self._pending_saves and algorithm.prepared \
                and self._instances.get(method) is algorithm \
                and self.index_dir is not None:
            algorithm.save_index(self.index_dir
                                 / f"{self.graph.name}.{method}.npz")
            self._pending_saves.discard(method)
            self._counters["index_builds_saved"] += 1

    # ------------------------------------------------------------------ #
    # online updates
    # ------------------------------------------------------------------ #
    @property
    def graph_version(self) -> int:
        """The version of the graph answers are computed on *right now*."""
        return self._graph_version

    @property
    def stale_updates(self) -> int:
        """Acknowledged update batches not yet folded into served answers."""
        return max(0, self.context.graph_version - self._graph_version)

    def apply_updates(self, batch: Union[EdgeBatch, Dict[str, Any]]
                      ) -> Dict[str, Any]:
        """Acknowledge one edge batch (WAL-first when a log is attached).

        The batch becomes durable and versioned immediately; the planner
        keeps *serving the previous version* — annotated with
        ``stats["stale_updates"]`` — until :meth:`complete_repairs` swaps
        the rebuilt indexes in at a batch boundary.  Returns the
        acknowledgement record (new version, normalized change counts,
        current staleness).
        """
        delta = self.context.apply_updates(batch, wal=self.wal,
                                           fault_plan=self.fault_plan)
        self._counters["updates_applied"] += 1
        return {"type": "update", "graph_version": int(delta.version_to),
                "inserted": int(delta.inserted.shape[0]),
                "deleted": int(delta.deleted.shape[0]),
                "stale_updates": self.stale_updates}

    def complete_repairs(self) -> Dict[str, Any]:
        """Carry every live instance to the newest version, then swap atomically.

        Each constructed algorithm instance goes through :meth:`repro.
        baselines.base.SimRankAlgorithm.repair` — rebind, plus a rebuild for
        a prepared index, bit-identical to a fresh build on the new graph;
        an instance whose repair *raises* is dropped for lazy
        reconstruction instead of poisoning the swap.  Only
        after every instance is bound to the new graph do the served graph,
        the cache scope (``_graph_key``) and the version advance — one
        atomic batch boundary, with fault hooks ``("update", "repair")`` and
        ``("update", "swap")`` on either side for crash testing.
        """
        target = self.context.graph_version
        if target == self._graph_version and self.graph is self.context.graph:
            return {"graph_version": target, "repairs": []}
        try:
            delta = self.context.delta_between(self._graph_version, target)
        except KeyError:
            # The old version fell out of the context's history window: no
            # delta to repair against, so drop every instance and let the
            # next query rebuild (or reload) against the new graph.
            delta = None
        if self.fault_plan is not None:
            self.fault_plan.on_route_call("update", UPDATE_REPAIR, None)
        repairs: List[Dict[str, Any]] = []
        if delta is None:
            self._instances.clear()
            self._overrides.clear()
            self._counters["index_rebuilds"] += 1
            repairs.append({"method": "*", "strategy": "drop_all",
                            "reason": "version history evicted"})
        else:
            instances: Dict[int, SimRankAlgorithm] = {
                id(algorithm): algorithm for algorithm in
                [*self._instances.values(), *self._overrides.values()]}
            for algorithm in instances.values():
                try:
                    report = algorithm.repair(delta)
                except Exception as error:
                    # A failed repair must not wedge the update plane: drop
                    # the instance and rebuild lazily on the next query.
                    self._instances = {
                        key: held for key, held in self._instances.items()
                        if held is not algorithm}
                    self._overrides = OrderedDict(
                        (key, held) for key, held in self._overrides.items()
                        if held is not algorithm)
                    self._counters["index_rebuilds"] += 1
                    _LOGGER.warning(
                        "repair-failed method=%s error=%r; dropping the "
                        "instance for lazy rebuild", algorithm.name, error)
                    repairs.append({"method": algorithm.name,
                                    "strategy": "dropped",
                                    "error": f"{type(error).__name__}: {error}"})
                    continue
                if report["strategy"] == "rebuild":
                    self._counters["index_rebuilds"] += 1
                else:
                    self._counters["index_repairs"] += 1
                repairs.append({"method": algorithm.name,
                                "strategy": report["strategy"]})
        if self.fault_plan is not None:
            self.fault_plan.on_route_call("update", UPDATE_SWAP, None)
        self.graph = self.context.graph
        self._graph_key = self.graph.fingerprint().tobytes()
        self._graph_version = target
        self.cache.clear()
        self._counters["version_swaps"] += 1
        report = {"graph_version": target, "repairs": repairs}
        maintenance = self._checkpoint_and_compact(target)
        if maintenance is not None:
            report["wal"] = maintenance
        return report

    def _checkpoint_and_compact(self, version: int) -> Optional[Dict[str, Any]]:
        """Persist repaired indices, checkpoint the graph, truncate the WAL.

        Runs after every swap when a WAL is attached, in a crash-safe
        order: (1) every *prepared* persistable configured instance (never
        a per-query override) is re-saved stamped at ``version``, so a
        restart loads indices that match the post-compaction graph instead
        of rebuilding; (2) a graph
        checkpoint at ``version`` is atomically written next to the WAL;
        (3) only then does :meth:`UpdateLog.compact` drop the records the
        checkpoint made redundant.  A crash between any two steps leaves
        recovery exact — the WAL keeps its prefix until the checkpoint
        that covers it is durable, and :meth:`GraphContext.recover` skips
        replayed records at or below the checkpoint version.
        """
        if self.wal is None:
            return None
        persisted = 0
        if self.index_dir is not None and self.save_indices:
            instances = {id(algorithm): algorithm
                         for algorithm in self._instances.values()}
            for algorithm in instances.values():
                if not algorithm.prepared \
                        or not registry.get_spec(algorithm.name).supports_persistence:
                    continue
                path = self.index_dir / f"{self.graph.name}.{algorithm.name}.npz"
                try:
                    algorithm.save_index(path)
                except (IndexPersistenceError, OSError) as error:
                    # Persistence is an optimization; the checkpoint alone
                    # keeps recovery exact, so a failed save must not
                    # block compaction.
                    _LOGGER.warning("post-swap index save failed for %s "
                                    "(%s); recovery will rebuild it",
                                    algorithm.name, error)
                    continue
                self._pending_saves.discard(algorithm.name)
                persisted += 1
        checkpoint = GraphCheckpoint.for_wal(self.wal)
        checkpoint.save(self.graph, version)
        kept = self.wal.compact(version)
        self._counters["wal_compactions"] += 1
        self._counters["indices_persisted_on_swap"] += persisted
        return {"compacted_to": int(version), "records_kept": int(kept),
                "indices_persisted": persisted,
                "checkpoint": str(checkpoint.path)}

    def _verify_graph_binding(self) -> None:
        """Refuse to serve a graph that drifted outside the update plane.

        Two hazards, two outcomes: a bound graph whose fingerprint no longer
        matches the cache scope (someone reassigned or mutated
        ``planner.graph`` directly) **fails loudly** — serving would mix
        results across structures; a bound graph that is merely an *older
        retained version* of the context is the explained serve-stale window
        during repair and serves fine, annotated with ``stale_updates``.
        """
        if self.graph.fingerprint().tobytes() != self._graph_key:
            raise RuntimeError(
                "planner graph changed outside the update plane: the served "
                "graph no longer matches the fingerprint scoping the result "
                "cache; route changes through apply_updates() + "
                "complete_repairs() instead of rebinding planner.graph")
        if self.graph is not self.context.graph \
                and not self.context.knows_graph(self.graph):
            raise RuntimeError(
                "planner graph is not a retained version of its context: "
                "the update plane cannot explain this binding, so answers "
                "could be arbitrarily stale")

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def _method_of(self, query: Query) -> str:
        return query.method if query.method is not None else self.default_method

    def _query_config(self, method: str, query: Query) -> Optional[Dict[str, Any]]:
        """Per-query config override (the wire format's optional ε knob)."""
        epsilon = getattr(query, "epsilon", None)
        if epsilon is None:
            return None
        try:
            spec = registry.get_spec(method)
        except KeyError:
            # A planner-registered instance outside the registry: no knob.
            return None
        if "epsilon" not in spec.config_keys:
            return None
        return {"epsilon": float(epsilon)}

    def _effective_epsilon(self, method: str, query: Query) -> Optional[float]:
        override = self._query_config(method, query)
        return override["epsilon"] if override else None

    def _cache_key(self, method: str, query: Query) -> Hashable:
        epsilon = self._effective_epsilon(method, query)
        if isinstance(query, SinglePairQuery):
            return (KIND_SINGLE_PAIR, self._graph_key, method,
                    query.source, query.target, epsilon)
        if isinstance(query, TopKQuery):
            return (KIND_TOP_K, self._graph_key, method, query.source,
                    query.k, epsilon)
        return (KIND_SINGLE_SOURCE, self._graph_key, method, query.source,
                epsilon)

    def _source_key(self, method: str, source: int,
                    epsilon: Optional[float] = None) -> Hashable:
        return (KIND_SINGLE_SOURCE, self._graph_key, method, int(source),
                epsilon)

    def plan(self, query: Query) -> QueryPlan:
        """The route :meth:`answer` takes for ``query`` right now."""
        method = self._method_of(query)
        if self.cache.max_entries:
            if self._peek(self._cache_key(method, query)):
                return QueryPlan(method=method, kind=query.kind, route=ROUTE_CACHED)
            epsilon = self._effective_epsilon(method, query)
            if query.kind != KIND_SINGLE_SOURCE \
                    and self._peek(self._source_key(method, query.source, epsilon)):
                return QueryPlan(method=method, kind=query.kind,
                                 route=ROUTE_CACHED_DERIVED)
        algorithm = self.instance(method, self._query_config(method, query))
        if query.kind in algorithm.native_capabilities \
                and self.breaker.state((method, ROUTE_NATIVE)) != STATE_OPEN:
            return QueryPlan(method=method, kind=query.kind, route=ROUTE_NATIVE)
        return QueryPlan(method=method, kind=query.kind, route=ROUTE_DERIVED)

    def _peek(self, key: Hashable) -> bool:
        """Cache membership without perturbing LRU order or hit counters."""
        return key in self.cache._entries

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, query: Query, *,
                deadline_ms: Optional[float] = None) -> QueryOutcome:
        """Answer one query (a batch of one)."""
        return self.answer([query], deadline_ms=deadline_ms)[0]

    def prewarm(self, sources: Sequence[int]) -> int:
        """Compute and cache single-source answers for ``sources``.

        The warm-up path of a respawned pool worker: running each source
        through :meth:`answer` installs its vector in the result cache, so
        the affinity traffic the slot was serving hits warm entries again.
        Invalid node ids are skipped; returns how many sources were warmed.
        Warm-up queries count in the planner's serving counters (they are
        real answers, just unsolicited).
        """
        if not self.cache.max_entries:
            return 0
        num_nodes = self.graph.num_nodes
        valid = [int(source) for source in sources
                 if 0 <= int(source) < num_nodes]
        if not valid:
            return 0
        self.answer([SingleSourceQuery(source=source) for source in valid])
        return len(valid)

    def answer(self, queries: Sequence[Query], *,
               deadline_ms: Optional[float] = None) -> List[QueryOutcome]:
        """Answer a batch, coalescing shared single-source work.

        Resolution order per query: exact cache hit → derivation from a
        cached single-source vector → native path → derived.  All *derived*
        queries of one method pool their distinct sources into a single
        ``single_source_batch`` call (the same micro-batch the experiment
        harness issues), and every vector computed that way lands in the
        cache, so later queries in the same batch — and subsequent batches —
        reuse it.

        ``deadline_ms`` overrides the planner default for this call; each
        route execution (one native query, or one coalesced micro-batch)
        runs under its own fresh budget.  Failed queries come back as
        outcomes with ``error`` set (``timeout`` or ``route_failed``), never
        as exceptions — only programmer errors (an unknown method name)
        still raise.
        """
        self._verify_graph_binding()
        effective_ms = deadline_ms if deadline_ms is not None else self.deadline_ms
        outcomes: List[Optional[QueryOutcome]] = [None] * len(queries)
        # ((method, epsilon) -> source -> positions) of queries whose answer
        # must come from a full single-source vector.
        pending: Dict[Tuple[str, Optional[float]],
                      Dict[int, List[int]]] = {}
        for position, query in enumerate(queries):
            self._counters["queries"] += 1
            method = self._method_of(query)
            epsilon = self._effective_epsilon(method, query)
            key = self._cache_key(method, query)
            hit = self.cache.get(key)
            if hit is not None:
                self._counters["cache_routes"] += 1
                outcomes[position] = QueryOutcome(
                    query=query, plan=QueryPlan(method=method, kind=query.kind,
                                                route=ROUTE_CACHED),
                    result=hit)
                continue
            if query.kind != KIND_SINGLE_SOURCE:
                vector = self.cache.get(self._source_key(method, query.source,
                                                         epsilon))
                if vector is not None:
                    assert isinstance(vector, SingleSourceResult)
                    self._counters["cache_routes"] += 1
                    result = self._derive(query, vector)
                    self.cache.put(key, result)
                    outcomes[position] = QueryOutcome(
                        query=query,
                        plan=QueryPlan(method=method, kind=query.kind,
                                       route=ROUTE_CACHED_DERIVED),
                        result=result)
                    continue
            # Unknown method names raise here (a caller error, not a route
            # failure).
            algorithm = self.instance(method, self._query_config(method, query))
            if query.kind in algorithm.native_capabilities:
                outcome = self._answer_native(query, method, effective_ms)
                if outcome is not None:
                    outcomes[position] = outcome
                    continue
                # Native route rejected or failed: retry on the derived pass.
            pending.setdefault((method, epsilon), {}).setdefault(
                int(query.source), []).append(position)

        # Coalesced derived execution: one micro-batch per (method, ε).
        for (method, epsilon), by_source in pending.items():
            self._answer_pool(method, epsilon, by_source, queries, outcomes,
                              effective_ms)
        assert all(outcome is not None for outcome in outcomes)
        # Every answer names the graph version it was computed on, and how
        # many acknowledged batches it has not yet seen (the serve-stale
        # window of an in-progress repair).  Re-stamped on every serve, so
        # a cached result always reports the *current* staleness.
        stale = self.stale_updates
        if stale:
            self._counters["stale_answers"] += sum(
                1 for outcome in outcomes if outcome.result is not None)
        for outcome in outcomes:
            if outcome.result is not None:
                outcome.result.stats["graph_version"] = float(self._graph_version)
                outcome.result.stats["stale_updates"] = float(stale)
        return outcomes            # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # guarded route executions
    # ------------------------------------------------------------------ #
    def _run_route(self, method: str, route: str, kind: str,
                   config: Optional[Dict[str, Any]],
                   call: Callable[[SimRankAlgorithm], Any],
                   effective_ms: Optional[float]) -> "_RouteRun":
        """Run ``call`` on ``method``'s instance under every route guard.

        The one guarded execution of every route: the per-(method, route)
        breaker must admit it, the fault plan's hook fires, the instance is
        fetched and prepared, and ``call`` runs under a fresh deadline.
        Index construction is amortized across queries, so a per-query
        budget covers query execution only: preparation runs outside the
        deadline scope.  A timeout spends the budget — no retry, and no
        breaker penalty, since slow is not broken.  Any other exception is a
        route failure: a native route retries on the derived pass, a derived
        pass answers ``route_failed``.
        """
        breaker_key = (method, route)
        if not self.breaker.allow(breaker_key):
            self._counters["breaker_rejections"] += 1
            return _RouteRun()
        try:
            if self.fault_plan is not None:
                self.fault_plan.on_route_call(method, route, kind)
            algorithm = self.instance(method, config)
            algorithm.ensure_prepared()
            deadline = (Deadline.after_ms(effective_ms)
                        if effective_ms is not None else None)
            with deadline_scope(deadline):
                value = call(algorithm)
        except DeadlineExceeded as exc:
            self.breaker.record_success(breaker_key)
            return _RouteRun(timeout=exc)
        except Exception as exc:
            self.breaker.record_failure(breaker_key)
            self._counters["route_failures"] += 1
            _LOGGER.warning("route-failed method=%s route=%s kind=%s error=%r",
                            method, route, kind, exc)
            return _RouteRun(error=exc)
        self.breaker.record_success(breaker_key)
        self._flush_pending_save(method, algorithm)
        return _RouteRun(value=value)

    def _note_degraded(self, result: QueryResult) -> bool:
        if _is_degraded(result):
            self._counters["degraded_answers"] += 1
            return True
        return False

    def _timeout_outcome(self, query: Query, method: str, route: str,
                         exc: DeadlineExceeded, *,
                         batched: bool = False) -> QueryOutcome:
        self._counters["deadline_timeouts"] += 1
        error = error_record(
            ERROR_TIMEOUT, str(exc),
            detail={"checkpoint": exc.checkpoint,
                    "budget_seconds": exc.budget_seconds,
                    "elapsed_seconds": exc.elapsed_seconds})
        return QueryOutcome(
            query=query,
            plan=QueryPlan(method=method, kind=query.kind, route=route,
                           batched=batched),
            error=error)

    def _answer_native(self, query: Query, method: str,
                       effective_ms: Optional[float]) -> Optional[QueryOutcome]:
        """One guarded native execution; ``None`` means "retry derived"."""
        run = self._run_route(
            method, ROUTE_NATIVE, query.kind, self._query_config(method, query),
            lambda algorithm: self._execute_native(query, algorithm),
            effective_ms)
        if run.timeout is not None:
            return self._timeout_outcome(query, method, ROUTE_NATIVE,
                                         run.timeout)
        if run.value is None:
            return None
        result = run.value
        if not self._note_degraded(result):
            self.cache.put(self._cache_key(method, query), result)
        self._counters["native_routes"] += 1
        return QueryOutcome(
            query=query,
            plan=QueryPlan(method=method, kind=query.kind, route=ROUTE_NATIVE),
            result=result)

    def _answer_pool(self, method: str, epsilon: Optional[float],
                     by_source: Dict[int, List[int]], queries: Sequence[Query],
                     outcomes: List[Optional[QueryOutcome]],
                     effective_ms: Optional[float]) -> None:
        """Answer one (method, ε) pool with one coalesced batch.

        When the batch raises or its breaker refuses it, every query of the
        pool gets a ``route_failed`` error naming the method and its source.
        """
        sources = sorted(by_source)
        batched = len(sources) > 1
        run = self._run_route(
            method, ROUTE_DERIVED, KIND_SINGLE_SOURCE,
            {"epsilon": epsilon} if epsilon is not None else None,
            lambda algorithm: algorithm.single_source_batch(sources),
            effective_ms)
        if run.timeout is not None:
            # The shared budget is spent for every query in the pool.
            for source in sources:
                for position in by_source[source]:
                    outcomes[position] = self._timeout_outcome(
                        queries[position], method, ROUTE_DERIVED, run.timeout,
                        batched=batched)
            return
        if run.value is None:
            cause = (repr(run.error) if run.error is not None
                     else "its circuit breaker is open")
            for source in sources:
                for position in by_source[source]:
                    query = queries[position]
                    outcomes[position] = QueryOutcome(
                        query=query,
                        plan=QueryPlan(method=method, kind=query.kind,
                                       route=ROUTE_DERIVED, batched=batched),
                        error=error_record(
                            ERROR_ROUTE_FAILED,
                            f"{method} failed the {query.kind} query on "
                            f"source {source}: {cause}",
                            detail={"method": method, "source": int(source)}))
            return

        group_queries = sum(len(positions) for positions in by_source.values())
        if len(sources) > 1 or group_queries > len(sources):
            # Multiple sources shared one vectorized batch, or multiple
            # queries shared one source's vector — either way the batch
            # did less compute than its queries issued sequentially.
            self._counters["coalesced_batches"] += 1
            self._counters["coalesced_queries"] += group_queries
        for source, vector in zip(sources, run.value):
            if not _is_degraded(vector):
                self.cache.put(self._source_key(method, source, epsilon), vector)
            for position in by_source[source]:
                query = queries[position]
                self._counters["derived_routes"] += 1
                result = (vector if query.kind == KIND_SINGLE_SOURCE
                          else self._derive(query, vector))
                if not self._note_degraded(result):
                    self.cache.put(self._cache_key(method, query), result)
                outcomes[position] = QueryOutcome(
                    query=query,
                    plan=QueryPlan(method=method, kind=query.kind,
                                   route=ROUTE_DERIVED, batched=batched),
                    result=result)

    def _execute_native(self, query: Query,
                        algorithm: SimRankAlgorithm) -> QueryResult:
        if isinstance(query, SinglePairQuery):
            return algorithm.single_pair(query.source, query.target)
        assert isinstance(query, TopKQuery)
        return algorithm.top_k(query.source, query.k)

    @staticmethod
    def _derive(query: Query, vector: SingleSourceResult) -> QueryResult:
        if isinstance(query, SinglePairQuery):
            return derive_from_single_source(vector, target=query.target)
        assert isinstance(query, TopKQuery)
        return derive_from_single_source(vector, k=query.k)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def routing_table(self) -> List[Dict[str, str]]:
        """One row per registered method: how each query kind would route."""
        rows = []
        for name in registry.available():
            capabilities = self.instance(name).capabilities()
            rows.append({"method": name, **capabilities})
        return rows

    def breakers(self) -> List[Dict[str, object]]:
        """Circuit-breaker rows keyed ``method:route`` (empty when untouched)."""
        rows = []
        for row in self.breaker.snapshot():
            method, route = row.pop("key")  # type: ignore[misc]
            rows.append({"route": f"{method}:{route}", **row})
        return rows

    def stats(self) -> Dict[str, Any]:
        """Serving counters plus cache, breaker, and fault-injection totals.

        The snapshot is **fully JSON-serializable** (floats, plus the
        ``breakers`` list of plain string/number rows): the CLI's
        ``--stats`` emits it verbatim with one ``json.dumps`` — no ad-hoc
        formatting of nested objects — and the worker protocol ships it
        across the process boundary unchanged.
        """
        snapshot: Dict[str, Any] = {key: float(value)
                                    for key, value in self._counters.items()}
        snapshot["graph_version"] = float(self._graph_version)
        snapshot["kernel_threads"] = float(kernel_parallel.get_num_threads())
        snapshot["stale_updates"] = float(self.stale_updates)
        snapshot["cache_hits"] = float(self.cache.hits)
        snapshot["cache_misses"] = float(self.cache.misses)
        snapshot["cache_entries"] = float(len(self.cache))
        breaker_rows = self.breaker.snapshot()
        snapshot["breaker_trips"] = float(sum(row["trips"]
                                              for row in breaker_rows))
        snapshot["breaker_open_routes"] = float(sum(
            1 for row in breaker_rows if row["state"] != STATE_CLOSED))
        snapshot["faults_injected"] = float(
            self.fault_plan.injected if self.fault_plan is not None else 0)
        snapshot["breakers"] = self.breakers()
        return snapshot


def outcome_to_wire(outcome: QueryOutcome, *, preview_k: int = 10,
                    graph_version: Optional[int] = None) -> Dict[str, Any]:
    """Serialize one :class:`QueryOutcome` as a JSONL answer-stream object.

    The single-process CLI loop, the worker protocol and the socket front
    end all emit exactly this shape: a result payload
    (:func:`repro.service.queries.result_to_dict`) or a structured error
    (``error`` + stable ``code``), annotated with the route taken, the
    degradation certificate when present, and ``samples_capped`` when the
    method's sampling budget hit its cap (so the answer may miss its
    requested ε).  ``graph_version`` (the serving
    planner's current version) rides on every payload — including errors —
    so a client can always tell which graph snapshot answered; when omitted
    it is recovered from the result's own stats.
    """
    from repro.service.queries import result_to_dict

    if outcome.error is not None:
        payload: Dict[str, Any] = {
            "error": outcome.error.get("message", ""),
            **{key: value for key, value in outcome.error.items()
               if key != "message"}}
    else:
        payload = result_to_dict(outcome.result, preview_k=preview_k)
        if outcome.plan.batched:
            payload["batched"] = True
        if outcome.degraded:
            payload["degraded"] = True
            bound = outcome.result.stats.get("certified_bound")
            if bound is not None:
                payload["certified_bound"] = float(bound)
    stats = getattr(outcome.result, "stats", None) or {}
    if stats.get("samples_capped"):
        payload["samples_capped"] = True
    if graph_version is None and "graph_version" in stats:
        graph_version = int(stats["graph_version"])
    if graph_version is not None:
        payload["graph_version"] = int(graph_version)
    if stats.get("stale_updates"):
        payload["stale_updates"] = int(stats["stale_updates"])
    payload["method"] = outcome.plan.method
    payload["route"] = outcome.plan.route
    return payload


__all__ = [
    "QueryPlan",
    "QueryOutcome",
    "QueryPlanner",
    "ResultCache",
    "outcome_to_wire",
    "ROUTE_CACHED",
    "ROUTE_CACHED_DERIVED",
    "ROUTE_NATIVE",
    "ROUTE_DERIVED",
]
