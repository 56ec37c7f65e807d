"""Query plane: typed queries, a capability-aware planner, and serving caches.

The :mod:`repro.service` package separates *what* a caller asks from *how*
the algorithm layer executes it:

* :mod:`repro.service.queries` — the typed request model
  (:class:`SingleSourceQuery`, :class:`SinglePairQuery`, :class:`TopKQuery`),
  its JSONL wire format, and graph-aware validation;
* :mod:`repro.service.planner` — :class:`QueryPlanner`: answers each query
  with the method it names (LRU result cache → cached-vector derivation →
  the method's native path → its coalesced derived pass, or a
  ``route_failed`` error), auto-loading persisted indices, under per-route
  deadlines and circuit breakers;
* :mod:`repro.service.resilience` — the circuit breaker, the serving error
  taxonomy, and re-exported deadline primitives;
* :mod:`repro.service.faults` — deterministic fault injection for
  resilience testing;
* :mod:`repro.service.workers` — the supervised multi-process worker pool
  (fork + shared-memory index segments, crash recovery, exactly-once
  re-dispatch);
* :mod:`repro.service.frontend` — the asyncio front end (admission control,
  load shedding, ordered JSONL responses, graceful drain).

The online-update plane (:class:`~repro.graph.updates.EdgeBatch`,
:class:`~repro.graph.updates.UpdateLog`, :class:`~repro.graph.updates.
GraphDelta`) is re-exported here because the serving layer is its primary
consumer: the planner acknowledges WAL-first batches and swaps rebuilt
indexes at batch boundaries, the pool broadcasts them to workers in order,
and the front end treats ``{"type": "update"}`` wire lines as barriers.
"""

from repro.graph.updates import (
    EdgeBatch,
    GraphDelta,
    UpdateLog,
    WalCorruptionError,
    apply_edge_batch,
)
from repro.service.faults import FaultPlan, FaultRule, InjectedFault
from repro.service.frontend import Frontend, aiter_lines, parse_wire_line
from repro.service.planner import (
    ROUTE_CACHED,
    ROUTE_CACHED_DERIVED,
    ROUTE_DERIVED,
    ROUTE_NATIVE,
    QueryOutcome,
    QueryPlan,
    QueryPlanner,
    ResultCache,
    outcome_to_wire,
)
from repro.service.queries import (
    Query,
    QueryResult,
    QueryValidationError,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
    query_from_dict,
    query_to_dict,
    result_to_dict,
    validate_query,
)
from repro.service.resilience import (
    ERROR_DRAINING,
    ERROR_OVERLOADED,
    ERROR_PARSE,
    ERROR_ROUTE_FAILED,
    ERROR_TIMEOUT,
    ERROR_VALIDATION,
    ERROR_WORKER_LOST,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    active_deadline,
    checkpoint,
    deadline_scope,
)
from repro.service.workers import WorkerPool

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "ERROR_DRAINING",
    "ERROR_OVERLOADED",
    "ERROR_PARSE",
    "ERROR_ROUTE_FAILED",
    "ERROR_TIMEOUT",
    "ERROR_VALIDATION",
    "ERROR_WORKER_LOST",
    "EdgeBatch",
    "FaultPlan",
    "Frontend",
    "FaultRule",
    "GraphDelta",
    "InjectedFault",
    "Query",
    "QueryResult",
    "QueryOutcome",
    "QueryPlan",
    "QueryPlanner",
    "QueryValidationError",
    "ResultCache",
    "ROUTE_CACHED",
    "ROUTE_CACHED_DERIVED",
    "ROUTE_DERIVED",
    "ROUTE_NATIVE",
    "SinglePairQuery",
    "SingleSourceQuery",
    "TopKQuery",
    "UpdateLog",
    "WalCorruptionError",
    "WorkerPool",
    "active_deadline",
    "aiter_lines",
    "apply_edge_batch",
    "checkpoint",
    "deadline_scope",
    "outcome_to_wire",
    "parse_wire_line",
    "query_from_dict",
    "query_to_dict",
    "result_to_dict",
    "validate_query",
]
