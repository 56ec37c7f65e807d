"""Serving-layer resilience primitives: circuit breaker and error taxonomy.

The planner (:mod:`repro.service.planner`) retries a failed native route on
the same method's derived pass and answers ``route_failed`` when that pass
fails too; this module supplies the two pieces that keep *repeated* failure
cheap and legible:

* :class:`CircuitBreaker` — per-(method, route) failure quarantine.  A route
  that keeps raising is **open**ed after ``failure_threshold`` consecutive
  failures and rejected without execution; after a cooldown one **half-open**
  probe is admitted — success closes the breaker, failure re-opens it with
  exponential backoff.  This caps the damage of a persistently broken route
  at one probe per cooldown instead of one failure per query.
* the error taxonomy of structured query outcomes — stable ``error`` codes
  the serving loop and the JSONL wire format use, so clients can branch on
  machine-readable categories instead of exception reprs.

Deadline primitives live in :mod:`repro.utils.deadline` (the kernels import
them, and importing :mod:`repro.service` from a kernel would cycle); this
module re-exports them so serving-side callers have one import surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional

from repro.utils.deadline import (  # noqa: F401  (re-exported)
    CHECKPOINT_BATCH,
    CHECKPOINT_KINDS,
    CHECKPOINT_LEVEL,
    CHECKPOINT_WALK_BATCH,
    Deadline,
    DeadlineExceeded,
    active_deadline,
    checkpoint,
    deadline_scope,
)

#: Structured error codes of the serving layer (the ``error.code`` field of a
#: failed outcome / JSONL error line).
ERROR_TIMEOUT = "timeout"                # deadline expired, no certified degrade
ERROR_ROUTE_FAILED = "route_failed"      # the named method's routes failed
ERROR_VALIDATION = "invalid_query"       # the query itself is malformed
ERROR_PARSE = "parse_error"              # the wire line was not a query object
ERROR_OVERLOADED = "overloaded"          # admission control shed the query
ERROR_WORKER_LOST = "worker_lost"        # re-dispatch budget exhausted
ERROR_DRAINING = "draining"              # server is shutting down gracefully

#: Breaker states (returned by :meth:`CircuitBreaker.state`).
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


@dataclass
class _BreakerSlot:
    consecutive_failures: int = 0
    #: Monotonic time before which calls are rejected; 0 when closed.
    open_until: float = 0.0
    #: Current cooldown (grows by ``backoff_factor`` per re-open).
    timeout: float = 0.0
    #: True when the cooldown elapsed and the next call is the probe.
    probing: bool = False
    trips: int = 0
    rejections: int = 0


class CircuitBreaker:
    """Consecutive-failure quarantine with exponential-backoff half-open probes.

    One breaker instance guards many independent keys (the planner keys by
    ``(method, route)``); all state is per key.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that open a closed breaker.  The counter resets
        on any success.
    reset_timeout:
        Cooldown (seconds) after the first trip; subsequent re-opens multiply
        it by ``backoff_factor`` up to ``max_timeout``.
    backoff_factor / max_timeout:
        The exponential backoff schedule of repeat offenders.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(self, *, failure_threshold: int = 3, reset_timeout: float = 30.0,
                 backoff_factor: float = 2.0, max_timeout: float = 600.0,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout <= 0 or max_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.backoff_factor = float(backoff_factor)
        self.max_timeout = float(max_timeout)
        self._clock = clock
        self._slots: Dict[Hashable, _BreakerSlot] = {}

    def _slot(self, key: Hashable) -> _BreakerSlot:
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = _BreakerSlot()
        return slot

    def state(self, key: Hashable) -> str:
        slot = self._slots.get(key)
        if slot is None or slot.open_until == 0.0:
            return STATE_CLOSED
        if slot.probing or self._clock() >= slot.open_until:
            return STATE_HALF_OPEN
        return STATE_OPEN

    def allow(self, key: Hashable) -> bool:
        """Whether a call through ``key`` may proceed right now.

        In the open state calls are rejected until the cooldown elapses;
        then exactly one probe is admitted (further calls are rejected until
        the probe reports back via :meth:`record_success` /
        :meth:`record_failure`).
        """
        slot = self._slots.get(key)
        if slot is None or slot.open_until == 0.0:
            return True
        if slot.probing:
            # A probe is already in flight (or was admitted and never
            # reported); admit no second caller.
            slot.rejections += 1
            return False
        if self._clock() >= slot.open_until:
            slot.probing = True
            return True
        slot.rejections += 1
        return False

    def record_success(self, key: Hashable) -> None:
        """A call through ``key`` completed: close the breaker fully."""
        slot = self._slot(key)
        slot.consecutive_failures = 0
        slot.open_until = 0.0
        slot.timeout = 0.0
        slot.probing = False

    def record_failure(self, key: Hashable) -> None:
        """A call through ``key`` failed: count it, trip/backoff as needed."""
        slot = self._slot(key)
        slot.consecutive_failures += 1
        now = self._clock()
        if slot.probing:
            # Failed half-open probe: re-open with exponential backoff.
            slot.probing = False
            slot.timeout = min(slot.timeout * self.backoff_factor,
                               self.max_timeout)
            slot.open_until = now + slot.timeout
            slot.trips += 1
        elif slot.open_until == 0.0 \
                and slot.consecutive_failures >= self.failure_threshold:
            slot.timeout = self.reset_timeout
            slot.open_until = now + slot.timeout
            slot.trips += 1

    def snapshot(self) -> List[Dict[str, object]]:
        """One row per tracked key (for ``planner.stats()`` / debugging)."""
        rows: List[Dict[str, object]] = []
        for key, slot in sorted(self._slots.items(), key=lambda item: str(item[0])):
            rows.append({
                "key": key,
                "state": self.state(key),
                "consecutive_failures": slot.consecutive_failures,
                "trips": slot.trips,
                "rejections": slot.rejections,
                "cooldown_seconds": slot.timeout,
            })
        return rows


def error_record(code: str, message: str, *,
                 detail: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """A structured error object for outcomes and JSONL error lines."""
    record: Dict[str, object] = {"code": code, "message": message}
    if detail:
        record.update(detail)
    return record


__all__ = [
    "CHECKPOINT_BATCH",
    "CHECKPOINT_KINDS",
    "CHECKPOINT_LEVEL",
    "CHECKPOINT_WALK_BATCH",
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
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "active_deadline",
    "checkpoint",
    "deadline_scope",
    "error_record",
]
