"""Supervised multi-worker serving: a crash-recovering process pool.

One Python process cannot serve heavy traffic: the GIL serializes compute, a
single crash kills every in-flight query, and every planner holds its own
copy of the graph and indices.  This module supplies the *worker half* of
the scale-out serving story (ROADMAP item 2):

* **Shared-memory attach.**  The supervisor forks N workers from the serving
  process, so the graph and the shared :class:`~repro.graph.context.
  GraphContext` CSR caches arrive copy-on-write — one physical copy.
  Persisted npz indices are attached as read-only memory maps
  (``load_index(mmap_mode='r')`` through the planner's ``index_mmap`` knob),
  CRC-verified by a streamed chunk walk, so N workers map one page-cache
  copy of each index instead of materializing N heaps.
* **Length-prefixed JSON protocol.**  Each worker speaks frames of
  ``4-byte big-endian length + JSON`` over its own ``socketpair``:
  batches of wire-format queries down, results/heartbeats up.  A torn frame
  is indistinguishable from a dead worker and is treated as one.
* **Crash recovery with exactly-once re-dispatch.**  A worker death —
  SIGKILL, abnormal exit, torn frame, or heartbeat silence — is detected by
  the supervisor, the worker is respawned, and every query that was
  in flight on the dead worker is re-dispatched to a live one.  Results are
  pure functions of (query, graph fingerprint), so re-execution is safe;
  the dead worker's socket is closed before re-dispatch, so a late answer
  can never produce a duplicate: every accepted query resolves exactly
  once, as a result or a structured error.
* **Quarantine for flappers.**  Each worker slot sits behind a
  :class:`~repro.service.resilience.CircuitBreaker`: a slot whose process
  keeps dying without serving anything is quarantined with exponential
  backoff instead of being respawned in a hot loop, and its traffic routes
  to the healthy slots.
* **Deadline propagation.**  A query's remaining budget (not the original
  one) is serialized with each dispatched batch, so time spent queued in
  the supervisor counts against the budget; workers enforce it with the
  cooperative checkpoints of :mod:`repro.utils.deadline` and return
  degraded/timeout payloads exactly like the single-process planner.
* **Ordered update broadcast.**  :meth:`WorkerPool.apply_update` owns the
  write path for online graph updates: the batch is appended (fsync) to the
  supervisor's WAL *before* the ack, then broadcast as an ``update`` frame
  down every worker socket.  Per-socket frame ordering serializes the
  update against query batches, each worker rebuilds its indexes and swaps
  atomically (:meth:`~repro.service.planner.QueryPlanner.complete_repairs`),
  and a respawned worker replays the full update history before its first
  query — so every answer carries the ``graph_version`` it was computed on
  and no acknowledged update is ever lost.
* **Graceful drain.**  :meth:`WorkerPool.drain` stops dispatch, flushes
  in-flight work, asks each worker for its final planner stats, and reaps
  every child — the supervisor exits with zero orphans.

The asyncio front end that feeds this pool (admission control, load
shedding, ordered JSONL output) lives in :mod:`repro.service.frontend`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import struct
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.graph.digraph import DiGraph
from repro.graph.updates import EdgeBatch, UpdateLog
from repro.kernels import parallel as kernel_parallel
from repro.service.planner import QueryPlanner, outcome_to_wire
from repro.service.shm import GraphSegment
from repro.service.queries import Query, query_from_dict, query_to_dict
from repro.service.resilience import (
    ERROR_DRAINING,
    ERROR_TIMEOUT,
    ERROR_VALIDATION,
    ERROR_WORKER_LOST,
    CircuitBreaker,
    Deadline,
)

_FRAME_HEADER = struct.Struct(">I")

#: Upper bound on one frame; a length prefix beyond this means the stream is
#: corrupt (or hostile) and the worker connection is treated as dead.
MAX_FRAME_BYTES = 64 * 1024 * 1024


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON body."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(body)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte protocol limit")
    return _FRAME_HEADER.pack(len(body)) + body


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Blocking frame read (worker side).  ``None`` on EOF or a torn frame."""
    header = _recv_exact(sock, _FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        return None
    body = _recv_exact(sock, length)
    if body is None:
        return None
    try:
        message = json.loads(body)
    except ValueError:
        return None
    return message if isinstance(message, dict) else None


def send_frame(sock: socket.socket, payload: Dict[str, Any],
               lock: Optional[threading.Lock] = None) -> None:
    """Blocking frame write (worker side); ``lock`` serializes writers."""
    frame = encode_frame(payload)
    if lock is None:
        sock.sendall(frame)
    else:
        with lock:
            sock.sendall(frame)


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Async frame read (supervisor side).  ``None`` on EOF/corruption."""
    try:
        header = await reader.readexactly(_FRAME_HEADER.size)
        (length,) = _FRAME_HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            return None
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None
    try:
        message = json.loads(body)
    except ValueError:
        return None
    return message if isinstance(message, dict) else None


# --------------------------------------------------------------------------- #
# worker (child process) side
# --------------------------------------------------------------------------- #
def _serve_batch(planner: QueryPlanner,
                 message: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Answer one dispatched batch; never raises (one payload per query)."""
    deadline_ms = message.get("deadline_ms")
    wires = message.get("queries", [])
    # The planner contract for workers is duck-typed (answer + stats);
    # version stamping degrades to 0 rather than requiring the attribute.
    version = int(getattr(planner, "graph_version", 0))
    try:
        queries = [query_from_dict(wire) for wire in wires]
        outcomes = planner.answer(queries, deadline_ms=deadline_ms)
        return [outcome_to_wire(outcome, graph_version=version)
                for outcome in outcomes]
    except Exception as error:  # a programmer error must not kill the worker
        payload = {"error": f"{type(error).__name__}: {error}",
                   "code": "worker_error",
                   "graph_version": version}
        return [dict(payload) for _ in wires]


def _prewarm(planner: QueryPlanner, message: Dict[str, Any]) -> Dict[str, Any]:
    """Warm the planner's cached vectors for the frame's sources; never raises.

    Sent by the supervisor to a respawned worker before any query batch, so
    a slot that crashed rejoins the rotation with the single-source vectors
    its affinity traffic was hitting already cached.
    """
    sources = message.get("sources") or []
    try:
        count = planner.prewarm(sources)
        return {"ok": True, "count": int(count)}
    except Exception as error:
        return {"ok": False, "count": 0,
                "error": f"{type(error).__name__}: {error}"}


def _apply_update(planner: QueryPlanner,
                  message: Dict[str, Any]) -> Dict[str, Any]:
    """Apply one broadcast update frame in the worker; never raises.

    The supervisor already made the batch durable, so the worker applies
    and rebuilds unconditionally: apply bumps the version, rebuild-and-swap
    folds it into answers.  A failure leaves the worker serving its previous
    version (stale but correct) and reports the error in the ack.
    """
    try:
        planner.apply_updates(message.get("batch") or {})
        report = planner.complete_repairs()
        return {"ok": True, "graph_version": int(report["graph_version"])}
    except Exception as error:
        return {"ok": False, "error": f"{type(error).__name__}: {error}",
                "graph_version": int(getattr(planner, "graph_version", 0))}


def run_worker(sock: socket.socket,
               planner_factory: Callable[[], QueryPlanner],
               heartbeat_interval: float = 0.25) -> None:
    """The worker process body: heartbeat thread + serve loop.

    Called in the forked child; returns when the supervisor closes the
    socket or sends ``shutdown`` (the caller then ``os._exit``\\ s).  The
    heartbeat thread starts *before* the planner factory runs, so a slow
    index attach never reads as a hung worker.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # The front end owns Ctrl-C: a terminal SIGINT goes to the whole process
    # group, and the drain protocol — not the signal — stops the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    write_lock = threading.Lock()
    stop = threading.Event()

    def heartbeat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                send_frame(sock, {"op": "heartbeat", "pid": os.getpid()},
                           write_lock)
            except OSError:
                os._exit(0)

    threading.Thread(target=heartbeat, daemon=True, name="heartbeat").start()
    try:
        send_frame(sock, {"op": "ready", "pid": os.getpid()}, write_lock)
        planner = planner_factory()
        while True:
            message = recv_frame(sock)
            if message is None:
                break
            op = message.get("op")
            if op == "shutdown":
                stop.set()
                send_frame(sock, {"op": "bye", "pid": os.getpid(),
                                  "stats": planner.stats()}, write_lock)
                break
            if op == "update":
                ack = _apply_update(planner, message)
                send_frame(sock, {"op": "update_done",
                                  "id": message.get("id"), **ack}, write_lock)
                continue
            if op == "prewarm":
                ack = _prewarm(planner, message)
                send_frame(sock, {"op": "prewarm_done", **ack}, write_lock)
                continue
            if op != "batch":
                continue
            results = _serve_batch(planner, message)
            send_frame(sock, {"op": "result", "id": message.get("id"),
                              "results": results}, write_lock)
    except OSError:
        pass
    finally:
        stop.set()


# --------------------------------------------------------------------------- #
# supervisor side
# --------------------------------------------------------------------------- #
@dataclass
class _Request:
    """One accepted query travelling through the pool."""

    wire: Dict[str, Any]
    source: int
    future: "asyncio.Future[Dict[str, Any]]"
    deadline: Optional[Deadline] = None
    attempts: int = 0


@dataclass
class _Process:
    """One live worker process (a slot's current generation)."""

    pid: int
    generation: int
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    fd: int
    last_seen: float
    reader_task: Optional["asyncio.Task"] = None


class _Slot:
    """A stable worker identity: queue + breaker key + current process."""

    def __init__(self, index: int):
        self.index = index
        self.queue: Deque[_Request] = deque()
        self.wakeup = asyncio.Event()
        self.proc: Optional[_Process] = None
        #: Last graph version this slot's worker acked (diagnostics only).
        self.graph_version: Optional[int] = None
        #: (batch id, requests, deadline-at) of the one outstanding batch.
        self.outstanding: Optional[Tuple[int, List[_Request],
                                         Optional[float]]] = None
        self.batch_done = asyncio.Event()
        self.bye_stats: Optional[Dict[str, Any]] = None
        #: LRU of sources this slot served (most recent last); a respawned
        #: worker pre-warms these before rejoining the dispatch rotation.
        self.hot_sources: "OrderedDict[int, None]" = OrderedDict()

    #: How many recently-served sources a slot remembers for prewarm.
    HOT_SOURCES_CAP = 16

    def record_sources(self, requests: List["_Request"]) -> None:
        for request in requests:
            self.hot_sources[request.source] = None
            self.hot_sources.move_to_end(request.source)
        while len(self.hot_sources) > self.HOT_SOURCES_CAP:
            self.hot_sources.popitem(last=False)

    def load(self) -> int:
        outstanding = len(self.outstanding[1]) if self.outstanding else 0
        return len(self.queue) + outstanding


def _pool_error(code: str, message: str, **detail: Any) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"error": message, "code": code}
    payload.update(detail)
    return payload


class WorkerPool:
    """Supervisor for N forked serving workers.

    Parameters
    ----------
    planner_factory:
        Zero-argument callable building the worker's :class:`QueryPlanner`;
        runs **in the child** after the fork, so whatever it closes over
        (graph, configs, index dir) is shared copy-on-write.
    num_workers / batch_size:
        Pool width, and the most queries one dispatched batch may carry
        (the worker's planner coalesces the batch into its micro-batch).
    heartbeat_interval / heartbeat_timeout:
        Workers heartbeat every ``interval`` seconds; a worker silent for
        ``timeout`` seconds (default ``max(8×interval, 2 s)``) is declared
        hung, SIGKILLed, and its in-flight queries re-dispatched.
    deadline_ms:
        Default per-query budget.  The *remaining* budget at dispatch time
        is serialized with the batch; queries that exhaust it while queued
        resolve as structured timeouts without touching a worker.
    stuck_grace_ms:
        How long past a batch's deadline a worker may stay busy (while
        still heartbeating) before it is killed as stuck.
    max_redispatch:
        Crash-redispatch budget per query; beyond it the query resolves
        with a structured ``worker_lost`` error instead of looping forever.
    breaker:
        Per-slot circuit breaker (injectable clock for tests).  The default
        quarantines a slot after 3 consecutive deaths with 1 s cooldown.
    wal / base_version:
        Optional write-ahead log for :meth:`apply_update`: the supervisor
        owns the single append handle (workers never touch the file), and
        an update is fsynced before any worker — or the caller — sees the
        ack.  ``base_version`` is the graph version already folded into the
        graph that ``planner_factory`` closes over; with a WAL attached the
        caller must recover the log into that graph first, so
        ``base_version == wal.last_version()`` (anything else would make
        workers and log disagree about history and is rejected).
    shared_graph / shared_decays:
        When ``shared_graph`` is given, :meth:`start` copies its CSR arrays
        (plus the transition matrices of ``shared_decays``) into an explicit
        :class:`~repro.service.shm.GraphSegment` before the first fork; each
        worker rebinds the closed-over graph to read-only views over the
        segment, so the arrays stay one physical ``MAP_SHARED`` copy instead
        of slowly privatizing under COW.  The segment is unlinked on
        :meth:`drain`/:meth:`close` — never by a worker, so chaos-killed
        children cannot leak or destroy it.
    worker_threads:
        Kernel threads each worker configures for itself
        (:func:`repro.kernels.parallel.set_num_threads`).  Default: the
        ``REPRO_NUM_THREADS`` environment override if set, else the CPUs
        this process may run on (:func:`repro.kernels.parallel.available_cpus`)
        divided by ``num_workers``, at least 1, so the pool as a whole never
        oversubscribes them.
    """

    def __init__(self, planner_factory: Callable[[], QueryPlanner], *,
                 num_workers: int = 2,
                 batch_size: int = 16,
                 heartbeat_interval: float = 0.25,
                 heartbeat_timeout: Optional[float] = None,
                 deadline_ms: Optional[float] = None,
                 stuck_grace_ms: float = 2000.0,
                 max_redispatch: int = 5,
                 breaker: Optional[CircuitBreaker] = None,
                 clock: Callable[[], float] = time.monotonic,
                 wal: Optional[UpdateLog] = None,
                 base_version: int = 0,
                 shared_graph: Optional[DiGraph] = None,
                 shared_decays: Sequence[float] = (),
                 worker_threads: Optional[int] = None):
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self._planner_factory = planner_factory
        self.num_workers = int(num_workers)
        self.batch_size = int(batch_size)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = (float(heartbeat_timeout)
                                  if heartbeat_timeout is not None
                                  else max(8.0 * heartbeat_interval, 2.0))
        self.deadline_ms = deadline_ms
        self.stuck_grace = float(stuck_grace_ms) / 1e3
        self.max_redispatch = int(max_redispatch)
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=3, reset_timeout=1.0, max_timeout=30.0)
        self._clock = clock
        self.wal = wal
        self._shared_graph = shared_graph
        self.shared_decays = tuple(shared_decays)
        self._segment: Optional[GraphSegment] = None
        if worker_threads is not None:
            self.worker_threads = max(1, int(worker_threads))
        elif os.environ.get("REPRO_NUM_THREADS", "").strip():
            self.worker_threads = kernel_parallel.default_num_threads()
        else:
            self.worker_threads = max(
                1, kernel_parallel.available_cpus() // int(num_workers))
        self._update_version = int(base_version)
        if wal is not None and wal.last_version() > self._update_version:
            raise ValueError(
                f"the WAL holds version {wal.last_version()} but the pool "
                f"starts at {self._update_version}: recover the log into "
                f"the factory graph before building the pool")
        #: Ordered update frames since pool start; replayed to every
        #: respawned worker so it catches up before serving queries.
        self._update_history: List[Dict[str, Any]] = []
        self._slots = [_Slot(index) for index in range(self.num_workers)]
        self._generation = 0
        self._batch_ids = 0
        self._parent_fds: Dict[int, int] = {}      # generation -> parent fd
        self._tasks: List[asyncio.Task] = []
        self._started = False
        self._draining = False
        self._closing = False
        self._stats: Dict[str, int] = {
            "spawns": 0, "deaths": 0, "spawn_failures": 0,
            "redispatched": 0, "worker_lost": 0,
            "batches": 0, "queries": 0, "results": 0,
            "heartbeat_kills": 0, "stuck_kills": 0,
            "queue_timeouts": 0, "breaker_waits": 0,
            "updates": 0, "update_replays": 0,
            "prewarms": 0, "prewarmed_sources": 0,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "WorkerPool":
        """Fork the initial workers and start the supervision tasks."""
        if self._started:
            return self
        self._started = True
        if self._shared_graph is not None and self._segment is None:
            self._segment = GraphSegment.create(self._shared_graph,
                                                decays=self.shared_decays)
        for slot in self._slots:
            await self._spawn(slot)
        for slot in self._slots:
            self._tasks.append(asyncio.create_task(self._run_slot(slot)))
        self._tasks.append(asyncio.create_task(self._monitor()))
        return self

    async def drain(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Graceful shutdown: flush in-flight work, stop workers, reap.

        New submissions are rejected the moment drain starts; queries
        already accepted are answered (up to ``timeout`` seconds — anything
        still unresolved then gets a structured ``draining`` error).
        Returns the final :meth:`stats` snapshot, including each drained
        worker's own planner stats.
        """
        self._draining = True
        end = self._clock() + timeout
        while self._clock() < end and self.queue_depth() > 0:
            await asyncio.sleep(0.02)
        self._closing = True
        for slot in self._slots:
            slot.wakeup.set()
            slot.batch_done.set()
        # Anything the timeout stranded resolves as a structured error.
        for request in self._collect_pending():
            self._resolve(request, _pool_error(
                ERROR_DRAINING, "server draining before the query completed"))
        await self._shutdown_workers()
        await self._teardown_tasks()
        self._release_segment()
        return self.stats()

    async def close(self) -> None:
        """Hard stop: kill every worker, fail whatever is still pending."""
        self._draining = True
        self._closing = True
        for slot in self._slots:
            slot.wakeup.set()
            slot.batch_done.set()
        for request in self._collect_pending():
            self._resolve(request, _pool_error(
                ERROR_DRAINING, "worker pool closed"))
        for slot in self._slots:
            if slot.proc is not None:
                self._kill(slot.proc.pid)
        await self._shutdown_workers(polite=False)
        await self._teardown_tasks()
        self._release_segment()

    def _release_segment(self) -> None:
        """Unlink the shared graph segment exactly once (supervisor only)."""
        if self._segment is not None:
            self._segment.destroy()

    def _collect_pending(self) -> List[_Request]:
        pending: List[_Request] = []
        for slot in self._slots:
            if slot.outstanding is not None:
                pending.extend(slot.outstanding[1])
                slot.outstanding = None
            pending.extend(slot.queue)
            slot.queue.clear()
        return [request for request in pending if not request.future.done()]

    async def _shutdown_workers(self, polite: bool = True,
                                timeout: float = 3.0) -> None:
        live = [slot for slot in self._slots if slot.proc is not None]
        if polite:
            for slot in live:
                proc = slot.proc
                try:
                    proc.writer.write(encode_frame({"op": "shutdown"}))
                    await proc.writer.drain()
                except (ConnectionError, OSError):
                    pass
            end = self._clock() + timeout
            while self._clock() < end and any(slot.proc is not None
                                              for slot in live):
                await asyncio.sleep(0.02)
        for slot in live:
            if slot.proc is not None:
                self._kill(slot.proc.pid)
        end = self._clock() + timeout
        while self._clock() < end and any(slot.proc is not None
                                          for slot in live):
            await asyncio.sleep(0.02)

    async def _teardown_tasks(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        # Reap any stragglers synchronously (they were SIGKILLed above).
        for slot in self._slots:
            proc = slot.proc
            if proc is not None:
                slot.proc = None
                self._close_proc(proc)
                await self._reap(proc.pid)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, query: Query, *,
               deadline_ms: Optional[float] = None
               ) -> "asyncio.Future[Dict[str, Any]]":
        """Accept one typed query; the future resolves to its wire payload.

        Every accepted query resolves exactly once — a result, a structured
        timeout, or a structured pool error.  During drain, submissions
        resolve immediately with a ``draining`` error.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        if self._draining or self._closing:
            future.set_result(_pool_error(
                ERROR_DRAINING, "server draining: not accepting new queries"))
            return future
        effective_ms = deadline_ms if deadline_ms is not None else self.deadline_ms
        deadline = (Deadline.after_ms(effective_ms, clock=self._clock)
                    if effective_ms is not None else None)
        request = _Request(wire=query_to_dict(query),
                           source=int(query.source),
                           future=future, deadline=deadline)
        self._enqueue(request)
        return request.future

    async def answer(self, query: Query, *,
                     deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        """Submit and await one query (convenience for tests/benchmarks)."""
        return await self.submit(query, deadline_ms=deadline_ms)

    async def apply_update(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Durably acknowledge one edge batch and broadcast it to workers.

        The ack is durable-first: with a WAL attached the batch is fsynced
        *before* any worker — or the caller — sees it, so an acknowledged
        update survives SIGKILL of the entire serving process.  Worker
        sockets deliver frames in order, so each worker folds the update in
        between query batches and swaps to the new version after its local
        repair; a worker that dies before applying replays the full update
        history on respawn.  Queries answered in the window before a
        worker's swap carry the older ``graph_version`` — that is the
        documented serve-stale window, not a lost update.
        """
        if self._draining or self._closing:
            return _pool_error(
                ERROR_DRAINING, "server draining: not accepting updates")
        try:
            batch = EdgeBatch.from_wire(record)
        except ValueError as error:
            return _pool_error(ERROR_VALIDATION, str(error))
        version = self._update_version + 1
        if self.wal is not None:
            self.wal.append(batch, version)
        self._update_version = version
        frame = {"op": "update", "id": version,
                 "batch": batch.to_wire(), "version_to": version}
        self._update_history.append(frame)
        self._stats["updates"] += 1
        delivered = 0
        for slot in self._slots:
            proc = slot.proc
            if proc is None:
                continue
            try:
                proc.writer.write(encode_frame(frame))
                await proc.writer.drain()
                delivered += 1
            except (ConnectionError, OSError):
                await self._on_death(slot, proc)
        return {"type": "update", "ok": True, "graph_version": version,
                "durable": self.wal is not None, "delivered": delivered}

    def _enqueue(self, request: _Request) -> None:
        slot = self._route(request.source)
        slot.queue.append(request)
        slot.wakeup.set()

    def _route(self, source: int) -> _Slot:
        """Affinity routing: ``source % N`` owns the source's cached vectors.

        A slot whose process is down (respawning or quarantined) is skipped
        in favour of the least-loaded live slot, so traffic keeps flowing
        while a worker recovers; with every process down, the preferred
        slot queues the request for the next respawn.
        """
        preferred = self._slots[source % len(self._slots)]
        if preferred.proc is not None:
            return preferred
        live = [slot for slot in self._slots if slot.proc is not None]
        if not live:
            return preferred
        return min(live, key=_Slot.load)

    # ------------------------------------------------------------------ #
    # spawn / death
    # ------------------------------------------------------------------ #
    async def _spawn(self, slot: _Slot) -> None:
        parent_sock, child_sock = socket.socketpair()
        inherited = dict(self._parent_fds)
        pid = os.fork()
        if pid == 0:
            # ---- child: never returns ----
            status = 0
            try:
                parent_sock.close()
                # Close inherited parent-side fds of sibling workers so the
                # supervisor's EOF detection only depends on the sibling
                # processes themselves.
                for fd in inherited.values():
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                # Rebind the closed-over graph to the shared segment and
                # claim this worker's kernel-thread share before the
                # planner factory (and anything it caches) runs.
                if self._segment is not None:
                    self._segment.adopt()
                kernel_parallel.set_num_threads(self.worker_threads)
                run_worker(child_sock, self._planner_factory,
                           self.heartbeat_interval)
            except BaseException:
                status = 1
            finally:
                os._exit(status)
        child_sock.close()
        reader, writer = await asyncio.open_connection(sock=parent_sock)
        self._generation += 1
        proc = _Process(pid=pid, generation=self._generation,
                        reader=reader, writer=writer,
                        fd=parent_sock.fileno(), last_seen=self._clock())
        self._parent_fds[proc.generation] = proc.fd
        proc.reader_task = asyncio.create_task(self._read_worker(slot, proc))
        slot.proc = proc
        self._stats["spawns"] += 1
        # Catch-up replay: a worker spawned (or respawned) after updates
        # were acknowledged receives the full ordered history before any
        # query batch, so it serves the same version as its siblings.
        if self._update_history:
            self._stats["update_replays"] += 1
            try:
                for frame in self._update_history:
                    proc.writer.write(encode_frame(frame))
                await proc.writer.drain()
            except (ConnectionError, OSError):
                pass                 # death surfaces via the reader task
        # Cold-respawn affinity fix: hand the worker the slot's hot sources
        # so it rebuilds its cached vectors *before* the first query batch
        # (frames are ordered per socket, so prewarm completes first).
        if slot.hot_sources:
            self._stats["prewarms"] += 1
            try:
                proc.writer.write(encode_frame(
                    {"op": "prewarm",
                     "sources": list(slot.hot_sources)}))
                await proc.writer.drain()
            except (ConnectionError, OSError):
                pass                 # death surfaces via the reader task

    def _kill(self, pid: int) -> None:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    async def _reap(self, pid: int) -> None:
        for _ in range(500):
            try:
                reaped, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return
            if reaped == pid:
                return
            await asyncio.sleep(0.01)

    def _close_proc(self, proc: _Process) -> None:
        self._parent_fds.pop(proc.generation, None)
        try:
            proc.writer.close()
        except Exception:
            pass

    async def _read_worker(self, slot: _Slot, proc: _Process) -> None:
        """Per-process reader: results, heartbeats, and death detection."""
        while True:
            message = await read_frame(proc.reader)
            if message is None:
                break
            proc.last_seen = self._clock()
            op = message.get("op")
            if op == "result":
                self._handle_result(slot, proc, message)
            elif op == "update_done":
                version = message.get("graph_version")
                if isinstance(version, int):
                    slot.graph_version = version
            elif op == "prewarm_done":
                count = message.get("count")
                if isinstance(count, int):
                    self._stats["prewarmed_sources"] += count
            elif op == "bye":
                slot.bye_stats = message.get("stats")
        await self._on_death(slot, proc)

    def _handle_result(self, slot: _Slot, proc: _Process,
                       message: Dict[str, Any]) -> None:
        if slot.proc is not proc or slot.outstanding is None:
            return
        batch_id, requests, _deadline_at = slot.outstanding
        if message.get("id") != batch_id:
            return
        slot.outstanding = None
        results = message.get("results")
        if not isinstance(results, list) or len(results) != len(requests):
            results = [_pool_error("worker_error",
                                   "worker returned a malformed result batch")
                       for _ in requests]
        for request, payload in zip(requests, results):
            self._resolve(request, payload)
            self._stats["results"] += 1
        self.breaker.record_success(slot.index)
        slot.batch_done.set()

    async def _on_death(self, slot: _Slot, proc: _Process) -> None:
        """A worker process is gone: recover its work, free its slot."""
        if slot.proc is not proc:
            return                               # a stale generation's EOF
        slot.proc = None
        self._close_proc(proc)
        self._kill(proc.pid)                     # idempotent: may be dead
        await self._reap(proc.pid)
        if self._closing:
            slot.batch_done.set()
            slot.wakeup.set()
            return
        self._stats["deaths"] += 1
        self.breaker.record_failure(slot.index)
        # Exactly-once re-dispatch: the socket is closed, so nothing the
        # dead worker computed can surface anymore — re-running the pure
        # queries on a live worker yields the single response each gets.
        if slot.outstanding is not None:
            _batch_id, requests, _deadline_at = slot.outstanding
            slot.outstanding = None
            for request in requests:
                self._redispatch(request)
        stranded = list(slot.queue)
        slot.queue.clear()
        for request in stranded:
            if not request.future.done():
                self._enqueue(request)
        slot.batch_done.set()
        slot.wakeup.set()

    def _redispatch(self, request: _Request) -> None:
        if request.future.done():
            return
        request.attempts += 1
        if request.deadline is not None and request.deadline.expired():
            self._resolve_timeout(request, stage="redispatch")
            return
        if request.attempts > self.max_redispatch:
            self._stats["worker_lost"] += 1
            self._resolve(request, _pool_error(
                ERROR_WORKER_LOST,
                f"query re-dispatched {request.attempts - 1} times after "
                f"worker crashes; giving up",
                attempts=request.attempts - 1))
            return
        self._stats["redispatched"] += 1
        self._enqueue(request)

    # ------------------------------------------------------------------ #
    # dispatch loop
    # ------------------------------------------------------------------ #
    async def _run_slot(self, slot: _Slot) -> None:
        while not self._closing:
            if slot.proc is None:
                if not await self._spawn_when_cleared(slot):
                    return
                continue
            batch = await self._next_batch(slot)
            if batch is None:
                continue
            await self._dispatch(slot, batch)
            await slot.batch_done.wait()

    async def _spawn_when_cleared(self, slot: _Slot) -> bool:
        """Respawn the slot's worker once the breaker admits it."""
        while not self._closing:
            if self.breaker.allow(slot.index):
                try:
                    await self._spawn(slot)
                    return True
                except OSError:
                    self._stats["spawn_failures"] += 1
                    self.breaker.record_failure(slot.index)
                    await asyncio.sleep(0.05)
                    continue
            self._stats["breaker_waits"] += 1
            await asyncio.sleep(0.05)
        return False

    async def _next_batch(self, slot: _Slot) -> Optional[List[_Request]]:
        while not self._closing and slot.proc is not None:
            if slot.queue:
                requests: List[_Request] = []
                while slot.queue and len(requests) < self.batch_size:
                    request = slot.queue.popleft()
                    if request.future.done():
                        continue
                    if request.deadline is not None \
                            and request.deadline.expired():
                        self._resolve_timeout(request, stage="queue")
                        continue
                    requests.append(request)
                if requests:
                    return requests
                continue
            slot.wakeup.clear()
            if slot.queue:
                continue
            try:
                await asyncio.wait_for(slot.wakeup.wait(), timeout=0.25)
            except asyncio.TimeoutError:
                pass
        return None

    async def _dispatch(self, slot: _Slot, requests: List[_Request]) -> None:
        proc = slot.proc
        if proc is None:
            for request in requests:
                self._redispatch(request)
            return
        self._batch_ids += 1
        batch_id = self._batch_ids
        deadlines = [request.deadline for request in requests
                     if request.deadline is not None]
        deadline_ms: Optional[float] = None
        deadline_at: Optional[float] = None
        if deadlines:
            remaining = min(deadline.remaining() for deadline in deadlines)
            deadline_ms = max(remaining, 0.001) * 1e3
            deadline_at = self._clock() + remaining
        message = {"op": "batch", "id": batch_id,
                   "queries": [request.wire for request in requests],
                   "deadline_ms": deadline_ms}
        slot.batch_done = asyncio.Event()
        slot.outstanding = (batch_id, requests, deadline_at)
        slot.record_sources(requests)
        self._stats["batches"] += 1
        self._stats["queries"] += len(requests)
        try:
            proc.writer.write(encode_frame(message))
            await proc.writer.drain()
        except (ConnectionError, OSError):
            await self._on_death(slot, proc)

    # ------------------------------------------------------------------ #
    # supervision
    # ------------------------------------------------------------------ #
    async def _monitor(self) -> None:
        """Heartbeat-silence and stuck-past-deadline detection."""
        interval = max(self.heartbeat_interval / 2.0, 0.01)
        while not self._closing:
            await asyncio.sleep(interval)
            now = self._clock()
            for slot in self._slots:
                proc = slot.proc
                if proc is None:
                    continue
                if now - proc.last_seen > self.heartbeat_timeout:
                    self._stats["heartbeat_kills"] += 1
                    self._kill(proc.pid)     # death surfaces via reader EOF
                    continue
                if slot.outstanding is not None:
                    _batch_id, _requests, deadline_at = slot.outstanding
                    if deadline_at is not None \
                            and now > deadline_at + self.stuck_grace:
                        self._stats["stuck_kills"] += 1
                        self._kill(proc.pid)

    # ------------------------------------------------------------------ #
    # resolution helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve(request: _Request, payload: Dict[str, Any]) -> None:
        if not request.future.done():
            request.future.set_result(payload)

    def _resolve_timeout(self, request: _Request, *, stage: str) -> None:
        self._stats["queue_timeouts"] += 1
        assert request.deadline is not None
        self._resolve(request, _pool_error(
            ERROR_TIMEOUT,
            f"deadline of {request.deadline.budget_seconds * 1e3:.1f} ms "
            f"expired in the {stage} before a worker answered",
            stage=stage))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def queue_depth(self) -> int:
        """Accepted-but-unanswered queries (queued plus in flight)."""
        return sum(slot.load() for slot in self._slots)

    def alive_count(self) -> int:
        return sum(1 for slot in self._slots if slot.proc is not None)

    def pids(self) -> List[int]:
        """Live worker pids (chaos hooks and diagnostics)."""
        return [slot.proc.pid for slot in self._slots
                if slot.proc is not None]

    @property
    def segment(self) -> Optional[GraphSegment]:
        """The pool's shared graph segment (``None`` without one / after drain)."""
        return self._segment

    def stats(self) -> Dict[str, Any]:
        """JSON-serializable pool health: counters, breakers, worker stats."""
        snapshot: Dict[str, Any] = {key: int(value)
                                    for key, value in self._stats.items()}
        snapshot["num_workers"] = self.num_workers
        snapshot["worker_threads"] = self.worker_threads
        snapshot["shared_segment_bytes"] = (
            self._segment.nbytes if self._segment is not None else 0)
        snapshot["alive"] = self.alive_count()
        snapshot["queue_depth"] = self.queue_depth()
        snapshot["graph_version"] = int(self._update_version)
        snapshot["worker_versions"] = [
            slot.graph_version for slot in self._slots
            if slot.graph_version is not None]
        rows = []
        for row in self.breaker.snapshot():
            key = row.pop("key")
            rows.append({"worker": int(key), **row})
        snapshot["breakers"] = rows
        drained = [slot.bye_stats for slot in self._slots
                   if slot.bye_stats is not None]
        if drained:
            totals: Dict[str, float] = {}
            for stats in drained:
                for key, value in stats.items():
                    if isinstance(value, (int, float)):
                        totals[key] = totals.get(key, 0.0) + float(value)
            snapshot["worker_planner_totals"] = totals
            snapshot["workers_drained"] = len(drained)
        return snapshot


__all__ = [
    "MAX_FRAME_BYTES",
    "WorkerPool",
    "encode_frame",
    "read_frame",
    "recv_frame",
    "run_worker",
    "send_frame",
]
