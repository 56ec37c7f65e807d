"""Command-line interface.

Six subcommands cover the library's day-to-day uses:

* ``repro-simrank datasets``   — print the dataset registry (Table 2);
* ``repro-simrank methods``    — print the algorithm registry (with the
  planner's routing table: which query kinds each method answers natively);
* ``repro-simrank query``      — answer single-source / top-k queries with
  **any registered method** (``--method``), for one source (``--source``) or
  a batch (``--sources a,b,c``, answered through the vectorized batch path),
  optionally against a persisted index directory (``--index-dir``);
* ``repro-simrank answer``     — the serving loop: read a JSONL stream of
  typed queries (``{"type": "single_pair", "source": 1, "target": 2}``) from
  a file or stdin, route each through the query planner (LRU cache,
  micro-batch coalescing, native single-pair/top-k paths, persisted-index
  auto-load), and emit one JSON answer per line;
* ``repro-simrank index``      — ``index build`` preprocesses an index-based
  method and saves its index as npz; ``index load`` restores one and
  optionally answers a query from it;
* ``repro-simrank experiment`` — regenerate one of the paper's figures or
  tables and print the series as an aligned text table.

The console script ``repro-simrank`` is installed by ``pip install -e .``;
``python -m repro.cli`` works as well.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import signal
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence, TextIO

from repro.algorithms import registry
from repro.baselines.base import IndexPersistenceError
from repro.experiments.figures import (
    fig_ablation_basic_vs_optimized,
    fig_error_vs_index_size,
    fig_error_vs_preprocessing,
    fig_error_vs_query_time,
    fig_precision_vs_query_time,
)
from repro.experiments.harness import ExperimentSettings
from repro.experiments.reporting import format_rows, format_series_table
from repro.experiments.tables import table_dataset_statistics, table_memory_overhead
from repro.graph.context import GraphContext
from repro.graph.datasets import dataset_names, load_dataset
from repro.graph.digraph import DiGraph
from repro.graph.io import read_edge_list
from repro.service import (
    FaultPlan,
    Frontend,
    QueryPlanner,
    UpdateLog,
    WorkerPool,
    aiter_lines,
    outcome_to_wire,
    parse_wire_line,
)
from repro.utils.validation import check_positive

_FIGURE_DRIVERS = {
    "fig1": fig_error_vs_query_time,
    "fig2": fig_precision_vs_query_time,
    "fig3": fig_error_vs_preprocessing,
    "fig4": fig_error_vs_index_size,
    "fig5": fig_error_vs_query_time,
    "fig6": fig_precision_vs_query_time,
    "fig7": fig_error_vs_preprocessing,
    "fig8": fig_error_vs_index_size,
    "fig9": fig_ablation_basic_vs_optimized,
}


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    graph_group = parser.add_mutually_exclusive_group(required=True)
    graph_group.add_argument("--dataset", choices=dataset_names(),
                             help="registered dataset key")
    graph_group.add_argument("--edge-list", help="path to an edge-list file")


def _add_method_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=registry.available(), default="exactsim",
                        help="algorithm to run (default exactsim)")
    parser.add_argument("--epsilon", type=float, default=1e-3,
                        help="additive error target (methods with an ε knob)")
    parser.add_argument("--decay", type=float, default=0.6, help="SimRank decay factor c")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                        help="extra method-specific config (repeatable), e.g. "
                             "--param num_walks=500")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-simrank",
        description="ExactSim reproduction: exact single-source SimRank queries "
                    "and the paper's experiments.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser(
        "datasets", help="list the registered datasets (Table 2)")
    datasets_parser.add_argument("--sizes", action="store_true",
                                 help="also generate the synthetic stand-ins and print their sizes")

    subparsers.add_parser("methods", help="list the registered algorithms")

    query_parser = subparsers.add_parser(
        "query", help="answer single-source SimRank queries with any registered method")
    _add_graph_arguments(query_parser)
    source_group = query_parser.add_mutually_exclusive_group(required=True)
    source_group.add_argument("--source", type=int, help="query node id")
    source_group.add_argument("--sources",
                              help="comma-separated query node ids (batched query)")
    _add_method_arguments(query_parser)
    query_parser.add_argument("--top-k", type=int, default=10, help="number of results to print")
    query_parser.add_argument("--basic", action="store_true",
                              help="run the basic (unoptimized) ExactSim variant")
    query_parser.add_argument("--max-samples", type=int, default=500_000,
                              help="cap on the total number of walk pairs (ExactSim)")
    query_parser.add_argument("--index-dir",
                              help="directory of persisted indices: load the method's "
                                   "index if present, else build and save it there")

    answer_parser = subparsers.add_parser(
        "answer", help="serve a JSONL stream of typed queries through the planner")
    _add_graph_arguments(answer_parser)
    _add_method_arguments(answer_parser)
    answer_parser.add_argument("--queries", default="-",
                               help="JSONL query file, or '-' for stdin (default)")
    answer_parser.add_argument("--batch-size", type=int, default=64,
                               help="queries coalesced per planner micro-batch")
    answer_parser.add_argument("--cache-entries", type=int, default=256,
                               help="LRU result-cache capacity (0 disables)")
    answer_parser.add_argument("--index-dir",
                               help="directory of persisted indices: auto-load on "
                                    "first touch of an index-based method")
    answer_parser.add_argument("--save-indices", action="store_true",
                               help="persist freshly built indices to --index-dir")
    answer_parser.add_argument("--stats", action="store_true",
                               help="print serving statistics to stderr at the end")
    answer_parser.add_argument("--deadline-ms", type=float, default=None,
                               help="per-route compute budget in milliseconds; "
                                    "expired queries return degraded answers "
                                    "with certified bounds where available, "
                                    "structured timeouts otherwise")
    answer_parser.add_argument("--max-errors", type=int, default=None,
                               help="abort the stream once more than this many "
                                    "lines have failed (default: never abort)")
    answer_parser.add_argument("--fault-plan",
                               help="JSON fault-injection plan for resilience "
                                    "testing (see repro.service.faults)")
    answer_parser.add_argument("--workers", type=int, default=0,
                               help="serve through a supervised pool of N "
                                    "forked worker processes (0 = in-process "
                                    "serving, the default)")
    answer_parser.add_argument("--max-inflight", type=int, default=64,
                               help="admission window: accepted-but-unanswered "
                                    "queries allowed at once (pool mode)")
    answer_parser.add_argument("--queue-watermark", type=int, default=None,
                               help="shed once the pool's queue depth crosses "
                                    "this (default 4x --max-inflight)")
    answer_parser.add_argument("--shed", action="store_true",
                               help="shed overload with structured "
                                    "'overloaded' responses instead of "
                                    "pausing the input (pool mode)")
    answer_parser.add_argument("--worker-threads", type=int, default=None,
                               metavar="N",
                               help="kernel threads per pool worker (default: "
                                    "REPRO_NUM_THREADS if set, else "
                                    "cores // workers)")
    answer_parser.add_argument("--chaos-kill-every", type=int, default=0,
                               metavar="N",
                               help="chaos testing: SIGKILL a random worker "
                                    "after every N responses (pool mode)")
    answer_parser.add_argument("--wal", metavar="PATH",
                               help="write-ahead log for online graph "
                                    "updates: {\"type\": \"update\"} stream "
                                    "lines are fsynced here before they are "
                                    "acknowledged, and the log is replayed "
                                    "on startup so no acknowledged update "
                                    "is ever lost")
    answer_parser.add_argument("--listen", metavar="HOST:PORT",
                               help="serve TCP JSONL connections instead of "
                                    "a stdin/file stream (pool mode only); "
                                    "each connection gets its own "
                                    "max-inflight admission window")

    index_parser = subparsers.add_parser(
        "index", help="build / load persisted indices of index-based methods")
    index_subparsers = index_parser.add_subparsers(dest="index_command", required=True)

    build_parser = index_subparsers.add_parser(
        "build", help="preprocess an index-based method and save its index (npz)")
    _add_graph_arguments(build_parser)
    _add_method_arguments(build_parser)
    build_parser.add_argument("--out", help="output file (default <index-dir>/<graph>.<method>.npz)")
    build_parser.add_argument("--index-dir", default=".",
                              help="directory for the default output path")
    build_parser.add_argument("--uncompressed", action="store_true",
                              help="store arrays uncompressed so serving "
                                   "workers can attach them as read-only "
                                   "memory maps (shared page cache)")

    load_parser = index_subparsers.add_parser(
        "load", help="load a persisted index and report (or query) it")
    _add_graph_arguments(load_parser)
    _add_method_arguments(load_parser)
    load_parser.add_argument("--path", required=True, help="index file written by 'index build'")
    load_parser.add_argument("--source", type=int, default=None,
                             help="optionally answer one query from the loaded index")
    load_parser.add_argument("--top-k", type=int, default=10)

    experiment_parser = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's figures/tables")
    experiment_parser.add_argument("target", choices=sorted(_FIGURE_DRIVERS) + ["table2", "table3"],
                                   help="which figure/table to regenerate")
    experiment_parser.add_argument("--dataset", default="GQ",
                                   help="dataset key (default GQ; figures 5-9 typically use DB)")
    experiment_parser.add_argument("--queries", type=int, default=2,
                                   help="number of query nodes to average over")
    experiment_parser.add_argument("--top-k", type=int, default=50)
    experiment_parser.add_argument("--seed", type=int, default=2020)
    return parser


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #
def _load_graph(args: argparse.Namespace) -> DiGraph:
    if args.dataset:
        return load_dataset(args.dataset)
    return read_edge_list(args.edge_list)


def _parse_param(item: str) -> tuple:
    if "=" not in item:
        raise ValueError(f"--param expects KEY=VALUE, got {item!r}")
    key, raw = item.split("=", 1)
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("none", "null"):
        return key, None
    return key, raw


def _method_config(args: argparse.Namespace, method: str, *,
                   accepted_params_only: bool = False) -> Dict[str, Any]:
    """Assemble the registry config dict from the generic CLI flags.

    With ``accepted_params_only``, ``--param`` entries the method's spec
    does not accept are dropped instead of passed through: the answer
    command configures *every* registered method (a stream line may name
    any of them), and e.g. a parsim-only ``iterations`` must not poison
    sling's config.  Single-method commands keep the strict
    pass-through so a mistyped key still fails loudly.

    ε — from ``--epsilon`` or ``--param epsilon=`` — must be positive and
    finite, whether or not ``method`` reads it; anything else raises
    ``ValueError``, which every command turns into exit code 2.
    """
    check_positive(args.epsilon, "--epsilon")
    spec = registry.get_spec(method)
    config: Dict[str, Any] = {}
    if "decay" in spec.config_keys:
        config["decay"] = args.decay
    if "seed" in spec.config_keys and args.seed is not None:
        config["seed"] = args.seed
    if "epsilon" in spec.config_keys:
        config["epsilon"] = args.epsilon
    # Only ``query`` has --max-samples; elsewhere ExactSimConfig's cap applies.
    if "max_total_samples" in spec.config_keys and hasattr(args, "max_samples"):
        config["max_total_samples"] = args.max_samples
    for item in args.param:
        key, value = _parse_param(item)
        if key == "epsilon":
            if not isinstance(value, (int, float)):
                raise ValueError(f"--param epsilon must be a number, got {value!r}")
            check_positive(value, "--param epsilon")
        if not accepted_params_only or key in spec.config_keys:
            config[key] = value
    return config


def _resolve_method(args: argparse.Namespace) -> str:
    method = args.method
    if getattr(args, "basic", False):
        if method != "exactsim":
            raise ValueError("--basic only applies to --method exactsim")
        method = "exactsim-basic"
    return method


def _default_index_path(index_dir: str, graph: DiGraph, method: str) -> Path:
    return Path(index_dir) / f"{graph.name}.{method}.npz"


def _print_result(result, graph: DiGraph, top_k: int) -> None:
    extras = ""
    if "samples_realised" in result.stats:
        extras = f" samples={int(result.stats['samples_realised'])}"
    print(f"# {result.algorithm} on {graph.name}: source={result.source} "
          f"time={result.query_seconds:.3f}s{extras}")
    rows = [{"rank": rank + 1, "node": node, "simrank": score}
            for rank, (node, score) in enumerate(result.top_k(top_k).as_pairs())]
    print(format_rows(rows, float_format="{:.6f}"))


# --------------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------------- #
def _command_datasets(args: argparse.Namespace) -> int:
    rows = table_dataset_statistics(include_generated_sizes=args.sizes)
    print(format_rows(rows))
    return 0


def _command_methods(args: argparse.Namespace) -> int:
    print(format_rows(registry.describe_all()))
    return 0


def _iter_query_lines(stream: TextIO) -> Iterator[str]:
    for line in stream:
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def _command_answer(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    if args.fault_plan:
        try:
            FaultPlan.from_file(args.fault_plan)
        except (OSError, ValueError) as error:
            print(f"error: cannot load fault plan {args.fault_plan}: {error}",
                  file=sys.stderr)
            return 2
    wal = UpdateLog(args.wal) if args.wal else None
    try:
        method = _resolve_method(args)
        # Every registered method gets its config from the generic flags, so
        # a stream line naming any method ("method": "prsim") just works.
        # The chosen default method keeps strict --param checking; the rest
        # only take the params their spec accepts (a parsim-only
        # "iterations" must not poison sling's config).
        method_configs = {
            name: _method_config(args, name,
                                 accepted_params_only=(name != method))
            for name in registry.available()}
        # The planner builds methods lazily, so construct the default one
        # now (no index load, no build): a config it rejects exits 2 here
        # instead of failing every line.
        registry.create(method, graph, method_configs[method],
                        context=GraphContext.shared(graph))
        # In pool mode the supervisor owns the WAL (durable append before
        # ack + ordered broadcast); worker planners must not re-append.
        planner_factory = _planner_factory(
            args, graph, method, method_configs,
            wal=wal if not args.workers else None)
        planner_factory()               # fail fast on a bad configuration
    except (TypeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print("error: --batch-size must be positive", file=sys.stderr)
        return 2
    if args.workers < 0 or args.max_inflight < 1:
        print("error: --workers must be >= 0 and --max-inflight >= 1",
              file=sys.stderr)
        return 2
    if args.listen and not args.workers:
        print("error: --listen requires pool mode (--workers N)",
              file=sys.stderr)
        return 2
    if args.workers:
        return asyncio.run(_serve_pool(args, graph, planner_factory, wal=wal))
    return _serve_in_process(args, graph, planner_factory())


def _planner_factory(args: argparse.Namespace, graph: DiGraph, method: str,
                     method_configs: Dict[str, Dict[str, Any]],
                     wal: Optional[UpdateLog] = None):
    """A zero-argument planner builder shared by both serving modes.

    In pool mode the factory runs inside each forked worker: the graph and
    the shared :class:`GraphContext` it closes over arrive copy-on-write,
    persisted indices attach as read-only memory maps, and the fault plan is
    re-read per process so injected-fault state stays process-local.  The
    pool serializes each query's *remaining* deadline with its dispatch, so
    the worker planner gets no standing ``deadline_ms`` of its own.

    The planner binds ``context.graph`` (not the captured base graph): when
    a WAL was recovered into the context before the factory runs — the pool
    path — the worker starts at the recovered version instead of serving
    stale history.  In-process mode passes ``wal`` through instead, and the
    planner replays it at construction.
    """
    context = GraphContext.shared(graph)
    in_process = args.workers == 0

    def factory() -> QueryPlanner:
        fault_plan = (FaultPlan.from_file(args.fault_plan)
                      if args.fault_plan else None)
        return QueryPlanner(context.graph, context=context,
                            default_method=method,
                            method_configs=method_configs,
                            cache_entries=args.cache_entries,
                            index_dir=args.index_dir,
                            save_indices=args.save_indices,
                            index_mmap=not in_process,
                            deadline_ms=args.deadline_ms if in_process else None,
                            fault_plan=fault_plan,
                            wal=wal)

    return factory


def _serve_in_process(args: argparse.Namespace, graph: DiGraph,
                      planner: QueryPlanner) -> int:
    """The single-process serving loop (``--workers 0``).

    SIGINT/SIGTERM and a client hang-up (``BrokenPipeError`` on stdout)
    drain gracefully: the in-hand batch is answered, the final ``--stats``
    record is emitted, and the exit code is 0 — a stopped server is not a
    failed one.
    """
    stop_state = {"stop": False}

    def _request_stop(_signum, _frame):
        stop_state["stop"] = True

    previous_handlers: Dict[int, Any] = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[signum] = signal.signal(signum, _request_stop)
        except ValueError:          # not the main thread (embedded use)
            pass

    stream = sys.stdin if args.queries == "-" else open(args.queries, "r")
    failures = 0
    aborted = False
    stopped = False
    try:
        # Each item is ("query", query) or ("error", payload): error lines
        # buffer alongside their batch so output line N always answers
        # input line N (clients correlate positionally).
        batch: list = []
        for line in _iter_query_lines(stream):
            parsed = parse_wire_line(line, graph.num_nodes)
            if parsed[0] == "update":
                # An update line is a batch boundary: queries ahead of it
                # are answered on the old version, then the batch is
                # acknowledged (WAL-first), rebuilt and swapped so every
                # later line sees the new graph version.
                failures += _answer_batch(planner, batch)
                batch = []
                failures += _apply_update_line(planner, parsed[1])
                if args.max_errors is not None and failures > args.max_errors:
                    aborted = True
                    break
                continue
            batch.append(parsed)
            stopped = stop_state["stop"]
            if len(batch) >= args.batch_size or stopped:
                failures += _answer_batch(planner, batch)
                batch = []
                if args.max_errors is not None and failures > args.max_errors:
                    aborted = True
                    break
                if stopped:
                    break
        if batch and not aborted:
            failures += _answer_batch(planner, batch)
            if args.max_errors is not None and failures > args.max_errors:
                aborted = True
    except BrokenPipeError:
        # The client hung up mid-stream; nothing more can be written, and
        # the interpreter's exit-time stdout flush must not traceback.
        stopped = True
        try:
            sys.stdout = open(os.devnull, "w")
        except OSError:
            pass
    finally:
        if stream is not sys.stdin:
            stream.close()
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    if aborted:
        print(f"error: aborting after {failures} failed lines "
              f"(--max-errors {args.max_errors})", file=sys.stderr)
    if args.stats:
        print("# serving stats: " + json.dumps(planner.stats()),
              file=sys.stderr)
    if aborted:
        return 1
    if stopped:
        return 0
    return 0 if failures == 0 else 1


class _ChaosKiller:
    """Response-driven chaos: SIGKILL a random live worker every N answers."""

    def __init__(self, pool: WorkerPool, every: int, seed: int = 0):
        self.pool = pool
        self.every = int(every)
        self.kills = 0
        self._responses = 0
        self._rng = random.Random(seed)

    def __call__(self, _payload: Dict[str, Any]) -> None:
        self._responses += 1
        if self._responses % self.every:
            return
        pids = self.pool.pids()
        if pids:
            self.kills += 1
            os.kill(self._rng.choice(pids), signal.SIGKILL)


async def _serve_pool(args: argparse.Namespace, graph: DiGraph,
                      planner_factory,
                      wal: Optional[UpdateLog] = None) -> int:
    """The supervised multi-worker serving loop (``--workers N``)."""
    base_version = 0
    context = GraphContext.shared(graph)
    if wal is not None:
        # Recover acknowledged history into the shared context *before*
        # forking: every worker then starts at the recovered version, and
        # the pool appends new updates after the replayed tail.
        context.recover(wal)
        base_version = context.graph_version
    # The supervisor places the CSR arrays (graph + the default method's
    # transition matrices) in an explicit shared-memory segment; workers
    # rebind to it read-only after the fork, so the hot arrays stay one
    # physical copy instead of slowly privatizing under COW.
    pool = WorkerPool(planner_factory, num_workers=args.workers,
                      batch_size=args.batch_size,
                      deadline_ms=args.deadline_ms,
                      wal=wal, base_version=base_version,
                      shared_graph=context.graph,
                      shared_decays=(args.decay,),
                      worker_threads=args.worker_threads)
    await pool.start()
    frontend = Frontend(pool, graph.num_nodes,
                        max_inflight=args.max_inflight,
                        queue_watermark=args.queue_watermark,
                        shed=args.shed,
                        deadline_ms=args.deadline_ms)
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, frontend.request_stop)
            installed.append(signum)
        except (ValueError, NotImplementedError, RuntimeError):
            pass
    chaos = (_ChaosKiller(pool, args.chaos_kill_every)
             if args.chaos_kill_every else None)

    def write(payload: Dict[str, Any]) -> None:
        print(json.dumps(payload), flush=True)

    failures = 0
    try:
        if args.listen:
            host, _, port_text = args.listen.rpartition(":")
            try:
                port = int(port_text)
            except ValueError:
                print(f"error: --listen expects HOST:PORT, got {args.listen!r}",
                      file=sys.stderr)
                return 2
            server = await frontend.serve_connections(host or "127.0.0.1", port)
            bound = server.sockets[0].getsockname()
            # Announce the bound address on stdout (port 0 picks a free one)
            # so scripted clients can connect without racing the listener.
            print(json.dumps({"type": "listening", "host": bound[0],
                              "port": bound[1]}), flush=True)
            try:
                while not frontend.stopping:
                    await asyncio.sleep(0.05)
            finally:
                server.close()
                await server.wait_closed()
        else:
            stream = (sys.stdin if args.queries == "-"
                      else open(args.queries, "r"))
            try:
                lines = (aiter_lines(stream) if stream is sys.stdin
                         else iter(stream))
                failures = await frontend.serve_lines(
                    lines, write, on_response=chaos,
                    max_errors=args.max_errors)
            finally:
                if stream is not sys.stdin:
                    stream.close()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
    final_stats = await pool.drain()
    if args.stats:
        record = {"mode": "pool", "frontend": frontend.stats(),
                  "workers": final_stats}
        if chaos is not None:
            record["chaos_kills"] = chaos.kills
        print("# serving stats: " + json.dumps(record), file=sys.stderr)
    if frontend.aborted:
        print(f"error: aborting after {failures} failed lines "
              f"(--max-errors {args.max_errors})", file=sys.stderr)
        return 1
    if frontend.stopping:
        return 0
    return 0 if failures == 0 else 1


def _apply_update_line(planner: QueryPlanner, batch) -> int:
    """Apply one parsed update line in-process; emit its acknowledgement.

    Returns 1 on failure (counted against ``--max-errors``), 0 on success.
    The ack carries the new ``graph_version`` and the per-index strategy
    (``noop`` / ``rebind`` / ``rebuild``).  It is flushed at once: a client
    on a pipe waits for it before sending the next line.
    """
    try:
        ack = planner.apply_updates(batch)
        report = planner.complete_repairs()
    except Exception as error:
        print(json.dumps({"error": f"{type(error).__name__}: {error}",
                          "code": "update_failed",
                          "graph_version": planner.graph_version}),
              flush=True)
        return 1
    ack["stale_updates"] = planner.stale_updates
    ack["repairs"] = [{"method": row.get("method"),
                       "strategy": row.get("strategy")}
                      for row in report["repairs"]]
    print(json.dumps(ack), flush=True)
    return 0


def _answer_batch(planner: QueryPlanner, batch: list) -> int:
    """Answer the batch's queries and emit every item in input order.

    The answers are flushed once per batch, so a client on a pipe sees
    them without waiting for the process to exit.  Returns the number of
    failed lines (pre-parse errors plus queries whose outcome carries a
    structured error: timeouts, exhausted routes).
    """
    failures = 0
    queries = [item for kind, item in batch if kind == "query"]
    outcomes = iter(planner.answer(queries))
    for kind, item in batch:
        if kind == "error":
            failures += 1
            print(json.dumps(item))
            continue
        payload = outcome_to_wire(next(outcomes),
                                  graph_version=planner.graph_version)
        if "error" in payload:
            failures += 1
        print(json.dumps(payload))
    sys.stdout.flush()
    return failures


def _command_query(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    if args.sources is not None:
        try:
            sources = [int(item) for item in args.sources.split(",") if item.strip()]
        except ValueError:
            sources = []
        if not sources:
            print(f"error: --sources must be comma-separated integers, "
                  f"got {args.sources!r}", file=sys.stderr)
            return 2
    else:
        sources = [args.source]
    for source in sources:
        if source < 0 or source >= graph.num_nodes:
            print(f"error: source {source} out of range for graph with "
                  f"{graph.num_nodes} nodes", file=sys.stderr)
            return 2

    try:
        method = _resolve_method(args)
        algorithm = registry.create(method, graph, _method_config(args, method),
                                    context=GraphContext.shared(graph))
    except (TypeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    spec = registry.get_spec(method)
    if args.index_dir and spec.supports_persistence:
        path = _default_index_path(args.index_dir, graph, method)
        if path.exists():
            try:
                algorithm.load_index(path)
            except IndexPersistenceError as error:
                print(f"error: cannot use persisted index {path}: {error}\n"
                      f"       remove the file or rebuild it with "
                      f"'repro-simrank index build'", file=sys.stderr)
                return 2
            print(f"# loaded {method} index from {path} "
                  f"({algorithm.index_bytes()} bytes)")
        else:
            algorithm.preprocess()
            algorithm.save_index(path)
            print(f"# built {method} index in {algorithm.preprocessing_seconds:.3f}s "
                  f"and saved to {path}")
    elif args.index_dir:
        print(f"# note: {method} is index-free; --index-dir ignored")

    results = algorithm.single_source_batch(sources)
    for result in results:
        _print_result(result, graph, args.top_k)
    return 0


def _command_index_build(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    try:
        method = _resolve_method(args)
        spec = registry.get_spec(method)
        if not spec.supports_persistence:
            print(f"error: {method} does not support index persistence",
                  file=sys.stderr)
            return 2
        algorithm = registry.create(method, graph, _method_config(args, method),
                                    context=GraphContext.shared(graph))
    except (TypeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    algorithm.preprocess()
    target = Path(args.out) if args.out else _default_index_path(args.index_dir, graph, method)
    path = algorithm.save_index(target, compressed=not args.uncompressed)
    print(f"# {method} index on {graph.name}: {algorithm.index_bytes()} bytes, "
          f"preprocessing {algorithm.preprocessing_seconds:.3f}s -> {path}")
    return 0


def _command_index_load(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    try:
        method = _resolve_method(args)
        algorithm = registry.create(method, graph, _method_config(args, method),
                                    context=GraphContext.shared(graph))
        algorithm.load_index(args.path)
    except (TypeError, ValueError, IndexPersistenceError,
            FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"# loaded {method} index on {graph.name}: {algorithm.index_bytes()} bytes "
          f"(build time {algorithm.preprocessing_seconds:.3f}s) from {args.path}")
    if args.source is not None:
        if args.source < 0 or args.source >= graph.num_nodes:
            print(f"error: source {args.source} out of range for graph with "
                  f"{graph.num_nodes} nodes", file=sys.stderr)
            return 2
        _print_result(algorithm.single_source(args.source), graph, args.top_k)
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    if args.target == "table2":
        print(format_rows(table_dataset_statistics(include_generated_sizes=False)))
        return 0
    if args.target == "table3":
        rows = table_memory_overhead([args.dataset] if args.dataset else None,
                                     sample_cap=40_000)
        print(format_rows(rows, columns=["dataset", "basic_human", "optimized_human",
                                         "graph_human", "reduction_factor"]))
        return 0

    settings = ExperimentSettings(num_queries=args.queries, top_k=args.top_k,
                                  time_budget_seconds=300, seed=args.seed)
    driver = _FIGURE_DRIVERS[args.target]
    series = driver(args.dataset, settings=settings)
    print(format_series_table(series))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-simrank`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "datasets":
        return _command_datasets(args)
    if args.command == "methods":
        return _command_methods(args)
    if args.command == "query":
        return _command_query(args)
    if args.command == "answer":
        return _command_answer(args)
    if args.command == "index":
        if args.index_command == "build":
            return _command_index_build(args)
        return _command_index_load(args)
    if args.command == "experiment":
        return _command_experiment(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
