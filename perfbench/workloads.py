"""The four workloads: set-up, closed-loop measurement and output checks.

Every workload is a closed loop driven from this one client process: the
next line is sent only after the answer it waits for has arrived.  The
in-process workloads make the library calls the CLI's in-process serving
loop makes (``parse_wire_line`` -> ``QueryPlanner.answer`` ->
``outcome_to_wire`` + ``json.dumps``; updates: ``apply_updates`` then
``complete_repairs``); ``serve-mixed`` talks to a real
``repro.cli answer --workers 2`` subprocess over stdin/stdout.

Each ``run_*`` function returns a :class:`Result`: end-to-end metrics from
the untraced pass and, when tracing, per-layer metrics from a second pass
over the same lines under a :class:`~tracing.Tracer`.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import layers
import streams
from tracing import NullTracer, Tracer

from repro.baselines.power_method import simrank_matrix
from repro.graph.context import GraphContext
from repro.graph.datasets import get_spec
from repro.graph.generators import power_law_graph
from repro.graph.updates import EdgeBatch, UpdateLog, apply_edge_batch
from repro.service.frontend import parse_wire_line
from repro.service.planner import QueryPlanner, outcome_to_wire

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Algorithm seed, fixed so only the workload seed varies the inputs.
ALGO_SEED = 7
CACHE_ENTRIES = 256
BATCH = 8
SELF_TOLERANCE = 1e-9
ORACLE_TOLERANCE = 1e-12
DECAY = 0.6

PL_NODES, PL_DEGREE, PL_EXPONENT, PL_SEED = 200_000, 9.0, 2.1, 1

#: Every key of every method config, written out: a changed library default
#: must not silently change the workload.
EXACTSIM_CONFIG = {
    "decay": DECAY, "seed": ALGO_SEED, "max_total_samples": 500_000,
    "max_walk_steps": 64, "max_exploit_level": 8, "failure_constant": 6.0,
    "use_sparse_linearization": True, "use_squared_sampling": True,
    "use_local_exploitation": True,
}
SERVE_EPSILON = 1e-3
METHOD_CONFIGS = {
    "sling": {"decay": DECAY, "epsilon": SERVE_EPSILON,
              "samples_per_node": 1000, "seed": ALGO_SEED},
    "probesim": {"decay": DECAY, "num_walks": 200, "max_steps": 12,
                 "probe_threshold": 1e-4, "seed": ALGO_SEED},
    "mc": {"decay": DECAY, "walks_per_node": 100, "walk_length": 10,
           "seed": ALGO_SEED},
    "prsim": {"decay": DECAY, "epsilon": SERVE_EPSILON, "hub_fraction": 0.1,
              "seed": ALGO_SEED},
    "linearization": {"decay": DECAY, "epsilon": SERVE_EPSILON,
                      "samples_per_node": 20_000, "seed": ALGO_SEED},
}

#: SLING answers are checked against PowerMethod at 5 x epsilon, not epsilon:
#: at epsilon = 1e-3 its full vectors miss the truth by up to 2.1e-3 on GQ and
#: its early-stopped top-k scores by up to 3.2e-3 (see README).  The index is
#: seeded, so these are fixed worst cases; a broken index still fails.
SLING_CHECK_TOLERANCE = 5 * SERVE_EPSILON

#: serve-mixed: the pool command line.  Only the generic flags and the
#: default method's --param keys can be pinned there (see README).
POOL_WORKERS = 2
POOL_WINDOW = 2
POOL_TIMEOUT_S = 60.0
MIXED_KINDS = (("single_pair", "sling"), ("top_k", "sling"),
               ("single_pair", "probesim"))
UPDATE_KINDS = tuple((kind, method) for method in streams.UPDATE_METHODS
                     for kind in ("single_pair", "top_k"))

_NULL = NullTracer()


@dataclass
class Tally:
    """Lines sent, and lines (or run-level checks) that failed."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def line(self, problems: Sequence[str], line: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self._note(f"{'; '.join(problems)} <- {line}")

    def run_check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            self._note(message)

    def _note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


@dataclass
class Pass:
    """One measured closed-loop pass."""

    latencies_ms: List[float] = field(default_factory=list)
    update_ms: List[float] = field(default_factory=list)
    lines: int = 0
    elapsed: float = 0.0


@dataclass
class Result:
    setups: List[float]
    builds: List[float]
    num_nodes: int
    num_edges: int
    untraced: Pass
    peak_rss_mb: float
    layer: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)

    def end_to_end(self) -> Dict[str, float]:
        latencies = self.untraced.latencies_ms
        return {
            "setup_s": statistics.median(self.setups),
            "queries_per_s": len(latencies) / self.untraced.elapsed,
            "latency_p50_ms": statistics.median(latencies),
            "peak_rss_mb": self.peak_rss_mb,
        }


# --------------------------------------------------------------------------- #
# shared pieces
# --------------------------------------------------------------------------- #
def _now() -> float:
    return time.perf_counter()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _planner(graph, default_method: str, configs: Dict[str, dict],
             wal: Optional[UpdateLog] = None) -> QueryPlanner:
    # A private context per set-up: nothing is shared with an earlier one.
    return QueryPlanner(graph, context=GraphContext(graph),
                        default_method=default_method,
                        method_configs={name: dict(cfg) for name, cfg in configs.items()},
                        cache_entries=CACHE_ENTRIES, wal=wal)


def serve(planner: QueryPlanner, lines: Sequence[str], tracer) -> List[Tuple[dict, Any]]:
    """Answer query lines as the CLI's in-process loop does.

    Returns one (wire payload, outcome) per line, in input order; a line
    that does not parse as a query yields its error payload and no outcome.
    """
    num_nodes = planner.graph.num_nodes
    parsed = []
    for line in lines:
        with tracer.span("frontend.parse"):
            parsed.append(parse_wire_line(line, num_nodes))
    queries = [item for kind, item in parsed if kind == "query"]
    outcomes = iter(planner.answer(queries) if queries else ())
    answers: List[Tuple[dict, Any]] = []
    for kind, item in parsed:
        if kind != "query":
            answers.append((item if kind == "error" else
                            {"error": f"unexpected {kind} line"}, None))
            continue
        outcome = next(outcomes)
        with tracer.span("frontend.encode"):
            payload = outcome_to_wire(outcome, graph_version=planner.graph_version)
            json.dumps(payload)
        answers.append((payload, outcome))
    return answers


def wire_problems(line: str, payload: dict) -> List[str]:
    """Does ``payload`` answer ``line``, with scores in [0, 1]?"""
    if "error" in payload:
        return [f"error payload {payload.get('code')}: {payload['error']}"]
    sent = json.loads(line)
    problems = []
    for key in ("type", "source", "target", "k", "method"):
        if key in sent and payload.get(key) != sent[key]:
            problems.append(f"{key} {payload.get(key)!r} != {sent[key]!r}")
    scores = ([payload["score"]] if "score" in payload
              else payload.get("scores", payload.get("top_scores", [])))
    if any(not 0.0 <= float(score) <= 1.0 for score in scores):
        problems.append("score outside [0, 1]")
    if sent["type"] == "top_k" and len(payload.get("nodes", [])) != sent["k"]:
        problems.append("top-k answer has the wrong length")
    return problems


def _repeat_setup(setup, *args) -> Tuple[Any, List[float], List[float]]:
    """Run ``setup`` SETUP_REPEATS times; keep the last state."""
    state, took, built = None, [], []
    for _ in range(SETUP_REPEATS):
        state = None                    # release the previous set-up first
        gc.collect()
        state, build_s, setup_s = setup(*args)
        built.append(build_s)
        took.append(setup_s)
    return state, took, built


def _finish_trace(result: Result, tracer: Tracer, traced: Pass,
                  planner_stats: Optional[dict], untraced_p50: float) -> None:
    result.layer.update(layers.layer_metrics(
        tracer, planner_stats=planner_stats, memcpy=layers.memcpy_gbps()))
    result.layer["graph.build_s"] = statistics.median(result.builds)
    result.layer["latency_p99_ms"] = float(np.percentile(result.untraced.latencies_ms, 99))
    traced_p50 = statistics.median(traced.latencies_ms)
    result.layer["trace.latency_p50_ms"] = traced_p50
    result.layer["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    path = OUT_DIR / f"spans-{result.details['workload']}-seed{result.details['seed']}.jsonl"
    tracer.dump(path)
    result.details["spans_file"] = str(path.relative_to(ROOT))
    result.details["spans"] = len(tracer.spans)


# --------------------------------------------------------------------------- #
# exactsim-gq / exactsim-pl200k
# --------------------------------------------------------------------------- #
def _exactsim_check(tally: Tally, lines: Sequence[str], answers, epsilon: float,
                    vectors: Optional[list]) -> None:
    """Wire shape, scores in [0, 1], and S(s, s) in [1 - epsilon, 1 + 1e-9].

    ExactSim estimates S(s, s) like every other entry (the diagonal phase
    samples D(s, s)), so it is only within epsilon of 1, not exactly 1.
    """
    for line, (payload, outcome) in zip(lines, answers):
        problems = wire_problems(line, payload)
        if outcome is not None and outcome.result is not None:
            scores = outcome.result.scores
            source = outcome.result.source
            if not 1.0 - epsilon <= scores[source] <= 1.0 + SELF_TOLERANCE:
                problems.append(f"S(s,s) = {float(scores[source])!r}")
            if scores.min() < 0.0 or scores.max() > 1.0:
                problems.append("score outside [0, 1]")
            if vectors is not None:
                vectors.append((source, scores.copy()))
        tally.line(problems, line)


def _exactsim_setup(build, epsilon: float, tally: Tally):
    start = _now()
    graph = build()
    built = _now() - start
    planner = _planner(graph, "exactsim",
                       {"exactsim": {**EXACTSIM_CONFIG, "epsilon": epsilon}})
    line = streams.exactsim_warmup_line()
    answers = serve(planner, [line], _NULL)
    took = _now() - start
    _exactsim_check(tally, [line], answers, epsilon, None)
    return planner, built, took


def _exactsim_pass(planner: QueryPlanner, epsilon: float, seed: int,
                   seconds: float, tracer, tally: Tally, *, rounds: Optional[int] = None,
                   vectors: Optional[list] = None) -> Pass:
    stream = streams.exactsim_rounds(seed, planner.graph.in_degrees, BATCH)
    measured = Pass()
    done = 0
    start = _now()
    while (_now() - start < seconds) if rounds is None else (done < rounds):
        lines = next(stream)
        sent = _now()
        answers = serve(planner, lines, tracer)
        # Every line of a round waits for the whole batch.
        measured.latencies_ms += [(_now() - sent) * 1e3] * len(lines)
        _exactsim_check(tally, lines, answers, epsilon, vectors)
        done += 1
    measured.elapsed = _now() - start
    measured.lines = done * BATCH
    return measured


def run_exactsim(workload: str, seed: int, seconds: float, trace: bool,
                 tally: Tally) -> Result:
    if workload == "exactsim-gq":
        epsilon = 1e-4

        def build():
            return get_spec("GQ").load()
    else:
        epsilon = 1e-3

        def build():
            return power_law_graph(PL_NODES, PL_DEGREE, exponent=PL_EXPONENT,
                                   seed=PL_SEED, name="PL200K")
    planner, setups, builds = _repeat_setup(_exactsim_setup, build, epsilon, tally)
    graph = planner.graph
    vectors: Optional[list] = [] if workload == "exactsim-gq" else None
    untraced = _exactsim_pass(planner, epsilon, seed, seconds, _NULL, tally,
                              vectors=vectors)
    result = Result(setups=setups, builds=builds, num_nodes=graph.num_nodes,
                    num_edges=graph.num_edges, untraced=untraced,
                    peak_rss_mb=_self_rss_mb(),
                    details={"workload": workload, "seed": seed,
                             "epsilon": epsilon,
                             "round_ms": untraced.latencies_ms[::BATCH]})
    if vectors is not None:
        # Ground truth after timing, outside setup_s.
        truth = simrank_matrix(graph, decay=DECAY, tolerance=ORACLE_TOLERANCE)
        error = max(float(np.max(np.abs(scores - truth[source])))
                    for source, scores in vectors)
        result.layer["exactsim.max_abs_error"] = error
        result.details["max_abs_error"] = error
        result.details["vectors_checked"] = len(vectors)
    if trace:
        planner = None
        gc.collect()
        planner, _, _ = _exactsim_setup(lambda: graph, epsilon, tally)
        tracer = Tracer()
        with tracer.instrument(layers.targets()):
            traced = _exactsim_pass(planner, epsilon, seed, seconds, tracer, tally,
                                    rounds=untraced.lines // BATCH)
        _finish_trace(result, tracer, traced, planner.stats(),
                      statistics.median(untraced.latencies_ms))
    return result


# --------------------------------------------------------------------------- #
# serve-updates
# --------------------------------------------------------------------------- #
def _updates_setup(tally: Tally, workdir: Path):
    start = _now()
    graph = get_spec("GQ").load()
    built = _now() - start
    wal_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=workdir))
    configs = {name: METHOD_CONFIGS[name] for name in streams.UPDATE_METHODS}
    planner = _planner(graph, "sling", configs, wal=UpdateLog(wal_dir / "serve.wal"))
    for line in streams.warmup_lines(UPDATE_KINDS, sources=(0,)):
        payload, _ = serve(planner, [line], _NULL)[0]
        tally.line(wire_problems(line, payload), line)
    return planner, built, _now() - start


def _acknowledge(planner: QueryPlanner, batch: EdgeBatch) -> dict:
    """The CLI's in-process update path: WAL-first ack, repair, swap."""
    ack = planner.apply_updates(batch)
    report = planner.complete_repairs()
    ack["stale_updates"] = planner.stale_updates
    ack["repairs"] = [{"method": row.get("method"), "strategy": row.get("strategy")}
                      for row in report["repairs"]]
    json.dumps(ack)
    return ack


def _updates_pass(planner: QueryPlanner, seed: int, seconds: float, tracer,
                  tally: Tally, base, *, limit: Optional[int] = None
                  ) -> Tuple[Pass, List[EdgeBatch]]:
    num_nodes = base.num_nodes
    stream = streams.update_lines(seed, base.edge_array(), num_nodes,
                                  directed=base.directed)
    measured = Pass()
    batches: List[EdgeBatch] = []
    version = planner.graph_version
    start = _now()
    # Whole cycles (100 queries, then one update): an acknowledgement takes
    # seconds, so a pass cut mid-cycle would make queries_per_s depend on
    # where the cut fell.
    while (not (batches and _now() - start >= seconds
                and measured.lines % (streams.QUERIES_PER_UPDATE + 1) == 0)
           if limit is None else measured.lines < limit):
        line = next(stream)
        measured.lines += 1
        is_query = json.loads(line)["type"] != "update"
        sent = _now()
        if is_query:
            payload, _ = serve(planner, [line], tracer)[0]
            measured.latencies_ms.append((_now() - sent) * 1e3)
            tally.line(wire_problems(line, payload), line)
            continue
        with tracer.span("frontend.parse"):
            kind, batch = parse_wire_line(line, num_nodes)
        problems = [] if kind == "update" else [f"update line parsed as {kind}"]
        if not problems:
            try:
                with tracer.span("update.ack"):
                    ack = _acknowledge(planner, batch)
            except Exception as error:    # the CLI reports update_failed
                problems.append(f"update failed: {type(error).__name__}: {error}")
            else:
                measured.update_ms.append((_now() - sent) * 1e3)
                if ack["graph_version"] <= version:
                    problems.append(f"graph_version {ack['graph_version']} after {version}")
                version = ack["graph_version"]
                batches.append(batch)
        tally.line(problems, line)
    measured.elapsed = _now() - start
    return measured, batches


def _replay_matches(planner: QueryPlanner, batches: List[EdgeBatch]) -> bool:
    """The served graph equals the base graph with every acked batch applied."""
    replayed = get_spec("GQ").load()
    for batch in batches:
        replayed = apply_edge_batch(replayed, batch)
    expected = replayed.fingerprint()
    return (np.array_equal(planner.graph.fingerprint(), expected)
            and np.array_equal(planner.context.graph.fingerprint(), expected))


def run_serve_updates(seed: int, seconds: float, trace: bool, tally: Tally) -> Result:
    workdir = Path(tempfile.mkdtemp(prefix="serve-updates-", dir=OUT_DIR))
    try:
        planner, setups, builds = _repeat_setup(_updates_setup, tally, workdir)
        base = get_spec("GQ").load()
        untraced, batches = _updates_pass(planner, seed, seconds, _NULL, tally, base)
        tally.run_check(_replay_matches(planner, batches),
                        "served graph differs from a fresh replay of the acked batches")
        result = Result(setups=setups, builds=builds, num_nodes=base.num_nodes,
                        num_edges=base.num_edges, untraced=untraced,
                        peak_rss_mb=_self_rss_mb(),
                        details={"workload": "serve-updates", "seed": seed,
                                 "lines": untraced.lines,
                                 "updates": len(untraced.update_ms)})
        result.layer["update_p50_ms"] = (statistics.median(untraced.update_ms)
                                         if untraced.update_ms else 0.0)
        if trace:
            planner = None
            gc.collect()
            planner, _, _ = _updates_setup(tally, workdir)
            tracer = Tracer()
            with tracer.instrument(layers.targets()):
                traced, batches = _updates_pass(planner, seed, seconds, tracer,
                                                tally, base, limit=untraced.lines)
            tally.run_check(_replay_matches(planner, batches),
                            "traced pass: served graph differs from the replay")
            _finish_trace(result, tracer, traced, planner.stats(),
                          statistics.median(untraced.latencies_ms))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --------------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------------- #
class PoolServer:
    """A ``repro.cli answer --workers 2`` subprocess on stdin/stdout.

    The client reads the answer pipe itself (``select`` + ``os.read``), so
    a latency is one pipe hop on each side and no thread handoff.
    """

    def __init__(self, stderr_path: Path):
        argv = [sys.executable, "-m", "repro.cli", "answer", "--dataset", "GQ",
                "--workers", str(POOL_WORKERS), "--method", "sling",
                "--epsilon", str(SERVE_EPSILON), "--decay", str(DECAY),
                "--seed", str(ALGO_SEED),
                "--param", f"samples_per_node={METHOD_CONFIGS['sling']['samples_per_node']}",
                "--stats"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._stderr_path = stderr_path
        with open(stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=stderr,
                                         bufsize=0, cwd=ROOT, env=env)
        self._pending = b""

    def send(self, line: str) -> None:
        self.proc.stdin.write(line.encode() + b"\n")

    def _read_line(self) -> Optional[bytes]:
        """The next output line, or None at end of output."""
        while b"\n" not in self._pending:
            ready, _, _ = select.select([self.proc.stdout], [], [], POOL_TIMEOUT_S)
            if not ready:
                raise TimeoutError(f"no answer from the pool in {POOL_TIMEOUT_S} s")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                return None
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def receive(self) -> dict:
        line = self._read_line()
        if line is None:
            raise EOFError("the server closed its output")
        return json.loads(line)

    def close(self) -> Tuple[Optional[dict], int]:
        """Drain: close stdin, read to the end, return (stats record, stray lines)."""
        try:
            self.proc.stdin.close()
            stray = 0
            while self._read_line() is not None:
                stray += 1
            self.proc.wait(timeout=POOL_TIMEOUT_S)
        finally:
            self.kill()
        stats = None
        for text in self._stderr_path.read_text().splitlines():
            if text.startswith("# serving stats: "):
                stats = json.loads(text[len("# serving stats: "):])
        return stats, stray

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _pool_setup(tally: Tally, workdir: Path):
    start = _now()
    server = PoolServer(workdir / f"pool-{len(list(workdir.iterdir()))}.err")
    try:
        warm = streams.warmup_lines(MIXED_KINDS, sources=(0, 1))
        for line in warm:
            server.send(line)
        for line in warm:
            tally.line(wire_problems(line, server.receive()), line)
    except BaseException:
        server.kill()
        raise
    # The pool builds its graph in the subprocess; graph.build_s for this
    # workload is timed on the client's own build of the same graph.
    return server, 0.0, _now() - start


def _pool_pass(server: PoolServer, seed: int, seconds: float, num_nodes: int
               ) -> Tuple[Pass, List[Tuple[str, dict, float]]]:
    """At most POOL_WINDOW lines in flight; answers arrive in input order."""
    stream = streams.mixed_lines(seed, num_nodes)
    window: deque = deque()
    records: List[Tuple[str, dict, float]] = []
    measured = Pass()
    start = _now()

    def send_next() -> None:
        line = next(stream)
        server.send(line)
        window.append((_now(), line))

    for _ in range(POOL_WINDOW):
        send_next()
    while window:
        payload = server.receive()
        sent, line = window.popleft()
        latency = (_now() - sent) * 1e3
        measured.latencies_ms.append(latency)
        records.append((line, payload, latency))
        if _now() - start < seconds:
            send_next()
    measured.elapsed = _now() - start
    measured.lines = len(records)
    return measured, records


def _sling_errors(records, truth: np.ndarray) -> List[float]:
    """|SLING score - PowerMethod| for every SLING score returned."""
    errors = []
    for line, payload, _ in records:
        if payload.get("method") != "sling" or "error" in payload:
            errors.append(float("nan") if payload.get("method") == "sling" else 0.0)
            continue
        source = payload["source"]
        if payload["type"] == "single_pair":
            errors.append(abs(payload["score"] - truth[source, payload["target"]]))
        else:
            errors.append(max((abs(score - truth[source, node]) for node, score in
                               zip(payload["nodes"], payload["scores"])), default=0.0))
    return errors


def _replay_in_process(graph, lines: Sequence[str], tracer, tally: Tally
                       ) -> Tuple[QueryPlanner, Pass]:
    """The pool's stream, one line per answer, through an in-process planner."""
    planner = _planner(graph, "sling", {name: METHOD_CONFIGS[name]
                                        for _, name in MIXED_KINDS})
    for line in streams.warmup_lines(MIXED_KINDS, sources=(0, 1)):
        payload, _ = serve(planner, [line], _NULL)[0]
        tally.line(wire_problems(line, payload), line)
    measured = Pass()
    start = _now()
    for line in lines:
        sent = _now()
        payload, _ = serve(planner, [line], tracer)[0]
        measured.latencies_ms.append((_now() - sent) * 1e3)
        tally.line(wire_problems(line, payload), line)
    measured.elapsed = _now() - start
    measured.lines = len(lines)
    return planner, measured


def run_serve_mixed(seed: int, seconds: float, trace: bool, tally: Tally) -> Result:
    workdir = Path(tempfile.mkdtemp(prefix="serve-mixed-", dir=OUT_DIR))
    start = _now()
    graph = get_spec("GQ").load()
    built = _now() - start
    servers: List[PoolServer] = []

    def setup(*_):
        server, built, took = _pool_setup(tally, workdir)
        servers.append(server)
        if len(servers) < SETUP_REPEATS:
            server.close()
        return server, built, took

    try:
        server, setups, _ = _repeat_setup(setup)
        untraced, records = _pool_pass(server, seed, seconds, graph.num_nodes)
        stats, stray = server.close()
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    tally.run_check(stray == 0, f"{stray} answers beyond the lines sent")
    tally.run_check(stats is not None, "no --stats record from the pool")
    truth = simrank_matrix(graph, decay=DECAY, tolerance=ORACLE_TOLERANCE)
    errors = _sling_errors(records, truth)
    for (line, payload, _), error in zip(records, errors):
        problems = wire_problems(line, payload)
        if not error <= SLING_CHECK_TOLERANCE:   # NaN (a failed SLING line) fails too
            problems.append(f"SLING error {error:.3g} > {SLING_CHECK_TOLERANCE}")
        tally.line(problems, line)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result = Result(setups=setups, builds=[built], num_nodes=graph.num_nodes,
                    num_edges=graph.num_edges, untraced=untraced,
                    peak_rss_mb=children,
                    details={"workload": "serve-mixed", "seed": seed,
                             "lines": untraced.lines, "pool_stats": stats})
    sling = [error for error in errors if error == error]
    result.layer["sling.max_abs_error"] = max(sling, default=0.0)
    result.layer["pool.overhead_ms_p50"] = statistics.median(
        latency - payload.get("query_seconds", 0.0) * 1e3
        for _, payload, latency in records)
    workers = (stats or {}).get("workers", {})
    result.layer["pool.queries_per_dispatch"] = (
        workers.get("queries", 0) / workers["batches"] if workers.get("batches") else 0.0)
    if trace:
        lines = [line for line, _, _ in records]
        _, plain = _replay_in_process(graph, lines, _NULL, tally)
        tracer = Tracer()
        with tracer.instrument(layers.targets()):
            planner, traced = _replay_in_process(graph, lines, tracer, tally)
        _finish_trace(result, tracer, traced, planner.stats(),
                      statistics.median(plain.latencies_ms))
    return result


RUNNERS = {
    "exactsim-gq": lambda seed, seconds, trace, tally:
        run_exactsim("exactsim-gq", seed, seconds, trace, tally),
    "exactsim-pl200k": lambda seed, seconds, trace, tally:
        run_exactsim("exactsim-pl200k", seed, seconds, trace, tally),
    "serve-mixed": run_serve_mixed,
    "serve-updates": run_serve_updates,
}
