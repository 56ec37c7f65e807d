"""Benchmark: the query plane — native query paths and the serving layer.

PR 5 opened two new query scenarios (single-pair, certified-early-stop
top-k) and a caching/coalescing serving path; PR 6 threaded cooperative
deadlines through the query loops.  This bench times each against the
derived single-source fallback it replaces, measures the deadline-checkpoint
overhead (acceptance: <2% vs an undeadlined run), and records the committed
baseline ``BENCH_service.json``::

    PYTHONPATH=src python benchmarks/bench_service.py           # full (best of 2)
    PYTHONPATH=src python benchmarks/bench_service.py --quick   # CI smoke

Three workload families:

* ``single_pair`` — per method with a native pair path (ProbeSim, SLING,
  MC): N native ``single_pair`` calls vs N full ``single_source`` passes
  (what the derived path costs per pair).  ExactSim's pair is an entry of
  its single-source vector, so it has no native column to time.
* ``native_top_k`` — SLING's certified early-stopping top-k vs truncating a
  full pass, with the certification depth recorded.  Regimes are chosen
  where the paper's serving story lives (fine ε); the expected shape is that
  SLING wins on the small undirected graphs at fine ε, where its per-level
  column-maxima tails certify at a fraction of the depth.  SLING is the only
  method with a native top-k: PRSim's and Linearization's early-stopping
  top-k did not pay on the measured graphs (README's routing table) and
  were removed, so their top-k *is* the derived path this family compares
  against.
* ``serving`` — planner throughput on a mixed pair/top-k workload: cold
  coalesced batch vs per-query loop vs warm (second pass served from the
  LRU cache).
* ``shared_segment`` (PR 10) — the explicit shared-memory graph segment:
  per-worker private RSS with the CSR arrays and transition matrices placed
  in one ``multiprocessing.shared_memory`` block vs plain fork COW,
  bit-identity of the answers both ways, and segment unlink-on-drain.
* ``worker_scaling`` (PR 8) — the supervised multi-process pool: sustained
  mixed-workload throughput at 1/2/4 workers vs the in-process planner,
  bit-identity of 1-worker pool answers against the single process, the
  shared-memory claim measured directly (per-worker private RSS with the
  index attached as a read-only mmap vs fully materialized), and an
  overload run (shed mode p50 of *served* queries vs an unbounded flood).

Honest anti-targets are part of the record: a native pair on a tiny graph
can be slower than one dense pass (fixed per-query overhead), certified
top-k needs a real k-gap to stop early — flat similarity surfaces (DB)
refine to full depth — and on a graph this small the per-batch IPC cost
can eat most of what extra workers buy.
"""

import argparse
import asyncio
import gc
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from collections import deque

import numpy as np

from repro.algorithms import registry
from repro.graph.datasets import load_dataset
from repro.service import (
    ERROR_OVERLOADED,
    Frontend,
    QueryPlanner,
    SinglePairQuery,
    TopKQuery,
    WorkerPool,
    outcome_to_wire,
)

DECAY = 0.6
SEED = 2020


def _best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------------- #
# workload: native single_pair vs derived (full single-source)
# --------------------------------------------------------------------------- #
PAIR_CONFIGS = {
    "probesim": {"num_walks": 300, "seed": SEED},
    "sling": {"epsilon": 1e-2, "seed": SEED},
    "mc": {"walks_per_node": 100, "walk_length": 8, "seed": SEED},
}


def bench_single_pair(graph, pairs, repeats, configs=None):
    results = {}
    for method, config in (configs or PAIR_CONFIGS).items():
        algorithm = registry.create(method, graph, config)
        algorithm.preprocess()
        algorithm.single_pair(*pairs[0])            # warm lazy structures

        native_s = _best(
            lambda: [algorithm.single_pair(s, t) for s, t in pairs], repeats)
        derived_s = _best(
            lambda: [algorithm.single_source(s).similarity(t)
                     for s, t in pairs], repeats)
        results[method] = {
            "num_pairs": len(pairs),
            "native_s": native_s,
            "derived_s": derived_s,
            "speedup": derived_s / native_s if native_s > 0 else float("inf"),
        }
    return results


# --------------------------------------------------------------------------- #
# workload: native (certified early-stop) top_k vs derived truncation
# --------------------------------------------------------------------------- #
def bench_native_top_k(graph, method, config, sources, k, repeats):
    native = registry.create(method, graph, config)
    native.preprocess()
    derived = registry.create(method, graph, config)
    derived.preprocess()
    answers = [native.top_k(source, k) for source in sources]   # warm + stats
    reference = [derived.single_source(source).top_k(k) for source in sources]
    sets_equal = all(a.node_set() == b.node_set()
                     for a, b in zip(answers, reference))

    native_s = _best(lambda: [native.top_k(source, k) for source in sources],
                     repeats)
    derived_s = _best(
        lambda: [derived.single_source(source).top_k(k) for source in sources],
        repeats)
    used = float(np.mean([answer.stats["levels_used"] for answer in answers]))
    total = float(answers[0].stats["levels_total"])
    return {
        "k": k,
        "num_queries": len(sources),
        "native_s": native_s,
        "derived_s": derived_s,
        "speedup": derived_s / native_s if native_s > 0 else float("inf"),
        "mean_levels_used": used,
        "levels_total": total,
        "sets_equal_derived": sets_equal,
        "config": {key: value for key, value in config.items()},
    }


# --------------------------------------------------------------------------- #
# workload: serving layer — cold coalesced vs per-query loop vs warm cache
# --------------------------------------------------------------------------- #
def bench_serving(graph, method, config, repeats):
    sources = [3, 57, 211, 350, 500]
    workload = []
    for source in sources:
        workload.append(TopKQuery(source, 10, method=method))
        for target in (9, 11, 13):
            workload.append(SinglePairQuery(source, target, method=method))

    def make_planner(cache_entries):
        return QueryPlanner(graph, method_configs={method: config},
                            cache_entries=cache_entries)

    # Cold coalesced: one answer() batch on a fresh planner.
    cold_s = _best(lambda: make_planner(256).answer(workload), repeats)
    # Per-query loop, cache off: what a naive serving loop would pay.
    def loop():
        planner = make_planner(0)
        for query in workload:
            planner.execute(query)
    loop_s = _best(loop, repeats)
    # Warm: the same batch again on a planner that has answered it once.
    warm_planner = make_planner(256)
    warm_planner.answer(workload)
    warm_s = _best(lambda: warm_planner.answer(workload), repeats)
    outcomes = warm_planner.answer(workload)
    assert all(outcome.cached for outcome in outcomes)
    return {
        "method": method,
        "num_queries": len(workload),
        "cold_coalesced_s": cold_s,
        "per_query_loop_s": loop_s,
        "warm_cache_s": warm_s,
        "coalesce_speedup": loop_s / cold_s if cold_s > 0 else float("inf"),
        "warm_speedup_vs_cold": cold_s / warm_s if warm_s > 0 else float("inf"),
        "stats": warm_planner.stats(),
    }


# --------------------------------------------------------------------------- #
# workload: supervised worker pool — scaling, shared memory, overload
# --------------------------------------------------------------------------- #
_VOLATILE_WIRE_KEYS = ("query_seconds", "route", "batched")


def _stable_wire(payload):
    return {key: value for key, value in payload.items()
            if key not in _VOLATILE_WIRE_KEYS}


def _process_memory(pid):
    """Per-process memory from smaps_rollup, in bytes (empty off-Linux)."""
    fields = {}
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) >= 3 and parts[2] == "kB":
                    fields[parts[0].rstrip(":")] = int(parts[1]) * 1024
    except OSError:
        return {}
    return fields


def _worker_memory(pool):
    rows = []
    for pid in pool.pids():
        fields = _process_memory(pid)
        if fields:
            rows.append({
                "rss": fields.get("Rss", 0),
                "pss": fields.get("Pss", 0),
                "private": (fields.get("Private_Clean", 0)
                            + fields.get("Private_Dirty", 0)),
            })
    return rows


async def _pool_throughput(factory, workload, num_workers, repeats):
    """Best-of wall time for the workload through an N-worker pool.

    Returns (best_seconds, final-pass payloads in workload order,
    per-worker memory rows sampled while the indices are attached).
    """
    pool = await WorkerPool(factory, num_workers=num_workers,
                            batch_size=8).start()
    try:
        await asyncio.gather(*[pool.submit(query) for query in workload])
        best, payloads = float("inf"), []
        for _ in range(repeats):
            start = time.perf_counter()
            payloads = await asyncio.gather(
                *[pool.submit(query) for query in workload])
            best = min(best, time.perf_counter() - start)
        memory = _worker_memory(pool)
        await pool.drain()
        return best, payloads, memory
    except BaseException:
        await pool.close()
        raise


async def _overload_run(factory, num_nodes, queries, max_inflight):
    """Flood a 2-worker pool two ways: unbounded queue vs shed mode.

    Unbounded submits everything at once and measures each query's
    completion latency (tail queries pay for the whole queue ahead of
    them).  Shed mode pushes the same flood through the admission front
    end: excess lines get an immediate ``overloaded`` rejection and the
    *served* queries keep a bounded latency.
    """
    lines = [json.dumps(_stable_wire(wire)) for wire in
             ({"type": "single_pair", "source": q.source, "target": q.target,
               "method": q.method} for q in queries)]

    pool = await WorkerPool(factory, num_workers=2, batch_size=8).start()
    try:
        await pool.answer(queries[0])               # attach indices
        start = time.perf_counter()
        futures = [pool.submit(query) for query in queries]
        done_at = [0.0] * len(futures)

        def _stamp(index):
            def callback(_future):
                done_at[index] = time.perf_counter() - start
            return callback

        for index, future in enumerate(futures):
            future.add_done_callback(_stamp(index))
        await asyncio.gather(*futures)
        unbounded = sorted(done_at)

        frontend = Frontend(pool, num_nodes, max_inflight=max_inflight,
                            queue_watermark=2 * max_inflight, shed=True)
        sent = deque()
        served, shed = [], []

        async def generate():
            for line in lines:
                sent.append(time.perf_counter())
                yield line
                await asyncio.sleep(0)              # let responses interleave

        def write(payload):
            latency = time.perf_counter() - sent.popleft()
            if payload.get("code") == ERROR_OVERLOADED:
                shed.append(latency)
            else:
                served.append(latency)

        await frontend.serve_lines(generate(), write)
        await pool.drain()
    except BaseException:
        await pool.close()
        raise

    def percentile(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    return {
        "num_queries": len(queries),
        "max_inflight": max_inflight,
        "unbounded_p50_s": percentile(unbounded, 50),
        "unbounded_p95_s": percentile(unbounded, 95),
        "shed_served": len(served),
        "shed_rejected": len(shed),
        "shed_served_p50_s": percentile(served, 50),
        "shed_served_p95_s": percentile(served, 95),
        "frontend": frontend.stats(),
    }


def bench_worker_scaling(graph, repeats, quick):
    """The PR 8 record: pool scaling, shared index segments, overload."""
    method = "sling"
    config = {"epsilon": 1e-3, "seed": SEED}
    num_queries = 48 if quick else 120
    rng = np.random.default_rng(SEED)
    workload = []
    for index in range(num_queries):
        source = int(rng.integers(0, graph.num_nodes))
        if index % 4 == 0:
            workload.append(TopKQuery(source, 10, method=method))
        else:
            target = int(rng.integers(0, graph.num_nodes))
            workload.append(SinglePairQuery(source, target, method=method))

    with tempfile.TemporaryDirectory() as index_dir:
        algorithm = registry.create(method, graph, config)
        algorithm.preprocess()
        index_path = os.path.join(index_dir, f"{graph.name}.{method}.npz")
        algorithm.save_index(index_path, compressed=False)
        index_bytes = os.path.getsize(index_path)

        def factory(mmap=True):
            return QueryPlanner(graph, method_configs={method: config},
                                index_dir=index_dir, index_mmap=mmap,
                                cache_entries=0)

        # Single-process baseline: same workload through one planner.
        planner = factory(mmap=False)
        reference = [outcome_to_wire(outcome)
                     for outcome in planner.answer(workload)]
        single_s = _best(lambda: list(planner.answer(workload)), repeats)

        scaling = {}
        bit_identical = None
        for num_workers in ((1, 2) if quick else (1, 2, 4)):
            best, payloads, memory = asyncio.run(_pool_throughput(
                lambda: factory(mmap=True), workload, num_workers, repeats))
            if num_workers == 1:
                bit_identical = ([_stable_wire(p) for p in payloads]
                                 == [_stable_wire(r) for r in reference])
            scaling[str(num_workers)] = {
                "seconds": best,
                "queries_per_s": len(workload) / best if best > 0 else 0.0,
                "speedup_vs_single_process": single_s / best if best > 0
                else float("inf"),
                "mean_worker_private_bytes": (
                    float(np.mean([row["private"] for row in memory]))
                    if memory else None),
                "mean_worker_pss_bytes": (
                    float(np.mean([row["pss"] for row in memory]))
                    if memory else None),
            }

        # Shared-memory A/B at fixed width: read-only mmap segments vs each
        # worker materializing its own copy of the index arrays.
        _, _, mmap_memory = asyncio.run(_pool_throughput(
            lambda: factory(mmap=True), workload[:8], 2, 1))
        _, _, copied_memory = asyncio.run(_pool_throughput(
            lambda: factory(mmap=False), workload[:8], 2, 1))

        overload = asyncio.run(_overload_run(
            lambda: factory(mmap=True), graph.num_nodes,
            [q for q in workload if isinstance(q, SinglePairQuery)]
            * (2 if quick else 4),
            max_inflight=8))

    def mean_private(rows):
        return float(np.mean([row["private"] for row in rows])) if rows else None

    return {
        "method": method,
        "config": config,
        "num_queries": len(workload),
        "index_bytes": index_bytes,
        "single_process_s": single_s,
        "single_process_qps": len(workload) / single_s if single_s > 0 else 0.0,
        "bit_identical_to_single_process": bit_identical,
        "workers": scaling,
        "shared_memory": {
            "num_workers": 2,
            "mmap_mean_private_bytes": mean_private(mmap_memory),
            "materialized_mean_private_bytes": mean_private(copied_memory),
        },
        "overload": overload,
    }


# --------------------------------------------------------------------------- #
# workload: explicit shared-memory graph segments (PR 10)
# --------------------------------------------------------------------------- #
async def _segment_ab(factory, workload, graph, decay):
    """Run the same workload through a 2-worker pool with and without the
    explicit shared graph segment; sample per-worker memory both ways.

    Returns the A/B rows plus whether the answers were bit-identical and
    whether the segment was unlinked from ``/dev/shm`` after the drain —
    both are part of the acceptance record, not just the RSS delta.
    """
    results = {}
    reference = None
    for label, shared in (("shared_segment", True), ("cow_only", False)):
        pool = WorkerPool(factory, num_workers=2, batch_size=8,
                          shared_graph=graph if shared else None,
                          shared_decays=(decay,) if shared else ())
        await pool.start()
        try:
            await asyncio.gather(*[pool.submit(q) for q in workload])
            payloads = await asyncio.gather(
                *[pool.submit(q) for q in workload])
            memory = _worker_memory(pool)
            stats = pool.stats()
            segment = pool.segment
            await pool.drain()
        except BaseException:
            await pool.close()
            raise
        row = {
            "mean_worker_private_bytes": (
                float(np.mean([r["private"] for r in memory]))
                if memory else None),
            "mean_worker_pss_bytes": (
                float(np.mean([r["pss"] for r in memory]))
                if memory else None),
            "segment_bytes": stats.get("shared_segment_bytes", 0),
            "worker_threads": stats.get("worker_threads"),
        }
        if shared:
            row["segment_unlinked_after_drain"] = (
                segment is not None and not segment.exists())
        wires = [_stable_wire(p) for p in payloads]
        if reference is None:
            reference = wires
        else:
            results["answers_bit_identical"] = (wires == reference)
        results[label] = row
    return results


def bench_shared_segment(graph, quick):
    """The PR 10 record: per-worker private RSS with the CSR arrays placed
    in an explicit shared-memory segment vs plain fork copy-on-write.

    The honest caveat rides in the note: on a graph this small the absolute
    delta is bounded by the CSR footprint (the segment_bytes field), and a
    short-lived pool barely privatizes COW pages — the segment's value is
    the *guarantee* (no drift over a long-lived pool's lifetime), which an
    A/B snapshot can bound but not fully exhibit.
    """
    method = "sling"
    config = {"epsilon": 1e-2, "seed": SEED}
    rng = np.random.default_rng(SEED)
    num_queries = 8 if quick else 24
    workload = []
    for _ in range(num_queries):
        source = int(rng.integers(0, graph.num_nodes))
        target = int(rng.integers(0, graph.num_nodes))
        workload.append(SinglePairQuery(source, target, method=method))

    def factory():
        return QueryPlanner(graph, method_configs={method: config},
                            cache_entries=0)

    record = asyncio.run(_segment_ab(factory, workload, graph, DECAY))
    record["method"] = method
    record["num_queries"] = num_queries
    record["note"] = ("segment guarantees zero COW drift for the CSR "
                      "arrays over the pool lifetime; a short A/B run "
                      "bounds, not exhibits, the long-lived win")
    return record


# --------------------------------------------------------------------------- #
# workload: deadline-checkpoint overhead — no deadline vs an unexpirable one
# --------------------------------------------------------------------------- #
def bench_deadline_overhead(graph, method, config, repeats):
    """Cost of cooperative deadline checkpoints on the serving hot path.

    The same per-query workload runs on two fresh planners: one with no
    deadline (checkpoints are a single ContextVar read that finds nothing
    installed) and one with an hour-long budget (every checkpoint also
    reads the monotonic clock).  The acceptance bar is overhead below 2%.
    Caching is off so every query pays the full compute path.
    """
    sources = [3, 57, 211, 350, 500, 9, 42, 123, 256, 400]
    workload = [TopKQuery(source, 10, method=method) for source in sources]

    def make_planner(deadline_ms):
        planner = QueryPlanner(graph, method_configs={method: config},
                               cache_entries=0, deadline_ms=deadline_ms)
        outcome = planner.execute(workload[0])      # warm index + context
        assert outcome.ok and not outcome.degraded
        return planner

    passes = 10

    def run(planner):
        for _ in range(passes):
            for query in workload:
                planner.execute(query)

    # Planner/index construction happens once, outside the timed region —
    # the measurement isolates the per-query checkpoint cost.  The two
    # variants are timed in adjacent *pairs* (bare then timed, repeated) and
    # the overhead is the median of the per-pair ratios: slow machine drift
    # (CPU frequency, cache state) shifts both halves of a pair equally, so
    # it cancels out of the ratio instead of biasing whichever variant ran
    # during the slow stretch.
    bare_planner = make_planner(None)
    timed_planner = make_planner(3_600_000.0)
    ratios, bare_best, timed_best = [], float("inf"), float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()                    # a collection inside one half of a pair
    try:                            # would masquerade as checkpoint cost
        for _ in range(repeats):
            start = time.perf_counter()
            run(bare_planner)
            bare = time.perf_counter() - start
            start = time.perf_counter()
            run(timed_planner)
            timed = time.perf_counter() - start
            ratios.append(timed / bare)
            bare_best = min(bare_best, bare)
            timed_best = min(timed_best, timed)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "method": method,
        "num_queries": len(workload) * passes,
        "no_deadline_s": bare_best,
        "unexpired_deadline_s": timed_best,
        "overhead_fraction": float(np.median(ratios)) - 1.0,
        "acceptance_max_overhead": 0.02,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="single repetition, small grids (CI smoke)")
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args()
    repeats = 1 if args.quick else 2

    report = {
        "description": "Query plane: native single-pair / certified top-k vs "
                       "derived single-source fallbacks, and planner serving "
                       "throughput (cold coalesced / per-query loop / warm "
                       "cache), best of %d, seconds." % repeats,
        "python": platform.python_version(),
        "decay": DECAY,
        "seed": SEED,
        "quick": bool(args.quick),
        "datasets": {},
    }

    graphs = {name: load_dataset(name) for name in ("GQ", "IT")}
    pairs = [(3, 9), (57, 11), (211, 13), (350, 2), (500, 7), (3, 57)]
    pair_jobs = {"GQ": PAIR_CONFIGS}
    top_k_jobs = {
        # (dataset, method): config — regimes where each method's
        # certification story plays out (see module docstring).
        ("GQ", "sling"): {"epsilon": 1e-4, "seed": SEED},
        ("IT", "sling"): {"epsilon": 1e-3, "seed": SEED},
    }

    for name, graph in graphs.items():
        entry = {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "directed": graph.directed,
            "workloads": {},
        }
        if name in pair_jobs:
            entry["workloads"]["single_pair"] = bench_single_pair(
                graph, pairs if not args.quick else pairs[:3], repeats,
                configs=pair_jobs[name])
        if name == "GQ":
            # Serving demo on a derived-path method (ParSim answers every
            # kind from a full pass), so the four same-source queries of
            # each user coalesce into one vectorized pass.
            entry["workloads"]["serving"] = bench_serving(
                graph, "parsim", {"iterations": 10}, repeats)
            # PR 6: deadline checkpoints must be free when no budget is set
            # and near-free (<2%) under an unexpired one.
            entry["workloads"]["deadline_overhead"] = bench_deadline_overhead(
                graph, "parsim", {"iterations": 10},
                repeats if args.quick else 9)
            # PR 8: supervised worker pool — scaling, shared-memory index
            # segments, overload shedding.
            entry["workloads"]["worker_scaling"] = bench_worker_scaling(
                graph, repeats, args.quick)
            # PR 10: explicit shared-memory graph segments — per-worker
            # private RSS A/B, bit-identity, unlink-on-drain.
            entry["workloads"]["shared_segment"] = bench_shared_segment(
                graph, args.quick)
        top_k_section = {}
        for (dataset, method), config in top_k_jobs.items():
            if dataset != name:
                continue
            sources = [3, 57, 211] if not args.quick else [3, 57]
            top_k_section[method] = bench_native_top_k(
                graph, method, config, sources, 10, repeats)
        if top_k_section:
            entry["workloads"]["native_top_k"] = top_k_section
        report["datasets"][name] = entry
        print(f"[{name}] done", file=sys.stderr)

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
