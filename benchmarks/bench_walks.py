"""Benchmark: compacted/count-aggregated walk substrate vs the reference engine.

Measures, on the registered benchmark graphs, the wall-clock time of the
Monte-Carlo sampling primitives on

* ``reference`` — the pre-compaction full-width engine
  (:class:`specs.walks.ReferenceWalkEngine`): every step pays
  O(batch width) regardless of how many walks are alive, and walk pairs are
  advanced one array slot per pair, and
* ``aggregated`` — the production :class:`repro.randomwalk.engine.
  SqrtCWalkEngine`: alive compaction for trajectory recording, count
  aggregation (binomial thinning + degree-grouped multinomial splits) for
  visit counts and pair meetings,

with fresh engines per measurement so the RNG stream never leaks between
variants.  The committed perf baseline is ``BENCH_walks.json``::

    PYTHONPATH=src python benchmarks/bench_walks.py           # full (best of 3)
    PYTHONPATH=src python benchmarks/bench_walks.py --quick   # CI smoke (1 round)

Four workloads per dataset:

* ``visit_counts`` — single-source, high walk count: the ProbeSim sampling
  phase and ExactSim's visit-distribution regime.  This is where count
  aggregation is decisive (cost bounded by distinct occupied nodes).
* ``pair_meetings`` — one heavy node's Algorithm 2/3 pair budget (ExactSim's
  single-source sampling phase).
* ``allocation`` — a realistic ExactSim phase-2 allocation (Lemma 3 squared
  weights over a real hop-PPR vector) simulated in full: the per-node pair
  budgets of the whole allocation in one call.
* ``mc_index`` — the MC baseline's walk-store build (trajectories needed, so
  compaction only).

``exactsim_batch`` additionally records the end-to-end batched
``single_source_batch`` wall-clock on the new substrate so the running
history in BENCH_batch.json stays comparable.
"""

import json
import os
import platform
import sys
import time

import numpy as np

# The sequential reference paths are the test suite's executable specs
# (tests/specs/); put tests/ on the path however this file is run.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from repro.core.config import ExactSimConfig
from repro.core.exactsim import ExactSim
from repro.core.sampling import allocate_squared, total_sample_budget
from repro.graph.datasets import load_dataset
from repro.ppr.hop_ppr import hop_ppr_vectors
from repro.randomwalk.engine import SqrtCWalkEngine
from specs.walks import ReferenceWalkEngine

DECAY = 0.6
SEED = 2020
MAX_STEPS = 64


def _best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _speed(reference_fn, aggregated_fn, repeats):
    reference_s = _best(reference_fn, repeats)
    aggregated_s = _best(aggregated_fn, repeats)
    return {"reference_s": reference_s, "aggregated_s": aggregated_s,
            "speedup": reference_s / aggregated_s}


def _visit_counts_workload(graph, num_walks, repeats):
    source = int(np.argmax(graph.in_degrees))

    def reference():
        engine = ReferenceWalkEngine(graph, DECAY, seed=SEED)
        batch = engine.walks_from(source, num_walks, max_steps=32)
        for step in range(batch.max_steps + 1):
            row = batch.positions[step]
            row = row[row >= 0]
            if row.size == 0:
                break
            np.bincount(row, minlength=graph.num_nodes)

    def aggregated():
        engine = SqrtCWalkEngine(graph, DECAY, seed=SEED)
        engine.visit_count_steps(np.array([source], dtype=np.int64),
                                 np.array([num_walks], dtype=np.int64),
                                 max_steps=32)

    entry = _speed(reference, aggregated, repeats)
    entry.update({"source": source, "num_walks": num_walks, "max_steps": 32})
    return entry


def _pair_meetings_workload(graph, num_pairs, repeats):
    node = int(np.argmax(graph.in_degrees))

    def reference():
        ReferenceWalkEngine(graph, DECAY, seed=SEED).pair_meet_counts(
            np.array([node], dtype=np.int64),
            np.array([num_pairs], dtype=np.int64), max_steps=MAX_STEPS)

    def aggregated():
        SqrtCWalkEngine(graph, DECAY, seed=SEED).pair_meet_counts(
            np.array([node], dtype=np.int64),
            np.array([num_pairs], dtype=np.int64), max_steps=MAX_STEPS)

    entry = _speed(reference, aggregated, repeats)
    entry.update({"node": node, "num_pairs": num_pairs})
    return entry


def _allocation_workload(graph, epsilon, cap, repeats):
    """A real ExactSim phase-2 allocation simulated on both substrates.

    Among a handful of high-degree candidate sources the one whose Lemma 3
    allocation places the most pairs on non-trivial nodes is measured (a
    source whose PPR mass sits on in-degree ≤ 1 nodes samples nothing).
    """
    budget = total_sample_budget(graph.num_nodes, epsilon, decay=DECAY)
    candidates = np.argsort(-graph.in_degrees)[:5]
    source, nodes, counts, realised = 0, None, None, 0
    for candidate in candidates:
        hop_ppr = hop_ppr_vectors(graph, int(candidate), 10, decay=DECAY)
        allocation, _ = allocate_squared(hop_ppr.total, budget, cap=cap)
        sampled = (allocation > 0) & (graph.in_degrees > 1)
        simulated = int(allocation[sampled].sum())
        if simulated > realised:
            source = int(candidate)
            nodes = np.flatnonzero(sampled).astype(np.int64)
            counts = allocation[sampled]
            realised = simulated
    if nodes is None:
        nodes = np.empty(0, dtype=np.int64)
        counts = np.empty(0, dtype=np.int64)

    def reference():
        ReferenceWalkEngine(graph, DECAY, seed=SEED).pair_meet_counts(
            nodes, counts, max_steps=MAX_STEPS)

    def aggregated():
        SqrtCWalkEngine(graph, DECAY, seed=SEED).pair_meet_counts(
            nodes, counts, max_steps=MAX_STEPS)

    entry = _speed(reference, aggregated, repeats)
    entry.update({"epsilon": epsilon, "source": source,
                  "total_pairs": int(realised),
                  "sampled_nodes": int(nodes.shape[0])})
    return entry


def _mc_index_workload(graph, walks_per_node, walk_length, repeats):
    starts = np.arange(graph.num_nodes, dtype=np.int64)

    def reference():
        engine = ReferenceWalkEngine(graph, DECAY, seed=SEED)
        for _ in range(walks_per_node):
            engine.walks_from_nodes(starts, max_steps=walk_length)

    def aggregated():
        engine = SqrtCWalkEngine(graph, DECAY, seed=SEED)
        engine.walks_from_nodes(np.tile(starts, walks_per_node),
                                max_steps=walk_length)

    entry = _speed(reference, aggregated, repeats)
    entry.update({"walks_per_node": walks_per_node, "walk_length": walk_length})
    return entry


def _exactsim_batch_workload(graph, epsilon, cap, batch_size, repeats):
    eligible = np.flatnonzero(graph.in_degrees > 0)
    rng = np.random.default_rng(SEED)
    sources = sorted(int(s) for s in rng.choice(eligible, size=batch_size,
                                                replace=False))
    config = ExactSimConfig(epsilon=epsilon, decay=DECAY, seed=SEED,
                            max_total_samples=cap)

    def batched():
        ExactSim(graph, config).single_source_batch(sources)

    return {"epsilon": epsilon, "max_total_samples": cap,
            "batch_size": batch_size, "batched_s": _best(batched, repeats)}


def record_baseline(path="BENCH_walks.json", *, repeats=3,
                    datasets=("GQ", "DB", "IT"), quick=False):
    """Measure reference vs aggregated sampling and write the baseline JSON."""
    scale = 0.1 if quick else 1.0
    payload = {
        "description": "Compacted/count-aggregated walk substrate vs the "
                       "full-width reference engine: visit counts, pair "
                       "meetings, an ExactSim phase-2 allocation and the MC "
                       f"walk store, best of {repeats}, seconds.",
        "python": platform.python_version(),
        "decay": DECAY,
        "seed": SEED,
        "datasets": {},
    }
    for key in datasets:
        graph = load_dataset(key)
        num_walks = int(2_000_000 * scale) if graph.num_nodes >= 4_000 \
            else int(500_000 * scale)
        entry = {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "workloads": {
                "visit_counts": _visit_counts_workload(graph, num_walks, repeats),
                "pair_meetings": _pair_meetings_workload(
                    graph, int(500_000 * scale), repeats),
                "allocation": _allocation_workload(
                    graph, 1e-2, int(200_000 * scale), repeats),
                "mc_index": _mc_index_workload(
                    graph, max(2, int(20 * scale)), 10, repeats),
            },
            "exactsim_batch": _exactsim_batch_workload(
                graph, 1e-2, int(20_000 * scale), 8, repeats),
        }
        payload["datasets"][key] = entry
    if path is not None:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
    return payload


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    results = record_baseline(path=None if quick else "BENCH_walks.json",
                              repeats=1 if quick else 3,
                              datasets=("DB",) if quick else ("GQ", "DB", "IT"),
                              quick=quick)
    slow = False
    for key, entry in results["datasets"].items():
        for name, workload in entry["workloads"].items():
            print(f"{key} {name}: {workload['reference_s']*1e3:.1f} -> "
                  f"{workload['aggregated_s']*1e3:.1f} ms "
                  f"({workload['speedup']:.2f}x)")
            slow = slow or workload["speedup"] < 1.0
        batch = entry["exactsim_batch"]
        print(f"{key} exactsim batch of {batch['batch_size']}: "
              f"{batch['batched_s']*1e3:.1f} ms end-to-end")
    if quick and slow:
        print("warning: aggregated substrate slower than reference on some "
              "workload", file=sys.stderr)
