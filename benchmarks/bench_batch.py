"""Benchmark: batched vs sequential ExactSim queries (the PR-2 batch path).

Measures, on the registered benchmark graphs, the wall-clock time of

* ``sequential`` — one :meth:`ExactSim.single_source` call (a batch of one)
  per source: every query pays its own hop-PPR propagation and
  back-substitution passes, and
* ``batched`` — one :meth:`ExactSim.single_source_batch` call for all
  sources (phase 1 through the shared-CSR batched push kernel, phase 3
  through ``Pᵀ @ S`` sparse-times-dense products),

with identical configurations and fresh engines per measurement so the RNG
stream never leaks between variants.  The committed perf baseline is
``BENCH_batch.json``::

    PYTHONPATH=src python benchmarks/bench_batch.py           # full (best of 3)
    PYTHONPATH=src python benchmarks/bench_batch.py --quick   # CI smoke (1 round)

Two ratios are recorded per (dataset, workload):

* ``end_to_end`` — full query time including the diagonal sampling phase,
  which batching deliberately does not touch (it is the per-source RNG
  stream).  This is the honest serving-throughput gain; it is bounded by the
  sampling fraction of the workload.
* ``propagation`` — phases 1 + 3 only (hop-PPR propagation and
  back-substitution), the parts the batch path actually vectorizes.  This
  isolates the shared-CSR push + ``Pᵀ @ S`` matrix-product win.

Both a sampling-bound workload (tight ε, large walk budget) and a
propagation-bound one (coarse ε, small budget — the high-throughput serving
regime) are measured.
"""

import json
import platform
import sys
import time

import numpy as np

from repro.core.config import ExactSimConfig
from repro.core.exactsim import ExactSim
from repro.graph.datasets import load_dataset
from repro.ppr.hop_ppr import hop_ppr_vectors
from repro.ppr.push import forward_push_hop_ppr_batch

DECAY = 0.6
SEED = 2020

#: (name, epsilon, max_total_samples, batch_size)
WORKLOADS = (
    ("sampling_bound", 1e-2, 20_000, 8),
    ("propagation_bound", 5e-2, 5_000, 16),
)


def _sources(graph, count):
    eligible = np.flatnonzero(graph.in_degrees > 0)
    rng = np.random.default_rng(SEED)
    return sorted(int(s) for s in rng.choice(eligible, size=count, replace=False))


def _config(epsilon, cap):
    return ExactSimConfig(epsilon=epsilon, decay=DECAY, seed=SEED,
                          max_total_samples=cap)


def _best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_workload(graph, epsilon, cap, batch_size, repeats):
    sources = _sources(graph, batch_size)

    def sequential():
        engine = ExactSim(graph, _config(epsilon, cap))
        for source in sources:
            engine.single_source(source)

    def batched():
        ExactSim(graph, _config(epsilon, cap)).single_source_batch(sources)

    # Propagation-only: the phases the batch path vectorizes, with the
    # diagonal fixed so no sampling runs.
    engine = ExactSim(graph, _config(epsilon, cap))
    config = engine.config
    iterations = config.num_iterations()
    diagonal = np.full(graph.num_nodes, 1.0 - DECAY)

    def propagation_sequential():
        for source in sources:
            hop_ppr = hop_ppr_vectors(
                graph, source, iterations, decay=DECAY,
                truncation_threshold=config.truncation_threshold(),
                operator=engine._operator)
            engine._back_substitute_batch([hop_ppr], [diagonal])

    def propagation_batched():
        pushes = forward_push_hop_ppr_batch(
            graph, sources, iterations, config.truncation_threshold(),
            decay=DECAY)
        hop_pprs = [engine._hop_ppr_from_push(push, iterations) for push in pushes]
        engine._back_substitute_batch(hop_pprs, [diagonal] * len(sources))

    sequential_s = _best(sequential, repeats)
    batched_s = _best(batched, repeats)
    prop_sequential_s = _best(propagation_sequential, repeats)
    prop_batched_s = _best(propagation_batched, repeats)
    return {
        "epsilon": epsilon, "max_total_samples": cap, "batch_size": batch_size,
        "end_to_end": {"sequential_s": sequential_s, "batched_s": batched_s,
                       "speedup": sequential_s / batched_s},
        "propagation": {"sequential_s": prop_sequential_s,
                        "batched_s": prop_batched_s,
                        "speedup": prop_sequential_s / prop_batched_s},
    }


def record_baseline(path="BENCH_batch.json", *, repeats=3,
                    datasets=("GQ", "DB", "IT")):
    """Measure sequential vs batched query time and write the baseline JSON."""
    payload = {
        "description": "Batched vs sequential ExactSim queries: end-to-end "
                       "(includes the non-batched sampling phase) and "
                       "propagation-only (batched push + Pᵀ@S back-"
                       f"substitution), best of {repeats}, seconds.",
        "python": platform.python_version(),
        "decay": DECAY,
        "seed": SEED,
        "datasets": {},
    }
    for key in datasets:
        graph = load_dataset(key)
        entry = {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges,
                 "workloads": {}}
        for name, epsilon, cap, batch_size in WORKLOADS:
            entry["workloads"][name] = _measure_workload(
                graph, epsilon, cap, batch_size, repeats)
        payload["datasets"][key] = entry
    if path is not None:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
    return payload


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    results = record_baseline(path=None if quick else "BENCH_batch.json",
                              repeats=1 if quick else 3,
                              datasets=("DB",) if quick else ("GQ", "DB", "IT"))
    slow = False
    for key, entry in results["datasets"].items():
        for name, workload in entry["workloads"].items():
            end_to_end = workload["end_to_end"]
            propagation = workload["propagation"]
            print(f"{key} {name}: end-to-end "
                  f"{end_to_end['sequential_s']*1e3:.1f} -> "
                  f"{end_to_end['batched_s']*1e3:.1f} ms "
                  f"({end_to_end['speedup']:.2f}x), propagation "
                  f"{propagation['sequential_s']*1e3:.1f} -> "
                  f"{propagation['batched_s']*1e3:.1f} ms "
                  f"({propagation['speedup']:.2f}x)")
            slow = slow or end_to_end["speedup"] < 1.0
    if quick and slow:
        print("warning: batched path slower than sequential", file=sys.stderr)
