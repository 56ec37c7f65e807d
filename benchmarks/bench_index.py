"""Benchmark: batched index construction vs the sequential reference paths.

Index *construction* is a batched operation: PRSim's hub index builds all
hubs' reverse hop vectors level-synchronously as the columns of one dense
state (one ``parallel_spmm`` product per level), the Algorithm 3
heavy-node explorations interleave over shared levels with one
multi-propagation prefetch and one fused Lemma 4 scatter per level
(:func:`repro.diagonal.local._exploit_deterministic_batch`), and the
SLING / Linearization query paths answer whole batches with one
sparse-times-dense product per level.  This bench times each against its
preserved sequential reference — two live code paths, pinned to each other
by ``tests/test_multiprop.py`` — and records the committed baseline
``BENCH_index.json``::

    PYTHONPATH=src python benchmarks/bench_index.py           # full (best of 2)
    PYTHONPATH=src python benchmarks/bench_index.py --quick   # CI smoke

Three workloads per dataset:

* ``prsim_hub_vectors`` — the hub half of ``PRSim._build_index``: the
  per-hub sequential frontier walk (:func:`specs.probes.
  build_hub_vectors_reference`) vs the dense batched build.  Compared in
  the flat file layout of ``PRSim._index_payload()``: identical supports,
  values ≤ 1e-12, and a bit-identical payload round trip (asserted).
* ``heavy_node_exploit`` — the deterministic heavy-node phase of
  ``estimate_diagonal_local_batch``: a shared-cache loop of the paper's
  fetch-by-fetch recursion
  (:func:`specs.algorithm3.exploit_deterministic_reference`) vs the
  level-synchronous batch, which decides ℓ(k) once per level.  ℓ(k) and
  the deterministic mass are pinned identical (``==``) inside the
  measurement.
* ``batched_queries`` — SLING and Linearization ``single_source_batch`` vs a
  loop of ``single_source`` (bit-identical scores by construction).

Expected regimes (measured, recorded honestly in the baseline): the heavy
node batch wins ≥2× where reachable sets stay narrow relative to the graph
(the directed large graphs IC/IT/TW); on the small undirected collab graphs
and DB the shared-cache sequential path is already near work-optimal and the
win saturates around 1.3-1.6×.  The committed baseline records both budget
depths: in the *exhaustion-bound* corner (small budgets on high-degree
undirected hubs, e.g. DB at R(k)=512) the batch it was recorded with, which
replayed the sequential charge order fetch by fetch, lost outright (~0.7×).
The batch now decides each level before materialising it and never
propagates a level it abandons.
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

from repro.algorithms import registry
from repro.baselines.prsim import PRSim
from repro.diagonal.local import DistributionCache, _exploit_deterministic_batch
from repro.graph.datasets import load_dataset
from specs.algorithm3 import ReferenceCache, exploit_deterministic_reference
from specs.probes import build_hub_vectors_reference

DECAY = 0.6
SEED = 2020


def _best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _prsim_hub_vectors_workload(graph, epsilon, hub_fraction, repeats):
    prsim = PRSim(graph, epsilon=epsilon, hub_fraction=hub_fraction,
                  seed=SEED).preprocess()
    iterations = prsim.num_iterations()
    threshold = (1.0 - prsim._operator.sqrt_c) ** 2 * epsilon
    hubs = prsim._hubs

    reference = _best(
        lambda: build_hub_vectors_reference(prsim, hubs, iterations, threshold),
        repeats)
    batched = _best(
        lambda: prsim._build_hub_vectors(hubs, iterations, threshold), repeats)
    # Compare in the flat file layout: the per-level CSR index read back
    # through _index_payload(), and that payload's round trip.
    sequential_flat = build_hub_vectors_reference(prsim, hubs, iterations,
                                                  threshold)
    payload = prsim._index_payload()
    batched_flat = tuple(payload[key] for key in (
        "hub_positions", "hub_levels", "hub_cols", "hub_vals"))
    supports_equal = all(np.array_equal(a, b) for a, b in
                         zip(sequential_flat[:3], batched_flat[:3]))
    value_gap = float(np.max(np.abs(sequential_flat[3] - batched_flat[3]))) \
        if supports_equal and sequential_flat[3].size else float("nan")
    restored = PRSim(graph, epsilon=epsilon, hub_fraction=hub_fraction,
                     seed=SEED)
    restored._restore_index(payload)
    round_trip = restored._index_payload()
    round_trip_equal = all(np.array_equal(round_trip[key], array)
                           for key, array in payload.items())
    assert supports_equal, "hub index supports drifted from the per-hub walk"
    assert not value_gap > 1e-12, f"hub index values drifted by {value_gap}"
    assert round_trip_equal, "hub index payload does not round-trip"
    return {"reference_s": reference, "batched_s": batched,
            "speedup": reference / batched, "num_hubs": int(hubs.shape[0]),
            "iterations": int(iterations), "epsilon": epsilon,
            "supports_equal": supports_equal, "max_value_gap": value_gap,
            "round_trip_equal": round_trip_equal}


def _heavy_node_workload(graph, num_pairs, num_nodes, repeats):
    heavy = np.argsort(-graph.in_degrees)[:2 * num_nodes]
    heavy = heavy[graph.in_degrees[heavy] > 1][:num_nodes]
    requests = [(int(node), num_pairs) for node in heavy]

    def reference():
        cache = ReferenceCache(graph)
        return [exploit_deterministic_reference(graph, node, pairs,
                                                decay=DECAY, max_level=20,
                                                cache=cache)
                for node, pairs in requests]

    def batched():
        return _exploit_deterministic_batch(graph, DistributionCache(graph),
                                            requests, decay=DECAY,
                                            max_level=20)

    sequential_out = reference()
    batched_out = batched()
    assert sequential_out == batched_out, "ℓ(k)/mass drifted"
    reference_s = _best(reference, repeats)
    batched_s = _best(batched, repeats)
    return {"reference_s": reference_s, "batched_s": batched_s,
            "speedup": reference_s / batched_s, "num_pairs": num_pairs,
            "heavy_nodes": int(len(requests))}


def _batched_query_workload(graph, batch_size, repeats):
    rng = np.random.default_rng(SEED)
    eligible = np.flatnonzero(graph.in_degrees > 0)
    sources = sorted(int(s) for s in rng.choice(
        eligible, size=min(batch_size, eligible.shape[0]), replace=False))
    entry = {"batch_size": len(sources)}
    for name, config in (("sling", {"epsilon": 1e-1, "seed": SEED}),
                         ("linearization", {"samples_per_node": 50,
                                            "seed": SEED})):
        algorithm = registry.create(name, graph, config).preprocess()
        looped = _best(lambda: [algorithm.single_source(s) for s in sources],
                       repeats)
        batched = _best(lambda: algorithm.single_source_batch(sources),
                        repeats)
        entry[name] = {"looped_s": looped, "batched_s": batched,
                       "speedup": looped / batched}
    return entry


def record_baseline(path="BENCH_index.json", *, repeats=2,
                    datasets=("GQ", "DB", "IT", "IC", "TW"), quick=False):
    """Measure batched vs sequential index construction; write the baseline."""
    scale = 0.25 if quick else 1.0
    payload = {
        "description": "Batched index construction vs sequential reference "
                       "paths: PRSim hub vectors (dense lane engine), the "
                       "Algorithm 3 heavy-node batch, and SLING/Linearization "
                       f"batched queries, best of {repeats}, seconds.",
        "python": platform.python_version(),
        "decay": DECAY,
        "seed": SEED,
        "datasets": {},
    }
    for key in datasets:
        graph = load_dataset(key)
        hub_fraction = 0.1 * scale if quick else 0.1
        entry = {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "directed": bool(graph.directed),
            "workloads": {
                "prsim_hub_vectors": _prsim_hub_vectors_workload(
                    graph, 1e-2, hub_fraction, repeats),
                "heavy_node_exploit_shallow": _heavy_node_workload(
                    graph, 512, max(20, int(150 * scale)), repeats),
                "heavy_node_exploit_deep": _heavy_node_workload(
                    graph, int(4096 * (scale if quick else 1.0)),
                    max(20, int(150 * scale)), repeats),
                "batched_queries": _batched_query_workload(
                    graph, 8, repeats),
            },
        }
        payload["datasets"][key] = entry
    if path is not None:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
    return payload


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    results = record_baseline(path=None if quick else "BENCH_index.json",
                              repeats=1 if quick else 2,
                              datasets=("GQ",) if quick else
                              ("GQ", "DB", "IT", "IC", "TW"),
                              quick=quick)
    for key, entry in results["datasets"].items():
        workloads = entry["workloads"]
        for name in ("prsim_hub_vectors", "heavy_node_exploit_shallow",
                     "heavy_node_exploit_deep"):
            workload = workloads[name]
            print(f"{key} {name}: {workload['reference_s']*1e3:.1f} -> "
                  f"{workload['batched_s']*1e3:.1f} ms "
                  f"({workload['speedup']:.2f}x)")
        for method in ("sling", "linearization"):
            query = workloads["batched_queries"][method]
            print(f"{key} {method} batch: {query['looped_s']*1e3:.1f} -> "
                  f"{query['batched_s']*1e3:.1f} ms "
                  f"({query['speedup']:.2f}x)")
