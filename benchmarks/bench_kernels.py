"""Micro-benchmarks of the vectorized CSR frontier kernels.

Measures the two hot kernels — :func:`repro.kernels.push_frontier` (one
hop-PPR push level) and :func:`repro.kernels.propagate_distribution` (one
Algorithm 3 reverse-walk step) — plus the end-to-end push, on the GQ (small)
and DB (large) datasets, with the dict-based reference loops timed alongside
for the speedup ratio.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py --benchmark-only

or regenerate the committed perf baseline ``BENCH_kernels.json``::

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import os
import sys

import numpy as np
import pytest

# The sequential reference paths are the test suite's executable specs
# (tests/specs/); put tests/ on the path however this file is run.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from repro.graph.datasets import load_dataset
from repro.kernels.frontier import propagate_distribution, push_frontier
from repro.kernels.sparsevec import SparseVector
from repro.ppr.push import forward_push_hop_ppr, forward_push_hop_ppr_batch
from specs.frontier import (
    _reference_forward_push_hop_ppr,
    _reference_propagate_distribution,
    _reference_push_frontier,
)

DECAY = 0.6
SQRT_C = float(np.sqrt(DECAY))
R_MAX = 1e-5
WARM_LEVELS = 3


@pytest.fixture(scope="module")
def small_graph():
    return load_dataset("GQ")


@pytest.fixture(scope="module")
def large_graph():
    return load_dataset("DB")


def _warm_frontier(graph) -> SparseVector:
    """A realistic mid-push frontier: a few levels out from the top hub."""
    frontier = SparseVector(
        np.array([int(np.argmax(graph.in_degrees))], dtype=np.int64),
        np.array([1.0], dtype=np.float64))
    for _ in range(WARM_LEVELS):
        step = push_frontier(graph.in_indptr, graph.in_indices, frontier,
                             r_max=R_MAX, sqrt_c=SQRT_C,
                             num_nodes=graph.num_nodes)
        frontier = step.frontier
    return frontier


# --------------------------------------------------------------------------- #
# push_frontier — one level
# --------------------------------------------------------------------------- #
def test_push_frontier_small(benchmark, small_graph):
    frontier = _warm_frontier(small_graph)
    benchmark(push_frontier, small_graph.in_indptr, small_graph.in_indices,
              frontier, r_max=R_MAX, sqrt_c=SQRT_C,
              num_nodes=small_graph.num_nodes)


def test_push_frontier_large(benchmark, large_graph):
    frontier = _warm_frontier(large_graph)
    benchmark(push_frontier, large_graph.in_indptr, large_graph.in_indices,
              frontier, r_max=R_MAX, sqrt_c=SQRT_C,
              num_nodes=large_graph.num_nodes)


def test_push_frontier_reference_small(benchmark, small_graph):
    frontier = _warm_frontier(small_graph).to_dict()
    benchmark(_reference_push_frontier, small_graph, frontier,
              r_max=R_MAX, sqrt_c=SQRT_C)


def test_push_frontier_reference_large(benchmark, large_graph):
    frontier = _warm_frontier(large_graph).to_dict()
    benchmark(_reference_push_frontier, large_graph, frontier,
              r_max=R_MAX, sqrt_c=SQRT_C)


# --------------------------------------------------------------------------- #
# propagate_distribution — one Algorithm 3 step
# --------------------------------------------------------------------------- #
def test_propagate_distribution_small(benchmark, small_graph):
    frontier = _warm_frontier(small_graph)
    benchmark(propagate_distribution, small_graph.in_indptr,
              small_graph.in_indices, frontier, num_nodes=small_graph.num_nodes)


def test_propagate_distribution_large(benchmark, large_graph):
    frontier = _warm_frontier(large_graph)
    benchmark(propagate_distribution, large_graph.in_indptr,
              large_graph.in_indices, frontier, num_nodes=large_graph.num_nodes)


def test_propagate_distribution_reference_small(benchmark, small_graph):
    frontier = _warm_frontier(small_graph).to_dict()
    benchmark(_reference_propagate_distribution, small_graph, frontier)


def test_propagate_distribution_reference_large(benchmark, large_graph):
    frontier = _warm_frontier(large_graph).to_dict()
    benchmark(_reference_propagate_distribution, large_graph, frontier)


# --------------------------------------------------------------------------- #
# end-to-end push: single source and batched multi-source
# --------------------------------------------------------------------------- #
def test_forward_push_small(benchmark, small_graph):
    source = int(np.argmax(small_graph.in_degrees))
    benchmark(forward_push_hop_ppr, small_graph, source, 20, R_MAX, decay=DECAY)


def test_forward_push_large(benchmark, large_graph):
    source = int(np.argmax(large_graph.in_degrees))
    benchmark(forward_push_hop_ppr, large_graph, source, 20, R_MAX, decay=DECAY)


def test_forward_push_batch_large(benchmark, large_graph):
    sources = np.argsort(-large_graph.in_degrees)[:16].tolist()
    benchmark(forward_push_hop_ppr_batch, large_graph, sources, 20, R_MAX,
              decay=DECAY)


# --------------------------------------------------------------------------- #
# standalone baseline recorder
# --------------------------------------------------------------------------- #
def _time(callable_, *args, repeats=5, **kwargs):
    import time
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------------- #
# thread scaling: column-blocked spmm and chunked pair walks
# --------------------------------------------------------------------------- #
THREAD_GRID = (1, 2, 4)
LANES = 128
SCALING_SEED = 2020


def _dense_lane_inputs(graph, num_lanes=LANES):
    from repro.graph.context import GraphContext

    matrix = GraphContext.shared(graph).operator(DECAY).matrix
    rng = np.random.default_rng(SCALING_SEED)
    state = rng.random((graph.num_nodes, num_lanes))
    return matrix, state


def _at_threads(threads, fn):
    from repro.kernels import parallel

    saved = parallel.set_num_threads(threads)
    try:
        return fn()
    finally:
        parallel.set_num_threads(saved)


def record_thread_scaling(quick=False):
    """The multicore record: column-blocked spmm and chunked pair walks.

    Every dense-lane measurement first *asserts* bitwise equality against
    the serial product, and the pair-walk entry asserts equal meet counts
    at 1 and 4 threads — the determinism contract of
    :mod:`repro.kernels.parallel` is part of what this bench certifies, not
    an assumption.  ``cpu_count`` rides in the record because the speedup
    claim is conditional on cores existing: on a 1-core runner the honest
    measured ratio is ~1x (thread overhead, no parallel hardware) and the
    acceptance target must be re-checked on a >=4-core machine, not
    asserted from this file.
    """
    import os

    from repro.kernels import parallel
    from repro.randomwalk.engine import SqrtCWalkEngine

    datasets = ("GQ", "DB") if quick else ("GQ", "DB", "IT")
    repeats = 2 if quick else 5
    section = {
        "cpu_count": os.cpu_count(),
        "configured_threads": parallel.get_num_threads(),
        "lanes": LANES,
        "acceptance": {
            "target": "dense_lane speedup >= 2.0 at 4 threads on IT",
            "requires_cores": 4,
            "met_on_this_machine": None,   # filled below when measurable
        },
        "datasets": {},
    }
    for key in datasets:
        graph = load_dataset(key)
        matrix, state = _dense_lane_inputs(graph)
        serial = matrix @ state
        work = int(matrix.nnz) * state.shape[1]
        serial_s = _time(lambda: matrix @ state, repeats=repeats)
        per_threads = {}
        for threads in THREAD_GRID:
            out = parallel.parallel_spmm(matrix, state, threads=threads)
            assert np.array_equal(out, serial), (
                f"{key}: dense-lane output diverged at {threads} threads")
            spmm_s = _time(parallel.parallel_spmm, matrix, state,
                           threads=threads, repeats=repeats)
            per_threads[str(threads)] = {
                "seconds": spmm_s,
                "speedup_vs_serial": (serial_s / spmm_s if spmm_s > 0
                                      else float("inf")),
            }
        # Chunked pair walks draw the same sample at every thread count.
        nodes = np.flatnonzero(graph.in_degrees > 1).astype(np.int64)
        pairs = np.full(nodes.size, 50, dtype=np.int64)

        def _pair_walks():
            return SqrtCWalkEngine(graph, DECAY, seed=SCALING_SEED) \
                .pair_meet_counts(nodes, pairs)

        walk, met = {}, {}
        for threads in (1, 4):
            walk_s = _at_threads(threads, lambda: _time(_pair_walks,
                                                        repeats=repeats))
            met[threads] = _at_threads(threads, _pair_walks)
            walk[str(threads)] = {"seconds": walk_s,
                                  "met_pairs": int(met[threads].sum()),
                                  "total_pairs": int(pairs.sum())}
        assert np.array_equal(met[1], met[4]), (
            f"{key}: pair walk meet counts differ between 1 and 4 threads")
        section["datasets"][key] = {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "spmm_nnz": int(matrix.nnz),
            # The auto heuristic only engages above MIN_PARALLEL_WORK; a
            # small graph staying serial is the designed anti-target, not
            # a missed speedup.
            "parallel_engaged": bool(work >= parallel.MIN_PARALLEL_WORK),
            "dense_lane": {"serial_s": serial_s, "threads": per_threads},
            "pair_walks": walk,
        }
    cores = os.cpu_count() or 1
    if "IT" in section["datasets"] and cores >= 4:
        measured = section["datasets"]["IT"]["dense_lane"]["threads"]["4"]
        section["acceptance"]["met_on_this_machine"] = (
            measured["speedup_vs_serial"] >= 2.0)
    return section


def parallel_smoke():
    """CI smoke: both threaded kernel paths must not depend on the thread count.

    Propagates a 64-column dense state four levels through
    ``parallel_spmm`` with parallelism forced on (``MIN_PARALLEL_WORK`` = 1,
    so the column blocks engage at any thread count above one), and runs a
    DB pair walk of more than ``2 * PAIR_CHUNK`` pairs (at least three
    chunks) whose origins carry Algorithm 3's per-origin non-stop prefixes
    (origin position mod 8 steps, so the tails' path runs, ℓ = 0
    included).  Each runs once at the *environment-configured* thread count
    (``REPRO_NUM_THREADS``) and once at a forced 4 threads; the smoke
    asserts the two agree (and the products equal the serial chain), then
    prints one crc32 over the configured-thread outputs.  The CI job runs
    this twice — ``REPRO_NUM_THREADS=1`` and ``=4`` — and diffs the checksum
    lines: a column block or a chunk stream that changes any bit breaks it.
    """
    import zlib

    from repro.kernels import parallel
    from repro.randomwalk.aggregate import PAIR_CHUNK
    from repro.randomwalk.engine import SqrtCWalkEngine

    graph = load_dataset("DB")
    matrix, state = _dense_lane_inputs(graph, num_lanes=64)

    def _propagate(**kwargs):
        current = state
        for _ in range(4):
            current = SQRT_C * parallel.parallel_spmm(matrix, current, **kwargs)
        return current

    nodes = np.flatnonzero(graph.in_degrees > 1).astype(np.int64)
    pairs = np.full(nodes.size, 2 * PAIR_CHUNK // nodes.size + 1,
                    dtype=np.int64)
    skips = np.arange(nodes.size, dtype=np.int64) % 8

    def _pair_walks():
        return SqrtCWalkEngine(graph, DECAY, seed=SCALING_SEED) \
            .pair_meet_counts(nodes, pairs, skip_steps=skips)

    serial = _propagate(threads=1)
    saved = parallel.MIN_PARALLEL_WORK
    parallel.MIN_PARALLEL_WORK = 1
    try:
        configured = _propagate()
        forced = _at_threads(4, lambda: _propagate(threads=4))
    finally:
        parallel.MIN_PARALLEL_WORK = saved
    for label, result in (("configured", configured), ("forced-4", forced)):
        if not np.array_equal(serial, result):
            raise SystemExit(
                f"parallel-smoke FAILED: column-blocked spmm diverged "
                f"({label} threads)")
    met = _pair_walks()
    if not np.array_equal(met, _at_threads(4, _pair_walks)):
        raise SystemExit("parallel-smoke FAILED: pair walk meet counts "
                         "differ between the configured and 4 threads")
    crc = zlib.crc32(np.ascontiguousarray(configured).tobytes())
    crc = zlib.crc32(np.ascontiguousarray(met).tobytes(), crc)
    print(f"parallel-smoke ok threads={parallel.get_num_threads()} "
          f"pairs={int(pairs.sum())} crc32=0x{crc:08x}")


def record_baseline(path="BENCH_kernels.json"):
    """Measure kernel-vs-reference timings and write the perf baseline JSON."""
    import json
    import platform

    payload = {"description": "Frontier-kernel perf baseline: dict-based "
                              "reference ('before') vs vectorized CSR kernels "
                              "('after'), best of 5, seconds; plus the "
                              "multicore thread-scaling record (see "
                              "thread_scaling.acceptance).",
               "python": platform.python_version(),
               "datasets": {}}
    for key in ("GQ", "DB"):
        graph = load_dataset(key)
        frontier = _warm_frontier(graph)
        frontier_dict = frontier.to_dict()
        source = int(np.argmax(graph.in_degrees))
        before_push = _time(_reference_push_frontier, graph, frontier_dict,
                            r_max=R_MAX, sqrt_c=SQRT_C)
        after_push = _time(push_frontier, graph.in_indptr, graph.in_indices,
                           frontier, r_max=R_MAX, sqrt_c=SQRT_C,
                           num_nodes=graph.num_nodes)
        before_prop = _time(_reference_propagate_distribution, graph, frontier_dict)
        after_prop = _time(propagate_distribution, graph.in_indptr,
                           graph.in_indices, frontier, num_nodes=graph.num_nodes)
        before_full = _time(_reference_forward_push_hop_ppr, graph, source, 20,
                            R_MAX, decay=DECAY, repeats=3)
        after_full = _time(forward_push_hop_ppr, graph, source, 20, R_MAX,
                           decay=DECAY, repeats=3)
        payload["datasets"][key] = {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "frontier_nnz": frontier.nnz,
            "push_frontier": {"before_s": before_push, "after_s": after_push,
                              "speedup": before_push / after_push},
            "propagate_distribution": {"before_s": before_prop,
                                       "after_s": after_prop,
                                       "speedup": before_prop / after_prop},
            "forward_push_hop_ppr": {"before_s": before_full,
                                     "after_s": after_full,
                                     "speedup": before_full / after_full},
        }
    payload["thread_scaling"] = record_thread_scaling()
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    return payload


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI parallel-smoke: assert thread-count "
                             "invariance of the column-blocked spmm and the "
                             "chunked pair walks and print a stable checksum "
                             "line instead of regenerating the baseline")
    args = parser.parse_args()
    if args.quick:
        parallel_smoke()
        raise SystemExit(0)
    results = record_baseline()
    for key, entry in results["datasets"].items():
        for kernel in ("push_frontier", "propagate_distribution",
                       "forward_push_hop_ppr"):
            stats = entry[kernel]
            print(f"{key} {kernel}: {stats['before_s']*1e3:.3f} ms -> "
                  f"{stats['after_s']*1e3:.3f} ms  ({stats['speedup']:.1f}x)")
    for key, entry in results["thread_scaling"]["datasets"].items():
        lane = entry["dense_lane"]
        line = " ".join(
            f"{threads}t={stats['speedup_vs_serial']:.2f}x"
            for threads, stats in lane["threads"].items())
        label = ("parallel" if entry["parallel_engaged"]
                 else "serial anti-target")
        print(f"{key} dense_lane ({label}): {line}")
