"""What the traced run rebinds, and how spans become per-layer metrics.

Layer names follow the package layout: ``service.planner`` /
``service.frontend`` / ``service.workers``, ``core.exactsim``, ``ppr.push``,
``diagonal.local``, ``kernels``, ``baselines`` and ``graph.updates``.

Every per-layer metric is reported on every workload.  A layer a workload
never calls reads 0 there (the README lists which layers each workload
exercises).  Times are per served batch, i.e. per ``QueryPlanner.answer``
call, unless the name says otherwise.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Optional

import numpy as np

from tracing import Target, Tracer

#: Per-layer metrics: name -> unit.  Mirrors ``per_layer`` in BENCHMARK.json.
LAYER_UNITS: Dict[str, str] = {
    "graph.build_s": "s",
    "exactsim.batch_s": "s",
    "exactsim.hop_ppr_s": "s",
    "exactsim.diagonal_s": "s",
    "exactsim.backsub_s": "s",
    "diagonal.walks_s": "s",
    "diagonal.explore_s": "s",
    "diagonal.self_s": "s",
    "exactsim.samples_realised": "count",
    "exactsim.capped_frac": "frac",
    "exactsim.max_abs_error": "abs",
    "kernels.spmm_s": "s",
    "kernels.spmm_calls": "count",
    "kernels.spmm_gbps": "GB/s",
    "kernels.memcpy_gbps": "GB/s",
    "kernels.roofline_frac": "frac",
    "sling.pair_us": "us",
    "sling.topk_us": "us",
    "sling.topk_levels_frac": "frac",
    "sling.max_abs_error": "abs",
    "probesim.pair_us": "us",
    "planner.self_ms": "ms",
    "planner.algo_frac": "frac",
    "planner.cache_hit_ratio": "frac",
    "planner.coalesced_queries": "count",
    "frontend.parse_us": "us",
    "frontend.encode_us": "us",
    "pool.overhead_ms_p50": "ms",
    "pool.queries_per_dispatch": "count",
    "update_p50_ms": "ms",
    "updates.wal_append_ms": "ms",
    "updates.apply_ms": "ms",
    "updates.checkpoint_ms": "ms",
    "updates.compact_ms": "ms",
    "repair.mc_ms": "ms",
    "repair.sling_ms": "ms",
    "repair.prsim_ms": "ms",
    "repair.linearization_ms": "ms",
    "repair.kept_ratio": "frac",
    "repair.ack_frac": "frac",
    "latency_p99_ms": "ms",
    "trace.latency_p50_ms": "ms",
    "trace.overhead_frac": "frac",
}

_ALGO_METHODS = ("single_source_batch", "single_source", "single_pair",
                 "top_k", "ensure_prepared")
ALGO_SPANS = tuple(f"algo.{name}" for name in _ALGO_METHODS)
_WALK_METHODS = ("walks_from", "walks_from_nodes", "terminal_nodes",
                 "visit_count_steps", "estimate_visit_distribution",
                 "pair_meet_counts", "pair_meet_counts_from",
                 "pair_walks_meet", "pair_walks_meet_batch")


def _algo_info(args, _kwargs, result) -> Dict[str, Any]:
    """Method name plus the counts the wire format drops."""
    info: Dict[str, Any] = {"method": getattr(args[0], "name", "?")}
    results = result if isinstance(result, list) else [result]
    stats = [getattr(item, "stats", None) or {} for item in results]
    if any("levels_total" in s for s in stats):
        info["levels_used"] = sum(s.get("levels_used", 0.0) for s in stats)
        info["levels_total"] = sum(s.get("levels_total", 0.0) for s in stats)
    if any("samples_realised" in s for s in stats):
        info["samples_realised"] = [s.get("samples_realised", 0.0) for s in stats]
        info["samples_capped"] = [s.get("samples_capped", 0.0) for s in stats]
    return info


def _spmm_info(args, kwargs, _result) -> Dict[str, Any]:
    """Bytes a CSR x dense product must move: nnz * (8 B value + 4 B index)
    plus the dense input and output, 8 B per entry each."""
    matrix, dense = args[0], args[1] if len(args) > 1 else kwargs["dense"]
    columns = dense.shape[1] if dense.ndim == 2 else 1
    rows_in, rows_out = matrix.shape[1], matrix.shape[0]
    return {"bytes": int(matrix.nnz) * 12 + (rows_in + rows_out) * columns * 8}


def _repair_info(args, _kwargs, result) -> Dict[str, Any]:
    return {"method": getattr(args[0], "name", "?"),
            "strategy": (result or {}).get("strategy")}


def targets() -> List[Target]:
    """Every public name the traced run rebinds."""
    from repro.algorithms import registry
    from repro.baselines.base import SimRankAlgorithm
    from repro.diagonal import local
    from repro.graph.context import GraphContext
    from repro.graph.updates import GraphCheckpoint, UpdateLog
    from repro.kernels import frontier, parallel
    from repro.kernels.multiprop import MultiPropagation
    from repro.ppr import push
    from repro.randomwalk.engine import SqrtCWalkEngine
    from repro.service.planner import QueryPlanner

    found: List[Target] = [
        (QueryPlanner, "answer", "planner.answer", None),
        (push, "forward_push_hop_ppr_batch", "ppr.push", None),
        (local, "estimate_diagonal_local_batch", "diagonal.local", None),
        (parallel, "parallel_spmm", "kernels.spmm", _spmm_info),
        (MultiPropagation, "step", "diagonal.explore", None),
        (frontier, "propagate_distribution", "diagonal.explore", None),
        (SimRankAlgorithm, "repair", "repair", _repair_info),
        (UpdateLog, "append", "updates.wal_append", None),
        (UpdateLog, "compact", "updates.compact", None),
        (GraphContext, "apply_updates", "updates.apply", None),
        (GraphCheckpoint, "save", "updates.checkpoint", None),
    ]
    found += [(SqrtCWalkEngine, name, "diagonal.walks", None)
              for name in _WALK_METHODS if name in SqrtCWalkEngine.__dict__]
    # Importing the registry imports every algorithm class, so walking the
    # subclasses of the base finds every query method a planner can call.
    registry.available()
    for cls in sorted({SimRankAlgorithm} | _algorithm_classes(SimRankAlgorithm),
                      key=lambda c: c.__qualname__):
        found += [(cls, name, f"algo.{name}", _algo_info)
                  for name in _ALGO_METHODS if name in cls.__dict__]
    return found


def _algorithm_classes(base: type) -> set:
    seen, pending = set(), [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                pending.append(sub)
    return seen


def memcpy_gbps(nbytes: int = 64 << 20, repeats: int = 9) -> float:
    """Copy bandwidth of this box: 2 x nbytes moved per copy, median of runs."""
    source = np.ones(nbytes // 8)
    target = np.empty_like(source)
    np.copyto(target, source)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(target, source)
        times.append(time.perf_counter() - start)
    return 2 * nbytes / statistics.median(times) / 1e9


def _mean(values: List[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def layer_metrics(tracer: Tracer, *, planner_stats: Optional[Dict[str, Any]],
                  memcpy: float) -> Dict[str, float]:
    """Per-layer metrics computable from the spans of one traced pass."""
    spans = tracer.spans
    out: Dict[str, float] = {}
    answers = tracer.named("planner.answer")
    answer_s = sum(spans[i].seconds for i in answers)
    algo_s = [tracer.covered(i, ALGO_SPANS) for i in answers]
    out["planner.self_ms"] = _mean([(spans[i].seconds - a) * 1e3
                                    for i, a in zip(answers, algo_s)])
    out["planner.algo_frac"] = sum(algo_s) / answer_s if answer_s else 0.0
    if planner_stats:
        queries = planner_stats.get("queries", 0.0)
        out["planner.cache_hit_ratio"] = (planner_stats.get("cache_routes", 0.0)
                                          / queries if queries else 0.0)
        out["planner.coalesced_queries"] = planner_stats.get("coalesced_queries", 0.0)
    out["frontend.parse_us"] = _mean([spans[i].seconds * 1e6
                                      for i in tracer.named("frontend.parse")])
    out["frontend.encode_us"] = _mean([spans[i].seconds * 1e6
                                       for i in tracer.named("frontend.encode")])

    # core.exactsim / ppr.push / diagonal.local: phase boundaries are the
    # diagonal span; before it is hop-PPR (plus sample allocation), after it
    # back-substitution.
    batches = [i for i in tracer.named("algo.single_source_batch")
               if spans[i].info.get("method") == "exactsim"]
    rows = []
    samples, capped = [], []
    for batch in batches:
        diagonal = tracer.within(batch, ("diagonal.local",))
        if not diagonal:
            continue
        first, last = spans[diagonal[0]], spans[diagonal[-1]]
        walks = sum(tracer.covered(d, ("diagonal.walks",)) for d in diagonal)
        explore = sum(tracer.covered(d, ("diagonal.explore",)) for d in diagonal)
        diag_s = sum(spans[d].seconds for d in diagonal)
        rows.append((spans[batch].seconds, first.start - spans[batch].start,
                     diag_s, spans[batch].end - last.end, walks, explore,
                     diag_s - walks - explore))
        samples += spans[batch].info.get("samples_realised", [])
        capped += spans[batch].info.get("samples_capped", [])
    names = ("exactsim.batch_s", "exactsim.hop_ppr_s", "exactsim.diagonal_s",
             "exactsim.backsub_s", "diagonal.walks_s", "diagonal.explore_s",
             "diagonal.self_s")
    for position, name in enumerate(names):
        out[name] = _mean([row[position] for row in rows])
    out["exactsim.samples_realised"] = _mean(samples)
    out["exactsim.capped_frac"] = _mean(capped)

    # kernels: every parallel_spmm call, per served batch.
    spmm = tracer.named("kernels.spmm")
    spmm_s = sum(spans[i].seconds for i in spmm)
    spmm_bytes = sum(spans[i].info.get("bytes", 0) for i in spmm)
    calls = max(len(answers), 1)
    out["kernels.spmm_s"] = spmm_s / calls
    out["kernels.spmm_calls"] = len(spmm) / calls
    out["kernels.spmm_gbps"] = spmm_bytes / spmm_s / 1e9 if spmm_s else 0.0
    out["kernels.memcpy_gbps"] = memcpy
    out["kernels.roofline_frac"] = out["kernels.spmm_gbps"] / memcpy if memcpy else 0.0

    # baselines
    def algo_us(kind: str, method: str) -> float:
        return _mean([spans[i].seconds * 1e6 for i in tracer.named(f"algo.{kind}")
                      if spans[i].info.get("method") == method])

    out["sling.pair_us"] = algo_us("single_pair", "sling")
    out["sling.topk_us"] = algo_us("top_k", "sling")
    out["probesim.pair_us"] = algo_us("single_pair", "probesim")
    topk = [spans[i].info for i in tracer.named("algo.top_k")
            if spans[i].info.get("method") == "sling"]
    total_levels = sum(info.get("levels_total", 0.0) for info in topk)
    out["sling.topk_levels_frac"] = (sum(info.get("levels_used", 0.0) for info in topk)
                                     / total_levels if total_levels else 0.0)

    # graph.updates / baselines.base: per update acknowledgement.
    acks = tracer.named("update.ack")
    ack_s = sum(spans[i].seconds for i in acks)
    per_ack = max(len(acks), 1)

    def ack_ms(names) -> float:
        return sum(tracer.covered(i, names) for i in acks) * 1e3 / per_ack

    wal_in_apply = sum(tracer.covered(i, ("updates.wal_append",))
                       for i in tracer.named("updates.apply"))
    out["updates.wal_append_ms"] = ack_ms(("updates.wal_append",))
    out["updates.apply_ms"] = ack_ms(("updates.apply",)) - wal_in_apply * 1e3 / per_ack
    out["updates.checkpoint_ms"] = ack_ms(("updates.checkpoint",))
    out["updates.compact_ms"] = ack_ms(("updates.compact",))
    repairs = [i for ack in acks for i in tracer.within(ack, ("repair",))]
    for method in ("mc", "sling", "prsim", "linearization"):
        out[f"repair.{method}_ms"] = sum(
            spans[i].seconds for i in repairs
            if spans[i].info.get("method") == method) * 1e3 / per_ack
    out["repair.kept_ratio"] = (sum(1 for i in repairs
                                    if spans[i].info.get("strategy") == "repair")
                                / len(repairs) if repairs else 0.0)
    out["repair.ack_frac"] = (sum(spans[i].seconds for i in repairs) / ack_s
                              if ack_s else 0.0)
    return out
