"""Typed query model of the serving layer.

The compute substrate answers three query shapes; this module gives each a
first-class request type so callers say *what* they ask and the planner
decides *how* it runs:

* :class:`SingleSourceQuery` — the full score vector S(source, ·);
* :class:`SinglePairQuery` — one entry S(source, target);
* :class:`TopKQuery` — the k nodes most similar to the source.

A query optionally names the ``method`` that should answer it (a registry
name); left ``None``, the planner's default applies.  Batches are plain
sequences of queries — :meth:`repro.service.planner.QueryPlanner.answer`
coalesces them into the vectorized multi-source paths.

The module also carries the wire format of the CLI ``answer`` subcommand:
one JSON object per line, ``{"type": "top_k", "source": 3, "k": 10}``,
parsed by :func:`query_from_dict` and emitted by :func:`result_to_dict`.

Parsing and *validation* are separate steps: :func:`query_from_dict` only
needs the payload to be shaped like a query, while :func:`validate_query`
checks it against a concrete graph (ids in range, ``1 ≤ k ≤ n``, finite
positive ε) and raises :class:`QueryValidationError` — the serving loop
turns that into a structured per-line error instead of dying mid-stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.result import SinglePairResult, SingleSourceResult, TopKResult
from repro.utils.validation import check_integer

#: Wire names of the query kinds (match ``baselines.base.QUERY_KINDS``).
KIND_SINGLE_SOURCE = "single_source"
KIND_SINGLE_PAIR = "single_pair"
KIND_TOP_K = "top_k"


@dataclass(frozen=True)
class SingleSourceQuery:
    """Request for the full single-source score vector of ``source``."""

    source: int
    method: Optional[str] = None
    #: Optional per-query accuracy override (methods with an ε knob).
    epsilon: Optional[float] = None
    kind: str = KIND_SINGLE_SOURCE


@dataclass(frozen=True)
class SinglePairQuery:
    """Request for the one similarity score S(source, target)."""

    source: int
    target: int
    method: Optional[str] = None
    epsilon: Optional[float] = None
    kind: str = KIND_SINGLE_PAIR


@dataclass(frozen=True)
class TopKQuery:
    """Request for the ``k`` nodes most similar to ``source``."""

    source: int
    k: int = 500
    method: Optional[str] = None
    epsilon: Optional[float] = None
    kind: str = KIND_TOP_K


Query = Union[SingleSourceQuery, SinglePairQuery, TopKQuery]
QueryResult = Union[SingleSourceResult, SinglePairResult, TopKResult]

#: Accepted spellings of each query kind on the wire.
_KIND_ALIASES = {
    "single_source": KIND_SINGLE_SOURCE,
    "ss": KIND_SINGLE_SOURCE,
    "single_pair": KIND_SINGLE_PAIR,
    "pair": KIND_SINGLE_PAIR,
    "top_k": KIND_TOP_K,
    "topk": KIND_TOP_K,
}


def query_from_dict(payload: Mapping[str, Any]) -> Query:
    """Parse one wire-format query object.

    Required keys: ``type`` (or ``kind``) and ``source``; ``single_pair``
    additionally needs ``target``; ``top_k`` accepts ``k`` (default 500).
    ``method`` is optional everywhere.
    """
    raw_kind = payload.get("type", payload.get("kind"))
    if raw_kind is None:
        raise ValueError("query object needs a 'type' field")
    kind = _KIND_ALIASES.get(str(raw_kind).lower())
    if kind is None:
        raise ValueError(f"unknown query type {raw_kind!r}; "
                         f"expected one of {sorted(set(_KIND_ALIASES.values()))}")
    if "source" not in payload:
        raise ValueError(f"{kind} query needs a 'source' field")
    source = check_integer(payload["source"], "source")
    method = payload.get("method")
    if method is not None:
        method = str(method)
    epsilon = payload.get("epsilon")
    if epsilon is not None:
        try:
            epsilon = float(epsilon)
        except (TypeError, ValueError):
            raise ValueError(f"'epsilon' must be a number, got {epsilon!r}")
    if kind == KIND_SINGLE_PAIR:
        if "target" not in payload:
            raise ValueError("single_pair query needs a 'target' field")
        return SinglePairQuery(source=source,
                               target=check_integer(payload["target"], "target"),
                               method=method, epsilon=epsilon)
    if kind == KIND_TOP_K:
        return TopKQuery(source=source, k=check_integer(payload.get("k", 500), "k"),
                         method=method, epsilon=epsilon)
    return SingleSourceQuery(source=source, method=method, epsilon=epsilon)


class QueryValidationError(ValueError):
    """A parsed query is invalid against the served graph."""


def validate_query(query: Query, num_nodes: int) -> Query:
    """Check ``query`` against a graph with ``num_nodes`` nodes.

    Raises :class:`QueryValidationError` on out-of-range node ids,
    ``k < 1`` / ``k > num_nodes``, or a non-finite / non-positive ε.
    Returns the query unchanged so call sites can chain.
    """
    if not 0 <= query.source < num_nodes:
        raise QueryValidationError(
            f"source {query.source} out of range for graph with "
            f"{num_nodes} nodes")
    if isinstance(query, SinglePairQuery) \
            and not 0 <= query.target < num_nodes:
        raise QueryValidationError(
            f"target {query.target} out of range for graph with "
            f"{num_nodes} nodes")
    if isinstance(query, TopKQuery) and not 1 <= query.k <= num_nodes:
        raise QueryValidationError(
            f"k must be between 1 and {num_nodes} (the graph size), "
            f"got {query.k}")
    if query.epsilon is not None \
            and (not math.isfinite(query.epsilon) or query.epsilon <= 0.0):
        raise QueryValidationError(
            f"epsilon must be a finite positive number, got {query.epsilon!r}")
    return query


def query_to_dict(query: Query) -> Dict[str, Any]:
    """The wire-format object of ``query`` (inverse of :func:`query_from_dict`)."""
    payload: Dict[str, Any] = {"type": query.kind, "source": query.source}
    if isinstance(query, SinglePairQuery):
        payload["target"] = query.target
    elif isinstance(query, TopKQuery):
        payload["k"] = query.k
    if query.method is not None:
        payload["method"] = query.method
    if query.epsilon is not None:
        payload["epsilon"] = query.epsilon
    return payload


def result_to_dict(result: QueryResult, *,
                   preview_k: int = 10) -> Dict[str, Any]:
    """Serialize a query result for the JSONL answer stream.

    Single-source answers are previewed (their full vector has one float per
    graph node): the line carries the top-``preview_k`` nodes plus the score
    mass, which is what a serving client typically consumes.  A ``top_k``
    with ``k = n`` lists every node but the source (whose score is 1) in
    rank order; clients needing the vector by node id use the library API.
    """
    if isinstance(result, SinglePairResult):
        return {"type": KIND_SINGLE_PAIR, "source": result.source,
                "target": result.target, "score": result.score,
                "algorithm": result.algorithm,
                "query_seconds": result.query_seconds}
    if isinstance(result, TopKResult):
        return {"type": KIND_TOP_K, "source": result.source, "k": result.k,
                "nodes": [int(node) for node in result.nodes],
                "scores": [float(score) for score in result.scores],
                "algorithm": result.algorithm,
                "query_seconds": result.query_seconds}
    preview = result.top_k(min(preview_k, result.num_nodes))
    return {"type": KIND_SINGLE_SOURCE, "source": result.source,
            "num_nodes": result.num_nodes,
            "score_sum": float(result.scores.sum()),
            "top_nodes": [int(node) for node in preview.nodes],
            "top_scores": [float(score) for score in preview.scores],
            "algorithm": result.algorithm,
            "query_seconds": result.query_seconds}


__all__ = [
    "KIND_SINGLE_SOURCE",
    "KIND_SINGLE_PAIR",
    "KIND_TOP_K",
    "SingleSourceQuery",
    "SinglePairQuery",
    "TopKQuery",
    "Query",
    "QueryResult",
    "QueryValidationError",
    "query_from_dict",
    "query_to_dict",
    "result_to_dict",
    "validate_query",
]
