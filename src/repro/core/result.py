"""Result value types returned by ExactSim and the baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.utils.validation import check_node_index


@dataclass
class SingleSourceResult:
    """A single-source SimRank answer: one similarity score per node.

    Attributes
    ----------
    source:
        The query node.
    scores:
        Array of length ``n``; ``scores[j]`` estimates S(source, j).
    algorithm:
        Human-readable name of the producing algorithm/variant.
    query_seconds / preprocessing_seconds:
        Wall-clock time split the experiment harness records (the paper plots
        query time for index-free methods and both for index-based ones).
    stats:
        Free-form numeric diagnostics (sample counts, iteration depth L,
        memory bytes, ...) used by the ablation and memory experiments.
    """

    source: int
    scores: np.ndarray
    algorithm: str = "exactsim"
    query_seconds: float = 0.0
    preprocessing_seconds: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return int(self.scores.shape[0])

    def similarity(self, node: int) -> float:
        """The estimated SimRank similarity S(source, node)."""
        return float(self.scores[node])

    def top_k(self, k: int, *, include_source: bool = False) -> "TopKResult":
        """The ``k`` nodes most similar to the source, by non-increasing
        score (ties broken by node id).

        The source itself is left out unless ``include_source`` is set, so
        the answer holds at most n − 1 nodes.
        """
        if k < 1:
            raise ValueError("k must be positive")
        # lexsort on (-score, node id) gives a deterministic order.
        order = np.lexsort((np.arange(self.scores.shape[0]), -self.scores))
        if not include_source:
            order = order[order != self.source]
        nodes = order[:k]
        return TopKResult(source=self.source, nodes=nodes.astype(np.int64),
                          scores=self.scores[nodes].astype(np.float64),
                          algorithm=self.algorithm)

    def max_error_against(self, reference: np.ndarray) -> float:
        """Maximum absolute deviation from a reference score vector."""
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != self.scores.shape:
            raise ValueError("reference vector has mismatching length")
        return float(np.max(np.abs(self.scores - reference)))

    def memory_bytes(self) -> int:
        return int(self.scores.nbytes)


@dataclass
class SinglePairResult:
    """The answer to a single-pair query: one estimated similarity S(source, target).

    Produced either natively (methods that can evaluate one entry without
    materialising the full score vector) or derived from a single-source
    answer; ``stats`` records which path ran and its cost counters.
    """

    source: int
    target: int
    score: float
    algorithm: str = "exactsim"
    query_seconds: float = 0.0
    preprocessing_seconds: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)


@dataclass
class TopKResult:
    """The answer to a top-k query: nodes sorted by decreasing similarity."""

    source: int
    nodes: np.ndarray
    scores: np.ndarray
    algorithm: str = "exactsim"
    query_seconds: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return int(self.nodes.shape[0])

    def as_pairs(self) -> List[Tuple[int, float]]:
        return [(int(node), float(score)) for node, score in zip(self.nodes, self.scores)]

    def node_set(self) -> set:
        return set(int(node) for node in self.nodes)

    def precision_against(self, reference: "TopKResult") -> float:
        """Fraction of this result's nodes that appear in ``reference``."""
        if reference.k == 0:
            return 0.0
        return len(self.node_set() & reference.node_set()) / float(reference.k)


def derive_from_single_source(vector: SingleSourceResult, *,
                              target: Optional[int] = None,
                              k: Optional[int] = None
                              ) -> Union[SinglePairResult, TopKResult]:
    """The pair answer at ``target``, else the top-``k`` answer, of a vector.

    The one derived path, shared by the algorithms' default
    ``single_pair``/``top_k`` and the service planner.  The answer reports
    the vector's query time and carries a copy of its stats plus
    ``derived_from_single_source``: the sampling-cap flag and a degraded
    vector's certificate travel with everything derived from it, since the
    answer is only as good as the vector.
    """
    answer: Union[SinglePairResult, TopKResult]
    if target is not None:
        target = check_node_index(target, vector.num_nodes, "target")
        answer = SinglePairResult(
            source=vector.source, target=target,
            score=vector.similarity(target), algorithm=vector.algorithm,
            query_seconds=vector.query_seconds,
            preprocessing_seconds=vector.preprocessing_seconds)
    else:
        answer = vector.top_k(k)
        answer.query_seconds = vector.query_seconds
    answer.stats = dict(vector.stats, derived_from_single_source=1.0)
    return answer


def top_k_set_certified(scores: np.ndarray, k: int, tail_bound: float, *,
                        exclude: Optional[int] = None) -> bool:
    """Whether ``scores``' top-``k`` set is final under a one-sided tail bound.

    The level-synchronous methods accumulate per-level contributions
    t_0 + t_1 + … in increasing level order; every remaining term is
    non-negative and their sum is at most ``tail_bound``.  The top-k *set* of
    the final scores is therefore fixed as soon as the current k-th best
    score exceeds the (k+1)-th best by at least the tail: members can only
    grow, and no outsider can gain more than ``tail_bound``.  (The *order*
    inside the set may still change — callers that need a certified order
    must keep refining.)
    """
    if k < 1:
        # Invalid k: never certify, so the caller's final top_k(k) raises
        # its own clean error instead of a partial-sum ranking escaping.
        return False
    if tail_bound <= 0.0:
        return True
    effective = scores
    candidates = scores.shape[0]
    if exclude is not None and 0 <= exclude < scores.shape[0]:
        effective = scores.copy()
        effective[exclude] = -np.inf
        candidates -= 1
    if k >= candidates:
        # The set is trivially final (every candidate is in it), but
        # certifying here would freeze the *ranking* at the first partial
        # sum; refuse so callers keep refining and return fully-accumulated
        # scores.
        return False
    top = np.partition(effective, -(k + 1))[-(k + 1):]   # k+1 largest, unordered
    top.sort()
    kth, next_best = float(top[1]), float(top[0])
    return kth - next_best >= tail_bound


__all__ = ["SingleSourceResult", "SinglePairResult", "TopKResult",
           "derive_from_single_source", "top_k_set_certified"]
