"""Monte-Carlo estimators built on the √c-walk engine.

These implement the sampling primitives of the paper:

* :func:`estimate_meeting_probability` — eq. (2): S(i, j) is the probability
  that two √c-walks from i and j meet (same node, same step).
* :func:`estimate_diagonal_entry` — Algorithm 2: the fraction of walk pairs
  from node k that *never* meet estimates D(k, k).
* :func:`estimate_tail_meeting_probability` — the tail estimator used by the
  improved Algorithm 3: walks run a non-stop prefix of ``skip_steps`` steps,
  then behave as fresh √c-walks; the fraction of pairs that meet *after* the
  prefix, multiplied by ``c^skip_steps``, estimates Σ_{ℓ>ℓ(k)} Z_ℓ(k).

All three ride the pair kernel of :mod:`repro.randomwalk.aggregate`: one
engine call simulates the whole pair budget, count-aggregated while many
pairs share a state (cost per step bounded by the distinct occupied pair
states) and one slot per pair once they spread out (cost per step bounded by
the live pairs, at most ``PAIR_CHUNK`` per chunk).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.digraph import DiGraph
from repro.randomwalk.engine import SqrtCWalkEngine
from repro.utils.rng import SeedLike
from repro.utils.validation import check_node_index, check_positive_int


def estimate_meeting_probability(graph: DiGraph, source: int, target: int,
                                 num_pairs: int, *, decay: float = 0.6,
                                 max_steps: int = 64, seed: SeedLike = None) -> float:
    """Monte-Carlo estimate of S(source, target) via eq. (2).

    Two √c-walks, one from each node, are simulated ``num_pairs`` times; the
    fraction of pairs that visit the same node at the same step (counting the
    trivial step-0 meeting when ``source == target``) estimates the SimRank
    value.
    """
    source = check_node_index(source, graph.num_nodes, "source")
    target = check_node_index(target, graph.num_nodes, "target")
    num_pairs = check_positive_int(num_pairs, "num_pairs")
    if source == target:
        return 1.0

    engine = SqrtCWalkEngine(graph, decay, seed=seed)
    met = engine.pair_meet_counts_from(
        np.array([source], dtype=np.int64), np.array([target], dtype=np.int64),
        np.array([num_pairs], dtype=np.int64), max_steps=max_steps)
    return float(met[0]) / float(num_pairs)


def estimate_diagonal_entry(graph: DiGraph, node: int, num_pairs: int, *,
                            decay: float = 0.6, max_steps: int = 64,
                            seed: SeedLike = None,
                            engine: Optional[SqrtCWalkEngine] = None) -> float:
    """Algorithm 2: estimate D(node, node) with ``num_pairs`` pairs of √c-walks.

    D(k, k) = 1 − Pr[two √c-walks from k meet at some step ≥ 1]; the estimator
    is the fraction of simulated pairs that never meet.  The two degenerate
    cases of Algorithm 3 are handled exactly: D = 1 when the node has no
    in-neighbour and D = 1 − c when it has exactly one (the two walks move
    together with probability c and then meet immediately).
    """
    node = check_node_index(node, graph.num_nodes)
    in_degree = graph.in_degree(node)
    if in_degree == 0:
        return 1.0
    if in_degree == 1:
        return 1.0 - decay
    num_pairs = check_positive_int(num_pairs, "num_pairs")
    walker = engine if engine is not None else SqrtCWalkEngine(graph, decay, seed=seed)
    met = walker.pair_meet_counts(np.array([node], dtype=np.int64),
                                  np.array([num_pairs], dtype=np.int64),
                                  max_steps=max_steps)
    return 1.0 - float(met[0]) / float(num_pairs)


def estimate_tail_meeting_probability(graph: DiGraph, node: int, num_pairs: int,
                                      skip_steps: int, *, decay: float = 0.6,
                                      max_steps: int = 64, seed: SeedLike = None,
                                      engine: Optional[SqrtCWalkEngine] = None) -> float:
    """Estimate Σ_{ℓ > skip_steps} Z_ℓ(node) for Algorithm 3.

    The pair of special walks does not flip the stopping coin during the first
    ``skip_steps`` steps; afterwards both behave as ordinary √c-walks.  The
    probability that such a pair meets after the prefix equals
    (1 / c^skip_steps) · Σ_{ℓ > skip_steps} Z_ℓ(node), so the Monte-Carlo
    fraction is scaled back by ``c^skip_steps``.  The kernel flips each
    pair's first post-prefix coin before walking it, so only about
    c·``num_pairs`` pairs walk the prefix; the fraction keeps its
    distribution, since the coin is independent of the moves.
    """
    node = check_node_index(node, graph.num_nodes)
    num_pairs = check_positive_int(num_pairs, "num_pairs")
    if skip_steps < 0:
        raise ValueError("skip_steps must be non-negative")
    walker = engine if engine is not None else SqrtCWalkEngine(graph, decay, seed=seed)
    met = walker.pair_meet_counts(np.array([node], dtype=np.int64),
                                  np.array([num_pairs], dtype=np.int64),
                                  max_steps=max_steps, skip_steps=skip_steps)
    return float(decay ** skip_steps) * float(met[0]) / float(num_pairs)


__all__ = [
    "estimate_meeting_probability",
    "estimate_diagonal_entry",
    "estimate_tail_meeting_probability",
]
