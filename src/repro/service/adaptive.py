"""Adaptive top-k refinement over the planner's instance cache.

The paper's Figure 6 observation: ExactSim's top-500 answer *stabilises* one
or two ε-levels before the exactness setting — on all four large graphs the
top-500 at ε = 1e-6 already equals the top-500 at ε = 1e-7.  This module
turns that into a query strategy for *any* registered method with an
accuracy knob: run at a coarse setting, refine it round by round, and stop
as soon as the top-k answer stops changing.  The planner constructs the
per-round instances (sharing the graph context and — via the registry —
the method's declared sweep parameter), each round answers through the
method's ``top_k`` (the *native* early-stopping path where the method has
one), and refinement stops as soon as the answer is stable for
``stable_rounds`` consecutive rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.algorithms import registry
from repro.core.result import TopKResult
from repro.service.planner import QueryPlanner
from repro.utils.deadline import (CHECKPOINT_REFINE_ROUND, DeadlineExceeded,
                                  checkpoint)
from repro.utils.validation import (check_node_index, check_positive,
                                    check_positive_int)


@dataclass
class RefinedTopK:
    """Outcome of an adaptive top-k refinement."""

    top_k: TopKResult
    #: The sweep-parameter values visited, coarse to fine.
    parameters: List[float]
    converged: bool
    total_query_seconds: float
    #: True when a deadline ended refinement early and ``top_k`` is the last
    #: completed round's (coarser but valid) answer.
    degraded: bool = False

    @property
    def refinement_rounds(self) -> int:
        return len(self.parameters)


def refine_top_k(planner: QueryPlanner, method: str, source: int, k: int = 500,
                 *, initial: float, refine: Callable[[float], float],
                 stop: Callable[[float], bool],
                 stable_rounds: int = 2, require_same_order: bool = False,
                 base_config: Optional[Mapping[str, Any]] = None) -> RefinedTopK:
    """Refine ``method``'s accuracy knob until the top-k answer stabilises.

    Parameters
    ----------
    planner:
        Supplies the per-round algorithm instances (shared context; the
        planner keeps the most recently used ones across calls).
    initial / refine / stop:
        The knob schedule: the first value, the map from one round's value
        to the next (e.g. ``lambda e: e / 10`` for ε knobs, ``lambda r:
        r * 4`` for sample-count knobs), and the predicate that ends the
        schedule once the finest value was visited.
    stable_rounds / require_same_order:
        Convergence: the top-k answer must repeat (as a set, or as an
        ordered list) for this many consecutive rounds.
    base_config:
        Config shared by every round; the swept parameter is overridden.
    """
    spec = registry.get_spec(method)
    if spec.sweep_parameter is None:
        raise ValueError(f"{method} has no sweep parameter to refine")
    source = check_node_index(source, planner.graph.num_nodes, "source")
    check_positive_int(k, "k")
    check_positive(initial, "initial")
    if stable_rounds < 1:
        raise ValueError("stable_rounds must be at least 1")

    parameters: List[float] = []
    total_seconds = 0.0
    converged = False
    latest: Optional[TopKResult] = None
    consecutive_stable = 0

    value = initial
    degraded = False
    while True:
        # Each round is a ``refine-round`` deadline checkpoint: expiry before
        # any round completed propagates (no answer to degrade to); once a
        # round has produced an answer, expiry — at this boundary or inside
        # the round's own level loops — ends refinement and returns the last
        # completed round's answer marked degraded.
        try:
            checkpoint(CHECKPOINT_REFINE_ROUND)
            config: Dict[str, Any] = dict(base_config or {})
            config[spec.sweep_parameter] = spec.sweep_cast(value)
            algorithm = planner.instance(method, config)
            answer = algorithm.top_k(source, k)
        except DeadlineExceeded:
            if latest is None:
                raise
            degraded = True
            break
        parameters.append(float(value))
        total_seconds += answer.query_seconds

        if latest is not None and _same_answer(latest, answer, require_same_order):
            consecutive_stable += 1
        else:
            consecutive_stable = 0
        latest = answer

        if consecutive_stable >= stable_rounds:
            converged = True
            break
        if stop(value):
            break
        value = refine(value)

    assert latest is not None
    return RefinedTopK(top_k=latest, parameters=parameters, converged=converged,
                       total_query_seconds=total_seconds, degraded=degraded)


def _same_answer(first: TopKResult, second: TopKResult,
                 require_same_order: bool) -> bool:
    if require_same_order:
        return np.array_equal(first.nodes, second.nodes)
    return first.node_set() == second.node_set()


__all__ = ["RefinedTopK", "refine_top_k"]
