"""ParSim — index-free linearized SimRank with D ≈ (1 − c)·I.

ParSim (Yu & McCann) runs the same linearized iteration as Linearization but
sidesteps the diagonal correction entirely by setting D = (1 − c)·I, i.e.
it ignores the first-meeting constraint.  Its single knob is the iteration
count L (the paper sweeps 50 … 5·10⁵ on small graphs): more iterations reduce
the truncation error c^L but cannot fix the bias introduced by the D
approximation, which is why its MaxError curve flattens in Figure 1 while its
Precision@500 stays high in Figure 2.
"""

from __future__ import annotations

import numpy as np

from typing import Optional

from repro.baselines.base import SimRankAlgorithm
from repro.core.result import SingleSourceResult
from repro.diagonal.parsim_approx import parsim_diagonal
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.ppr.hop_ppr import hop_ppr_vectors
from repro.utils.timing import Timer
from repro.utils.validation import check_node_index, check_positive_int


class ParSim(SimRankAlgorithm):
    """Index-free linearized SimRank with the (1 − c)·I diagonal approximation."""

    name = "parsim"
    index_based = False
    #: ParSim answers everything through the full linearized iteration: its
    #: D ≈ (1 − c)·I approximation has no per-level error bound to certify a
    #: top-k gap against, and a pair costs the same iteration, so both query
    #: types stay on the derived single-source fallbacks.
    native_capabilities = frozenset()

    def __init__(self, graph: DiGraph, *, decay: float = 0.6, iterations: int = 20,
                 context: Optional[GraphContext] = None):
        super().__init__(graph, decay=decay, context=context)
        self.iterations = check_positive_int(iterations, "iterations")
        self._on_graph_rebound()

    def _on_graph_rebound(self) -> None:
        self._operator = self._operator_for_graph()
        self._diagonal = parsim_diagonal(self.graph, decay=self.decay)

    def single_source(self, source: int) -> SingleSourceResult:
        source = check_node_index(source, self.graph.num_nodes, "source")
        timer = Timer()
        with timer:
            hop_ppr = hop_ppr_vectors(self.graph, source, self.iterations, decay=self.decay,
                                      operator=self._operator)
            sqrt_c = self._operator.sqrt_c
            scale = 1.0 / (1.0 - sqrt_c)
            current = scale * self._diagonal * hop_ppr.hop_dense(self.iterations)
            for level in range(1, self.iterations + 1):
                current = self._operator.decayed_forward(current)
                current += scale * self._diagonal * hop_ppr.hop_dense(self.iterations - level)
            np.clip(current, 0.0, 1.0, out=current)
            current[source] = 1.0
        return SingleSourceResult(source=source, scores=current, algorithm=self.name,
                                  query_seconds=timer.elapsed,
                                  stats={"iterations": float(self.iterations)})


__all__ = ["ParSim"]
