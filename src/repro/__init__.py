"""repro — a reproduction of "Exact Single-Source SimRank Computation on Large Graphs".

The package implements ExactSim (SIGMOD 2020) and every substrate and
baseline its evaluation depends on:

* :mod:`repro.graph` — CSR directed graphs, generators, IO, dataset registry;
* :mod:`repro.randomwalk` — vectorised √c-walk simulation;
* :mod:`repro.ppr` — ℓ-hop Personalized PageRank, local push, PageRank;
* :mod:`repro.diagonal` — estimators of the diagonal correction matrix D;
* :mod:`repro.core` — the ExactSim algorithm (basic and optimized);
* :mod:`repro.baselines` — PowerMethod, MC, Linearization, ParSim, PRSim, ProbeSim;
* :mod:`repro.metrics` — MaxError, Precision@k, pooling;
* :mod:`repro.experiments` — drivers regenerating every figure and table;
* :mod:`repro.service` — the query plane: typed single-pair/single-source/
  top-k queries, the capability-aware planner, result caching and coalescing.

Quickstart
----------
>>> from repro import ExactSim, ExactSimConfig
>>> from repro.graph import power_law_graph
>>> graph = power_law_graph(500, 5.0, seed=42)
>>> result = ExactSim(graph, ExactSimConfig(epsilon=1e-3, seed=1)).single_source(0)
>>> top = result.top_k(10)
"""

from repro.core.config import ExactSimConfig, EPSILON_EXACT
from repro.core.exactsim import ExactSim
from repro.core.result import SingleSourceResult, TopKResult
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.algorithms import registry as algorithm_registry
from repro.baselines import (
    MonteCarloSimRank,
    LinearizationSimRank,
    ParSim,
    PowerMethod,
    PRSim,
    ProbeSim,
    SLING,
    simrank_matrix,
)
from repro.metrics import max_error, precision_at_k
from repro.core.result import SinglePairResult
from repro import service

__version__ = "1.0.0"

__all__ = [
    "ExactSim",
    "ExactSimConfig",
    "EPSILON_EXACT",
    "SingleSourceResult",
    "SinglePairResult",
    "TopKResult",
    "service",
    "DiGraph",
    "GraphContext",
    "algorithm_registry",
    "MonteCarloSimRank",
    "LinearizationSimRank",
    "ParSim",
    "PowerMethod",
    "PRSim",
    "ProbeSim",
    "SLING",
    "simrank_matrix",
    "max_error",
    "precision_at_k",
    "__version__",
]
