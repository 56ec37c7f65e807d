"""Micro-benchmarks of the substrates ExactSim is built on.

Unlike the figure benches (one-shot regenerations), these use pytest-benchmark
properly — repeated timed rounds — because they measure steady-state kernel
throughput: √c-walk simulation, hop-PPR propagation, the transition mat-vec
and the PowerMethod iteration.
"""

import numpy as np
import pytest

from repro.baselines.power_method import simrank_matrix
from repro.graph.datasets import load_dataset
from repro.graph.transition import TransitionOperator
from repro.ppr.hop_ppr import hop_ppr_vectors
from repro.randomwalk.engine import SqrtCWalkEngine


@pytest.fixture(scope="module")
def small_graph():
    return load_dataset("GQ")


@pytest.fixture(scope="module")
def large_graph():
    return load_dataset("DB")


def test_walk_engine_throughput_small(benchmark, small_graph):
    engine = SqrtCWalkEngine(small_graph, 0.6, seed=1)
    source = np.array([np.argmax(small_graph.in_degrees)], dtype=np.int64)
    benchmark(engine.pair_meet_counts, source, np.array([5_000]), max_steps=32)


def test_walk_engine_throughput_large(benchmark, large_graph):
    engine = SqrtCWalkEngine(large_graph, 0.6, seed=1)
    source = np.array([np.argmax(large_graph.in_degrees)], dtype=np.int64)
    benchmark(engine.pair_meet_counts, source, np.array([5_000]), max_steps=32)


def test_hop_ppr_small(benchmark, small_graph):
    operator = TransitionOperator(small_graph, 0.6)
    benchmark(hop_ppr_vectors, small_graph, 0, 20, decay=0.6, operator=operator)


def test_hop_ppr_large(benchmark, large_graph):
    operator = TransitionOperator(large_graph, 0.6)
    benchmark(hop_ppr_vectors, large_graph, 0, 20, decay=0.6, operator=operator)


def test_transition_matvec_large(benchmark, large_graph):
    operator = TransitionOperator(large_graph, 0.6)
    vector = np.random.default_rng(0).random(large_graph.num_nodes)
    operator.matrix  # build outside the timed region
    benchmark(operator.decayed_backward, vector)


def test_power_method_small_graph(benchmark):
    graph = load_dataset("GQ")
    result = benchmark.pedantic(simrank_matrix, args=(graph,),
                                kwargs={"decay": 0.6, "tolerance": 1e-8},
                                rounds=1, iterations=1)
    assert np.allclose(np.diag(result), 1.0)


# --------------------------------------------------------------------------- #
# batched query path (PR 2): sequential loop vs single_source_batch
# --------------------------------------------------------------------------- #
def _exactsim_config():
    from repro.core.config import ExactSimConfig
    return ExactSimConfig(epsilon=5e-2, decay=0.6, seed=2020,
                          max_total_samples=5_000)


def test_exactsim_sequential_queries_large(benchmark, large_graph):
    from repro.core.exactsim import ExactSim
    sources = np.argsort(-large_graph.in_degrees)[:4].tolist()

    def run():
        engine = ExactSim(large_graph, _exactsim_config())
        for source in sources:
            engine.single_source(int(source))
    benchmark(run)


def test_exactsim_batched_queries_large(benchmark, large_graph):
    from repro.core.exactsim import ExactSim
    sources = [int(s) for s in np.argsort(-large_graph.in_degrees)[:4]]

    def run():
        ExactSim(large_graph, _exactsim_config()).single_source_batch(sources)
    benchmark(run)


def test_harness_sweep_point_uses_batch(benchmark, small_graph):
    """One harness sweep point end-to-end (preprocess + batched queries)."""
    from repro.algorithms import registry
    from repro.experiments.harness import _evaluate_point
    from repro.graph.context import GraphContext

    from repro.baselines.power_method import PowerMethod
    oracle = PowerMethod(small_graph, context=GraphContext.shared(small_graph)).preprocess()

    def truth(source):
        return oracle.matrix[source]

    def run():
        algorithm = registry.create("parsim", small_graph, {"iterations": 8},
                                    context=GraphContext.shared(small_graph))
        _evaluate_point(algorithm, [1, 5, 9], truth, 10, None)
    benchmark(run)
