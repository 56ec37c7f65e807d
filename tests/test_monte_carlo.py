"""MC's query path: the inverse walk index against the scan it replaced.

``MonteCarloSimRank.single_source`` reads one bucket of the walk store's
inverse per live source cell instead of scanning every stored walk.  These
tests pin it to the scan (``specs.monte_carlo``) bit for bit, through the
planner, across an index repair and across a save/load round trip, and pin
the restore checks the inverse relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import IndexPersistenceError
from repro.baselines.monte_carlo import MonteCarloSimRank
from repro.graph.context import GraphContext
from repro.graph.generators import power_law_graph
from repro.service import QueryPlanner, TopKQuery
from specs.monte_carlo import mc_single_source_reference

DECAY = 0.6


@pytest.fixture(scope="module")
def graph():
    # 60 nodes, 16 of them with in-degree 0: walks stop at different steps.
    return power_law_graph(60, 4.0, seed=3)


def _mc(graph, **config):
    config = {"decay": DECAY, "walks_per_node": 20, "walk_length": 5,
              "seed": 3, **config}
    return MonteCarloSimRank(graph, **config)


def _answers(algorithm):
    return np.stack([algorithm.single_source(source).scores
                     for source in range(algorithm.graph.num_nodes)])


@pytest.mark.parametrize("walks, length, seed",
                         [(20, 4, 3), (50, 8, 11), (7, 12, 5)])
def test_single_source_equals_scan_spec_on_every_source(graph, walks, length,
                                                        seed):
    algorithm = _mc(graph, walks_per_node=walks, walk_length=length,
                    seed=seed).preprocess()
    alive = (algorithm._index[1:] >= 0).mean(axis=(1, 2))
    assert alive[0] < 1.0 and alive[-1] > 0.0    # walks stop at many steps
    for source in range(graph.num_nodes):
        scores = algorithm.single_source(source).scores
        assert np.array_equal(scores,
                              mc_single_source_reference(algorithm, source)), source
    assert (graph.in_degrees == 0).any()


def test_planner_top_k_equals_single_source_top_k(graph):
    config = {"decay": DECAY, "walks_per_node": 30, "walk_length": 6, "seed": 4}
    planner = QueryPlanner(graph, default_method="mc",
                           method_configs={"mc": config})
    reference = _mc(graph, **config)
    for source in (0, 7, 31, 59):
        outcome = planner.execute(TopKQuery(source, 10, method="mc"))
        expected = reference.single_source(source).top_k(10)
        assert outcome.plan.route == "derived"
        assert np.array_equal(outcome.result.nodes, expected.nodes)
        assert np.array_equal(outcome.result.scores, expected.scores)


def test_repair_answers_equal_a_fresh_instance(graph):
    context = GraphContext(graph)
    algorithm = _mc(graph, walks_per_node=30, walk_length=6,
                    context=context).preprocess()
    before = _answers(algorithm)
    dangling = np.flatnonzero(graph.in_degrees == 0)[:3].tolist()
    batch = {"type": "update",
             "insert": [[5, node] for node in dangling] + [[0, 9]],
             "delete": graph.edge_array()[[0, 11]].tolist()}
    delta = context.apply_updates(batch)
    assert algorithm.repair(delta)["strategy"] == "rebuild"
    fresh = _mc(delta.new_graph, walks_per_node=30, walk_length=6,
                context=GraphContext(delta.new_graph)).preprocess()
    after = _answers(algorithm)
    assert np.array_equal(after, _answers(fresh))
    assert not np.array_equal(after, before)


@pytest.mark.parametrize("compressed, mmap_mode",
                         [(True, None), (False, "r")])
def test_save_load_round_trip_keeps_answers(graph, tmp_path, compressed,
                                            mmap_mode):
    built = _mc(graph).preprocess()
    expected = _answers(built)
    path = built.save_index(tmp_path / "mc.npz", compressed=compressed)
    # The loading instance has answered from another store first, so a
    # stale inverse would show.
    loaded = _mc(graph, walks_per_node=9, walk_length=3, seed=8)
    _answers(loaded)
    loaded.load_index(path, mmap_mode=mmap_mode)
    if mmap_mode == "r":
        # A read-only view of the mapped file: the inverse is built from it.
        assert not loaded._index.flags.writeable
    assert (loaded.walks_per_node, loaded.walk_length) == (20, 5)
    assert np.array_equal(_answers(loaded), expected)
    assert np.array_equal(loaded._index_payload()["walks"],
                          built._index_payload()["walks"])
    assert loaded.index_bytes() == built.index_bytes()


def _refused_payloads(walks, num_nodes):
    for position in (num_nodes, -7):
        corrupted = walks.copy()
        corrupted[2, 3, 4] = position
        yield f"position {position}", corrupted
    yield "no replica", walks[:, :0, :]
    yield "no step after the start", walks[:1]


def test_restore_rejects_walk_stores_a_build_never_writes(graph):
    walks = _mc(graph).preprocess()._index_payload()["walks"]
    for case, payload in _refused_payloads(walks, graph.num_nodes):
        restored = _mc(graph, walks_per_node=9, walk_length=3, seed=8)
        restored.preprocess()
        kept = restored._index
        with pytest.raises(IndexPersistenceError):
            restored._restore_index({"walks": payload})
        # Nothing adopted: the instance still serves its own store.
        assert restored._index is kept, case
        assert (restored.walks_per_node, restored.walk_length) == (9, 3), case
        assert np.array_equal(restored.single_source(5).scores,
                              mc_single_source_reference(restored, 5)), case

