"""Registry-parametrized conformance suite for the SimRankAlgorithm contract.

Every algorithm registered in :mod:`repro.algorithms.registry` must satisfy
the same interface contract:

* constructible by name from a plain config dict, sharing a
  :class:`GraphContext`;
* ``preprocess`` is idempotent (a second call neither rebuilds the index nor
  perturbs the RNG stream);
* ``single_source`` is bit-identical to a batch of one, and
  ``single_source_batch`` matches a sequential loop of ``single_source``
  instances constructed with the same seed (bit-identical except for
  ExactSim, whose batch shares one phase-2 sampling call, so it agrees
  within the method's error bound);
* ``single_source_batch`` rejects a non-integer source id;
* ``index_bytes`` is non-negative, positive after preprocessing iff the
  method is index-based;
* for persistable methods, a save/load round trip reproduces bit-identical
  query results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import registry
from repro.baselines.base import IndexPersistenceError, SimRankAlgorithm
from repro.core.result import SingleSourceResult
from repro.graph.context import GraphContext

QUERY_NODES = [1, 5, 9, 23]

#: Small/fast configs per method so the whole suite runs in seconds.
CONFIGS = {
    "exactsim": {"epsilon": 5e-2, "seed": 7, "max_total_samples": 20_000},
    "exactsim-basic": {"epsilon": 5e-2, "seed": 7, "max_total_samples": 20_000},
    "power-method": {},
    "mc": {"walks_per_node": 20, "walk_length": 6, "seed": 7},
    "linearization": {"samples_per_node": 30, "seed": 7},
    "parsim": {"iterations": 8},
    "prsim": {"epsilon": 1e-1, "seed": 7},
    "probesim": {"num_walks": 100, "seed": 7},
    "sling": {"epsilon": 1e-1, "seed": 7},
}

#: Max |batch − looped| per entry.  0.0 ⇒ bit-identical.  ExactSim's
#: ``single_source`` is a batch of one, so the loop and the batch run the
#: same phases 1 and 3 column for column, but phase 2 samples a batch
#: through one count-aggregated engine call: four one-source calls and one
#: four-source call draw different RNG schedules, so the batch agrees with
#: the loop only within the ε accuracy guarantee (2ε: both sides are
#: ε-accurate).  The push-kernel phase 1 above
#: ``ExactSim._DENSE_BATCH_MAX_NODES`` is tolerance-tested against the
#: dense one in tests/test_exactsim.py.
BATCH_TOLERANCE = {"exactsim": 1e-1, "exactsim-basic": 1e-1}

ALL_METHODS = sorted(CONFIGS)


def _make(name: str, graph, *, context=None) -> SimRankAlgorithm:
    return registry.create(name, graph, CONFIGS[name], context=context)


def test_registry_covers_all_config_entries():
    assert set(registry.available()) == set(CONFIGS)


def test_unknown_method_rejected(collab_graph):
    with pytest.raises(KeyError, match="unknown algorithm"):
        registry.create("no-such-method", collab_graph)


def test_unknown_config_key_rejected(collab_graph):
    with pytest.raises(ValueError, match="does not accept config keys"):
        registry.create("parsim", collab_graph, {"walks_per_node": 10})


@pytest.mark.parametrize("name", ALL_METHODS)
class TestConformance:
    def test_constructible_and_typed(self, name, collab_graph):
        context = GraphContext.shared(collab_graph)
        algorithm = _make(name, collab_graph, context=context)
        assert isinstance(algorithm, SimRankAlgorithm)
        assert algorithm.context is context
        assert algorithm.index_bytes() >= 0
        assert name in algorithm.describe() or algorithm.name in algorithm.describe()

    def test_single_source_contract(self, name, collab_graph):
        algorithm = _make(name, collab_graph)
        result = algorithm.single_source(QUERY_NODES[0])
        assert isinstance(result, SingleSourceResult)
        assert result.scores.shape == (collab_graph.num_nodes,)
        assert np.all(result.scores >= 0.0) and np.all(result.scores <= 1.0 + 1e-9)
        assert result.source == QUERY_NODES[0]

    def test_preprocess_idempotent(self, name, collab_graph):
        algorithm = _make(name, collab_graph)
        assert algorithm.preprocess() is algorithm
        bytes_first = algorithm.index_bytes()
        seconds_first = algorithm.preprocessing_seconds
        # A second call must be a no-op: same index, no RNG perturbation.
        assert algorithm.preprocess() is algorithm
        assert algorithm.index_bytes() == bytes_first
        assert algorithm.preprocessing_seconds == seconds_first
        assert algorithm.prepared

    def test_index_bytes_reflect_kind(self, name, collab_graph):
        algorithm = _make(name, collab_graph).preprocess()
        if algorithm.index_based:
            assert algorithm.index_bytes() > 0
        else:
            assert algorithm.index_bytes() == 0

    def test_batch_matches_looped_per_seed(self, name, collab_graph):
        looped_algorithm = _make(name, collab_graph)
        batched_algorithm = _make(name, collab_graph)
        looped = [looped_algorithm.single_source(s) for s in QUERY_NODES]
        batched = batched_algorithm.single_source_batch(QUERY_NODES)
        assert [r.source for r in batched] == QUERY_NODES
        tolerance = BATCH_TOLERANCE.get(name, 0.0)
        for sequential, batch in zip(looped, batched):
            difference = np.max(np.abs(sequential.scores - batch.scores))
            if tolerance == 0.0:
                assert np.array_equal(sequential.scores, batch.scores), \
                    f"{name}: batch diverged from sequential loop by {difference}"
            else:
                assert difference <= tolerance, \
                    f"{name}: batch differs from loop by {difference} > {tolerance}"

    def test_single_source_is_a_batch_of_one(self, name, collab_graph):
        for source in QUERY_NODES[:2]:
            single = _make(name, collab_graph).single_source(source)
            batch = _make(name, collab_graph).single_source_batch([source])
            assert np.array_equal(single.scores, batch[0].scores)

    def test_batch_rejects_non_integer_source(self, name, collab_graph):
        with pytest.raises(TypeError):
            _make(name, collab_graph).single_source_batch([2.7])

    def test_empty_batch(self, name, collab_graph):
        assert _make(name, collab_graph).single_source_batch([]) == []

    def test_save_load_roundtrip(self, name, collab_graph, tmp_path):
        spec = registry.get_spec(name)
        algorithm = _make(name, collab_graph)
        if not spec.supports_persistence:
            with pytest.raises(IndexPersistenceError):
                algorithm.preprocess().save_index(tmp_path / "index.npz")
            return
        algorithm.preprocess()
        before = algorithm.single_source(QUERY_NODES[1])
        path = algorithm.save_index(tmp_path / f"{name}.npz")
        restored = _make(name, collab_graph)
        restored.load_index(path)
        assert restored.prepared
        assert restored.index_bytes() == algorithm.index_bytes()
        assert restored.preprocessing_seconds == algorithm.preprocessing_seconds
        after = restored.single_source(QUERY_NODES[1])
        assert np.array_equal(before.scores, after.scores), \
            f"{name}: save/load round trip changed query results"

    def test_load_rejects_other_methods_index(self, name, collab_graph, tmp_path):
        spec = registry.get_spec(name)
        if not spec.supports_persistence:
            pytest.skip("method does not persist an index")
        path = _make(name, collab_graph).preprocess().save_index(tmp_path / "a.npz")
        other_name = next(other for other in ALL_METHODS
                          if other != name
                          and registry.get_spec(other).supports_persistence)
        other = _make(other_name, collab_graph)
        with pytest.raises(IndexPersistenceError, match="built by"):
            other.load_index(path)


def test_load_rejects_different_graph(collab_graph, directed_graph, tmp_path):
    path = _make("mc", collab_graph).preprocess().save_index(tmp_path / "mc.npz")
    stranger = registry.create("mc", directed_graph, CONFIGS["mc"])
    with pytest.raises(IndexPersistenceError, match="different graph"):
        stranger.load_index(path)


def test_save_index_normalizes_missing_npz_suffix(collab_graph, tmp_path):
    algorithm = _make("mc", collab_graph).preprocess()
    written = algorithm.save_index(tmp_path / "myindex")
    assert written.name == "myindex.npz" and written.exists()
    restored = _make("mc", collab_graph).load_index(written)
    assert restored.prepared
