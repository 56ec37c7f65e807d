"""Tests for the query plane: typed queries, planner routing, caches.

The conformance half mirrors ``test_registry_conformance.py`` one layer up:
every registered method must answer all three query kinds through the
planner — natively or derived — within the method's error bound against the
PowerMethod oracle, and the native paths must agree with their derived
fallbacks.  The unit half pins the serving semantics: LRU cache hits,
derivation from cached vectors, micro-batch coalescing, routes fixed by the
query (never by timings or batch-mates), persisted-index auto-load, and the
wire format.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import registry
from repro.baselines.base import QUERY_SINGLE_PAIR, QUERY_TOP_K
from repro.core.result import (
    SinglePairResult,
    SingleSourceResult,
    TopKResult,
    top_k_set_certified,
)
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.service import (
    QueryPlanner,
    ResultCache,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
    outcome_to_wire,
    query_from_dict,
    query_to_dict,
    result_to_dict,
)
from repro.service.planner import (
    ROUTE_CACHED,
    ROUTE_CACHED_DERIVED,
    ROUTE_DERIVED,
    ROUTE_NATIVE,
)

#: Small/fast configs per method (mirrors the registry conformance suite).
CONFIGS = {
    "exactsim": {"epsilon": 5e-2, "seed": 7, "max_total_samples": 20_000},
    "exactsim-basic": {"epsilon": 5e-2, "seed": 7, "max_total_samples": 20_000},
    "power-method": {},
    "mc": {"walks_per_node": 40, "walk_length": 8, "seed": 7},
    "linearization": {"samples_per_node": 60, "seed": 7},
    "parsim": {"iterations": 10},
    "prsim": {"epsilon": 3e-2, "seed": 7},
    "probesim": {"num_walks": 300, "seed": 7},
    "sling": {"epsilon": 3e-2, "seed": 7},
}

#: Max |answer − oracle| per single-pair query.  Sampling methods get their
#: statistical slack, deterministic methods their ε / truncation bound.
PAIR_TOLERANCE = {
    "exactsim": 1e-1, "exactsim-basic": 1e-1, "power-method": 1e-8,
    "mc": 2.5e-1, "linearization": 1e-1, "parsim": 1e-1, "prsim": 1e-1,
    "probesim": 1.5e-1, "sling": 1e-1,
}

ALL_METHODS = sorted(CONFIGS)
K = 10


@pytest.fixture(scope="module")
def service_graph():
    from repro.graph.generators import preferential_attachment_graph

    return preferential_attachment_graph(120, 3, directed=False, seed=11)


@pytest.fixture(scope="module")
def oracle(service_graph):
    from repro.baselines.power_method import simrank_matrix

    return simrank_matrix(service_graph, decay=0.6)


def make_planner(graph, **overrides) -> QueryPlanner:
    options = dict(method_configs=CONFIGS, cache_entries=64)
    options.update(overrides)
    return QueryPlanner(graph, **options)


# --------------------------------------------------------------------------- #
# conformance: every method answers every query kind within its error bound
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ALL_METHODS)
class TestPlannerConformance:
    def test_all_query_kinds_answered_and_typed(self, name, service_graph):
        planner = make_planner(service_graph)
        outcomes = planner.answer([
            SingleSourceQuery(5, method=name),
            SinglePairQuery(5, 9, method=name),
            TopKQuery(5, K, method=name),
        ])
        assert isinstance(outcomes[0].result, SingleSourceResult)
        assert isinstance(outcomes[1].result, SinglePairResult)
        assert isinstance(outcomes[2].result, TopKResult)
        for outcome in outcomes:
            assert outcome.plan.method == name
            assert outcome.plan.route in (ROUTE_NATIVE, ROUTE_DERIVED,
                                          ROUTE_CACHED_DERIVED)

    def test_single_pair_within_error_bound(self, name, service_graph, oracle):
        planner = make_planner(service_graph)
        pairs = [(5, 9), (1, 2), (23, 40)]
        outcomes = planner.answer([SinglePairQuery(s, t, method=name)
                                   for s, t in pairs])
        for (s, t), outcome in zip(pairs, outcomes):
            assert abs(outcome.result.score - oracle[s, t]) \
                <= PAIR_TOLERANCE[name], \
                f"{name}: S({s},{t}) off by more than its error bound"

    def test_top_k_within_error_bound(self, name, service_graph, oracle):
        planner = make_planner(service_graph)
        source = 5
        answer = planner.execute(TopKQuery(source, K, method=name)).result
        assert answer.k == K
        truth = oracle[source].copy()
        truth[source] = -np.inf
        kth_true = np.sort(truth)[-K]
        tolerance = PAIR_TOLERANCE[name]
        for node in answer.nodes:
            assert truth[int(node)] >= kth_true - 2 * tolerance, \
                f"{name}: top-{K} contains a node far below the true k-th score"

    def test_pair_trivial_self_similarity(self, name, service_graph):
        planner = make_planner(service_graph)
        outcome = planner.execute(SinglePairQuery(7, 7, method=name))
        assert outcome.result.score == pytest.approx(1.0, abs=1e-6)

    def test_routing_matches_declared_capabilities(self, name, service_graph):
        planner = make_planner(service_graph, cache_entries=0)
        algorithm = planner.instance(name)
        pair_route = planner.plan(SinglePairQuery(5, 9, method=name)).route
        top_route = planner.plan(TopKQuery(5, K, method=name)).route
        expected_pair = (ROUTE_NATIVE if QUERY_SINGLE_PAIR
                         in algorithm.native_capabilities else ROUTE_DERIVED)
        expected_top = (ROUTE_NATIVE if QUERY_TOP_K
                        in algorithm.native_capabilities else ROUTE_DERIVED)
        assert pair_route == expected_pair
        assert top_route == expected_top


# --------------------------------------------------------------------------- #
# native paths agree with their derived fallbacks
# --------------------------------------------------------------------------- #
NATIVE_TOP_K_METHODS = ["sling"]
DETERMINISTIC_NATIVE_PAIR_METHODS = ["sling", "mc", "power-method"]


@pytest.mark.parametrize("name", NATIVE_TOP_K_METHODS)
def test_native_top_k_set_matches_derived(name, service_graph):
    native = registry.create(name, service_graph, CONFIGS[name]).preprocess()
    derived = registry.create(name, service_graph, CONFIGS[name]).preprocess()
    for source in (5, 23, 57):
        native_answer = native.top_k(source, K)
        derived_answer = derived.single_source(source).top_k(K)
        assert native_answer.node_set() == derived_answer.node_set(), \
            f"{name}: native top-k set diverged from the derived path"
        assert native_answer.stats["native_top_k"] == 1.0


@pytest.mark.parametrize("name", DETERMINISTIC_NATIVE_PAIR_METHODS)
def test_native_pair_matches_derived(name, service_graph):
    algorithm = registry.create(name, service_graph, CONFIGS[name]).preprocess()
    for source, target in ((5, 9), (23, 40), (3, 3)):
        native_score = algorithm.single_pair(source, target).score
        derived_score = float(algorithm.single_source(source).scores[target])
        assert native_score == pytest.approx(derived_score, abs=1e-9), \
            f"{name}: native pair diverged from the derived score"


def test_sling_early_stop_certifies_on_fine_epsilon(service_graph):
    # A fine ε means a deep level schedule; the suffix-tail certification
    # must stop early and still reproduce the full-depth top-k set.
    sling = registry.create("sling", service_graph,
                            {"epsilon": 1e-4, "seed": 7}).preprocess()
    answer = sling.top_k(5, 5)
    assert answer.stats["certified"] == 1.0
    assert answer.stats["levels_used"] < answer.stats["levels_total"]
    derived = sling.single_source(5).top_k(5)
    assert answer.node_set() == derived.node_set()


def test_top_k_set_certified_helper():
    scores = np.array([0.9, 0.5, 0.4, 0.1, 0.05])
    assert top_k_set_certified(scores, 2, 0.05)       # gap 0.5-0.4=0.1 ≥ 0.05
    assert not top_k_set_certified(scores, 2, 0.2)    # gap 0.1 < 0.2
    # Excluding the top entry shifts the boundary: gap 0.4-0.1 = 0.3.
    assert top_k_set_certified(scores, 2, 0.2, exclude=0)
    assert not top_k_set_certified(scores, 2, 0.35, exclude=0)
    assert top_k_set_certified(scores, 2, 0.0)
    # Degenerate k: refuse to certify so callers keep accumulating levels.
    assert not top_k_set_certified(scores, 5, 0.01)
    # With the source excluded, k = n − 1 already takes every candidate.
    assert not top_k_set_certified(scores, 4, 0.01, exclude=0)


# --------------------------------------------------------------------------- #
# cache semantics
# --------------------------------------------------------------------------- #
class TestResultCacheAndRouting:
    def test_repeat_query_is_cached_without_recompute(self, service_graph,
                                                      monkeypatch):
        planner = make_planner(service_graph)
        algorithm = planner.instance("parsim")
        calls = {"count": 0}
        original = type(algorithm).single_source_batch

        def counting(self, sources):
            calls["count"] += 1
            return original(self, sources)

        monkeypatch.setattr(type(algorithm), "single_source_batch", counting)
        first = planner.execute(SingleSourceQuery(5, method="parsim"))
        second = planner.execute(SingleSourceQuery(5, method="parsim"))
        assert calls["count"] == 1
        assert first.plan.route == ROUTE_DERIVED
        assert second.plan.route == ROUTE_CACHED
        assert second.result is first.result

    def test_pair_and_topk_derive_from_cached_vector(self, service_graph,
                                                     monkeypatch):
        planner = make_planner(service_graph)
        algorithm = planner.instance("parsim")
        calls = {"count": 0}
        original = type(algorithm).single_source_batch

        def counting(self, sources):
            calls["count"] += 1
            return original(self, sources)

        monkeypatch.setattr(type(algorithm), "single_source_batch", counting)
        vector = planner.execute(SingleSourceQuery(5, method="parsim"))
        pair = planner.execute(SinglePairQuery(5, 9, method="parsim"))
        top = planner.execute(TopKQuery(5, K, method="parsim"))
        assert calls["count"] == 1
        assert pair.plan.route == ROUTE_CACHED_DERIVED
        assert top.plan.route == ROUTE_CACHED_DERIVED
        assert pair.result.score == pytest.approx(
            float(vector.result.scores[9]))
        assert top.result.node_set() == vector.result.top_k(K).node_set()

    def test_lru_eviction(self, service_graph):
        planner = make_planner(service_graph, cache_entries=2)
        planner.execute(SinglePairQuery(5, 9, method="sling"))
        planner.execute(SinglePairQuery(5, 10, method="sling"))
        planner.execute(SinglePairQuery(5, 11, method="sling"))
        # Capacity 2: the oldest entry fell out, so the first pair recomputes.
        outcome = planner.execute(SinglePairQuery(5, 9, method="sling"))
        assert outcome.plan.route == ROUTE_NATIVE

    def test_cache_disabled(self, service_graph):
        planner = make_planner(service_graph, cache_entries=0)
        first = planner.execute(SinglePairQuery(5, 9, method="sling"))
        second = planner.execute(SinglePairQuery(5, 9, method="sling"))
        assert first.plan.route == ROUTE_NATIVE
        assert second.plan.route == ROUTE_NATIVE

    def test_result_cache_lru_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refreshes "a"
        cache.put("c", 3)                    # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.hits == 3 and cache.misses == 1


# --------------------------------------------------------------------------- #
# coalescing and cost-aware routing
# --------------------------------------------------------------------------- #
class TestCoalescing:
    def test_batch_coalesces_into_one_call(self, service_graph, monkeypatch):
        planner = make_planner(service_graph, cache_entries=0)
        algorithm = planner.instance("parsim")
        seen = []
        original = type(algorithm).single_source_batch

        def recording(self, sources):
            seen.append(list(sources))
            return original(self, sources)

        monkeypatch.setattr(type(algorithm), "single_source_batch", recording)
        queries = [SingleSourceQuery(s, method="parsim") for s in (9, 5, 23, 5)]
        outcomes = planner.answer(queries)
        assert seen == [[5, 9, 23]]          # one call, deduped, sorted
        assert [o.result.source for o in outcomes] == [9, 5, 23, 5]
        assert outcomes[1].result is outcomes[3].result
        stats = planner.stats()
        assert stats["coalesced_batches"] == 1.0
        assert stats["coalesced_queries"] == 4.0

    def test_mixed_kinds_share_the_micro_batch(self, service_graph, monkeypatch):
        planner = make_planner(service_graph, cache_entries=0)
        algorithm = planner.instance("parsim")
        seen = []
        original = type(algorithm).single_source_batch

        def recording(self, sources):
            seen.append(list(sources))
            return original(self, sources)

        monkeypatch.setattr(type(algorithm), "single_source_batch", recording)
        outcomes = planner.answer([
            SinglePairQuery(5, 9, method="parsim"),
            TopKQuery(5, K, method="parsim"),
            SingleSourceQuery(23, method="parsim"),
        ])
        assert seen == [[5, 23]]
        assert outcomes[0].plan.batched and outcomes[1].plan.batched

    def test_same_source_pair_flood_routes_through_one_pass(self, service_graph,
                                                            monkeypatch):
        # Many pair queries for one source: ExactSim's pairs are entries of
        # the source's vector, so the whole flood rides one coalesced
        # single-source pass.
        planner = make_planner(service_graph, cache_entries=0)
        queries = [SinglePairQuery(5, t, method="exactsim") for t in (9, 10, 11)]
        outcomes = planner.answer(queries)
        assert all(o.plan.route == ROUTE_DERIVED for o in outcomes)
        assert planner.stats()["coalesced_batches"] == 1.0

    @pytest.mark.parametrize("name", ["exactsim", "prsim", "linearization"])
    def test_top_k_and_pair_share_one_single_source_pass(
            self, name, service_graph, monkeypatch):
        # ExactSim, PRSim and Linearization answer pairs and top-k from the
        # single-source vector: a top-k and a pair on one source cost one
        # batch call, and the cached vector answers a later pair on that
        # source.
        expected = registry.create(name, service_graph,
                                   CONFIGS[name]).single_source(5)
        planner = make_planner(service_graph)
        algorithm = planner.instance(name)
        seen = []
        original = type(algorithm).single_source_batch

        def recording(self, sources):
            seen.append(list(sources))
            return original(self, sources)

        monkeypatch.setattr(type(algorithm), "single_source_batch", recording)
        top, pair = planner.answer([TopKQuery(5, K, method=name),
                                    SinglePairQuery(5, 9, method=name)])
        assert seen == [[5]]
        assert top.plan.route == pair.plan.route == ROUTE_DERIVED
        assert np.array_equal(top.result.nodes, expected.top_k(K).nodes)
        assert np.array_equal(top.result.scores, expected.top_k(K).scores)
        assert pair.result.score == expected.scores[9]
        later = planner.execute(SinglePairQuery(5, 23, method=name))
        assert later.plan.route == ROUTE_CACHED_DERIVED
        assert seen == [[5]]


# --------------------------------------------------------------------------- #
# the route is a function of the query
# --------------------------------------------------------------------------- #
#: Methods whose answers depend on what their instance answered before: each
#: draws its query-time walks from one stream per instance (ExactSim's
#: diagonal also depends on its batch-mates), so a coalesced batch, which
#: answers a repeated source once and its sources in sorted order, moves
#: them.  Across batch sizes only their routes can be compared.
HISTORY_DEPENDENT = {"exactsim", "exactsim-basic", "probesim"}


def _route_stream(num_nodes):
    """Every registry method × the three kinds on a few repeated sources, in
    a seeded order, after two ExactSim pairs on one source (they share a
    batch at every batch size above 1)."""
    rng = np.random.default_rng(41)
    sources = [int(node) for node in rng.choice(num_nodes, size=4,
                                                replace=False)]

    def target_of(source):
        return (source + 1 + int(rng.integers(num_nodes - 1))) % num_nodes

    queries = []
    for method in registry.available():
        for source in rng.choice(sources, size=2):
            source = int(source)
            queries += [SingleSourceQuery(source, method=method),
                        SinglePairQuery(source, target_of(source),
                                        method=method),
                        TopKQuery(source, K, method=method)]
    head = [SinglePairQuery(sources[0], target_of(sources[0]),
                            method="exactsim") for _ in range(2)]
    return head + [queries[i] for i in rng.permutation(len(queries))]


def _answer_bytes(result):
    if isinstance(result, SinglePairResult):
        return result.score
    if isinstance(result, TopKResult):
        return result.nodes.tobytes(), result.scores.tobytes()
    return result.scores.tobytes()


def test_route_is_a_function_of_the_query(service_graph):
    """Two fresh planners per batch size (1, 3, 8), cache off: every line
    takes the same route in all six runs — the native path exactly for the
    kinds its method lists — and the same answer, where its method's
    answers do not depend on history."""
    stream = _route_stream(service_graph.num_nodes)
    runs = []
    for batch_size in (1, 3, 8):
        for _ in range(2):
            planner = make_planner(service_graph, cache_entries=0)
            outcomes = []
            for start in range(0, len(stream), batch_size):
                outcomes += planner.answer(stream[start:start + batch_size])
            runs.append(outcomes)
    for position, query in enumerate(stream):
        routes = {outcomes[position].plan.route for outcomes in runs}
        native = planner.instance(query.method).native_capabilities
        expected = ROUTE_NATIVE if query.kind in native else ROUTE_DERIVED
        assert routes == {expected}, (position, query)
        if query.method in HISTORY_DEPENDENT:
            continue
        answers = {_answer_bytes(outcomes[position].result)
                   for outcomes in runs}
        assert len(answers) == 1, (position, query)


# --------------------------------------------------------------------------- #
# planner plumbing
# --------------------------------------------------------------------------- #
class TestPlannerPlumbing:
    def test_default_method_applies(self, service_graph):
        planner = make_planner(service_graph, default_method="parsim")
        outcome = planner.execute(SingleSourceQuery(5))
        assert outcome.plan.method == "parsim"
        assert outcome.result.algorithm == "parsim"

    def test_unknown_method_rejected(self, service_graph):
        planner = make_planner(service_graph)
        with pytest.raises(KeyError, match="unknown algorithm"):
            planner.execute(SingleSourceQuery(5, method="no-such-method"))

    def test_register_prebuilt_instance(self, service_graph):
        from repro.baselines.parsim import ParSim

        planner = make_planner(service_graph)
        instance = ParSim(service_graph, iterations=3)
        name = planner.register(instance, "parsim-coarse")
        assert name == "parsim-coarse"
        outcome = planner.execute(SingleSourceQuery(5, method="parsim-coarse"))
        assert outcome.result.stats["iterations"] == 3.0

    def test_register_rejects_foreign_graph(self, service_graph, directed_graph):
        from repro.baselines.parsim import ParSim

        planner = make_planner(service_graph)
        with pytest.raises(ValueError, match="different graph"):
            planner.register(ParSim(directed_graph, iterations=3))

    def test_routing_table_covers_registry(self, service_graph):
        planner = make_planner(service_graph)
        rows = {row["method"]: row for row in planner.routing_table()}
        assert set(rows) == set(registry.available())
        assert rows["sling"]["single_pair"] == "native"
        assert rows["sling"]["top_k"] == "native"
        assert rows["parsim"]["single_pair"] == "derived"
        assert rows["exactsim"]["single_pair"] == "derived"
        assert rows["linearization"]["top_k"] == "derived"
        assert rows["prsim"]["top_k"] == "derived"

    def test_index_auto_load(self, service_graph, tmp_path):
        built = registry.create("mc", service_graph, CONFIGS["mc"]).preprocess()
        built.save_index(tmp_path / f"{service_graph.name}.mc.npz")
        planner = make_planner(service_graph, index_dir=tmp_path)
        algorithm = planner.instance("mc")
        assert algorithm.prepared          # loaded, not rebuilt
        assert planner.stats()["index_loads"] == 1.0
        reference = built.single_source(5).scores
        outcome = planner.execute(SingleSourceQuery(5, method="mc"))
        assert np.array_equal(outcome.result.scores, reference)

    def test_index_saved_after_first_build(self, service_graph, tmp_path):
        planner = make_planner(service_graph, index_dir=tmp_path,
                               save_indices=True)
        path = tmp_path / f"{service_graph.name}.mc.npz"
        assert not path.exists()           # nothing eager at construction
        planner.execute(SingleSourceQuery(5, method="mc"))
        assert path.exists()
        assert planner.stats()["index_builds_saved"] == 1.0
        # A second planner loads what the first one built.
        second = make_planner(service_graph, index_dir=tmp_path)
        assert second.instance("mc").prepared
        assert second.stats()["index_loads"] == 1.0


class TestOverrideInstances:
    """A per-query ε gets its own instance: it never loads, saves or
    re-saves the persisted index of the configured one, and at most
    ``OVERRIDE_INSTANCES`` of them stay alive."""

    def test_override_is_not_answered_from_the_persisted_index(
            self, service_graph, tmp_path):
        configured = registry.create("sling", service_graph,
                                     CONFIGS["sling"]).preprocess()
        configured.save_index(tmp_path / f"{service_graph.name}.sling.npz")
        planner = make_planner(service_graph, index_dir=tmp_path)
        outcome = planner.execute(
            SinglePairQuery(5, 9, method="sling", epsilon=1e-3))
        fresh = registry.create("sling", service_graph,
                                {**CONFIGS["sling"], "epsilon": 1e-3})
        assert outcome.result.stats["epsilon"] == 1e-3
        assert outcome.result.score == fresh.single_pair(5, 9).score
        assert planner.stats()["index_loads"] == 0.0
        assert planner.instance("sling").prepared      # the configured loads
        assert planner.stats()["index_loads"] == 1.0

    def test_override_build_is_never_saved(self, service_graph, tmp_path):
        planner = make_planner(service_graph, index_dir=tmp_path,
                               save_indices=True)
        path = tmp_path / f"{service_graph.name}.sling.npz"
        planner.execute(SinglePairQuery(5, 9, method="sling", epsilon=1e-3))
        assert not path.exists()
        planner.execute(SinglePairQuery(5, 9, method="sling"))
        saved = registry.create("sling", service_graph, CONFIGS["sling"])
        saved.load_index(path)
        assert saved.epsilon == CONFIGS["sling"]["epsilon"]

    def test_swap_resaves_only_the_configured_index(self, tmp_path):
        from repro.graph.generators import preferential_attachment_graph
        from repro.graph.updates import EdgeBatch, UpdateLog

        graph = preferential_attachment_graph(120, 3, directed=False, seed=11)
        planner = QueryPlanner(graph, context=GraphContext(graph),
                               method_configs=CONFIGS, index_dir=tmp_path,
                               save_indices=True,
                               wal=UpdateLog(tmp_path / "updates.wal"))
        planner.execute(SinglePairQuery(5, 9, method="sling"))
        planner.execute(SinglePairQuery(5, 9, method="sling", epsilon=1e-3))
        planner.apply_updates(EdgeBatch.from_wire(
            {"type": "update", "insert": [[1, 100]], "delete": []}))
        report = planner.complete_repairs()
        assert report["wal"]["indices_persisted"] == 1
        saved = registry.create("sling", planner.graph, CONFIGS["sling"])
        saved.load_index(tmp_path / f"{graph.name}.sling.npz")
        assert saved.epsilon == CONFIGS["sling"]["epsilon"]

    def test_override_instances_are_capped(self, service_graph):
        import gc
        import weakref

        from repro.service.planner import OVERRIDE_INSTANCES

        planner = make_planner(service_graph, cache_entries=0)
        epsilons = [10.0 ** (-1.0 - i / 10.0) for i in range(20)]
        held = [weakref.ref(planner.instance("linearization"))]
        answers = []
        for epsilon in epsilons:
            query = SingleSourceQuery(5, method="linearization", epsilon=epsilon)
            answers.append(planner.execute(query).result.scores)
            held.append(weakref.ref(
                planner.instance("linearization", {"epsilon": epsilon})))
        gc.collect()
        assert sum(ref() is not None for ref in held) <= OVERRIDE_INSTANCES + 1
        assert held[1]() is None                       # the first ε is evicted
        again = planner.execute(
            SingleSourceQuery(5, method="linearization", epsilon=epsilons[0]))
        assert np.array_equal(again.result.scores, answers[0])

    def test_override_equal_to_the_configured_config_shares_it(
            self, service_graph):
        planner = make_planner(service_graph)
        same = {"epsilon": CONFIGS["sling"]["epsilon"]}
        assert planner.instance("sling", same) is planner.instance("sling")


# --------------------------------------------------------------------------- #
# wire format
# --------------------------------------------------------------------------- #
class TestWireFormat:
    def test_query_round_trip(self):
        for query in (SingleSourceQuery(3), SinglePairQuery(1, 2, method="mc"),
                      TopKQuery(4, 25)):
            assert query_from_dict(query_to_dict(query)) == query

    def test_aliases_and_defaults(self):
        assert query_from_dict({"type": "pair", "source": 1, "target": 2}) \
            == SinglePairQuery(1, 2)
        assert query_from_dict({"type": "topk", "source": 4}) == TopKQuery(4, 500)
        assert query_from_dict({"kind": "ss", "source": 9}) == SingleSourceQuery(9)

    def test_invalid_queries_rejected(self):
        with pytest.raises(ValueError, match="'type'"):
            query_from_dict({"source": 1})
        with pytest.raises(ValueError, match="unknown query type"):
            query_from_dict({"type": "bogus", "source": 1})
        with pytest.raises(ValueError, match="'target'"):
            query_from_dict({"type": "single_pair", "source": 1})
        with pytest.raises(ValueError, match="'source'"):
            query_from_dict({"type": "top_k"})

    def test_result_serialization_shapes(self, service_graph):
        planner = make_planner(service_graph)
        pair = result_to_dict(
            planner.execute(SinglePairQuery(5, 9, method="parsim")).result)
        assert pair["type"] == "single_pair" and "score" in pair
        top = result_to_dict(
            planner.execute(TopKQuery(5, 3, method="parsim")).result)
        assert top["type"] == "top_k" and len(top["nodes"]) == 3
        vector = result_to_dict(
            planner.execute(SingleSourceQuery(5, method="parsim")).result)
        assert vector["type"] == "single_source"
        assert vector["num_nodes"] == service_graph.num_nodes
        assert len(vector["top_nodes"]) == 10

    @pytest.mark.parametrize("name", ["prsim", "sling"])
    def test_top_k_of_the_whole_graph_ranks_every_other_node(self, name,
                                                              toy_graph):
        # k = n is a valid wire query: it ranks the n − 1 other nodes by
        # their full-depth scores, and k = n − 1 gives the same ranking.
        n = toy_graph.num_nodes
        vector = registry.create(name, toy_graph,
                                 CONFIGS[name]).single_source(1).scores
        planner = make_planner(toy_graph, cache_entries=0)
        for k in (n, n - 1):
            payload = outcome_to_wire(
                planner.execute(TopKQuery(1, k, method=name)))
            assert payload["k"] == n - 1
            assert sorted(payload["nodes"]) == [0, 2, 3, 4, 5]
            assert payload["scores"] == [vector[j] for j in payload["nodes"]]
            assert payload["scores"] == sorted(payload["scores"], reverse=True)
        # On a 1-node graph no node but the source is left to rank.
        lone = DiGraph.from_edges([], num_nodes=1, name="lone")
        payload = outcome_to_wire(
            make_planner(lone).execute(TopKQuery(0, 1, method=name)))
        assert payload["k"] == 0 and payload["nodes"] == []

    def test_capped_sampling_budget_is_flagged_on_the_wire(self, service_graph):
        def wire(config, query):
            planner = make_planner(service_graph,
                                   method_configs={"exactsim": config})
            outcome = planner.execute(query)
            return outcome.result.stats, outcome_to_wire(outcome)

        capped = {"epsilon": 5e-2, "seed": 7, "max_total_samples": 10}
        # The floors leave source 5's scaled-down allocation at 4,950 pairs,
        # under this cap, and the answer is flagged all the same.
        below = {"epsilon": 1e-2, "seed": 7, "max_total_samples": 5_000}
        roomy = {"epsilon": 0.5, "seed": 7, "max_total_samples": 10 ** 9}
        assert wire(below, SingleSourceQuery(5))[0]["samples_realised"] < 5_000
        for query in (SingleSourceQuery(5), SinglePairQuery(5, 9),
                      TopKQuery(5, 3)):
            for config in (capped, below):
                stats, payload = wire(config, query)
                assert stats["samples_capped"] == 1.0
                assert payload["samples_capped"] is True
            stats, payload = wire(roomy, query)
            assert stats["samples_capped"] == 0.0
            assert "samples_capped" not in payload


# --------------------------------------------------------------------------- #
# stats wire format: one json.dumps away from the --stats record
# --------------------------------------------------------------------------- #
def test_planner_stats_fully_json_serializable(service_graph):
    import json

    planner = make_planner(service_graph)
    planner.execute(SinglePairQuery(1, 2, method="parsim"))
    stats = planner.stats()
    assert json.loads(json.dumps(stats)) == stats      # emitted verbatim
    assert isinstance(stats["breakers"], list)
    assert stats["queries"] == 1.0
