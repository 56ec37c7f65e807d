"""Resilience suite: deadlines, degraded answers, route failures, faults.

Four pillars, mirroring the serving layer's failure taxonomy:

* **cooperative deadlines** — every checkpoint kind surfaces expiry
  deterministically (fake clocks, zero budgets), degradable methods return
  *certified* partial answers whose bound dominates the true error against
  the PowerMethod oracle, and an unexpired deadline never perturbs a single
  float (bit-identity with the deadline-free run);
* **circuit breaker** — closed → open → half-open → closed transitions with
  exponential backoff, driven by an injected clock;
* **crash-safe persistence** — corrupt/truncated/bit-flipped index files
  surface as :class:`IndexPersistenceError` naming the path, intact files
  holding an index no build makes (a column or hub id out of range, a
  decreasing ``indptr``, a missing hop level) fail the load the same way,
  an interrupted save leaves the previous index bit-identical, and the
  planner degrades a bad auto-load to a logged rebuild;
* **fault-injected serving** — deterministic fault plans drive the one
  retry a query gets (native → the same method's derived pass) and the
  ``route_failed`` error that names the method when that pass fails too,
  and a 10k-line adversarial JSONL stream runs end-to-end with zero process
  deaths and one output line per input line.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms import registry
from repro.baselines.base import IndexPersistenceError
from repro.cli import main
from repro.graph.generators import preferential_attachment_graph
from repro.graph.io import write_edge_list
from repro.kernels.multiprop import MultiPropagation
from repro.service import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    InjectedFault,
    QueryPlanner,
    QueryValidationError,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
    deadline_scope,
    query_from_dict,
    validate_query,
)
from repro.service.faults import adversarial_jsonl, flip_byte, truncate_file
from repro.service.planner import (
    ROUTE_CACHED,
    ROUTE_CACHED_DERIVED,
    ROUTE_DERIVED,
    ROUTE_NATIVE,
)
from repro.service.resilience import (
    CHECKPOINT_LEVEL,
    CHECKPOINT_WALK_BATCH,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.utils.deadline import active_deadline, checkpoint

CONFIGS = {
    "exactsim": {"epsilon": 5e-2, "seed": 7, "max_total_samples": 20_000},
    "mc": {"walks_per_node": 40, "walk_length": 8, "seed": 7},
    "linearization": {"samples_per_node": 60, "seed": 7},
    "parsim": {"iterations": 10},
    "prsim": {"epsilon": 3e-2, "seed": 7},
    "sling": {"epsilon": 3e-2, "seed": 7},
}

EXPIRED_MS = 0.0


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_graph(120, 3, directed=False, seed=11)


@pytest.fixture(scope="module")
def oracle(graph):
    from repro.baselines.power_method import simrank_matrix

    return simrank_matrix(graph, decay=0.6)


def make_planner(graph, **overrides) -> QueryPlanner:
    options = dict(method_configs=CONFIGS, cache_entries=64)
    options.update(overrides)
    return QueryPlanner(graph, **options)


# --------------------------------------------------------------------------- #
# deadline primitives
# --------------------------------------------------------------------------- #
class TestDeadlinePrimitives:
    def test_fake_clock_expiry(self):
        clock = [0.0]
        deadline = Deadline(5.0, clock=lambda: clock[0])
        assert not deadline.expired() and deadline.remaining() == 5.0
        clock[0] = 5.0
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded) as info:
            deadline.check("level")
        assert info.value.checkpoint == "level"
        assert info.value.budget_seconds == 5.0
        assert deadline.checkpoints_passed == 1

    def test_scope_installs_and_restores(self):
        assert active_deadline() is None
        deadline = Deadline(60.0)
        with deadline_scope(deadline):
            assert active_deadline() is deadline
            inner = Deadline(30.0)
            with deadline_scope(inner):
                assert active_deadline() is inner
            assert active_deadline() is deadline
        assert active_deadline() is None

    def test_none_scope_is_transparent(self):
        with deadline_scope(None):
            assert active_deadline() is None
            checkpoint("level")          # no-op without a deadline

    def test_checkpoint_raises_only_when_expired(self):
        clock = [0.0]
        with deadline_scope(Deadline(1.0, clock=lambda: clock[0])):
            checkpoint("walk-batch")     # not expired: passes
            clock[0] = 2.0
            with pytest.raises(DeadlineExceeded) as info:
                checkpoint("walk-batch")
        assert info.value.checkpoint == "walk-batch"


# --------------------------------------------------------------------------- #
# one test per wired checkpoint kind
# --------------------------------------------------------------------------- #
class TestCheckpointKinds:
    def test_level_checkpoint_in_multiprop(self, graph):
        engine = MultiPropagation(graph, 2)
        engine.seed(np.arange(2), np.array([3, 5]), np.ones(2))
        with deadline_scope(Deadline(-1.0)):
            with pytest.raises(DeadlineExceeded) as info:
                engine.step()
        assert info.value.checkpoint == CHECKPOINT_LEVEL

    def test_walk_batch_checkpoint_in_engine(self, graph):
        algorithm = registry.create("exactsim", graph, CONFIGS["exactsim"])
        algorithm.ensure_prepared()
        with deadline_scope(Deadline(-1.0)):
            with pytest.raises(DeadlineExceeded) as info:
                algorithm.single_source(5)
        assert info.value.checkpoint == CHECKPOINT_WALK_BATCH


# --------------------------------------------------------------------------- #
# degraded certified answers dominate the true error
# --------------------------------------------------------------------------- #
DEGRADABLE = ["sling", "prsim", "linearization"]


@pytest.mark.parametrize("name", DEGRADABLE)
class TestCertifiedDegradedAnswers:
    def test_single_source_bound_dominates_error(self, name, graph, oracle):
        algorithm = registry.create(name, graph, CONFIGS[name])
        algorithm.ensure_prepared()
        full = algorithm.single_source(5).scores
        with deadline_scope(Deadline(-1.0)):
            degraded = algorithm.single_source(5)
        stats = degraded.stats
        assert stats["degraded"] == 1.0
        bound = stats["certified_bound"]
        assert bound > 0.0
        # The certified bound must dominate the truncation error (distance
        # to the method's own full-depth answer) — that is what it certifies.
        assert np.max(np.abs(degraded.scores - full)) <= bound + 1e-12
        # ... and, for these deterministic-truncation methods, the distance
        # to the oracle is within the full answer's error plus the bound.
        full_err = np.max(np.abs(full - oracle[5]))
        assert np.max(np.abs(degraded.scores - oracle[5])) \
            <= full_err + bound + 1e-12

    def test_top_k_degrades_with_bound(self, name, graph):
        algorithm = registry.create(name, graph, CONFIGS[name])
        algorithm.ensure_prepared()
        with deadline_scope(Deadline(-1.0)):
            answer = algorithm.top_k(5, 5)
        assert answer.stats["degraded"] == 1.0
        assert answer.stats["certified_bound"] > 0.0
        if name == "sling":                      # the native early stop
            assert answer.stats["certified"] == 0.0
        assert len(answer.nodes) == 5            # still a full top-k answer
        # Through the planner the degraded answer is served, never cached.
        planner = make_planner(graph)
        first = planner.execute(TopKQuery(5, 5, method=name),
                                deadline_ms=EXPIRED_MS)
        assert first.degraded and first.result.stats["certified_bound"] > 0.0
        second = planner.execute(TopKQuery(5, 5, method=name))
        assert second.plan.route not in (ROUTE_CACHED, ROUTE_CACHED_DERIVED)
        assert not second.degraded

    def test_batch_degrades_per_chunk(self, name, graph):
        algorithm = registry.create(name, graph, CONFIGS[name])
        algorithm.ensure_prepared()
        with deadline_scope(Deadline(-1.0)):
            results = algorithm.single_source_batch([3, 5, 9])
        assert len(results) == 3
        for result in results:
            assert result.stats["degraded"] == 1.0
            # A zero bound is a valid certificate: the skipped suffix
            # contributed nothing, so the degraded answer is exact.
            assert result.stats["certified_bound"] >= 0.0

    def test_unexpired_deadline_is_bit_identical(self, name, graph):
        baseline = registry.create(name, graph, CONFIGS[name])
        baseline.ensure_prepared()
        reference = baseline.single_source(7).scores
        shadowed = registry.create(name, graph, CONFIGS[name])
        shadowed.ensure_prepared()
        with deadline_scope(Deadline(3600.0)):
            scores = shadowed.single_source(7).scores
        assert np.array_equal(scores, reference)


# --------------------------------------------------------------------------- #
# circuit breaker
# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def make(self, clock):
        return CircuitBreaker(failure_threshold=3, reset_timeout=10.0,
                              backoff_factor=2.0, max_timeout=100.0,
                              clock=lambda: clock[0])

    def test_open_half_open_close(self):
        clock = [0.0]
        breaker = self.make(clock)
        key = ("m", "native")
        for _ in range(3):
            assert breaker.allow(key)
            breaker.record_failure(key)
        assert breaker.state(key) == STATE_OPEN
        assert not breaker.allow(key)            # rejected while open
        clock[0] = 10.0                          # cooldown elapsed
        assert breaker.state(key) == STATE_HALF_OPEN
        assert breaker.allow(key)                # the probe
        assert not breaker.allow(key)            # only one probe at a time
        breaker.record_success(key)
        assert breaker.state(key) == STATE_CLOSED
        assert breaker.allow(key)

    def test_failed_probe_reopens_with_backoff(self):
        clock = [0.0]
        breaker = self.make(clock)
        key = ("m", "derived")
        for _ in range(3):
            breaker.record_failure(key)
        clock[0] = 10.0
        assert breaker.allow(key)                # probe admitted
        breaker.record_failure(key)              # probe fails
        assert breaker.state(key) == STATE_OPEN
        clock[0] = 29.9                          # 10 + 20s backoff not elapsed
        assert not breaker.allow(key)
        clock[0] = 30.0
        assert breaker.allow(key)
        breaker.record_success(key)
        assert breaker.state(key) == STATE_CLOSED
        rows = breaker.snapshot()
        assert rows[0]["trips"] == 2

    def test_success_resets_failure_streak(self):
        clock = [0.0]
        breaker = self.make(clock)
        key = ("m", "native")
        breaker.record_failure(key)
        breaker.record_failure(key)
        breaker.record_success(key)
        breaker.record_failure(key)
        breaker.record_failure(key)
        assert breaker.state(key) == STATE_CLOSED   # never hit 3 in a row

    def test_keys_are_independent(self):
        clock = [0.0]
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure(("m", "native"))
        assert breaker.state(("m", "native")) == STATE_OPEN
        assert breaker.state(("m", "derived")) == STATE_CLOSED
        assert breaker.allow(("other", "native"))


# --------------------------------------------------------------------------- #
# fault plans
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_exact_ordinals_fire(self):
        plan = FaultPlan([FaultRule(method="m", route="native", calls=(2,))])
        plan.on_route_call("m", "native", "single_source")       # call 1: pass
        with pytest.raises(InjectedFault):
            plan.on_route_call("m", "native", "single_source")   # call 2: boom
        plan.on_route_call("m", "native", "single_source")       # call 3: pass
        assert plan.injected == 1

    def test_wildcards_and_kind_filter(self):
        plan = FaultPlan([FaultRule(kind="top_k")])
        plan.on_route_call("any", "native", "single_source")
        with pytest.raises(InjectedFault):
            plan.on_route_call("any", "native", "top_k")

    def test_from_json_round_trip(self):
        text = json.dumps({"rules": [
            {"method": "sling", "route": "native", "calls": [1, 3]},
            {"action": "delay", "delay_seconds": 0.001},
        ]})
        plan = FaultPlan.from_json(text)
        assert len(plan.rules) == 2
        assert plan.rules[0].calls == (1, 3)
        assert plan.rules[1].action == "delay"

    def test_rejects_malformed_plans(self):
        with pytest.raises(ValueError, match="unknown fault rule fields"):
            FaultPlan.from_json('[{"bogus": 1}]')
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan([FaultRule(action="explode")])
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan([FaultRule(calls=(0,))])
        with pytest.raises(ValueError, match="delay"):
            FaultPlan([FaultRule(action="delay")])
        # A route no hook fires, or a kind that is not a query kind, matches
        # no call: the scenario would pass with no fault injected.
        for route in ("natvie", "fallback"):
            with pytest.raises(ValueError, match="unknown fault route"):
                FaultPlan.from_json(json.dumps([{"route": route}]))
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan([FaultRule(kind="pair")])


# --------------------------------------------------------------------------- #
# planner: native -> derived retry, route failures, timeouts, degraded serving
# --------------------------------------------------------------------------- #
class TestFallbackRouting:
    def test_native_failure_falls_back_to_derived(self, graph):
        plan = FaultPlan([FaultRule(method="sling", route="native")])
        planner = make_planner(graph, fault_plan=plan, cache_entries=0)
        outcome = planner.execute(SinglePairQuery(5, 9, method="sling"))
        assert outcome.ok
        assert outcome.plan.route == ROUTE_DERIVED
        assert outcome.plan.method == "sling"
        stats = planner.stats()
        assert stats["route_failures"] == 1.0
        assert stats["faults_injected"] == 1.0

    def test_derived_failure_falls_back_to_other_method(self, graph):
        """No other method answers in the named one's place: a failed
        derived pass comes back ``route_failed`` for the method the query
        named, and the planner builds no other instance."""
        plan = FaultPlan([FaultRule(method="parsim", route="derived")])
        planner = make_planner(graph, fault_plan=plan, cache_entries=0)
        outcome = planner.execute(SingleSourceQuery(5, method="parsim"))
        assert not outcome.ok
        assert outcome.error["code"] == "route_failed"
        assert outcome.plan.method == "parsim"
        assert outcome.error["method"] == "parsim"
        assert outcome.error["source"] == 5
        assert planner.stats()["route_failures"] == 1.0
        assert set(planner._instances) == {"parsim"}
        assert not planner._overrides

    def test_exhausted_routes_return_structured_error(self, graph):
        # Everything fails: the outcome carries a route_failed error, the
        # planner process survives.
        plan = FaultPlan([FaultRule()])      # match every route call
        planner = make_planner(graph, fault_plan=plan, cache_entries=0)
        outcome = planner.execute(SingleSourceQuery(5, method="parsim"))
        assert not outcome.ok
        assert outcome.error["code"] == "route_failed"
        assert "source 5" in outcome.error["message"]

    def test_breaker_quarantines_failing_route(self, graph):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0,
                                 clock=lambda: clock[0])
        plan = FaultPlan([FaultRule(method="parsim", route="derived")])
        planner = make_planner(graph, fault_plan=plan, breaker=breaker,
                               cache_entries=0)
        for source in (1, 2, 3):
            planner.execute(SingleSourceQuery(source, method="parsim"))
        stats = planner.stats()
        assert stats["breaker_trips"] == 1.0
        assert stats["breaker_rejections"] == 1.0   # third query skipped it
        rows = planner.breakers()
        assert any(row["route"] == "parsim:derived"
                   and row["state"] == STATE_OPEN for row in rows)

    def test_timeout_is_structured_and_final(self, graph):
        planner = make_planner(graph, default_method="exactsim",
                               cache_entries=0)
        outcome = planner.execute(SingleSourceQuery(5), deadline_ms=EXPIRED_MS)
        assert not outcome.ok
        assert outcome.error["code"] == "timeout"
        assert outcome.error["checkpoint"] == CHECKPOINT_WALK_BATCH
        stats = planner.stats()
        assert stats["deadline_timeouts"] == 1.0
        # The budget is spent: no retry, on this method or another.
        assert stats["route_failures"] == 0.0
        assert set(planner._instances) == {"exactsim"}

    def test_degraded_answers_served_not_cached(self, graph):
        planner = make_planner(graph)
        outcome = planner.execute(SingleSourceQuery(5, method="sling"),
                                  deadline_ms=EXPIRED_MS)
        assert outcome.ok and outcome.degraded
        assert outcome.result.stats["certified_bound"] > 0.0
        assert planner.stats()["degraded_answers"] == 1.0
        # The degraded vector must not satisfy the next (unbounded) query.
        second = planner.execute(SingleSourceQuery(5, method="sling"))
        assert second.plan.route == ROUTE_DERIVED
        assert not second.degraded

    def test_derived_topk_inherits_certified_bound(self, graph):
        planner = make_planner(graph, cache_entries=0)
        outcome = planner.execute(TopKQuery(23, 5, method="sling"),
                                  deadline_ms=EXPIRED_MS)
        assert outcome.ok and outcome.degraded
        assert outcome.result.stats["certified_bound"] > 0.0

    def test_unexpired_deadline_bit_identical_through_planner(self, graph):
        bare = make_planner(graph, cache_entries=0)
        timed = make_planner(graph, cache_entries=0, deadline_ms=3_600_000.0)
        for method in ("sling", "exactsim"):
            reference = bare.execute(
                SingleSourceQuery(7, method=method)).result.scores
            scores = timed.execute(
                SingleSourceQuery(7, method=method)).result.scores
            assert np.array_equal(scores, reference)

    def test_cache_keys_scoped_by_graph_fingerprint(self, graph):
        planner = make_planner(graph)
        other_graph = preferential_attachment_graph(120, 3, directed=False,
                                                    seed=12)
        other = make_planner(other_graph)
        key = planner._cache_key("parsim", SingleSourceQuery(5))
        other_key = other._cache_key("parsim", SingleSourceQuery(5))
        assert key != other_key


# --------------------------------------------------------------------------- #
# crash-safe persistence
# --------------------------------------------------------------------------- #
class TestCrashSafePersistence:
    def build(self, graph):
        return registry.create("mc", graph, CONFIGS["mc"]).preprocess()

    def test_corrupt_files_raise_naming_the_path(self, graph, tmp_path):
        path = tmp_path / "index.npz"
        self.build(graph).save_index(path)
        original = path.read_bytes()

        for corrupt in (lambda: truncate_file(path, 10),
                        lambda: truncate_file(path, len(original) // 2),
                        lambda: flip_byte(path, len(original) // 2)):
            path.write_bytes(original)
            corrupt()
            fresh = registry.create("mc", graph, CONFIGS["mc"])
            with pytest.raises(IndexPersistenceError) as info:
                fresh.load_index(path)
            assert str(path) in str(info.value)

    def test_missing_file_is_file_not_found(self, graph, tmp_path):
        fresh = registry.create("mc", graph, CONFIGS["mc"])
        with pytest.raises(FileNotFoundError):
            fresh.load_index(tmp_path / "nope.npz")

    def test_interrupted_save_preserves_previous_index(self, graph, tmp_path,
                                                       monkeypatch):
        path = tmp_path / "index.npz"
        algorithm = self.build(graph)
        algorithm.save_index(path)
        before = path.read_bytes()

        def torn_write(handle, **arrays):
            handle.write(b"torn garbage")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez_compressed", torn_write)
        with pytest.raises(KeyboardInterrupt):
            algorithm.save_index(path)
        assert path.read_bytes() == before       # bit-identical survivor
        assert list(tmp_path.glob(".*tmp*")) == []   # no tmp litter

    #: Values no build stores: each loads at a file's face value unless the
    #: restore checks it, then serves NaN or zeros, or breaks the rebuild
    #: after the next update.
    BAD_VALUES = {"nan": np.nan, "inf": np.inf, "negative": -5.0,
                  "above-one": 2.0, "zero": 0.0, "seven": 7.0}

    @pytest.mark.parametrize("case", [
        "sling-negative-column", "sling-decreasing-indptr", "sling-column-n",
        "sling-missing-level", "sling-repeated-column", "sling-unsorted-row",
        "prsim-negative-hub", "prsim-duplicate-hub", "prsim-hub-n",
        "prsim-repeated-entry", "prsim-diagonal-nan", "prsim-diagonal-inf", "prsim-diagonal-negative",
        "sling-diagonal-nan", "sling-diagonal-inf", "sling-diagonal-negative",
        "linearization-diagonal-nan", "linearization-diagonal-inf",
        "linearization-diagonal-negative",
        "prsim-value-nan", "prsim-value-above-one",
        "sling-value-nan", "sling-value-negative",
        "prsim-hub_fraction-nan", "prsim-hub_fraction-zero",
        "prsim-hub_fraction-seven",
        "sling-samples_per_node-zero", "sling-samples_per_node-negative",
        "linearization-samples_per_node-zero",
        "linearization-samples_per_node-negative"])
    def test_malformed_index_is_rejected(self, graph, tmp_path, case):
        """An edit that leaves a well-formed container (the checksums are
        taken after it) holding an index no build makes fails the load."""
        method, _, fault = case.partition("-")
        built = registry.create(method, graph, CONFIGS[method]).preprocess()
        hop = built._hop_matrices[1] if method == "sling" else None
        knob, _, bad = fault.partition("-")
        if case == "sling-negative-column":
            hop.indices[0] = -1
        elif case == "sling-decreasing-indptr":
            hop.indptr[1] = hop.indptr[2] + 1
        elif case == "sling-column-n":
            hop.indices[0] = graph.num_nodes
        elif case == "sling-missing-level":
            built._hop_matrices.pop()
        elif case == "sling-repeated-column":
            start = hop.indptr[np.flatnonzero(np.diff(hop.indptr) >= 2)[0]]
            hop.indices[start + 1] = hop.indices[start]
        elif case == "sling-unsorted-row":
            start = hop.indptr[np.flatnonzero(np.diff(hop.indptr) >= 2)[0]]
            hop.indices[[start, start + 1]] = hop.indices[[start + 1, start]]
        elif case == "prsim-negative-hub":
            built._hubs[0] = -1
        elif case == "prsim-duplicate-hub":
            built._hubs[1] = built._hubs[0]
        elif case == "prsim-hub-n":
            built._hubs[0] = graph.num_nodes
        elif case == "prsim-repeated-entry":
            # Two entries of one (hub, level, column) would be summed into
            # one stored value.
            level = built._hub_levels[1]
            start = level.indptr[np.flatnonzero(np.diff(level.indptr) >= 2)[0]]
            level.indices[start + 1] = level.indices[start]
        elif knob == "diagonal":
            built._diagonal[0] = self.BAD_VALUES[bad]
        elif knob == "value":
            stored = hop if method == "sling" else built._hub_levels[1]
            stored.data[0] = self.BAD_VALUES[bad]
        elif knob == "hub_fraction":
            built.hub_fraction = self.BAD_VALUES[bad]
        else:
            built.samples_per_node = {"zero": 0, "negative": -3}[bad]
        path = built.save_index(tmp_path / "index.npz")
        fresh = registry.create(method, graph, CONFIGS[method])
        with pytest.raises(IndexPersistenceError):
            fresh.load_index(path)

    @pytest.mark.parametrize("method, file_config, own_config", [
        ("sling", {"epsilon": 1e-2}, {"epsilon": 1e-1}),
        ("prsim", {"epsilon": 1e-2, "hub_fraction": 0.2},
         {"epsilon": 1e-1, "hub_fraction": 0.05})])
    def test_refused_load_keeps_the_instance_config(self, graph, tmp_path, method,
                                                    file_config, own_config):
        """A refused file's ε, and the knobs stored beside it, never reach the
        instance: the rebuild that follows is a fresh build at its own config."""
        built = registry.create(method, graph, {**file_config, "seed": 7}).preprocess()
        if method == "sling":
            built._hop_matrices[1].indices[0] = -1
        else:
            built._hubs[1] = built._hubs[0]
        path = built.save_index(tmp_path / "index.npz")
        loading = registry.create(method, graph, {**own_config, "seed": 7})
        with pytest.raises(IndexPersistenceError):
            loading.load_index(path)
        fresh = registry.create(method, graph, {**own_config, "seed": 7}).preprocess()
        knob = "samples_per_node" if method == "sling" else "hub_fraction"
        assert loading.epsilon == fresh.epsilon
        assert getattr(loading, knob) == getattr(fresh, knob)
        rebuilt = loading.preprocess()._index_payload()
        expected = fresh._index_payload()
        assert rebuilt.keys() == expected.keys()
        for key, array in expected.items():
            assert np.array_equal(rebuilt[key], array), key

    def test_planner_degrades_bad_autoload_to_rebuild(self, graph, tmp_path,
                                                      caplog):
        path = tmp_path / f"{graph.name}.mc.npz"
        self.build(graph).save_index(path)
        flip_byte(path, path.stat().st_size // 2)
        planner = make_planner(graph, index_dir=tmp_path)
        with caplog.at_level("WARNING", logger="repro.service.planner"):
            outcome = planner.execute(SingleSourceQuery(5, method="mc"))
        assert outcome.ok
        assert planner.stats()["index_load_failures"] == 1.0
        assert planner.stats()["index_loads"] == 0.0
        assert any("index-load-failed" in record.message
                   for record in caplog.records)


# --------------------------------------------------------------------------- #
# wire validation
# --------------------------------------------------------------------------- #
class TestWireValidation:
    def test_out_of_range_ids(self):
        with pytest.raises(QueryValidationError, match="source"):
            validate_query(SingleSourceQuery(120), 120)
        with pytest.raises(QueryValidationError, match="source"):
            validate_query(SingleSourceQuery(-1), 120)
        with pytest.raises(QueryValidationError, match="target"):
            validate_query(SinglePairQuery(0, 120), 120)

    def test_k_bounds(self):
        with pytest.raises(QueryValidationError, match="k must be"):
            validate_query(TopKQuery(0, 0), 120)
        with pytest.raises(QueryValidationError, match="k must be"):
            validate_query(TopKQuery(0, 121), 120)
        assert validate_query(TopKQuery(0, 120), 120).k == 120

    def test_epsilon_must_be_finite_positive(self):
        for epsilon in (float("nan"), float("inf"), 0.0, -1e-3):
            with pytest.raises(QueryValidationError, match="epsilon"):
                validate_query(SingleSourceQuery(0, epsilon=epsilon), 120)
        assert validate_query(SingleSourceQuery(0, epsilon=1e-3), 120)

    def test_parse_rejects_non_integer_fields(self):
        with pytest.raises(ValueError, match="'source'"):
            query_from_dict({"type": "single_source", "source": "zero"})
        with pytest.raises(ValueError, match="'k'"):
            query_from_dict({"type": "top_k", "source": 0, "k": "many"})
        with pytest.raises(ValueError, match="'epsilon'"):
            query_from_dict({"type": "single_source", "source": 0,
                             "epsilon": "tiny"})
        # Numeric strings (JSON-over-strings clients) still parse.
        query = query_from_dict({"type": "single_source", "source": "3",
                                 "epsilon": "NaN"})
        assert query.source == 3
        with pytest.raises(QueryValidationError):
            validate_query(query, 120)

    def test_negative_node_ids_as_floats(self):
        # -3.0 parses (integral float) but must fail range validation; a
        # fractional -3.5 must not even parse as a node id.
        query = query_from_dict({"type": "single_source", "source": -3.0})
        assert query.source == -3
        with pytest.raises(QueryValidationError, match="source"):
            validate_query(query, 120)
        with pytest.raises(ValueError, match="'source'"):
            query_from_dict({"type": "single_source", "source": -3.5})
        pair = query_from_dict({"type": "single_pair", "source": 0,
                                "target": -1.0})
        with pytest.raises(QueryValidationError, match="target"):
            validate_query(pair, 120)

    def test_non_finite_epsilon_on_the_wire(self):
        # Python's json module accepts the NaN/Infinity literals, so a wire
        # line can smuggle a non-finite epsilon past parsing; the serving
        # loop must turn it into a structured invalid_query, not a crash.
        from repro.service import parse_wire_line

        for literal in ("NaN", "Infinity", "-Infinity"):
            kind, payload = parse_wire_line(
                '{"type": "single_source", "source": 1, '
                f'"epsilon": {literal}}}', 120)
            assert kind == "error"
            assert payload["code"] == "invalid_query"
            assert "epsilon" in payload["error"]

    def test_k_larger_than_node_count_on_the_wire(self):
        from repro.service import parse_wire_line

        kind, payload = parse_wire_line(
            '{"type": "top_k", "source": 0, "k": 121}', 120)
        assert kind == "error" and payload["code"] == "invalid_query"
        kind, query = parse_wire_line(
            '{"type": "top_k", "source": 0, "k": 120}', 120)
        assert kind == "query" and query.k == 120

    def test_duplicate_keys_in_one_jsonl_object_last_wins(self):
        # json.loads keeps the last occurrence of a duplicated key; pin that
        # so a hostile line cannot make parse and serve disagree about the
        # query it named.
        from repro.service import parse_wire_line

        kind, query = parse_wire_line(
            '{"type": "top_k", "source": 1, "source": 5, "k": 3, "k": 7}',
            120)
        assert kind == "query"
        assert query.source == 5 and query.k == 7
        kind, payload = parse_wire_line(
            '{"type": "top_k", "source": 1, "source": 500}', 120)
        assert kind == "error" and payload["code"] == "invalid_query"


# --------------------------------------------------------------------------- #
# adversarial serving end-to-end (CLI)
# --------------------------------------------------------------------------- #
class TestAdversarialServing:
    @pytest.fixture()
    def edge_list(self, graph, tmp_path):
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        return str(path)

    def test_10k_adversarial_lines_zero_process_deaths(self, graph, edge_list,
                                                       tmp_path, capsys):
        lines = adversarial_jsonl(graph.num_nodes, 10_000)
        queries = tmp_path / "queries.jsonl"
        queries.write_text("\n".join(lines) + "\n")
        code = main(["answer", "--edge-list", edge_list, "--method", "parsim",
                     "--queries", str(queries), "--param", "iterations=5",
                     "--deadline-ms", "60000", "--stats"])
        captured = capsys.readouterr()
        out_lines = [json.loads(line)
                     for line in captured.out.splitlines() if line]
        assert code == 1                       # partial failure, not death
        assert len(out_lines) == len(lines)    # one answer per input line
        errors = [line for line in out_lines if "error" in line]
        answers = [line for line in out_lines if "error" not in line]
        assert errors and answers
        assert all("code" in line for line in errors)
        assert "serving stats" in captured.err

    def test_max_errors_aborts_the_stream(self, graph, edge_list, tmp_path,
                                          capsys):
        lines = ["not json"] * 50 + ['{"type": "single_source", "source": 1}']
        queries = tmp_path / "queries.jsonl"
        queries.write_text("\n".join(lines) + "\n")
        code = main(["answer", "--edge-list", edge_list, "--method", "parsim",
                     "--queries", str(queries), "--param", "iterations=5",
                     "--batch-size", "8", "--max-errors", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert "aborting" in captured.err
        out_lines = [line for line in captured.out.splitlines() if line]
        assert len(out_lines) < len(lines)     # stopped early

    def test_fault_plan_flag_drives_fallback(self, graph, edge_list, tmp_path,
                                             capsys):
        """The injected fault reaches the wire as a ``route_failed`` line
        for the method the stream asked for, not another method's answer."""
        plan_path = tmp_path / "faults.json"
        plan_path.write_text(json.dumps(
            [{"method": "parsim", "route": "derived"}]))
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"type": "single_source", "source": 3}\n')
        code = main(["answer", "--edge-list", edge_list, "--method", "parsim",
                     "--queries", str(queries), "--param", "iterations=5",
                     "--epsilon", "5e-2", "--seed", "7",
                     "--fault-plan", str(plan_path), "--stats"])
        captured = capsys.readouterr()
        assert code == 1                       # partial failure
        line = json.loads(captured.out.splitlines()[0])
        assert line["code"] == "route_failed"
        assert line["method"] == "parsim"
        assert '"faults_injected": 1.0' in captured.err

    def test_fault_plan_with_unknown_route_exits_2(self, edge_list, tmp_path,
                                                   capsys):
        plan_path = tmp_path / "faults.json"
        plan_path.write_text(json.dumps(
            [{"method": "parsim", "route": "natvie"}]))
        code = main(["answer", "--edge-list", edge_list, "--method", "parsim",
                     "--queries", "-", "--fault-plan", str(plan_path)])
        assert code == 2
        assert "unknown fault route" in capsys.readouterr().err

    def test_deadline_flag_degrades_with_bound(self, graph, edge_list,
                                               tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"type": "single_source", "source": 3, '
                           '"method": "sling"}\n')
        code = main(["answer", "--edge-list", edge_list, "--method", "sling",
                     "--queries", str(queries), "--epsilon", "3e-2",
                     "--seed", "7", "--deadline-ms", "0"])
        captured = capsys.readouterr()
        assert code == 0
        line = json.loads(captured.out.splitlines()[0])
        assert line["degraded"] is True
        assert line["certified_bound"] > 0.0

    def test_bad_fault_plan_exits_2(self, edge_list, capsys):
        code = main(["answer", "--edge-list", edge_list,
                     "--queries", "-", "--fault-plan", "/nonexistent.json"])
        assert code == 2
        assert "fault plan" in capsys.readouterr().err
