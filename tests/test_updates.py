"""Online-update suite: WAL durability, crash-consistent rebuilds, staleness.

Four pillars, mirroring the dynamic-graph design:

* **wire + WAL** — edge batches round-trip their JSONL wire form, reject
  unknown fields and out-of-range endpoints, a torn tail replays as a clean
  prefix while interior corruption refuses to replay at all;
* **updated == fresh** — for every method and every batch shape
  (insert-only, delete-only, mixed; including self-loops and edges touching
  previously dangling nodes), an instance carried across the update (index
  rebuilt, or index-free engine rebound) is bit-identical to a fresh
  instance built on the new graph;
* **crash consistency** — a SIGKILL-equivalent exit injected inside the
  WAL append, the CSR apply, the index rebuild, or the version swap never
  loses an acknowledged update: replaying the WAL on restart always
  reaches at least the last acked version, bit-equal to applying the same
  batches to the base graph;
* **serving semantics** — the planner refuses a silently rebound graph,
  annotates stale answers with version/staleness bounds, the front end
  treats update lines as ordered barriers, and the pool replays its update
  history to respawned workers so every worker serves the same version.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import registry
from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.graph.updates import (
    EdgeBatch,
    UpdateLog,
    WalCorruptionError,
    apply_edge_batch,
)
from repro.service import (
    FaultPlan,
    FaultRule,
    Frontend,
    QueryPlanner,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
    WorkerPool,
    outcome_to_wire,
)
from repro.service.frontend import parse_wire_line

MC_CONFIG = {"walks_per_node": 30, "walk_length": 5, "seed": 4}

#: Seeded configs of the four index-based methods.
INDEXED_CONFIGS = {
    "mc": MC_CONFIG,
    "sling": {"epsilon": 1e-2, "seed": 11},
    "prsim": {"epsilon": 1e-2, "hub_fraction": 0.2, "seed": 9},
    "linearization": {"epsilon": 1e-2, "samples_per_node": 400, "seed": 5},
}

#: Seeded configs of the index-free methods (an update only rebinds them).
INDEX_FREE_CONFIGS = {
    "exactsim": {"epsilon": 1e-2, "seed": 3},
    "parsim": {"iterations": 8},
    "probesim": {"seed": 3},
}


def _base_graph() -> DiGraph:
    """Deterministic 60-node graph; nodes 56..59 start with no edges."""
    rng = np.random.default_rng(7)
    edges = np.unique(rng.integers(0, 56, size=(300, 2)), axis=0)
    edges = edges[edges[:, 0] != edges[:, 1]]
    return DiGraph.from_edges(edges, num_nodes=60, directed=True,
                              name="updates-base")


def _batches(graph: DiGraph):
    """Insert / delete / mixed wire batches with the awkward edge shapes."""
    existing = graph.edge_array()
    insert = [[3, 3],            # self-loop
              [56, 5], [5, 57],  # edges touching dangling nodes
              [10, 20], [21, 11]]
    delete = existing[[0, 7, 13]].tolist()
    return {
        "insert": {"type": "update", "insert": insert},
        "delete": {"type": "update", "delete": delete},
        "mixed": {"type": "update", "insert": insert, "delete": delete},
    }


@pytest.fixture(scope="module")
def graph():
    return _base_graph()


def wait_for_sync(predicate, timeout=15.0, interval=0.05):
    async def poll():
        for _ in range(int(timeout / interval)):
            if predicate():
                return True
            await asyncio.sleep(interval)
        return predicate()
    return poll


# --------------------------------------------------------------------------- #
# wire format + WAL framing
# --------------------------------------------------------------------------- #
class TestWireAndWal:
    def test_batch_round_trips_and_normalizes(self):
        batch = EdgeBatch.from_wire(
            {"type": "update", "insert": [[2, 1], [0, 1], [2, 1]],
             "delete": [[5, 4]]})
        wire = batch.to_wire()
        assert wire["insert"] == [[0, 1], [2, 1]]       # sorted, deduped
        assert EdgeBatch.from_wire(wire) == batch

    def test_unknown_fields_and_bad_endpoints_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            EdgeBatch.from_wire({"type": "update", "inserts": [[0, 1]]})
        with pytest.raises(ValueError, match="non-negative"):
            EdgeBatch.from_wire({"type": "update", "insert": [[-1, 2]]})
        batch = EdgeBatch.from_wire({"type": "update", "insert": [[0, 99]]})
        with pytest.raises(ValueError, match="num_nodes"):
            batch.validate(60)

    @pytest.mark.parametrize("edge", [[1e30, 2], [1e400, 2], [10 ** 30, 2],
                                      [1.5, 2], [True, 2], [1, False]])
    def test_non_integral_node_ids_rejected(self, edge):
        """Edge ids follow the query-id rule: integral numbers only, no
        bools; nothing is coerced and no OverflowError escapes."""
        with pytest.raises(ValueError, match="malformed update record"):
            EdgeBatch.from_wire({"type": "update", "insert": [edge]})
        with pytest.raises(ValueError, match="malformed update record"):
            EdgeBatch.from_wire({"type": "update", "delete": [edge]})
        line = json.dumps({"type": "update", "insert": [edge]})
        kind, payload = parse_wire_line(line, 60)
        assert kind == "error" and payload["code"] == "invalid_query"

    def test_torn_tail_replays_as_clean_prefix(self, tmp_path):
        path = tmp_path / "torn.wal"
        wal = UpdateLog(path)
        wal.append(EdgeBatch(inserts=[[0, 1]]), 1)
        wal.append(EdgeBatch(inserts=[[1, 2]]), 2)
        with open(path, "r+b") as handle:    # tear the last frame mid-write
            handle.truncate(path.stat().st_size - 3)
        assert UpdateLog(path).last_version() == 1

    def test_interior_corruption_refuses_to_replay(self, tmp_path):
        path = tmp_path / "flip.wal"
        wal = UpdateLog(path)
        wal.append(EdgeBatch(inserts=[[0, 1]]), 1)
        first = path.stat().st_size
        wal.append(EdgeBatch(inserts=[[1, 2]]), 2)
        blob = bytearray(path.read_bytes())
        blob[first // 2] ^= 0xFF             # inside the first frame
        path.write_bytes(bytes(blob))
        with pytest.raises(WalCorruptionError):
            UpdateLog(path).replay()


# --------------------------------------------------------------------------- #
# an updated instance == a fresh instance on the new graph, bit for bit
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["insert", "delete", "mixed"])
@pytest.mark.parametrize("method", sorted(INDEXED_CONFIGS))
def test_update_rebuilds_index_bit_identical_to_fresh_build(graph, method,
                                                            kind):
    config = INDEXED_CONFIGS[method]
    context = GraphContext(graph)
    algorithm = registry.create(method, graph, config,
                                context=context).preprocess()
    algorithm.single_source(3)       # queries before the update leave no trace
    delta = context.apply_updates(_batches(graph)[kind])
    report = algorithm.repair(delta)
    assert report["strategy"] == "rebuild", report

    fresh = registry.create(method, delta.new_graph, config,
                            context=GraphContext(delta.new_graph)).preprocess()
    ours, theirs = algorithm._index_payload(), fresh._index_payload()
    assert ours.keys() == theirs.keys()
    for key in ours:
        assert np.array_equal(ours[key], theirs[key]), key
    assert np.array_equal(algorithm.single_source(3).scores,
                          fresh.single_source(3).scores)


@pytest.mark.parametrize("method", sorted(INDEX_FREE_CONFIGS))
def test_update_rebinds_index_free_method_to_new_graph(graph, method):
    # Node 57 starts dangling; the batch gives it the in-neighbour 5, so its
    # scores move off zero and a method still reading the old graph shows.
    config = INDEX_FREE_CONFIGS[method]
    context = GraphContext(graph)
    algorithm = registry.create(method, graph, config, context=context)
    before = algorithm.single_source(57).scores
    delta = context.apply_updates(_batches(graph)["mixed"])
    report = algorithm.repair(delta)
    assert report["strategy"] == "rebind", report

    fresh = registry.create(method, delta.new_graph, config,
                            context=GraphContext(delta.new_graph))
    after = algorithm.single_source(57).scores
    assert np.array_equal(after, fresh.single_source(57).scores)
    assert not np.array_equal(after, before)


# --------------------------------------------------------------------------- #
# crash consistency: no acknowledged update is ever lost
# --------------------------------------------------------------------------- #
def _crash_batches():
    return [{"type": "update", "insert": [[0, 41], [41, 0]]},
            {"type": "update", "insert": [[7, 33]],
             "delete": [[0, 41]]}]


#: (crash site, 1-based ordinal of the matching call that exits, acks the
#: child must have printed before dying, exact version the WAL replays to).
CRASH_CASES = [
    ("wal_append", 2, [1], 1),   # before the append: update 2 never acked
    ("apply", 2, [1], 2),        # after the append: durable, at-least-once
    ("repair", 1, [1], 1),       # mid-repair: acked version already durable
    ("swap", 2, [1, 2], 2),      # mid-swap: both acked, both durable
]


def _child_main(argv):
    """Subprocess body for the crash tests: apply updates until the fault
    plan SIGKILLs the process (``os._exit(137)``) at the requested site."""
    site, ordinal, wal_path = argv[0], int(argv[1]), argv[2]
    graph = _base_graph()
    context = GraphContext(graph)
    plan = FaultPlan([FaultRule(method="update", route=site, action="exit",
                                calls=(ordinal,))])
    planner = QueryPlanner(context.graph, context=context,
                           default_method="mc",
                           method_configs={"mc": MC_CONFIG},
                           wal=UpdateLog(wal_path), fault_plan=plan)
    for batch in _crash_batches():
        ack = planner.apply_updates(batch)
        print("ACK", ack["graph_version"], flush=True)
        planner.complete_repairs()
    print("DONE", flush=True)
    return 0


@pytest.mark.parametrize("site,ordinal,acked,recovered", CRASH_CASES)
def test_kill_at_crash_point_loses_no_acked_update(tmp_path, site, ordinal,
                                                   acked, recovered):
    wal_path = tmp_path / f"{site}.wal"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, __file__, site, str(ordinal), str(wal_path)],
        capture_output=True, text=True, env=env, timeout=180)
    assert proc.returncode == 137, proc.stderr
    acks = [int(line.split()[1]) for line in proc.stdout.splitlines()
            if line.startswith("ACK")]
    assert acks == acked

    # Restart: WAL replay must reach every acked version, and the recovered
    # graph must be bit-equal to applying those batches to the base graph.
    context = GraphContext(_base_graph())
    context.recover(UpdateLog(wal_path))
    assert context.graph_version == recovered
    assert context.graph_version >= max(acks)
    expected = _base_graph()
    for wire in _crash_batches()[:recovered]:
        expected = apply_edge_batch(expected, EdgeBatch.from_wire(wire))
    assert np.array_equal(context.graph.fingerprint(), expected.fingerprint())


def test_clean_run_acks_every_update(tmp_path):
    wal_path = tmp_path / "clean.wal"
    context = GraphContext(_base_graph())
    planner = QueryPlanner(context.graph, context=context,
                           default_method="mc",
                           method_configs={"mc": MC_CONFIG},
                           wal=UpdateLog(wal_path))
    for batch in _crash_batches():
        planner.apply_updates(batch)
        planner.complete_repairs()
    assert planner.graph_version == 2
    restarted = GraphContext(_base_graph())
    # The planner compacts the WAL behind a checkpoint after each swap, so
    # a clean run leaves zero tail records to replay — recovery reaches
    # version 2 from the checkpoint alone.
    assert restarted.recover(UpdateLog(wal_path)) == 0
    assert restarted.graph_version == 2
    assert np.array_equal(restarted.graph.fingerprint(),
                          context.graph.fingerprint())


# --------------------------------------------------------------------------- #
# planner: binding hazard, staleness bounds, swap
# --------------------------------------------------------------------------- #
class TestPlannerUpdates:
    def make_planner(self, graph):
        context = GraphContext(graph)
        planner = QueryPlanner(context.graph, context=context,
                               default_method="mc",
                               method_configs={"mc": MC_CONFIG},
                               cache_entries=16)
        return planner, context

    def test_silently_rebound_graph_fails_loudly(self, graph):
        planner, _ = self.make_planner(graph)
        planner.graph = DiGraph.from_edges([[0, 1]], num_nodes=60,
                                           directed=True, name="impostor")
        with pytest.raises(RuntimeError, match="apply_updates"):
            list(planner.answer([SinglePairQuery(0, 1)]))

    def test_stale_window_is_bounded_and_annotated(self, graph):
        planner, context = self.make_planner(graph)
        context.apply_updates(_batches(graph)["mixed"])
        outcome = next(iter(planner.answer([SingleSourceQuery(0)])))
        assert outcome.result is not None
        assert outcome.result.stats["graph_version"] == 0.0
        assert outcome.result.stats["stale_updates"] == 1.0
        assert planner.stale_updates == 1

        report = planner.complete_repairs()
        assert report["graph_version"] == 1
        outcome = next(iter(planner.answer([SingleSourceQuery(0)])))
        assert outcome.result.stats["graph_version"] == 1.0
        assert outcome.result.stats["stale_updates"] == 0.0
        counters = planner.stats()
        assert counters["updates_applied"] == 0   # applied via context
        assert counters["version_swaps"] == 1
        assert counters["stale_answers"] >= 1

    def test_apply_then_swap_serves_new_graph(self, graph):
        context = GraphContext(graph)
        planner = QueryPlanner(context.graph, context=context,
                               method_configs=INDEXED_CONFIGS,
                               cache_entries=16)
        queries = [query
                   for method in sorted(INDEXED_CONFIGS)
                   for query in (SinglePairQuery(0, 41, method=method),
                                 TopKQuery(0, 5, method=method),
                                 SingleSourceQuery(41, method=method))]
        assert all(outcome.ok for outcome in planner.answer(queries))
        ack = planner.apply_updates(
            {"type": "update", "insert": [[0, 41], [41, 0]]})
        assert ack == {"type": "update", "graph_version": 1, "inserted": 2,
                       "deleted": 0, "stale_updates": 1}
        report = planner.complete_repairs()
        assert planner.graph is context.graph
        assert sorted((row["method"], row["strategy"])
                      for row in report["repairs"]) == \
            [(method, "rebuild") for method in sorted(INDEXED_CONFIGS)]

        fresh = QueryPlanner(context.graph,
                             context=GraphContext(context.graph),
                             method_configs=INDEXED_CONFIGS,
                             cache_entries=16)
        volatile = ("query_seconds", "route", "batched", "graph_version",
                    "stale_updates")

        def stable(outcome):
            return {key: value for key, value in outcome_to_wire(outcome).items()
                    if key not in volatile}

        for ours, theirs in zip(planner.answer(queries), fresh.answer(queries)):
            assert ours.ok and theirs.ok
            assert stable(ours) == stable(theirs)
            if isinstance(ours.query, SingleSourceQuery):
                assert np.array_equal(ours.result.scores, theirs.result.scores)


# --------------------------------------------------------------------------- #
# front end + pool: barriers, broadcast, respawn replay
# --------------------------------------------------------------------------- #
def make_factory(graph):
    def factory() -> QueryPlanner:
        return QueryPlanner(graph, default_method="mc",
                            method_configs={"mc": MC_CONFIG},
                            cache_entries=32)
    return factory


class TestServingUpdates:
    def test_frontend_treats_updates_as_ordered_barriers(self, graph):
        # Nodes 56/57 start dangling; the update gives them one shared
        # in-neighbour, so s(56, 57) becomes exactly c on the new graph —
        # every paired walk meets at node 3 — and was exactly 0 before.
        lines = [
            json.dumps({"type": "single_pair", "source": 56, "target": 57}),
            json.dumps({"type": "update", "insert": [[3, 56], [3, 57]]}),
            json.dumps({"type": "single_pair", "source": 56, "target": 57}),
            json.dumps({"type": "update", "insert": [[0, 999]]}),
        ]

        async def scenario():
            pool = WorkerPool(make_factory(graph), num_workers=2,
                              batch_size=2)
            await pool.start()
            frontend = Frontend(pool, graph.num_nodes)
            written = []
            try:
                failures = await frontend.serve_lines(lines, written.append)
            finally:
                await pool.drain()
            return written, failures, frontend.stats()

        written, failures, stats = asyncio.run(scenario())
        assert [w.get("type", w.get("code")) for w in written] == \
            ["single_pair", "update", "single_pair", "invalid_query"]
        assert written[1]["ok"] is True
        assert written[1]["graph_version"] == 1
        # The query after the barrier is answered on the updated graph.
        assert written[2]["graph_version"] == 1
        assert written[2]["score"] > 0.0
        # The pre-barrier query may legally be answered at either version
        # (the barrier fences later lines; an already-queued query can be
        # overtaken by the broadcast) — but its version label must match
        # the graph it was actually computed on.
        assert written[0]["graph_version"] in (0, 1)
        if written[0]["graph_version"] == 0:
            assert written[0]["score"] == 0.0
        else:
            assert written[0]["score"] > 0.0
        assert stats["updates"] == 1 and failures == 1

    def test_pool_replays_updates_to_respawned_workers(self, graph):
        async def scenario():
            pool = WorkerPool(make_factory(graph), num_workers=2,
                              batch_size=2)
            await pool.start()
            try:
                ack = await pool.apply_update(
                    {"type": "update", "insert": [[3, 56], [3, 57]]})
                assert ack["ok"] is True and ack["graph_version"] == 1
                assert ack["delivered"] == 2

                poll = wait_for_sync(
                    lambda: pool.stats()["worker_versions"] == [1, 1])
                assert await poll()

                os.kill(pool.pids()[0], signal.SIGKILL)
                assert await wait_for_sync(
                    lambda: pool.alive_count() == pool.num_workers)()
                assert await wait_for_sync(
                    lambda: pool.stats()["worker_versions"] == [1, 1])()

                payload = await pool.submit(SinglePairQuery(56, 57))
                stats = pool.stats()
                return payload, stats
            finally:
                await pool.drain()

        payload, stats = asyncio.run(scenario())
        assert payload["graph_version"] == 1
        assert payload["score"] > 0.0
        assert stats["updates"] == 1
        assert stats["update_replays"] >= 1
        assert stats["graph_version"] == 1


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
