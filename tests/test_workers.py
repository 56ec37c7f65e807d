"""Multi-worker serving suite: protocol, pool supervision, front end, mmap.

Four pillars, mirroring the scale-out serving design:

* **wire protocol** — length-prefixed JSON frames survive a socketpair
  round-trip, and corrupt/oversized frames read as a dead peer, never as a
  mangled message;
* **worker pool** — N forked workers return *bit-identical* answers to the
  single-process planner (including through a shared memory-mapped index),
  a SIGKILL mid-stream loses zero accepted queries (exactly-once
  re-dispatch), a hung worker is heartbeat-killed and its work re-routed,
  a poison query that crashes every worker it touches exhausts its
  re-dispatch budget into a structured ``worker_lost`` error instead of
  looping forever, and drain rejects new work while answering old;
* **front end** — responses come back strictly in input order, shed mode
  answers overload with structured ``overloaded`` payloads while the
  accepted queries still resolve, and every stats surface is one
  ``json.dumps`` away from the wire;
* **mmap persistence** — ``load_index(mmap_mode='r')`` attaches arrays as
  read-only memory maps (uncompressed saves) or falls back per member
  (compressed saves), with the same streamed CRC verification rejecting
  bit-flipped files either way.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import struct

import numpy as np
import pytest

from repro.algorithms import registry
from repro.baselines.base import IndexPersistenceError, _array_checksum
from repro.graph.generators import preferential_attachment_graph
from repro.service import (
    ERROR_DRAINING,
    ERROR_OVERLOADED,
    ERROR_TIMEOUT,
    ERROR_WORKER_LOST,
    Frontend,
    QueryPlanner,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
    WorkerPool,
    outcome_to_wire,
)
from repro.service.faults import flip_byte
from repro.service.workers import (
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
)

CONFIGS = {
    "parsim": {"iterations": 10},
    "sling": {"epsilon": 3e-2, "seed": 7},
}

#: Payload keys that legitimately differ between runs (timings, cache routes).
VOLATILE_KEYS = ("query_seconds", "route", "batched")


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_graph(80, 3, directed=False, seed=5)


def make_factory(graph, *, index_dir=None, index_mmap=False):
    def factory() -> QueryPlanner:
        return QueryPlanner(graph, default_method="parsim",
                            method_configs=CONFIGS, cache_entries=32,
                            index_dir=index_dir, index_mmap=index_mmap)
    return factory


def stable(payload):
    return {key: value for key, value in payload.items()
            if key not in VOLATILE_KEYS}


def mixed_queries(graph, count=24, method=None):
    n = graph.num_nodes
    queries = []
    for i in range(count):
        if i % 3 == 0:
            queries.append(SinglePairQuery(i % n, (i * 7) % n, method=method))
        elif i % 3 == 1:
            queries.append(TopKQuery(i % n, k=5, method=method))
        else:
            queries.append(SingleSourceQuery(i % n, method=method))
    return queries


async def wait_for(predicate, timeout=15.0, interval=0.05):
    for _ in range(int(timeout / interval)):
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


# --------------------------------------------------------------------------- #
# wire protocol
# --------------------------------------------------------------------------- #
class TestFrameProtocol:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "batch", "id": 7,
                       "queries": [{"type": "top_k", "source": 3, "k": 5}]}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_eof_and_torn_frames_read_as_dead_peer(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"op": "x"})[:3])    # torn mid-header
            a.close()
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_oversized_length_prefix_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            assert recv_frame(b) is None
        finally:
            a.close()
            b.close()

    def test_non_object_payload_rejected(self):
        a, b = socket.socketpair()
        try:
            body = json.dumps([1, 2, 3]).encode()
            a.sendall(struct.pack(">I", len(body)) + body)
            assert recv_frame(b) is None
        finally:
            a.close()
            b.close()

    def test_async_reader_matches_blocking_writer(self):
        async def scenario():
            a, b = socket.socketpair()
            reader, _writer = await asyncio.open_connection(sock=b)
            send_frame(a, {"op": "heartbeat", "pid": 42})
            message = await read_frame(reader)
            a.close()
            assert await read_frame(reader) is None     # EOF after close
            return message

        assert asyncio.run(scenario()) == {"op": "heartbeat", "pid": 42}


# --------------------------------------------------------------------------- #
# worker pool
# --------------------------------------------------------------------------- #
class TestWorkerPool:
    def test_pool_matches_single_process_bit_identically(self, graph):
        queries = mixed_queries(graph)

        async def scenario():
            pool = WorkerPool(make_factory(graph), num_workers=2, batch_size=4)
            await pool.start()
            try:
                futures = [pool.submit(query) for query in queries]
                return await asyncio.gather(*futures)
            finally:
                await pool.drain()

        pooled = asyncio.run(scenario())
        planner = make_factory(graph)()
        reference = [json.loads(json.dumps(outcome_to_wire(outcome)))
                     for outcome in planner.answer(queries)]
        assert [stable(p) for p in pooled] == [stable(r) for r in reference]

    def test_chaos_sigkill_loses_zero_accepted_queries(self, graph):
        queries = mixed_queries(graph, count=40)

        async def scenario():
            pool = WorkerPool(make_factory(graph), num_workers=3, batch_size=4)
            await pool.start()
            try:
                futures = [pool.submit(query) for query in queries[:5]]
                await asyncio.gather(*futures)
                # Submit the rest and kill before yielding to the event loop:
                # nothing of it can have been answered yet, so the kill lands
                # while accepted queries are outstanding.
                futures += [pool.submit(query) for query in queries[5:]]
                victim = pool.pids()[0]
                os.kill(victim, signal.SIGKILL)
                payloads = await asyncio.wait_for(asyncio.gather(*futures), 60)
                # The death is counted once the supervisor observes it, and
                # the pool returns to full strength without operator action.
                # Drain stops counting deaths, so wait for both before the
                # stats snapshot.
                assert await wait_for(
                    lambda: pool.stats()["deaths"] >= 1
                    and pool.alive_count() == pool.num_workers)
                stats = pool.stats()
                return payloads, stats
            finally:
                await pool.drain()

        payloads, stats = asyncio.run(scenario())
        assert len(payloads) == len(queries)
        assert all("error" not in payload for payload in payloads)
        assert stats["deaths"] >= 1
        assert stats["spawns"] >= 4             # 3 initial + >= 1 respawn

    def test_hung_worker_is_heartbeat_killed_and_work_rerouted(self, graph):
        async def scenario():
            pool = WorkerPool(make_factory(graph), num_workers=2,
                              batch_size=1, heartbeat_interval=0.05,
                              heartbeat_timeout=0.5)
            await pool.start()
            try:
                # Warm both workers so their planners exist.
                await asyncio.gather(
                    pool.submit(SinglePairQuery(0, 3)),
                    pool.submit(SinglePairQuery(1, 4)))
                victim = pool.pids()[0]
                os.kill(victim, signal.SIGSTOP)
                payload = await asyncio.wait_for(
                    pool.submit(TopKQuery(0, k=5)), 30)
                stats = pool.stats()
                return payload, stats
            finally:
                await pool.drain()

        payload, stats = asyncio.run(scenario())
        assert "error" not in payload and payload["type"] == "top_k"
        assert stats["heartbeat_kills"] >= 1
        assert stats["deaths"] >= 1

    def test_poison_query_exhausts_redispatch_into_worker_lost(self, graph):
        base_factory = make_factory(graph)

        def poison_factory():
            planner = base_factory()

            class Poisoned:
                def answer(self, queries, deadline_ms=None):
                    if any(query.source == 13 for query in queries):
                        os._exit(1)             # simulated hard crash
                    return planner.answer(queries, deadline_ms=deadline_ms)

                def stats(self):
                    return planner.stats()

            return Poisoned()

        async def scenario():
            pool = WorkerPool(poison_factory, num_workers=2, batch_size=1,
                              max_redispatch=2)
            await pool.start()
            try:
                poisoned = await asyncio.wait_for(
                    pool.submit(SinglePairQuery(13, 2)), 60)
                healthy = await asyncio.wait_for(
                    pool.submit(SinglePairQuery(1, 2)), 60)
                return poisoned, healthy, pool.stats()
            finally:
                await pool.drain()

        poisoned, healthy, stats = asyncio.run(scenario())
        assert poisoned["code"] == ERROR_WORKER_LOST
        assert poisoned["attempts"] == 2
        assert "error" not in healthy           # the pool survives the poison
        assert stats["worker_lost"] == 1
        assert stats["deaths"] >= 3             # initial + 2 re-dispatches

    def test_queue_expired_deadline_is_structured_timeout(self, graph):
        async def scenario():
            pool = WorkerPool(make_factory(graph), num_workers=1)
            await pool.start()
            try:
                return await asyncio.wait_for(
                    pool.submit(SinglePairQuery(0, 1), deadline_ms=0.0), 30)
            finally:
                await pool.drain()

        payload = asyncio.run(scenario())
        assert payload["code"] == ERROR_TIMEOUT

    def test_drain_rejects_new_submissions(self, graph):
        async def scenario():
            pool = WorkerPool(make_factory(graph), num_workers=1)
            await pool.start()
            accepted = await pool.submit(SinglePairQuery(2, 3))
            final = await pool.drain()
            rejected = await pool.submit(SinglePairQuery(4, 5))
            return accepted, rejected, final

        accepted, rejected, final = asyncio.run(scenario())
        assert "error" not in accepted
        assert rejected["code"] == ERROR_DRAINING
        assert final["alive"] == 0              # every child reaped
        assert final["workers_drained"] == 1
        assert final["worker_planner_totals"]["queries"] == 1.0

    def test_pool_stats_json_serializable(self, graph):
        async def scenario():
            pool = WorkerPool(make_factory(graph), num_workers=1)
            await pool.start()
            try:
                await pool.submit(SinglePairQuery(0, 1))
                return pool.stats()
            finally:
                await pool.drain()

        stats = asyncio.run(scenario())
        assert json.loads(json.dumps(stats)) == stats
        assert stats["alive"] == 1 and stats["queries"] >= 1


# --------------------------------------------------------------------------- #
# shared memory-mapped index segments
# --------------------------------------------------------------------------- #
class TestSharedIndexSegments:
    @pytest.fixture()
    def index_dir(self, graph, tmp_path):
        algorithm = registry.create("sling", graph, CONFIGS["sling"])
        algorithm.preprocess()
        algorithm.save_index(tmp_path / f"{graph.name}.sling.npz",
                             compressed=False)
        return tmp_path

    def test_pool_on_mmapped_index_matches_single_process(self, graph,
                                                          index_dir):
        queries = mixed_queries(graph, count=12, method="sling")

        async def scenario():
            pool = WorkerPool(
                make_factory(graph, index_dir=index_dir, index_mmap=True),
                num_workers=2, batch_size=4)
            await pool.start()
            try:
                futures = [pool.submit(query) for query in queries]
                payloads = await asyncio.gather(*futures)
                return payloads, await pool.drain()
            finally:
                await pool.close()

        payloads, final = asyncio.run(scenario())
        planner = make_factory(graph, index_dir=index_dir)()
        reference = [json.loads(json.dumps(outcome_to_wire(outcome)))
                     for outcome in planner.answer(queries)]
        assert [stable(p) for p in payloads] == [stable(r) for r in reference]
        # Both workers attached the persisted index instead of rebuilding.
        assert final["worker_planner_totals"]["index_loads"] == 2.0


# --------------------------------------------------------------------------- #
# front end: ordering, shedding, drain
# --------------------------------------------------------------------------- #
class TestFrontend:
    def serve(self, graph, lines, **frontend_options):
        async def scenario():
            pool = WorkerPool(make_factory(graph), num_workers=2, batch_size=4)
            await pool.start()
            frontend = Frontend(pool, graph.num_nodes, **frontend_options)
            written = []
            try:
                failures = await frontend.serve_lines(lines, written.append)
            finally:
                await pool.drain()
            return written, failures, frontend.stats()

        return asyncio.run(scenario())

    def test_responses_in_input_order_with_error_lines_interleaved(self, graph):
        lines = [
            json.dumps({"type": "single_pair", "source": 1, "target": 2}),
            "not json at all",
            json.dumps({"type": "top_k", "source": 5, "k": 3}),
            json.dumps({"type": "top_k", "source": 0, "k": 10_000}),
            "# a comment line",
            json.dumps({"type": "single_pair", "source": 4, "target": 4}),
        ]
        written, failures, stats = self.serve(graph, lines)
        assert len(written) == 5                # comment skipped
        assert failures == 2
        assert written[0]["type"] == "single_pair"
        assert written[1]["code"] == "parse_error"
        assert written[2]["type"] == "top_k" and written[2]["k"] == 3
        assert written[3]["code"] == "invalid_query"
        assert written[4]["score"] == 1.0       # self-similarity
        assert stats["parse_errors"] == 1 and stats["invalid"] == 1

    def test_shed_mode_bounds_inflight_and_answers_excess(self, graph):
        lines = [json.dumps({"type": "single_pair",
                             "source": i % 10, "target": (i + 1) % 10})
                 for i in range(12)]
        written, failures, stats = self.serve(graph, lines,
                                              max_inflight=1, shed=True)
        assert len(written) == len(lines)       # every line answered
        shed = [w for w in written if w.get("code") == ERROR_OVERLOADED]
        served = [w for w in written if "error" not in w]
        assert shed and served
        assert len(shed) + len(served) == len(lines)
        assert stats["shed"] == len(shed) and stats["accepted"] == len(served)
        assert failures == len(shed)

    def test_backpressure_mode_serves_everything(self, graph):
        lines = [json.dumps({"type": "top_k", "source": i % 10, "k": 4})
                 for i in range(20)]
        written, failures, stats = self.serve(graph, lines, max_inflight=2)
        assert len(written) == len(lines)
        assert failures == 0 and stats["shed"] == 0

    def test_request_stop_drains_accepted_lines_only(self, graph):
        frontend_holder = {}

        async def scenario():
            pool = WorkerPool(make_factory(graph), num_workers=1)
            await pool.start()
            frontend = Frontend(pool, graph.num_nodes)
            frontend_holder["frontend"] = frontend
            written = []

            async def lines():
                yield json.dumps({"type": "single_pair",
                                  "source": 1, "target": 2})
                frontend.request_stop()         # the SIGTERM path
                yield json.dumps({"type": "single_pair",
                                  "source": 3, "target": 4})

            failures = await frontend.serve_lines(lines(), written.append)
            await pool.drain()
            return written, failures

        written, failures = asyncio.run(scenario())
        assert len(written) == 1                # accepted line answered
        assert failures == 0
        assert frontend_holder["frontend"].stopping

    def test_frontend_stats_json_serializable(self, graph):
        written, _failures, stats = self.serve(
            graph, [json.dumps({"type": "single_pair",
                                "source": 0, "target": 1})])
        assert json.loads(json.dumps(stats)) == stats
        assert stats["lines"] == 1 and stats["responses"] == 1


# --------------------------------------------------------------------------- #
# mmap persistence: attach without materializing, verify by streamed CRC
# --------------------------------------------------------------------------- #
class TestMmapPersistence:
    @pytest.fixture()
    def algorithm(self, graph):
        return registry.create("sling", graph, CONFIGS["sling"]).preprocess()

    @staticmethod
    def _backed_by_map(array) -> bool:
        base = array
        while base is not None:
            if isinstance(base, np.memmap):
                return True
            base = getattr(base, "base", None)
        return False

    def test_uncompressed_load_attaches_memory_maps(self, algorithm, graph,
                                                    tmp_path):
        from repro.baselines.base import _mmap_npz_payload

        path = tmp_path / "index.npz"
        algorithm.save_index(path, compressed=False)
        payload = _mmap_npz_payload(path)
        mapped = [array for array in payload.values()
                  if isinstance(array, np.memmap)]
        assert mapped                            # real maps, not copies
        assert all(not array.flags.writeable for array in mapped)
        # And the restored algorithm keeps views of the mapping (asarray
        # re-classes but must not copy).
        fresh = registry.create("sling", graph, CONFIGS["sling"])
        fresh.load_index(path, mmap_mode="r")
        assert any(self._backed_by_map(array)
                   for array in fresh._index_payload().values())

    def test_mmap_answers_bit_identical_to_materialized(self, algorithm,
                                                        graph, tmp_path):
        path = tmp_path / "index.npz"
        algorithm.save_index(path, compressed=False)
        materialized = registry.create("sling", graph, CONFIGS["sling"])
        materialized.load_index(path)
        mmapped = registry.create("sling", graph, CONFIGS["sling"])
        mmapped.load_index(path, mmap_mode="r")
        for source in (0, 5, 17):
            assert np.array_equal(materialized.single_source(source).scores,
                                  mmapped.single_source(source).scores)

    def test_compressed_save_still_loads_with_mmap_mode(self, algorithm,
                                                        graph, tmp_path):
        path = tmp_path / "index.npz"
        algorithm.save_index(path, compressed=True)
        fresh = registry.create("sling", graph, CONFIGS["sling"])
        fresh.load_index(path, mmap_mode="r")    # per-member fallback
        assert np.array_equal(algorithm.single_source(3).scores,
                              fresh.single_source(3).scores)

    @pytest.mark.parametrize("compressed", [False, True])
    def test_bit_flip_detected_under_mmap(self, algorithm, graph, tmp_path,
                                          compressed):
        path = tmp_path / "index.npz"
        algorithm.save_index(path, compressed=compressed)
        flip_byte(path, int(path.stat().st_size * 0.7))
        fresh = registry.create("sling", graph, CONFIGS["sling"])
        with pytest.raises(IndexPersistenceError) as info:
            fresh.load_index(path, mmap_mode="r")
        assert str(path) in str(info.value)

    def test_invalid_mmap_mode_rejected(self, algorithm, tmp_path):
        path = tmp_path / "index.npz"
        algorithm.save_index(path)
        with pytest.raises(ValueError, match="mmap_mode"):
            algorithm.load_index(path, mmap_mode="r+")

    def test_streamed_checksum_matches_single_shot(self):
        rng = np.random.default_rng(3)
        contiguous = rng.standard_normal((257, 33))
        fortran = np.asfortranarray(contiguous)
        scalar = np.float64(1.5)
        for array in (contiguous, fortran, scalar,
                      np.arange(10_000, dtype=np.int64)):
            reference = _array_checksum(array)
            streamed = _array_checksum(array, chunk_bytes=1 << 10)
            assert streamed == reference
