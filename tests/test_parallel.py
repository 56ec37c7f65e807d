"""Thread-invariance and multicore-substrate tests.

The determinism contract of the two threaded kernel paths is one rule:
answers are bit-identical at every thread count.  Column-blocked
``parallel_spmm`` (and the PRSim and SLING index builds of
``dense_lane_levels``, which run on it) never changes a per-element
summation order, and neither does the kernel's lane chunking; a chunked
pair walk draws from a stream fixed by the chunk's position in the input,
and a call of at most ``PAIR_CHUNK`` pairs is one chunk on the caller's
own stream.

Plus the pool-level machinery the substrate feeds: the shared-memory graph
segment lifecycle (adopt, destroy, no leak across chaos kills), respawn
prewarming, and restart-after-WAL-compaction recovery.
"""

import asyncio
import os
import signal

import numpy as np
import pytest

from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.graph.updates import (
    EdgeBatch,
    GraphCheckpoint,
    UpdateLog,
    WalCorruptionError,
)
from repro.kernels import parallel
from repro.kernels.multiprop import MultiPropagation
from repro.randomwalk import aggregate
from repro.randomwalk.aggregate import advance_frontier
from repro.randomwalk.engine import SqrtCWalkEngine
from repro.utils.deadline import Deadline, DeadlineExceeded, deadline_scope

THREAD_COUNTS = (1, 2, 4)


@pytest.fixture
def random_graph():
    rng = np.random.default_rng(42)
    edges = rng.integers(0, 300, size=(1500, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return DiGraph.from_edges(edges, 300, name="par-test")


@pytest.fixture
def forced_parallel(monkeypatch):
    """Drop the work threshold so even tiny fixtures take the blocked path."""
    monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 1)


# --------------------------------------------------------------------------- #
# thread-count plumbing
# --------------------------------------------------------------------------- #
def test_env_var_sets_default(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "3")
    assert parallel.default_num_threads() == 3


def test_env_var_garbage_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "not-a-number")
    assert parallel.default_num_threads() >= 1


def test_default_threads_follow_the_affinity_mask(monkeypatch):
    """Under taskset or a cpuset the usable CPUs, not the host's, set the
    kernel thread count and the pool's per-worker default."""
    from repro.service.workers import WorkerPool

    monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert parallel.default_num_threads() == 1
    assert WorkerPool(lambda: None, num_workers=1).worker_threads == 1


def test_set_get_num_threads():
    saved = parallel.get_num_threads()
    try:
        parallel.set_num_threads(2)
        assert parallel.get_num_threads() == 2
        parallel.set_num_threads(0)                 # clamps to 1
        assert parallel.get_num_threads() == 1
    finally:
        parallel.set_num_threads(saved)


def test_column_blocks_cover_and_partition():
    blocks = parallel.column_blocks(17, threads=4)
    assert blocks[0][0] == 0 and blocks[-1][1] == 17
    for (_, hi), (lo, _) in zip(blocks, blocks[1:]):
        assert hi == lo


# --------------------------------------------------------------------------- #
# column-blocked products
# --------------------------------------------------------------------------- #
def test_parallel_spmm_bit_identical(random_graph, forced_parallel):
    matrix = GraphContext.shared(random_graph).operator(0.6).matrix
    rng = np.random.default_rng(0)
    dense = rng.random((random_graph.num_nodes, 32))
    serial = matrix @ dense
    for threads in THREAD_COUNTS:
        out = parallel.parallel_spmm(matrix, dense, threads=threads)
        assert np.array_equal(out, serial)


def test_parallel_spmm_single_column_and_vector(random_graph):
    matrix = GraphContext.shared(random_graph).operator(0.6).matrix
    vector = np.random.default_rng(1).random(random_graph.num_nodes)
    assert np.array_equal(parallel.parallel_spmm(matrix, vector, threads=4),
                          matrix @ vector)
    column = vector.reshape(-1, 1)
    assert np.array_equal(parallel.parallel_spmm(matrix, column, threads=4),
                          matrix @ column)


def test_dense_lane_propagation_thread_invariant(random_graph,
                                                 forced_parallel):
    """PRSim's hub build and SLING's hop matrices: unit columns propagated
    by parallel_spmm, stored as one sparse matrix per level."""
    from repro.baselines.prsim import PRSim
    from repro.baselines.sling import SLING

    prsim = PRSim(random_graph, epsilon=1e-2, hub_fraction=0.1, seed=5)
    hubs = np.argsort(-random_graph.in_degrees)[:16].astype(np.int64)
    threshold = (1.0 - prsim._operator.sqrt_c) ** 2 * prsim.epsilon
    builds, hops = {}, {}
    for threads in THREAD_COUNTS:
        parallel.set_num_threads(threads)
        try:
            builds[threads] = prsim._build_hub_vectors(
                hubs, prsim.num_iterations(), threshold)
            hops[threads] = SLING(random_graph, epsilon=1e-2,
                                  seed=5).preprocess()._hop_matrices
        finally:
            parallel.set_num_threads(parallel.default_num_threads())
    for threads in THREAD_COUNTS[1:]:
        for built in (builds, hops):
            assert len(built[threads]) == len(built[1])
            for a, b in zip(built[threads], built[1]):
                assert np.array_equal(a.indptr, b.indptr)
                assert np.array_equal(a.indices, b.indices)
                assert np.array_equal(a.data, b.data)


def test_dense_lane_chunks_match_one_chunk(directed_graph, monkeypatch):
    """A lane budget of 7 lanes splits both index builds into chunks with a
    short last one (PRSim's 15 hubs into 7 + 7 + 1, SLING's 100 nodes into
    14 × 7 + 2); every stored array equals the one-chunk build's."""
    from repro.baselines.prsim import PRSim
    from repro.baselines.sling import SLING

    def build():
        sling = SLING(directed_graph, epsilon=1e-2, seed=3).preprocess()
        prsim = PRSim(directed_graph, epsilon=1e-2, hub_fraction=0.15,
                      seed=11).preprocess()
        return sling, prsim

    sling_one, prsim_one = build()
    monkeypatch.setattr(parallel, "DENSE_LANE_BYTES",
                        8 * directed_graph.num_nodes * 7)
    starts = {chunk_start for chunk_start, _, _ in parallel.dense_lane_levels(
        prsim_one._operator.matrix_t, prsim_one._hubs, 1, 0.5)}
    assert starts == {0, 7, 14} and prsim_one._hubs.shape[0] == 15
    sling_chunked, prsim_chunked = build()

    assert len(sling_chunked._hop_matrices) == len(sling_one._hop_matrices)
    for a, b in zip(sling_chunked._hop_matrices, sling_one._hop_matrices):
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)
    chunked_payload = prsim_chunked._index_payload()
    for key, array in prsim_one._index_payload().items():
        assert np.array_equal(chunked_payload[key], array), key


def test_probe_kernel_thread_invariant(random_graph, forced_parallel):
    """The dense probe steps run on parallel_spmm: PRSim's and ProbeSim's
    answers, with every probe batch forced dense, are the same at 1, 2 and 4
    threads, and the same as COO steps only."""
    from repro.baselines.probesim import ProbeSim
    from repro.baselines.prsim import PRSim
    from repro.kernels import frontier

    prsim = PRSim(random_graph, epsilon=1e-2, hub_fraction=0.1,
                  seed=5).preprocess()
    sources = (0, 17, 123)

    def answers():
        out = [prsim.single_source(source).scores for source in sources]
        out += [prsim.top_k(source, k=10).scores for source in sources]
        out += [ProbeSim(random_graph, num_walks=50, seed=9)
                .single_source(source).scores for source in sources]
        return out

    original = frontier.DENSE_PROBE_FILL
    try:
        frontier.DENSE_PROBE_FILL = np.inf
        expected = answers()
        frontier.DENSE_PROBE_FILL = 0.0
        for threads in THREAD_COUNTS:
            parallel.set_num_threads(threads)
            for got, want in zip(answers(), expected):
                assert np.array_equal(got, want)
    finally:
        frontier.DENSE_PROBE_FILL = original
        parallel.set_num_threads(parallel.default_num_threads())


@pytest.mark.parametrize("wide", [False, True])
def test_multiprop_advance_thread_invariant(random_graph, forced_parallel,
                                            wide):
    """Stacked lanes, and (``wide``) a lane past the narrow cap that
    advances through the per-lane kernel."""
    sources = np.argsort(-random_graph.in_degrees)[:24].astype(np.int64)
    rows, cols = np.arange(sources.size), sources
    if wide:
        rows = np.concatenate([rows, np.full(200, sources.size)])
        cols = np.concatenate([cols, np.arange(200)])
    states = {}
    for threads in THREAD_COUNTS:
        parallel.set_num_threads(threads)
        try:
            prop = MultiPropagation(random_graph, int(rows.max()) + 1)
            prop.seed(rows, cols, np.ones(rows.size))
            for _ in range(3):
                prop.step()
            states[threads] = (prop.rows.copy(), prop.cols.copy(),
                               prop.values.copy())
        finally:
            parallel.set_num_threads(parallel.default_num_threads())
    for threads in THREAD_COUNTS[1:]:
        for a, b in zip(states[threads], states[1]):
            assert np.array_equal(a, b)


def test_multiprop_single_lane_b1(random_graph, forced_parallel):
    """B=1: a single lane steps identically at every thread count."""
    start = np.array([int(np.argmax(random_graph.in_degrees))])
    prop = MultiPropagation(random_graph, 1)
    prop.seed(np.zeros(1), start, np.ones(1))
    reference = MultiPropagation(random_graph, 1)
    reference.seed(np.zeros(1), start, np.ones(1))
    for threads in THREAD_COUNTS:
        parallel.set_num_threads(threads)
        try:
            prop.step()
        finally:
            parallel.set_num_threads(parallel.default_num_threads())
        reference.step()
        assert np.array_equal(prop.cols, reference.cols)
        assert np.array_equal(prop.values, reference.values)


def test_multiprop_empty_frontier(forced_parallel):
    """An empty stacked state advances to an empty state at any width."""
    graph = DiGraph.from_edges([(0, 1), (1, 2)], 3, name="tiny")
    for threads in THREAD_COUNTS:
        parallel.set_num_threads(threads)
        try:
            prop = MultiPropagation(graph, 4)
            prop.step()
            assert prop.rows.size == 0
        finally:
            parallel.set_num_threads(parallel.default_num_threads())


def test_dangling_nodes_thread_invariant(forced_parallel):
    """Lanes seeded on dangling nodes (no in-neighbours) die identically."""
    graph = DiGraph.from_edges([(0, 1), (2, 1), (3, 4)], 6, name="dangle")
    dangling = graph.dangling_nodes()
    assert dangling.size > 0
    seeds = np.array([int(dangling[0]), 1, 4], dtype=np.int64)
    states = {}
    for threads in THREAD_COUNTS:
        parallel.set_num_threads(threads)
        try:
            prop = MultiPropagation(graph, seeds.size)
            prop.seed(np.arange(seeds.size), seeds, np.ones(seeds.size))
            prop.step()
            states[threads] = (prop.rows.copy(), prop.cols.copy())
        finally:
            parallel.set_num_threads(parallel.default_num_threads())
    for threads in THREAD_COUNTS[1:]:
        for a, b in zip(states[threads], states[1]):
            assert np.array_equal(a, b)


# --------------------------------------------------------------------------- #
# chunked pair walks
# --------------------------------------------------------------------------- #
def _with_threads(threads, fn):
    parallel.set_num_threads(threads)
    try:
        return fn()
    finally:
        parallel.set_num_threads(parallel.default_num_threads())


#: 40 origins of 2,000 pairs in chunks of 5,000: 16 chunks, and origin 2
#: (pairs 4,000-5,999) crosses the first chunk boundary.
SMALL_CHUNK = 5_000


@pytest.fixture
def small_chunks(monkeypatch):
    """Cut pair walks into SMALL_CHUNK-pair chunks, and record the chunk
    count of every pair walk."""
    monkeypatch.setattr(aggregate, "PAIR_CHUNK", SMALL_CHUNK)
    chunks = []
    original = parallel.run_blocks

    def recording(fn, blocks):
        blocks = list(blocks)
        chunks.append(len(blocks))
        return original(fn, blocks)

    monkeypatch.setattr(parallel, "run_blocks", recording)
    return chunks


def _pair_origins(graph):
    nodes = np.flatnonzero(graph.in_degrees > 1)[:40].astype(np.int64)
    return nodes, np.full(nodes.size, 2_000, dtype=np.int64)


def _meet_counts(graph, nodes, pairs, threads, seed=7, skip_steps=0):
    return _with_threads(threads, lambda: SqrtCWalkEngine(
        graph, 0.6, seed=seed).pair_meet_counts(nodes, pairs, max_steps=40,
                                                skip_steps=skip_steps))


def test_chunked_pair_meet_counts_thread_invariant(random_graph,
                                                   small_chunks,
                                                   per_pair_switches):
    """Plain pairs, and Algorithm 3 tails with per-origin non-stop
    prefixes of 0 to 7 steps, meet the same counts at every thread
    count."""
    nodes, pairs = _pair_origins(random_graph)
    ends = np.cumsum(pairs)
    boundaries = np.arange(SMALL_CHUNK, ends[-1], SMALL_CHUNK)
    assert not np.isin(boundaries, ends).all()      # an origin is split
    for skips in (0, np.arange(nodes.size) % 8):
        met = {threads: _meet_counts(random_graph, nodes, pairs, threads,
                                     skip_steps=skips)
               for threads in THREAD_COUNTS}
        assert min(small_chunks) >= 3
        # Chunks crossed into the one-slot-per-pair phase, which holds at
        # most one chunk's pairs.
        assert per_pair_switches
        assert max(size for _, size in per_pair_switches) <= SMALL_CHUNK
        per_pair_switches.clear()
        for threads in THREAD_COUNTS[1:]:
            assert np.array_equal(met[threads], met[1])


def test_sharded_pair_meet_counts_deterministic(random_graph, small_chunks):
    """The same seed gives the same counts when the pairs are sharded into
    chunks across threads."""
    nodes, pairs = _pair_origins(random_graph)
    first = _meet_counts(random_graph, nodes, pairs, threads=2)
    assert min(small_chunks) >= 3               # the chunked path ran
    second = _meet_counts(random_graph, nodes, pairs, threads=2)
    assert np.array_equal(first, second)


def test_sharded_pair_meet_counts_within_pairs(random_graph, small_chunks):
    nodes, pairs = _pair_origins(random_graph)
    met = _meet_counts(random_graph, nodes, pairs, threads=2)
    assert min(small_chunks) >= 3
    assert met.shape == pairs.shape
    assert np.all(met >= 0) and np.all(met <= pairs)


def test_chunked_pair_meet_fraction_matches_one_chunk(random_graph,
                                                      monkeypatch):
    """Splitting into chunks keeps the distribution: the pooled meet
    fraction of a many-chunk run lies within a binomial bound of a
    one-chunk run's."""
    nodes, pairs = _pair_origins(random_graph)
    whole = _meet_counts(random_graph, nodes, pairs, threads=1, seed=11)
    monkeypatch.setattr(aggregate, "PAIR_CHUNK", SMALL_CHUNK)
    chunked = _meet_counts(random_graph, nodes, pairs, threads=2, seed=12)
    total = int(pairs.sum())
    p_whole, p_chunked = whole.sum() / total, chunked.sum() / total
    # Two independent binomial(total, p) fractions: 5 standard deviations
    # of their difference.
    bound = 5.0 * np.sqrt(2.0 * p_whole * (1.0 - p_whole) / total)
    assert abs(p_chunked - p_whole) <= bound


def test_chunked_exactsim_batch_thread_invariant(random_graph, small_chunks):
    from repro.algorithms import registry

    config = {"epsilon": 1e-2, "seed": 5, "max_total_samples": 20_000}
    sources = [3, 17, 101]

    def batch():
        algorithm = registry.create("exactsim", random_graph, dict(config))
        return [result.scores
                for result in algorithm.single_source_batch(sources)]

    scores = {threads: _with_threads(threads, batch)
              for threads in THREAD_COUNTS}
    assert max(small_chunks) >= 3
    for threads in THREAD_COUNTS[1:]:
        for a, b in zip(scores[threads], scores[1]):
            assert np.array_equal(a, b)


def test_chunked_walk_honours_an_expired_deadline(random_graph,
                                                  small_chunks):
    """Chunk tasks run in the caller's context, so a pool thread sees the
    route's deadline and stops at its first walk step."""
    nodes, pairs = _pair_origins(random_graph)
    with deadline_scope(Deadline(-1.0)):
        with pytest.raises(DeadlineExceeded):
            _meet_counts(random_graph, nodes, pairs, threads=2)
    assert min(small_chunks) >= 3


def test_advance_frontier_auto_matches_serial(random_graph):
    """Walk advancement has no threaded variant: at 4 threads it keeps the
    serial stream bit for bit."""
    in_degrees = random_graph.in_degrees
    nodes = np.flatnonzero(in_degrees > 0).astype(np.int64)
    counts = np.full(nodes.size, 9, dtype=np.int64)

    def advance(threads):
        return _with_threads(threads, lambda: advance_frontier(
            np.random.default_rng(7), random_graph.in_indptr,
            random_graph.in_indices, in_degrees, nodes, counts, 0.8))

    auto, serial = advance(4), advance(1)
    assert np.array_equal(auto[0], serial[0])
    assert np.array_equal(auto[1], serial[1])


def test_advance_frontier_empty(random_graph):
    empty = np.array([], dtype=np.int64)
    dests, split = advance_frontier(
        np.random.default_rng(0), random_graph.in_indptr,
        random_graph.in_indices, random_graph.in_degrees, empty, empty,
        0.8)
    assert dests.size == 0 and split.size == 0


# --------------------------------------------------------------------------- #
# consumers: end-to-end answers are thread-invariant
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("method,config", [
    ("sling", {"epsilon": 1e-2, "seed": 5}),
    ("linearization", {"samples_per_node": 30, "epsilon": 1e-3, "seed": 5}),
    ("exactsim", {"epsilon": 1e-2, "seed": 5, "max_total_samples": 20_000}),
])
def test_method_answers_thread_invariant(random_graph, forced_parallel,
                                         method, config):
    from repro.algorithms import registry

    scores = {}
    for threads in (1, 4):
        parallel.set_num_threads(threads)
        try:
            algorithm = registry.create(method, random_graph, dict(config))
            algorithm.preprocess()
            scores[threads] = algorithm.single_source(3).scores
        finally:
            parallel.set_num_threads(parallel.default_num_threads())
    assert np.array_equal(scores[1], scores[4])


# --------------------------------------------------------------------------- #
# shared-memory graph segments
# --------------------------------------------------------------------------- #
def _segment_graph():
    rng = np.random.default_rng(99)
    edges = rng.integers(0, 80, size=(350, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return DiGraph.from_edges(edges, 80, name="segment-graph")


# Adopting in the creating process (workers adopt post-fork in production)
# leaves numpy views exporting the segment buffer, so the SharedMemory's
# GC-time close raises a BufferError it cannot deliver — expected here.
@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")
def test_graph_segment_lifecycle():
    from repro.service.shm import GraphSegment

    graph = _segment_graph()
    context = GraphContext(graph)
    segment = GraphSegment.create(graph, decays=(0.6,), context=context)
    try:
        assert segment.exists()
        assert segment.nbytes > 0
        before = graph.in_indices.copy()
        rebound = segment.adopt()
        assert rebound >= 6
        assert np.array_equal(graph.in_indices, before)
        assert not graph.in_indices.flags.writeable
        matrix = context.operator(0.6).matrix
        assert not matrix.data.flags.writeable
    finally:
        segment.destroy()
    assert not segment.exists()
    segment.destroy()                               # idempotent


def test_graph_segment_destroy_unlinks_once():
    from repro.service.shm import GraphSegment

    graph = _segment_graph()
    segment = GraphSegment.create(graph, context=GraphContext(graph))
    name = segment.name
    segment.destroy()
    assert not os.path.exists(os.path.join("/dev/shm", name.lstrip("/"))) \
        or not os.path.isdir("/dev/shm")


async def _wait_for(predicate, timeout=15.0, interval=0.05):
    for _ in range(int(timeout / interval)):
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


def _pool_factory(graph):
    from repro.service.planner import QueryPlanner

    def factory():
        return QueryPlanner(graph, default_method="sling",
                            method_configs={"sling": {"epsilon": 3e-2,
                                                      "seed": 7}},
                            cache_entries=32)
    return factory


def test_pool_segment_survives_chaos_kill_then_unlinks():
    """The acceptance scenario: a SIGKILLed worker neither corrupts nor
    unlinks the shared segment; only the supervisor's drain does."""
    import signal

    from repro.service.workers import WorkerPool
    from repro.service.queries import SinglePairQuery

    graph = _segment_graph()
    queries = [SinglePairQuery(s, t) for s, t in
               [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]]

    async def scenario():
        pool = WorkerPool(_pool_factory(graph), num_workers=2, batch_size=2,
                          shared_graph=graph, shared_decays=(0.6,))
        await pool.start()
        try:
            segment = pool.segment
            assert segment is not None and segment.exists()
            first = await asyncio.gather(*[pool.submit(q)
                                           for q in queries[:3]])
            os.kill(pool.pids()[0], signal.SIGKILL)
            # Wait for the supervisor to *register* the death, not just for
            # a full roster — a killed pid can linger as a zombie that
            # alive_count still sees before the heartbeat loop reaps it.
            assert await _wait_for(lambda: pool.stats()["deaths"] >= 1)
            assert await _wait_for(
                lambda: pool.alive_count() == pool.num_workers)
            assert segment.exists()                  # kill did not unlink
            second = await asyncio.gather(*[pool.submit(q)
                                            for q in queries[3:]])
            stats = pool.stats()
            assert stats["shared_segment_bytes"] == segment.nbytes
        finally:
            await pool.drain()
        return segment, first + second, stats

    segment, payloads, stats = asyncio.run(scenario())
    assert not segment.exists()                      # drain unlinked exactly once
    assert all("error" not in p for p in payloads)
    assert stats["deaths"] >= 1


def test_respawned_worker_prewarms_hot_sources():
    """Cold-respawn affinity: the replacement worker re-answers its slot's
    recent sources before rejoining the rotation."""
    import signal

    from repro.service.workers import WorkerPool
    from repro.service.queries import SingleSourceQuery

    graph = _segment_graph()
    queries = [SingleSourceQuery(source=s) for s in (1, 2, 3, 4, 5)]

    async def scenario():
        pool = WorkerPool(_pool_factory(graph), num_workers=1, batch_size=2)
        await pool.start()
        try:
            await asyncio.gather(*[pool.submit(q) for q in queries])
            os.kill(pool.pids()[0], signal.SIGKILL)
            assert await _wait_for(
                lambda: pool.alive_count() == pool.num_workers)
            assert await _wait_for(
                lambda: pool.stats()["prewarmed_sources"] > 0)
            # The prewarmed worker still answers correctly afterwards.
            payload = await pool.submit(queries[0])
            assert "error" not in payload
            return pool.stats()
        finally:
            await pool.drain()

    stats = asyncio.run(scenario())
    assert stats["prewarms"] >= 1
    assert stats["prewarmed_sources"] >= 1


# --------------------------------------------------------------------------- #
# WAL compaction + checkpoint recovery
# --------------------------------------------------------------------------- #
def _ckpt_graph():
    rng = np.random.default_rng(11)
    edges = rng.integers(0, 120, size=(500, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return DiGraph.from_edges(edges, 120, name="ckpt-graph")


def test_checkpoint_roundtrip(tmp_path):
    graph = _ckpt_graph()
    checkpoint = GraphCheckpoint(tmp_path / "g.checkpoint.npz")
    checkpoint.save(graph, 5)
    loaded, version = checkpoint.load()
    assert version == 5
    assert np.array_equal(loaded.fingerprint(), graph.fingerprint())


def test_checkpoint_missing_is_none(tmp_path):
    assert GraphCheckpoint(tmp_path / "absent.npz").load() is None


def test_checkpoint_corruption_fails_loudly(tmp_path):
    graph = _ckpt_graph()
    checkpoint = GraphCheckpoint(tmp_path / "g.checkpoint.npz")
    checkpoint.save(graph, 1)
    blob = bytearray(checkpoint.path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    checkpoint.path.write_bytes(bytes(blob))
    with pytest.raises(WalCorruptionError):
        checkpoint.load()


def test_recover_after_compaction(tmp_path):
    """The satellite's core scenario: compact, restart, replay the tail."""
    wal = UpdateLog(tmp_path / "updates.wal")
    context = GraphContext(_ckpt_graph())
    for k in range(3):
        context.apply_updates(EdgeBatch.from_wire(
            {"type": "update", "insert": [[k, 100 + k]], "delete": []}),
            wal=wal)
    GraphCheckpoint.for_wal(wal).save(context.graph_at(2), 2)
    assert wal.compact(2) == 1                      # only version 3 survives

    restarted = GraphContext(_ckpt_graph())
    assert restarted.recover(wal) == 1
    assert restarted.graph_version == 3
    assert np.array_equal(restarted.graph.fingerprint(),
                          context.graph.fingerprint())


def test_recover_checkpoint_only(tmp_path):
    """A fully compacted WAL (empty tail) still restores the checkpoint."""
    wal = UpdateLog(tmp_path / "updates.wal")
    context = GraphContext(_ckpt_graph())
    for k in range(2):
        context.apply_updates(EdgeBatch.from_wire(
            {"type": "update", "insert": [[k, 50 + k]], "delete": []}),
            wal=wal)
    GraphCheckpoint.for_wal(wal).save(context.graph, 2)
    assert wal.compact(2) == 0

    restarted = GraphContext(_ckpt_graph())
    assert restarted.recover(wal) == 0
    assert restarted.graph_version == 2
    assert np.array_equal(restarted.graph.fingerprint(),
                          context.graph.fingerprint())


def test_recover_rejects_foreign_checkpoint(tmp_path):
    wal = UpdateLog(tmp_path / "updates.wal")
    other = DiGraph.from_edges([(0, 1), (1, 2)], 3, name="other")
    GraphCheckpoint.for_wal(wal).save(other, 4)
    with pytest.raises(WalCorruptionError):
        GraphContext(_ckpt_graph()).recover(wal)


def test_planner_compacts_after_swap(tmp_path):
    """The serving loop truncates the WAL once indices + checkpoint land."""
    from repro.service.planner import QueryPlanner
    from repro.service.queries import SingleSourceQuery

    wal = UpdateLog(tmp_path / "updates.wal")
    index_dir = tmp_path / "indices"
    config = {"prsim": {"seed": 11, "epsilon": 0.1}}

    graph = _ckpt_graph()
    planner = QueryPlanner(graph, context=GraphContext(graph),
                           default_method="prsim",
                           method_configs=config, index_dir=index_dir,
                           save_indices=True, wal=wal)
    first = planner.answer([SingleSourceQuery(source=3)])[0]
    planner.apply_updates(EdgeBatch.from_wire(
        {"type": "update", "insert": [[1, 100]], "delete": []}))
    report = planner.complete_repairs()
    assert report["wal"]["compacted_to"] == 1
    assert report["wal"]["indices_persisted"] >= 1
    assert wal.replay() == []                       # prefix gone
    assert GraphCheckpoint.for_wal(wal).exists()
    answer = planner.answer([SingleSourceQuery(source=3)])[0]

    # Restart: a *private* fresh context (a real process restart would not
    # share the old one), so recovery must come from the checkpoint; the
    # persisted index then loads against the recovered graph and the
    # answers match bit-for-bit.
    fresh = _ckpt_graph()
    restarted = QueryPlanner(fresh, context=GraphContext(fresh),
                             default_method="prsim",
                             method_configs=config, index_dir=index_dir,
                             save_indices=True, wal=wal)
    assert restarted.graph_version == 1
    again = restarted.answer([SingleSourceQuery(source=3)])[0]
    assert np.array_equal(answer.result.scores, again.result.scores)
    assert restarted.stats()["index_loads"] >= 1
