"""Statistical-equivalence suite: compacted/aggregated engine vs reference.

The production :class:`SqrtCWalkEngine` compacts to the live frontier and
aggregates identical walk states into counts, so its RNG schedule differs
from the full-width :class:`ReferenceWalkEngine` (the executable spec).  The
two must nevertheless simulate the *same process*: these tests pin

* visit-count distributions (per step and total) within sampling tolerance,
* meeting probabilities (plain, batched origins and non-stop-prefix tail)
  within sampling tolerance,
* exact seed-determinism of the compacted path, including a pinned fixture
  so a change to the RNG consumption pattern cannot slip through unnoticed,
* alive-compaction edge cases: all walks dead at step 1, dangling nodes
  mid-walk, ``skip_steps`` prefixes;
* the post-prefix coin drawn before any move: only its survivors walk.
"""

import inspect

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import power_law_graph
from repro.randomwalk import aggregate
from repro.randomwalk.aggregate import group_sum, multinomial_split
from repro.randomwalk.engine import SqrtCWalkEngine
from specs.exact_diagonal import exact_diagonal
from specs.walks import ReferenceWalkEngine

DECAY = 0.6


@pytest.fixture(scope="module")
def walk_graph():
    """Directed power-law graph with hubs and dangling nodes."""
    return power_law_graph(400, 4.0, exponent=2.1, directed=True, seed=17)


class TestKernels:
    def test_group_sum_matches_manual(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, 200)
        b = rng.integers(0, 7, 200)
        counts = rng.integers(1, 9, 200)
        (ua, ub), sums = group_sum(counts, a, b)
        totals = {}
        for x, y, c in zip(a, b, counts):
            totals[(int(x), int(y))] = totals.get((int(x), int(y)), 0) + int(c)
        assert len(sums) == len(totals)
        for x, y, s in zip(ua, ub, sums):
            assert totals[(int(x), int(y))] == int(s)
        # Lexicographic order with the last key primary.
        keys = list(zip(ub.tolist(), ua.tolist()))
        assert keys == sorted(keys)

    def test_group_sum_wide_keys_fall_back_to_lexsort(self):
        huge = np.array([0, 2 ** 61, 0, 2 ** 61], dtype=np.int64)
        small = np.array([1, 1, 1, 0], dtype=np.int64)
        counts = np.array([1, 2, 3, 4], dtype=np.int64)
        (u_small, u_huge), sums = group_sum(counts, small, huge)
        assert sums.sum() == 10
        assert set(zip(u_small.tolist(), u_huge.tolist())) == \
            {(1, 0), (1, 2 ** 61), (0, 2 ** 61)}

    def test_multinomial_split_conserves_counts(self, walk_graph):
        rng = np.random.default_rng(1)
        eligible = np.flatnonzero(walk_graph.in_degrees > 0)
        nodes = eligible[:50].astype(np.int64)
        counts = rng.integers(1, 1000, nodes.shape[0])
        rows, dests, split = multinomial_split(
            rng, walk_graph.in_indptr, walk_graph.in_indices, nodes, counts)
        assert split.sum() == counts.sum()
        per_row = np.bincount(rows, weights=split, minlength=nodes.shape[0])
        assert np.array_equal(per_row.astype(np.int64), counts)
        # Every destination must be an in-neighbour of its source state.
        for row, dest in zip(rows[:200], dests[:200]):
            assert dest in walk_graph.in_neighbors(int(nodes[row]))

    def test_multinomial_split_pow2_padding_stays_on_real_neighbours(self):
        # Degrees 3, 5, 6, 7 pad to buckets 4 and 8: padded zero-probability
        # columns must never emit a walk, and every destination must be a
        # true in-neighbour of its state even at huge counts (the leftover
        # of the sequential binomial draws lands on the LAST — real —
        # category by construction).
        edges = []
        hubs = {0: 3, 10: 5, 20: 6, 30: 7}
        leaf = 40
        for hub, degree in hubs.items():
            for _ in range(degree):
                edges.append((leaf, hub))
                leaf += 1
        graph = DiGraph.from_edges(edges)
        rng = np.random.default_rng(8)
        nodes = np.array(sorted(hubs), dtype=np.int64)
        counts = np.full(nodes.shape[0], 100_000, dtype=np.int64)
        rows, dests, split = multinomial_split(
            rng, graph.in_indptr, graph.in_indices, nodes, counts)
        per_row = np.bincount(rows, weights=split, minlength=nodes.shape[0])
        assert np.array_equal(per_row.astype(np.int64), counts)
        for row in range(nodes.shape[0]):
            neighbours = set(graph.in_neighbors(int(nodes[row])).tolist())
            assert set(dests[rows == row].tolist()) <= neighbours
            sel = rows == row
            shares = np.bincount(dests[sel] - dests[sel].min(),
                                 weights=split[sel])
            shares = shares[shares > 0] / 100_000
            degree = len(neighbours)
            assert np.all(np.abs(shares - 1.0 / degree) < 0.02)

    def test_multinomial_split_uniform_marginals(self):
        # Star: hub 0 with 6 leaves pointing at it; one state, huge count.
        edges = [(leaf, 0) for leaf in range(1, 7)]
        graph = DiGraph.from_edges(edges)
        rng = np.random.default_rng(2)
        _, dests, split = multinomial_split(
            rng, graph.in_indptr, graph.in_indices,
            np.array([0], dtype=np.int64), np.array([60_000], dtype=np.int64))
        totals = np.bincount(dests, weights=split, minlength=7)[1:]
        assert np.all(np.abs(totals / 60_000 - 1.0 / 6.0) < 0.01)


def _visit_histogram(levels, num_nodes, max_steps, num_walks):
    """Row ℓ: the fraction of walks alive at step ℓ and located at each node."""
    histogram = np.zeros((max_steps + 1, num_nodes))
    for step, (nodes, counts) in enumerate(levels):
        histogram[step, nodes] = counts
    return histogram / num_walks


class TestStatisticalEquivalence:
    def test_visit_distribution_matches_reference(self, walk_graph):
        source = int(np.argmax(walk_graph.in_degrees))
        levels = SqrtCWalkEngine(walk_graph, DECAY, seed=3).visit_count_steps(
            np.array([source]), np.array([40_000]), max_steps=6)
        aggregated = _visit_histogram(levels, walk_graph.num_nodes, 6, 40_000)
        batch = ReferenceWalkEngine(walk_graph, DECAY, seed=4) \
            .walks_from(source, 40_000, max_steps=6)
        reference = _visit_histogram(
            [np.unique(row[row >= 0], return_counts=True)
             for row in batch.positions], walk_graph.num_nodes, 6, 40_000)
        assert np.max(np.abs(aggregated - reference)) < 0.015

    def test_trajectory_visit_counts_match_reference(self, walk_graph):
        source = int(np.argmax(walk_graph.in_degrees))
        compacted = SqrtCWalkEngine(walk_graph, DECAY, seed=5) \
            .walks_from(source, 30_000, max_steps=20)
        reference = ReferenceWalkEngine(walk_graph, DECAY, seed=6) \
            .walks_from(source, 30_000, max_steps=20)
        ours = compacted.visit_counts(walk_graph.num_nodes) / 30_000
        theirs = reference.visit_counts(walk_graph.num_nodes) / 30_000
        assert np.max(np.abs(ours - theirs)) < 0.02
        # Survival per step must track √c on both engines.
        alive_ours = (compacted.positions >= 0).sum(axis=1)
        alive_theirs = (reference.positions >= 0).sum(axis=1)
        assert abs(alive_ours[1] - alive_theirs[1]) < 0.02 * 30_000

    def test_pair_meeting_matches_reference(self, walk_graph):
        node = int(np.argmax(walk_graph.in_degrees))
        met_ref = ReferenceWalkEngine(walk_graph, DECAY, seed=7).pair_meet_counts(
            np.array([node]), np.array([30_000]), max_steps=40)[0] / 30_000
        met_agg = SqrtCWalkEngine(walk_graph, DECAY, seed=8).pair_meet_counts(
            np.array([node]), np.array([30_000]), max_steps=40)[0] / 30_000
        assert met_agg == pytest.approx(met_ref, abs=0.01)

    def test_tail_meeting_matches_reference(self, walk_graph):
        node = int(np.argmax(walk_graph.in_degrees))
        met_ref = ReferenceWalkEngine(walk_graph, DECAY, seed=9).pair_meet_counts(
            np.array([node]), np.array([30_000]), max_steps=40,
            skip_steps=2)[0] / 30_000
        met_agg = SqrtCWalkEngine(walk_graph, DECAY, seed=10).pair_meet_counts(
            np.array([node]), np.array([30_000]), max_steps=40,
            skip_steps=2)[0] / 30_000
        assert met_agg == pytest.approx(met_ref, abs=0.01)

    def test_batched_origins_match_reference_per_node(self, walk_graph):
        eligible = np.flatnonzero(walk_graph.in_degrees > 1)[:6]
        pairs = np.full(eligible.size, 5_000)
        met_agg = SqrtCWalkEngine(walk_graph, DECAY, seed=11) \
            .pair_meet_counts(eligible, pairs, max_steps=40)
        met_ref = ReferenceWalkEngine(walk_graph, DECAY, seed=12) \
            .pair_meet_counts(eligible, pairs, max_steps=40)
        for agg, ref in zip(met_agg / pairs, met_ref / pairs):
            assert agg == pytest.approx(ref, abs=0.02)

    def test_distinct_start_pairs_match_eq2(self, walk_graph):
        # pair_meet_counts_from with (i, j) starts is the eq. (2) estimator.
        rng = np.random.default_rng(13)
        eligible = np.flatnonzero(walk_graph.in_degrees > 0)
        i, j = (int(x) for x in rng.choice(eligible, 2, replace=False))
        met_ref = 0
        engine = ReferenceWalkEngine(walk_graph, DECAY, seed=14)
        first = np.full(20_000, i, dtype=np.int64)
        second = np.full(20_000, j, dtype=np.int64)
        met = np.zeros(20_000, dtype=bool)
        for _ in range(40):
            if not ((first >= 0) & (second >= 0) & ~met).any():
                break
            survive_first = engine.rng.random(20_000) < engine.sqrt_c
            survive_second = engine.rng.random(20_000) < engine.sqrt_c
            first = engine._advance(first, survive_first)
            second = engine._advance(second, survive_second)
            met |= (first >= 0) & (first == second)
        met_ref = met.mean()
        met_agg = SqrtCWalkEngine(walk_graph, DECAY, seed=15).pair_meet_counts_from(
            np.array([i]), np.array([j]), np.array([20_000]),
            max_steps=40)[0] / 20_000
        assert met_agg == pytest.approx(met_ref, abs=0.01)


def _exact_meet_fraction(graph, simrank, nodes, skips):
    """The expected fraction of pairs from each of ``nodes`` that meet after
    its ``skip``-step non-stop prefix (one entry of ``skips`` per node), from
    the exact D.

    1 − D(k) sums, over t ≥ 1, the probability that two √c-walks from k
    first meet at step t.  For t ≤ skip that is c^t·f_t, where f_t is the
    first-meeting mass of two non-stop walks (pushed through the pair chain
    below).  A first meeting after the prefix needs both walks to survive it
    (c^skip), and then happens with the fraction the kernel counts.  Hence
    fraction = (1 − D(k) − Σ_{t ≤ skip} c^t·f_t) / c^skip.
    """
    n = graph.num_nodes
    move = np.zeros((n, n))             # move[x, y]: x steps to in-neighbour y
    for x in range(n):
        ins = graph.in_neighbors(x)
        np.add.at(move[x], ins, 1.0 / max(ins.size, 1))
    diagonal = exact_diagonal(graph, simrank, decay=DECAY)
    fractions = []
    for k, skip in zip(nodes, skips):
        mass = np.zeros((n, n))
        mass[k, k] = 1.0
        prefix = 0.0
        for t in range(1, skip + 1):
            mass = move.T @ mass @ move
            prefix += DECAY ** t * np.trace(mass)
            np.fill_diagonal(mass, 0.0)
        fractions.append((1.0 - diagonal[k] - prefix) / DECAY ** skip)
    return np.array(fractions)


class TestPerPairPhase:
    @pytest.mark.parametrize("skip, graph", [
        (0, "directed"), (2, "directed"), (5, "collab"), (7, "collab"),
        ((0, 2, 5, 1, 4, 6), "directed")], ids=["0", "2", "5", "7", "mixed"])
    def test_meet_fraction_matches_exact_diagonal(
            self, request, per_pair_switches, skip, graph):
        """A budget that crosses from count aggregation to one slot per pair
        (at step 2 or later, so both phases run; inside the prefix for skips
        5 and 7, the deepest ℓ(k) ``exactsim-gq`` reaches) meets as often as
        the exact process: each origin within 5σ of its binomial
        fraction.

        The deep prefixes run on the undirected ``collab_graph``: with no
        dangling node, the walks that survive 5 or 7 steps still meet with
        fractions of ~1.5e-2, so a count off by a factor c (step ℓ + 1's
        coin flipped twice) lands ~10σ out.  On ``directed_graph`` those
        fractions are 3e-4–3e-3, and such a count stays inside 5σ.
        """
        graph, simrank = (request.getfixturevalue(f"{graph}_graph"),
                          request.getfixturevalue(f"{graph}_simrank"))
        nodes = np.flatnonzero(graph.in_degrees >= 2)[:6]
        skips = np.broadcast_to(np.asarray(skip), nodes.shape)
        pairs = 40_000
        met = SqrtCWalkEngine(graph, DECAY, seed=21).pair_meet_counts(
            nodes, np.full(nodes.size, pairs), skip_steps=skips)
        assert per_pair_switches and min(
            step for step, _ in per_pair_switches) >= 2
        expected = _exact_meet_fraction(graph, simrank, nodes, skips)
        bound = 5.0 * np.sqrt(expected * (1.0 - expected) / pairs)
        assert np.all(np.abs(met / pairs - expected) <= bound), \
            (met / pairs, expected, bound)


class TestPostPrefixCoin:
    @pytest.mark.parametrize("skip", [1, 3, 6])
    def test_only_coin_survivors_walk_the_prefix(self, walk_graph,
                                                 monkeypatch, skip):
        """Step skip + 1's coin is drawn before the first move, so of R
        pairs only Binomial(R, c) walk the prefix: the pairs step 1 moves
        lie within 5σ of c·R."""
        moved = []
        original = aggregate._pair_step
        signature = inspect.signature(original)

        def recording(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments
            if arguments["step"] == 1:
                moved.append(int(arguments["m"].sum()))
            return original(*args, **kwargs)

        monkeypatch.setattr(aggregate, "_pair_step", recording)
        node = int(np.argmax(walk_graph.in_degrees))
        pairs = 40_000
        SqrtCWalkEngine(walk_graph, DECAY, seed=31).pair_meet_counts(
            np.array([node]), np.array([pairs]), skip_steps=skip)
        assert len(moved) == 1
        sigma = np.sqrt(pairs * DECAY * (1.0 - DECAY))
        assert abs(moved[0] - DECAY * pairs) <= 5.0 * sigma, moved


class TestDeterminism:
    def test_compacted_trajectories_deterministic(self, walk_graph):
        first = SqrtCWalkEngine(walk_graph, DECAY, seed=42).walks_from(1, 257, max_steps=9)
        second = SqrtCWalkEngine(walk_graph, DECAY, seed=42).walks_from(1, 257, max_steps=9)
        assert np.array_equal(first.positions, second.positions)
        assert np.array_equal(first.lengths, second.lengths)

    def test_aggregated_counts_deterministic(self, walk_graph):
        node = int(np.argmax(walk_graph.in_degrees))
        runs = [SqrtCWalkEngine(walk_graph, DECAY, seed=42).pair_meet_counts(
            np.array([node, 3]), np.array([5_000, 2_000]), max_steps=30)
            for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])

    def test_pinned_compacted_fixture(self):
        """Seeded compacted runs must stay bit-identical across sessions.

        The fixture pins both the trajectory path and the aggregated
        pair-meeting path on a fixed 8-node graph.  If an engine change
        intentionally alters the RNG consumption pattern, regenerate the
        constants with the snippet in the assertion message.
        """
        graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 0), (3, 1), (4, 2),
                                    (2, 3), (1, 4), (5, 4), (6, 5), (0, 6)])
        engine = SqrtCWalkEngine(graph, DECAY, seed=2020)
        batch = engine.walks_from(2, 6, max_steps=4)
        expected_positions = np.array(
            [[2, 2, 2, 2, 2, 2],
             [4, 4, -1, 4, 1, -1],
             [-1, 5, -1, 1, -1, -1],
             [-1, -1, -1, 0, -1, -1],
             [-1, -1, -1, -1, -1, -1]], dtype=np.int64)
        met = engine.pair_meet_counts(np.array([2, 1]), np.array([50, 40]),
                                      max_steps=6)
        expected_met = np.array([18, 16], dtype=np.int64)
        hint = ("regenerate with: SqrtCWalkEngine(graph, 0.6, seed=2020); "
                "walks_from(2, 6, max_steps=4).positions; "
                "pair_meet_counts([2, 1], [50, 40], max_steps=6)")
        assert np.array_equal(batch.positions, expected_positions), hint
        assert np.array_equal(met, expected_met), hint


class TestEdgeCases:
    def test_all_walks_dead_at_step_one(self):
        # Start node is dangling: every walk dies immediately on every path.
        graph = DiGraph.from_edges([(0, 1), (2, 3)])
        engine = SqrtCWalkEngine(graph, DECAY, seed=1)
        batch = engine.walks_from(0, 64, max_steps=8)
        assert np.all(batch.positions[1:] == -1)
        assert np.all(batch.lengths == 0)
        levels = engine.visit_count_steps(np.array([0]), np.array([1_000]),
                                          max_steps=8)
        assert len(levels) == 1
        met = engine.pair_meet_counts(np.array([0]), np.array([1_000]))
        assert met[0] == 0

    def test_dangling_nodes_mid_walk(self):
        # 0 -> 1 -> 2 chain in reverse-walk direction: walks from 2 pass
        # through 1 and then die at 0 (no in-neighbour).  Pairs from 2 move
        # in lock-step (in-degree 1 everywhere), so a pair meets iff both
        # walks survive step 1 — probability c.
        graph = DiGraph.from_edges([(0, 1), (1, 2)])
        engine = SqrtCWalkEngine(graph, DECAY, seed=2)
        levels = engine.visit_count_steps(np.array([2]), np.array([50_000]),
                                          max_steps=10)
        assert len(levels) <= 3                      # 2 -> 1 -> 0 -> extinct
        met = engine.pair_meet_counts(np.array([2]), np.array([50_000]))
        assert met[0] / 50_000 == pytest.approx(DECAY, abs=0.01)

    def test_skip_steps_excludes_prefix_meetings(self):
        # Star hub: with a 1-step non-stop prefix every pair reaches the
        # leaves; leaves are dangling so no meeting can happen afterwards.
        edges = [(leaf, 0) for leaf in range(1, 10)]
        graph = DiGraph.from_edges(edges)
        engine = SqrtCWalkEngine(graph, DECAY, seed=3)
        met = engine.pair_meet_counts(np.array([0]), np.array([2_000]),
                                      max_steps=5, skip_steps=1)
        assert met[0] == 0

    def test_per_origin_skip_steps(self, walk_graph):
        # Mixed prefixes in one call must match separate calls statistically.
        node = int(np.argmax(walk_graph.in_degrees))
        mixed = SqrtCWalkEngine(walk_graph, DECAY, seed=4).pair_meet_counts(
            np.array([node, node]), np.array([20_000, 20_000]),
            max_steps=40, skip_steps=np.array([0, 2]))
        split_runs = [
            SqrtCWalkEngine(walk_graph, DECAY, seed=5).pair_meet_counts(
                np.array([node]), np.array([20_000]), max_steps=40,
                skip_steps=skip)[0]
            for skip in (0, 2)]
        assert mixed[0] / 20_000 == pytest.approx(split_runs[0] / 20_000, abs=0.01)
        assert mixed[1] / 20_000 == pytest.approx(split_runs[1] / 20_000, abs=0.01)
        # A positive prefix only reports strictly-later meetings.
        assert mixed[1] <= mixed[0]

    def test_max_steps_must_be_a_positive_integer(self, walk_graph):
        # Zero steps would report no meetings, which reads as D = 1.
        engine = SqrtCWalkEngine(walk_graph, DECAY, seed=6)
        for steps in (0, -3):
            with pytest.raises(ValueError, match="max_steps"):
                engine.pair_meet_counts(np.array([1]), np.array([10]),
                                        max_steps=steps)
        with pytest.raises(TypeError, match="max_steps"):
            engine.pair_meet_counts(np.array([1]), np.array([10]),
                                    max_steps=2.5)

    def test_zero_count_origins_report_zero(self, walk_graph):
        engine = SqrtCWalkEngine(walk_graph, DECAY, seed=6)
        node = int(np.argmax(walk_graph.in_degrees))
        met = engine.pair_meet_counts(np.array([node, 5]), np.array([0, 100]))
        assert met[0] == 0
