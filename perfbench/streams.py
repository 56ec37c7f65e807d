"""Seeded JSONL query streams, one generator per workload.

Every generator takes the workload seed and yields wire lines (JSON text,
no trailing newline).  The program under test only ever sees these lines,
parsed through its own ``parse_wire_line``.  The same seed yields the same
bytes; :func:`self_test` checks that on every run, and that another seed
yields a different stream, so a later change can confirm a claim on a
seed it was not tuned on.

Run ``python3 perfbench/streams.py`` to execute the self-test alone.
"""

from __future__ import annotations

import json
from typing import Iterator, List, Sequence

import numpy as np

#: Sub-stream tags keep the workloads' random streams independent of each
#: other for the same workload seed.
_EXACTSIM, _MIXED, _UPDATES = 1, 2, 3

#: serve-mixed: kind mix and source skew.
MIXED_SLING_PAIR, MIXED_SLING_TOPK = 0.60, 0.25      # rest: ProbeSim pairs
MIXED_ZIPF_EXPONENT = 1.2
MIXED_TOP_K = 10

#: serve-updates: one update line after this many queries.
QUERIES_PER_UPDATE = 100
UPDATE_INSERTS = 4
UPDATE_DELETES = 4
UPDATE_METHODS = ("mc", "sling", "prsim", "linearization")
UPDATE_TOP_K = 10


def _line(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


#: The ExactSim warm-up source: the same for every seed, so set-up does the
#: same work on every run, and never one of the measured sources.
EXACTSIM_WARMUP_SOURCE = 0


def exactsim_rounds(seed: int, in_degrees: np.ndarray, batch: int = 8
                    ) -> Iterator[List[str]]:
    """Rounds of ``batch`` single-source lines, no source ever repeated.

    The nodes other than :data:`EXACTSIM_WARMUP_SOURCE` are split into
    ``batch`` equal strata by in-degree rank (ties broken by the seed), and
    each round takes one seeded draw from every stratum.  Every node is
    still equally likely to be a source, but each round mixes low- and
    high-in-degree sources the same way: a source's ExactSim cost grows
    with its in-degree (up to 7x on the 200k-node graph), so unstratified
    rounds make run-to-run spread mostly a matter of which hubs were drawn.
    """
    rng = np.random.default_rng([seed, _EXACTSIM])
    nodes = np.arange(1, in_degrees.size)
    order = nodes[np.lexsort((rng.random(nodes.size), in_degrees[nodes]))]
    strata = [rng.permutation(part) for part in np.array_split(order, batch)]
    for position in range(min(part.size for part in strata)):
        yield [_line({"type": "single_source", "source": int(part[position]),
                      "method": "exactsim"})
               for part in strata]


def exactsim_warmup_line() -> str:
    return _line({"type": "single_source", "source": EXACTSIM_WARMUP_SOURCE,
                  "method": "exactsim"})


def mixed_lines(seed: int, num_nodes: int, block: int = 1024) -> Iterator[str]:
    """60% SLING pairs, 25% SLING top-k, 15% ProbeSim pairs.

    Sources are Zipf-skewed ranks mapped through a seeded permutation (so
    the hot sources differ per seed); targets are uniform.
    """
    rng = np.random.default_rng([seed, _MIXED])
    permutation = rng.permutation(num_nodes)
    weights = np.arange(1, num_nodes + 1, dtype=np.float64) ** -MIXED_ZIPF_EXPONENT
    weights /= weights.sum()
    while True:
        draws = rng.random(block)
        sources = permutation[rng.choice(num_nodes, size=block, p=weights)]
        targets = rng.integers(0, num_nodes, size=block)
        for draw, source, target in zip(draws, sources, targets):
            if draw < MIXED_SLING_PAIR:
                yield _line({"type": "single_pair", "source": int(source),
                             "target": int(target), "method": "sling"})
            elif draw < MIXED_SLING_PAIR + MIXED_SLING_TOPK:
                yield _line({"type": "top_k", "source": int(source),
                             "k": MIXED_TOP_K, "method": "sling"})
            else:
                yield _line({"type": "single_pair", "source": int(source),
                             "target": int(target), "method": "probesim"})


def update_lines(seed: int, edges: np.ndarray, num_nodes: int, *,
                 directed: bool) -> Iterator[str]:
    """Queries over four indexed methods with an edge batch every 100 lines.

    The generator keeps its own copy of the edge set, so every delete names
    an edge that exists and every insert an edge that does not, at the
    version the update applies to.  An undirected graph is tracked by its
    canonical ``(min, max)`` pairs, matching the mirroring the library's
    ``apply_edge_batch`` performs.
    """
    rng = np.random.default_rng([seed, _UPDATES])
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if not directed:
        pairs = np.sort(pairs, axis=1)
    current = sorted({(int(u), int(v)) for u, v in pairs.tolist()})
    present = set(current)
    while True:
        for _ in range(QUERIES_PER_UPDATE):
            method = UPDATE_METHODS[int(rng.integers(len(UPDATE_METHODS)))]
            source = int(rng.integers(num_nodes))
            if rng.random() < 0.5:
                yield _line({"type": "single_pair", "source": source,
                             "target": int(rng.integers(num_nodes)),
                             "method": method})
            else:
                yield _line({"type": "top_k", "source": source,
                             "k": UPDATE_TOP_K, "method": method})
        picks = rng.choice(len(current), size=UPDATE_DELETES, replace=False)
        deletes = [current[int(i)] for i in sorted(picks)]
        inserts: List[tuple] = []
        while len(inserts) < UPDATE_INSERTS:
            u, v = (int(x) for x in rng.integers(num_nodes, size=2))
            if not directed:
                u, v = min(u, v), max(u, v)
            if u != v and (u, v) not in present and (u, v) not in inserts:
                inserts.append((u, v))
        present.difference_update(deletes)
        present.update(inserts)
        current = sorted(present)
        yield _line({"type": "update", "insert": [list(e) for e in inserts],
                     "delete": [list(e) for e in deletes]})


def warmup_lines(kinds: Sequence[tuple], sources: Sequence[int],
                 k: int = MIXED_TOP_K) -> List[str]:
    """One line per (kind, method) and source: builds every index before
    timing starts.  With sources 0 and 1 both workers of a two-worker pool
    (routed by ``source % 2``) are warmed."""
    lines = []
    for source in sources:
        for kind, method in kinds:
            payload = {"type": kind, "source": source, "method": method}
            if kind == "single_pair":
                payload["target"] = source + 2
            elif kind == "top_k":
                payload["k"] = k
            lines.append(_line(payload))
    return lines


def _take(lines: Iterator[str], count: int) -> bytes:
    return "\n".join(next(lines) for _ in range(count)).encode()


def self_test(graph, seeds: Sequence[int] = (1, 2), count: int = 1500) -> List[str]:
    """Failures of the determinism contract on ``graph`` (empty when it holds)."""
    first, second = seeds
    num_nodes, edges = graph.num_nodes, graph.edge_array()
    makers = {
        "exactsim": lambda s: (line for round_ in exactsim_rounds(s, graph.in_degrees)
                               for line in round_),
        "mixed": lambda s: mixed_lines(s, num_nodes),
        "updates": lambda s: update_lines(s, edges, num_nodes, directed=graph.directed),
    }
    failures = []
    for name, make in makers.items():
        size = min(count, 8 * ((num_nodes - 1) // 8)) if name == "exactsim" else count
        a, b = _take(make(first), size), _take(make(first), size)
        c = _take(make(second), size)
        if a != b:
            failures.append(f"{name}: seed {first} gave two different streams")
        if a == c:
            failures.append(f"{name}: seeds {first} and {second} gave the same stream")
    return failures


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.graph.datasets import get_spec

    problems = self_test(get_spec("GQ").load())
    for problem in problems:
        print(problem)
    print("stream self-test:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)
