"""Link prediction with SimRank: an application from the paper's introduction.

SimRank scores are widely used as features for link prediction [23 in the
paper].  This example plants a two-community graph, hides a fraction of its
edges, and checks that ExactSim's similarity ranks the hidden (true) endpoints
above random non-edges — and that it respects the community structure.

Link prediction is a *pair* workload, so the example issues typed
:class:`SinglePairQuery` requests through the query planner.  An ExactSim
pair is an entry of its source's single-source vector, so every pair of the
batch reads a vector from one coalesced ``single_source_batch`` call and
keeps its ε guarantee; repeated pairs come out of the LRU result cache, and
the community check rides :class:`TopKQuery`.

Run with:  python examples/link_prediction.py
"""

import numpy as np

from repro.graph import two_community_graph
from repro.graph.digraph import DiGraph
from repro.service import QueryPlanner, SinglePairQuery, TopKQuery

DECAY = 0.6
COMMUNITY_SIZE = 150
HIDDEN_EDGES = 40


def main() -> None:
    rng = np.random.default_rng(3)
    full_graph = two_community_graph(COMMUNITY_SIZE, p_in=0.08, p_out=0.005, seed=21)
    print(f"planted graph: {full_graph.num_nodes} nodes, {full_graph.num_edges} edges")

    # Hide a sample of undirected edges (drop both directions).
    edges = [(int(s), int(t)) for s, t in full_graph.edge_array() if s < t]
    hidden_indices = rng.choice(len(edges), size=HIDDEN_EDGES, replace=False)
    hidden = {edges[i] for i in hidden_indices}
    remaining = [edge for edge in edges if edge not in hidden]
    observed_graph = DiGraph.from_edges(remaining, num_nodes=full_graph.num_nodes,
                                        directed=False, name="observed")
    print(f"observed graph after hiding {HIDDEN_EDGES} edges: "
          f"{observed_graph.num_edges} directed edges")

    # Score hidden pairs and an equal number of random non-edges with typed
    # pair queries: the planner reads them off one coalesced batch of
    # single-source vectors and serves repeats from its result cache.
    planner = QueryPlanner(
        observed_graph, default_method="exactsim", cache_entries=512,
        method_configs={"exactsim": {"epsilon": 1e-3, "decay": DECAY, "seed": 5,
                                     "max_total_samples": 80_000}})

    labels = np.repeat([0, 1], COMMUNITY_SIZE)
    non_edges = []
    while len(non_edges) < HIDDEN_EDGES:
        u, v = int(rng.integers(full_graph.num_nodes)), int(rng.integers(full_graph.num_nodes))
        if u != v and not full_graph.has_edge(u, v):
            non_edges.append((u, v))

    pair_queries = [SinglePairQuery(u, v) for u, v in list(hidden) + non_edges]
    outcomes = planner.answer(pair_queries)
    hidden_scores = [outcome.result.score for outcome in outcomes[:len(hidden)]]
    negative_scores = [outcome.result.score for outcome in outcomes[len(hidden):]]

    # AUC of "hidden edge scores beat non-edge scores".
    wins = sum(1 for h in hidden_scores for n in negative_scores if h > n)
    ties = sum(1 for h in hidden_scores for n in negative_scores if h == n)
    auc = (wins + 0.5 * ties) / (len(hidden_scores) * len(negative_scores))
    print(f"\nlink-prediction AUC (hidden edges vs random non-edges): {auc:.3f}")

    # Community check: a node's top-10 similar nodes should mostly share its
    # community.  Top-k queries on a source whose vector the pair phase
    # already cached come back as 'cached-derived' without recomputation.
    sample_nodes = rng.choice(full_graph.num_nodes, size=5, replace=False)
    top_outcomes = planner.answer([TopKQuery(int(node), 10)
                                   for node in sample_nodes])
    agreements = []
    for node, outcome in zip(sample_nodes, top_outcomes):
        same = sum(1 for v in outcome.result.nodes if labels[int(v)] == labels[int(node)])
        agreements.append(same / 10)
    print(f"average fraction of top-10 neighbours in the same community: "
          f"{np.mean(agreements):.2f}")

    stats = planner.stats()
    print(f"\nserving stats: {int(stats['queries'])} queries, "
          f"{int(stats['coalesced_queries'])} coalesced, "
          f"{int(stats['cache_routes'])} answered from cache "
          f"({int(stats['cache_hits'])} cache hits)")
    print("\nSimRank ranks structurally close nodes first, which is what makes it a"
          "\nuseful link-prediction and recommendation feature (paper §1).")


if __name__ == "__main__":
    main()
