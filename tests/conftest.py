"""Shared fixtures: small graphs with precomputed ground truth."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.baselines.power_method import simrank_matrix
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    power_law_graph,
    preferential_attachment_graph,
    ring_graph,
    star_graph,
)
from repro.randomwalk import aggregate

DECAY = 0.6


@pytest.fixture(scope="session")
def toy_graph() -> DiGraph:
    """A tiny hand-made directed graph with varied in-degrees (6 nodes).

    Structure (edges point source -> target):
        0 -> 1, 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 4, 4 -> 2, 1 -> 5
    Node 0 has no in-neighbour (dangling for √c-walks); node 2 has three.
    """
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 2), (1, 5)]
    return DiGraph.from_edges(edges, num_nodes=6, name="toy")


@pytest.fixture(scope="session")
def collab_graph() -> DiGraph:
    """A small undirected collaboration-style graph (scale-free, 120 nodes)."""
    return preferential_attachment_graph(120, 3, directed=False, seed=11)


@pytest.fixture(scope="session")
def directed_graph() -> DiGraph:
    """A small directed power-law graph (100 nodes)."""
    return power_law_graph(100, 5.0, exponent=2.1, directed=True, seed=13)


@pytest.fixture(scope="session")
def cycle_graph() -> DiGraph:
    return ring_graph(8, directed=True)


@pytest.fixture(scope="session")
def hub_graph() -> DiGraph:
    return star_graph(10, inward=True)


@pytest.fixture(scope="session")
def toy_simrank(toy_graph) -> np.ndarray:
    return simrank_matrix(toy_graph, decay=DECAY)


@pytest.fixture(scope="session")
def collab_simrank(collab_graph) -> np.ndarray:
    return simrank_matrix(collab_graph, decay=DECAY)


@pytest.fixture(scope="session")
def directed_simrank(directed_graph) -> np.ndarray:
    return simrank_matrix(directed_graph, decay=DECAY)


@pytest.fixture
def per_pair_switches(monkeypatch):
    """Record ``(first_step, pairs)`` each time a pair-walk chunk leaves
    count aggregation for the one-slot-per-pair phase."""
    original = aggregate._walk_per_pair
    signature = inspect.signature(original)
    switches = []

    def recording(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        switches.append((arguments["first_step"], arguments["origin"].size))
        return original(*args, **kwargs)

    monkeypatch.setattr(aggregate, "_walk_per_pair", recording)
    return switches
