"""Tests for the linear-system route to the exact diagonal correction matrix."""

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from specs.exact_diagonal import exact_diagonal
from specs.linear_system import (
    linearized_diagonal_residual,
    solve_diagonal_linear_system,
)

DECAY = 0.6


class TestSolveDiagonal:
    def test_matches_simrank_derived_diagonal_toy(self, toy_graph, toy_simrank):
        expected = exact_diagonal(toy_graph, toy_simrank, decay=DECAY)
        solved, iterations = solve_diagonal_linear_system(toy_graph, decay=DECAY)
        assert iterations >= 1
        assert np.max(np.abs(solved - expected)) < 1e-8

    def test_matches_simrank_derived_diagonal_collab(self, collab_graph, collab_simrank):
        expected = exact_diagonal(collab_graph, collab_simrank, decay=DECAY)
        solved, _ = solve_diagonal_linear_system(collab_graph, decay=DECAY)
        assert np.max(np.abs(solved - expected)) < 1e-8

    def test_solution_satisfies_unit_diagonal_constraint(self, collab_graph):
        solved, _ = solve_diagonal_linear_system(collab_graph, decay=DECAY, tolerance=1e-12)
        residual = linearized_diagonal_residual(collab_graph, solved, decay=DECAY)
        assert np.max(np.abs(residual)) < 1e-9

    def test_trivial_nodes(self, toy_graph):
        solved, _ = solve_diagonal_linear_system(toy_graph, decay=DECAY)
        assert solved[0] == pytest.approx(1.0, abs=1e-9)            # dangling
        assert solved[1] == pytest.approx(1.0 - DECAY, abs=1e-9)    # single in-neighbour

    def test_different_decay_factor(self, toy_graph):
        solved, _ = solve_diagonal_linear_system(toy_graph, decay=0.8)
        assert np.all(solved >= 1.0 - 0.8 - 1e-9)
        assert np.all(solved <= 1.0 + 1e-9)

    def test_empty_graph(self):
        solved, iterations = solve_diagonal_linear_system(DiGraph.empty(0))
        assert solved.shape == (0,)
        assert iterations == 0

    def test_residual_of_parsim_approximation_is_nonzero(self, collab_graph):
        """The (1 − c)·I approximation violates the unit-diagonal constraint."""
        approx = np.full(collab_graph.num_nodes, 1.0 - DECAY)
        residual = linearized_diagonal_residual(collab_graph, approx, decay=DECAY)
        assert np.max(np.abs(residual)) > 1e-3
