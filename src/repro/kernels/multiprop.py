"""Level-synchronous multi-source propagation engine (forward direction).

A :class:`MultiPropagation` carries B independent sparse reverse-walk
propagations — *lanes* — as one stacked COO triplet ``(lane, node, value)``
and advances all of them one level at a time with a single shared-CSR
scatter per level: the frontiers of every lane are concatenated, their CSR
slices gathered with one ``np.repeat`` pass, and the contributions
re-aggregated per ``(lane, node)`` key — exactly the batched kernel
:func:`repro.kernels.frontier.propagate_batch`, plus the state-keeping its
one caller needs.  That caller is the Algorithm 3 prefetch
(:meth:`repro.diagonal.local.DistributionCache.prefetch`), which
materialises the level-ℓ distributions of many start nodes together:

* **per-lane work accounting** — every step reports the CSR entries gathered
  per lane;
* **per-lane termination** — lanes that reached their target depth are
  dropped with :meth:`MultiPropagation.terminate` while the rest advance.

The per-lane arithmetic is bit-identical to the single-lane kernel
:func:`~repro.kernels.frontier.propagate_distribution`: within one lane the
frontier entries stay sorted by node, the shared gather visits them in the
same order as a single-frontier gather, and the scatter-add sums each
``(lane, node)`` key's contributions in the same occurrence order as the
single-lane scatter — so interleaving B propagations changes *no* float.
``tests/test_multiprop.py`` pins this lane-for-lane.

Lanes wider than the engine's narrow cap, ``max(128, num_nodes >> 4)``
entries, advance one at a time through the single-lane kernel (whose
scatter stays in a lane-local, cache-resident accumulator) while the narrow
majority shares the stacked scatter.  Both routes are bit-identical per
lane, so the split changes no value — only where the scatter-add lands.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.digraph import DiGraph
from repro.kernels.frontier import (_DENSE_SCATTER_CAP, propagate_batch,
                                    propagate_distribution)
from repro.kernels.sparsevec import SparseVector
from repro.utils.deadline import CHECKPOINT_LEVEL, checkpoint

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


def dense_lane_limit(num_nodes: int) -> int:
    """Lanes one engine can carry with the dense scatter-add still applicable.

    The batched kernels key contributions by ``lane · num_nodes + node``;
    once that key space outgrows the kernels' dense ``np.bincount`` cap they
    fall back to a sort-based reduction whose O(E log E) cost loses badly to
    per-lane dense scatters when lanes are wide.  Callers batching *many*
    lanes should split them into chunks of this size — lanes are
    independent, so chunking changes no result.
    """
    return max(1, _DENSE_SCATTER_CAP // max(num_nodes, 1))


class MultiPropagation:
    """B independent reverse-walk propagations advanced level-synchronously.

    Each step applies the non-stopping reverse-walk operator ``P`` of
    :func:`~repro.kernels.frontier.propagate_distribution` along the
    in-adjacency of ``graph`` to every lane.
    """

    def __init__(self, graph: DiGraph, num_lanes: int):
        if num_lanes <= 0:
            raise ValueError("num_lanes must be positive")
        self._indptr = graph.in_indptr
        self._indices = graph.in_indices
        self.num_nodes = int(graph.num_nodes)
        self.num_lanes = int(num_lanes)
        self._narrow_cap = max(128, self.num_nodes >> 4)
        self._rows = _EMPTY_I
        self._cols = _EMPTY_I
        self._vals = _EMPTY_F

    def seed(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, *,
             assume_sorted: bool = False) -> None:
        """Replace the stacked state with the given COO triplet.

        Entries are re-sorted by ``(lane, node)`` unless the caller vouches
        for the order with ``assume_sorted`` (lane-major, node-ascending —
        the layout lane-wise concatenation of sorted frontiers produces);
        duplicate keys are not merged (kernels never produce them, and seeds
        come from sorted frontiers), so callers must not pass duplicates.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows, cols and values must be matching 1-d arrays")
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_lanes):
            raise ValueError("lane id out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= self.num_nodes):
            raise ValueError("node id out of range")
        if not assume_sorted:
            order = np.argsort(rows * np.int64(self.num_nodes) + cols,
                               kind="stable")
            rows, cols, values = rows[order], cols[order], values[order]
        self._rows, self._cols, self._vals = rows, cols, values

    # ------------------------------------------------------------------ #
    # state views
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @property
    def cols(self) -> np.ndarray:
        return self._cols

    @property
    def values(self) -> np.ndarray:
        return self._vals

    def lane_bounds(self) -> np.ndarray:
        """CSR-style boundaries: lane ``i`` owns entries ``bounds[i]:bounds[i+1]``."""
        return np.searchsorted(self._rows, np.arange(self.num_lanes + 1,
                                                     dtype=np.int64))

    def frontier(self, lane: int) -> SparseVector:
        """Lane ``lane``'s current frontier as a sorted :class:`SparseVector`."""
        lo, hi = np.searchsorted(self._rows, [lane, lane + 1])
        return SparseVector(self._cols[lo:hi].copy(), self._vals[lo:hi].copy())

    def terminate(self, lanes: np.ndarray) -> None:
        """Drop the frontiers of ``lanes`` (their propagations end here)."""
        dead = np.zeros(self.num_lanes, dtype=bool)
        dead[np.asarray(lanes, dtype=np.int64)] = True
        keep = ~dead[self._rows]
        self._rows, self._cols = self._rows[keep], self._cols[keep]
        self._vals = self._vals[keep]

    # ------------------------------------------------------------------ #
    # the level step
    # ------------------------------------------------------------------ #
    def step(self) -> np.ndarray:
        """Advance every lane one level; return per-lane edges gathered.

        The returned int64 array is the per-lane count of CSR entries
        gathered, as :func:`~repro.kernels.frontier.propagate_distribution`
        counts them.

        Each step is a cooperative deadline checkpoint (kind ``level``): with
        an active :class:`repro.utils.deadline.Deadline` installed, an expired
        budget raises :class:`~repro.utils.deadline.DeadlineExceeded` *before*
        the level advances, leaving the stacked state at a consistent level
        boundary.
        """
        checkpoint(CHECKPOINT_LEVEL)
        rows, cols, vals = self._rows, self._cols, self._vals
        counts = self._indptr[cols + 1] - self._indptr[cols]
        edges = np.bincount(rows, weights=counts,
                            minlength=self.num_lanes).astype(np.int64)
        wide = np.bincount(rows, minlength=self.num_lanes) > self._narrow_cap
        if wide.any():
            self._rows, self._cols, self._vals = self._advance_hybrid(wide)
        else:
            self._rows, self._cols, self._vals, _ = propagate_batch(
                self._indptr, self._indices, rows, cols, vals,
                num_nodes=self.num_nodes)
        return edges

    def _advance_hybrid(self, wide: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance wide lanes per-lane and narrow lanes stacked; reassemble.

        The per-lane and stacked kernels are bit-identical, so this is a
        pure scheduling decision; the reassembly copies each lane's sorted
        segment into its slot of the combined lane-major output.
        """
        rows, cols, vals = self._rows, self._cols, self._vals
        entry_wide = wide[rows]
        narrow_rows, narrow_cols, narrow_vals, _ = propagate_batch(
            self._indptr, self._indices, rows[~entry_wide], cols[~entry_wide],
            vals[~entry_wide], num_nodes=self.num_nodes)

        lane_bounds = self.lane_bounds()
        wide_results = {}
        for lane in np.flatnonzero(wide).tolist():
            lo, hi = int(lane_bounds[lane]), int(lane_bounds[lane + 1])
            wide_results[lane], _ = propagate_distribution(
                self._indptr, self._indices,
                SparseVector.wrap(cols[lo:hi], vals[lo:hi]),
                num_nodes=self.num_nodes)

        out_sizes = np.bincount(narrow_rows, minlength=self.num_lanes)
        for lane, vector in wide_results.items():
            out_sizes[lane] = vector.nnz
        offsets = np.zeros(self.num_lanes + 1, dtype=np.int64)
        np.cumsum(out_sizes, out=offsets[1:])
        total = int(offsets[-1])
        new_rows = np.repeat(np.arange(self.num_lanes, dtype=np.int64),
                             out_sizes)
        new_cols = np.empty(total, dtype=np.int64)
        new_vals = np.empty(total, dtype=np.float64)
        narrow_bounds = np.searchsorted(narrow_rows,
                                        np.arange(self.num_lanes + 1,
                                                  dtype=np.int64))
        for lane in np.flatnonzero(out_sizes).tolist():
            destination = slice(int(offsets[lane]), int(offsets[lane + 1]))
            vector = wide_results.get(lane)
            if vector is None:
                source = slice(int(narrow_bounds[lane]),
                               int(narrow_bounds[lane + 1]))
                new_cols[destination] = narrow_cols[source]
                new_vals[destination] = narrow_vals[source]
            else:
                new_cols[destination] = vector.indices
                new_vals[destination] = vector.values
        return new_rows, new_cols, new_vals


__all__ = ["MultiPropagation", "dense_lane_limit"]
