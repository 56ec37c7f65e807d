"""Array-backed sparse vector for the frontier kernels.

A :class:`SparseVector` is the frontier currency of the kernels package: a
pair of parallel arrays (``indices: int64[]``, ``values: float64[]``) with
indices sorted and unique.  Compared with the ``dict[int, float]`` frontiers
of the seed implementation it supports O(1)-per-entry vectorized arithmetic,
and its memory cost is exactly ``16 bytes / entry`` of array payload instead
of the ~100 bytes a Python dict spends per slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple

import numpy as np


def _as_index_array(indices) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(indices, dtype=np.int64))


def _as_value_array(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class SparseVector:
    """A sparse real vector as sorted parallel ``(indices, values)`` arrays.

    Instances are immutable; the constructor trusts its inputs (sorted,
    unique indices) because kernels produce them that way.  Use
    :meth:`from_pairs` / :meth:`from_dict` for unordered input.
    """

    indices: np.ndarray
    values: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (np.array_equal(self.indices, other.indices)
                and np.array_equal(self.values, other.values))

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", _as_index_array(self.indices))
        object.__setattr__(self, "values", _as_value_array(self.values))
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ValueError("indices and values must be parallel 1-D arrays")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "SparseVector":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    @classmethod
    def wrap(cls, indices: np.ndarray, values: np.ndarray) -> "SparseVector":
        """Trusted constructor for kernel-produced arrays (no validation).

        The hot batched paths create tens of thousands of small vectors per
        call; this skips the dtype/contiguity/shape checks of
        ``__post_init__`` for arrays that are already sorted-unique int64 /
        float64 pairs straight out of a kernel.
        """
        vector = object.__new__(cls)
        object.__setattr__(vector, "indices", indices)
        object.__setattr__(vector, "values", values)
        return vector

    @classmethod
    def from_pairs(cls, indices, values) -> "SparseVector":
        """Build from possibly unsorted / duplicated indices (duplicates sum)."""
        idx = _as_index_array(indices)
        val = _as_value_array(values)
        if idx.size == 0:
            return cls.empty()
        unique, inverse = np.unique(idx, return_inverse=True)
        return cls(unique, np.bincount(inverse, weights=val,
                                       minlength=unique.shape[0]))

    @classmethod
    def from_dict(cls, mapping: Mapping[int, float]) -> "SparseVector":
        if not mapping:
            return cls.empty()
        idx = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
        val = np.fromiter(mapping.values(), dtype=np.float64, count=len(mapping))
        order = np.argsort(idx, kind="stable")
        return cls(idx[order], val[order])

    @classmethod
    def from_dense(cls, vector: np.ndarray) -> "SparseVector":
        idx = np.flatnonzero(vector)
        return cls(idx.astype(np.int64), np.asarray(vector, dtype=np.float64)[idx])

    # ------------------------------------------------------------------ #
    # views / conversions
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[int, float]:
        """A plain ``dict`` view (the seed API the callers still expose)."""
        return dict(zip(self.indices.tolist(), self.values.tolist()))

    def to_dense(self, num_nodes: int) -> np.ndarray:
        vector = np.zeros(num_nodes, dtype=np.float64)
        vector[self.indices] = self.values
        return vector

    def add_into(self, accumulator: np.ndarray, scale: float = 1.0) -> None:
        """``accumulator[indices] += scale * values`` (indices are unique)."""
        accumulator[self.indices] += scale * self.values

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def scaled(self, factor: float) -> "SparseVector":
        return SparseVector(self.indices, factor * self.values)

    def filtered(self, threshold: float) -> "SparseVector":
        """Entries with ``value >= threshold`` (the push threshold mask)."""
        keep = self.values >= threshold
        if keep.all():
            return self
        return SparseVector(self.indices[keep], self.values[keep])

    def sum(self) -> float:
        return float(self.values.sum())

    def gather(self, nodes: np.ndarray) -> np.ndarray:
        """``dense[nodes]`` without densifying: zeros where ``nodes`` miss.

        One ``searchsorted`` over the sorted unique indices; ProbeSim's pair
        path uses this to evaluate hop vectors at a handful of meeting nodes.
        """
        gathered = np.zeros(nodes.shape[0], dtype=np.float64)
        if self.nnz:
            positions = np.searchsorted(self.indices, nodes)
            valid = positions < self.nnz
            hit = np.zeros(nodes.shape[0], dtype=bool)
            hit[valid] = self.indices[positions[valid]] == nodes[valid]
            gathered[hit] = self.values[positions[hit]]
        return gathered

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def memory_bytes(self) -> int:
        """Actual array payload: 8 bytes per index + 8 bytes per value."""
        return int(self.indices.nbytes + self.values.nbytes)

    def __len__(self) -> int:
        return self.nnz

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return zip(self.indices.tolist(), self.values.tolist())

    def __bool__(self) -> bool:
        return self.nnz > 0


__all__ = ["SparseVector"]
