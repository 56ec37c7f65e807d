"""Shared per-graph execution context.

Every algorithm in the library needs the same derived structures of its
graph: the dual-CSR adjacency arrays, the degree vectors, and the (reverse)
transition matrix ``P`` / ``Pᵀ`` behind :class:`~repro.graph.transition.
TransitionOperator`.  Before this module each algorithm instance rebuilt
those structures privately, so a sweep that constructs ten algorithm
instances on one graph paid for ten identical CSR-to-CSC conversions.

:class:`GraphContext` owns the caches once per graph:

* ``operator(decay)`` returns a :class:`TransitionOperator` cached per decay
  value, so the sparse ``P``/``Pᵀ`` matrices are built at most once per
  (graph, decay) pair no matter how many algorithms share the context;
* :meth:`GraphContext.shared` is a process-wide weak cache, so algorithms
  that are constructed without an explicit context still end up sharing one
  per graph (the common case in the harness and the CLI).

The context deliberately does **not** cache random-walk engines: an engine
carries RNG state, and sharing it implicitly across algorithms would couple
their sample streams.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro.graph.digraph import DiGraph
from repro.graph.transition import TransitionOperator

#: How many (version, graph) pairs a context retains.  Old versions back
#: serve-stale answering (an instance keeps answering on the version it was
#: built at until the planner swaps it forward) and the delta the swap
#: rebinds or rebuilds against; beyond the window they are dead weight.
_VERSION_HISTORY_LIMIT = 16


class GraphContext:
    """Cached derived structures of one :class:`DiGraph`, shared by algorithms."""

    def __init__(self, graph: DiGraph):
        self.graph = graph
        self._operators: Dict[float, TransitionOperator] = {}
        self._graph_version = 0
        self._history: List[Tuple[int, DiGraph]] = [(0, graph)]

    # ------------------------------------------------------------------ #
    # shared-instance cache
    # ------------------------------------------------------------------ #
    @classmethod
    def shared(cls, graph: DiGraph) -> "GraphContext":
        """The process-wide context of ``graph`` (created on first request).

        Structurally equal graphs share one context.  The cache holds the
        context *weakly*: an entry (and, through it, the graph and every
        cached transition matrix) disappears as soon as the last algorithm
        holding the context is gone, so a long-lived process that churns
        through many graphs does not accumulate them.
        """
        context = _SHARED_CONTEXTS.get(graph)
        if context is None:
            context = cls(graph)
            _SHARED_CONTEXTS[graph] = context
        return context

    # ------------------------------------------------------------------ #
    # cached operators
    # ------------------------------------------------------------------ #
    def operator(self, decay: float = 0.6) -> TransitionOperator:
        """The :class:`TransitionOperator` for ``decay`` (built once, cached)."""
        key = float(decay)
        operator = self._operators.get(key)
        if operator is None:
            operator = TransitionOperator(self.graph, key)
            self._operators[key] = operator
        return operator

    # ------------------------------------------------------------------ #
    # online updates
    # ------------------------------------------------------------------ #
    @property
    def graph_version(self) -> int:
        """Monotonic version counter, bumped by every applied update batch."""
        return self._graph_version

    def apply_updates(self, batch, *, wal=None, fault_plan=None):
        """Apply one edge batch; returns the normalized :class:`GraphDelta`.

        The write path is WAL-first: when a write-ahead log is given, the
        batch is durably appended (fsync) *before* any in-memory structure
        changes, so a crash at any instant leaves either no trace of the
        batch (not yet acknowledged) or a logged record replay can redo.
        Afterwards the new CSR graph is built, the version bumped, every
        cached transition operator invalidated, and the context re-keyed in
        the shared cache so ``GraphContext.shared(new_graph)`` resolves here.

        ``fault_plan`` hooks the two crash points of this function —
        ``("update", "wal_append")`` fires before the append and
        ``("update", "apply")`` after it — so resilience tests can kill the
        process exactly where a real crash would bite.
        """
        from repro.graph.updates import EdgeBatch

        if isinstance(batch, dict):
            batch = EdgeBatch.from_wire(batch)
        batch.validate(self.graph.num_nodes)
        version_to = self._graph_version + 1
        if fault_plan is not None:
            # Imported here: the service layer sits above the graph layer.
            from repro.service.faults import UPDATE_APPLY, UPDATE_WAL_APPEND

            fault_plan.on_route_call("update", UPDATE_WAL_APPEND, None)
        if wal is not None:
            wal.append(batch, version_to)
        if fault_plan is not None:
            fault_plan.on_route_call("update", UPDATE_APPLY, None)
        return self._apply_batch(batch, version_to)

    def _apply_batch(self, batch, version_to: int):
        from repro.graph.updates import GraphDelta, apply_edge_batch

        old_graph = self.graph
        new_graph = apply_edge_batch(old_graph, batch)
        delta = GraphDelta.between(old_graph, new_graph,
                                   version_from=self._graph_version,
                                   version_to=version_to)
        self.graph = new_graph
        self._graph_version = int(version_to)
        self._operators.clear()
        self._history.append((self._graph_version, new_graph))
        del self._history[:-_VERSION_HISTORY_LIMIT]
        # Re-key the shared cache: algorithms constructed later against the
        # new graph must land on this context, not a fresh one.
        _SHARED_CONTEXTS[new_graph] = self
        return delta

    def _install_version(self, graph: DiGraph, version: int) -> None:
        """Adopt a reconstructed graph at ``version`` (checkpoint restore).

        Same bookkeeping as :meth:`_apply_batch` minus the delta: the
        checkpointed prefix was compacted away, so there is no batch to
        diff against — only a new current graph to serve and re-key.
        """
        self.graph = graph
        self._graph_version = int(version)
        self._operators.clear()
        self._history.append((self._graph_version, graph))
        del self._history[:-_VERSION_HISTORY_LIMIT]
        _SHARED_CONTEXTS[graph] = self

    def recover(self, wal) -> int:
        """Replay a write-ahead log on top of the current version.

        When a sibling graph checkpoint exists next to the log (written by
        the serving loop before it compacted the WAL prefix), the context
        first jumps to the checkpointed graph/version, then replays only
        the surviving tail — so compaction never creates the version gap
        the contiguity check below would (rightly) refuse.

        Records at or below the current version are skipped (idempotent
        replay); the rest are re-applied *without* re-appending, restoring
        exactly the acknowledged history.  Returns the number of batches
        replayed.  Records must be contiguous — a gap means the log and the
        graph disagree about history, which is corruption, not a tail.
        """
        from repro.graph.updates import (EdgeBatch, GraphCheckpoint,
                                         WalCorruptionError)

        snapshot = GraphCheckpoint.for_wal(wal).load()
        if snapshot is not None:
            graph, version = snapshot
            if version > self._graph_version:
                if graph.num_nodes != self.graph.num_nodes \
                        or graph.name != self.graph.name:
                    raise WalCorruptionError(
                        f"{wal.path}: checkpoint describes a different "
                        f"graph ({graph.name!r}, {graph.num_nodes} nodes) "
                        f"than the one being recovered "
                        f"({self.graph.name!r}, {self.graph.num_nodes} "
                        "nodes)")
                self._install_version(graph, version)
        replayed = 0
        for record in wal.replay():
            version_to = int(record.get("version_to", 0))
            if version_to <= self._graph_version:
                continue
            if version_to != self._graph_version + 1:
                raise WalCorruptionError(
                    f"{wal.path}: record jumps from version "
                    f"{self._graph_version} to {version_to}")
            self._apply_batch(EdgeBatch.from_wire(record), version_to)
            replayed += 1
        return replayed

    def graph_at(self, version: int) -> DiGraph:
        """The retained historical graph of ``version`` (KeyError if evicted)."""
        for held_version, graph in self._history:
            if held_version == int(version):
                return graph
        raise KeyError(f"graph version {version} is no longer retained "
                       f"(history holds {[v for v, _ in self._history]})")

    def knows_graph(self, graph: DiGraph) -> bool:
        """True when ``graph`` is some retained version of this context."""
        return any(held is graph or held == graph for _, held in self._history)

    def version_of(self, graph: DiGraph) -> int:
        """The version number of a retained graph (0 when unknown)."""
        for held_version, held in self._history:
            if held is graph or held == graph:
                return held_version
        return 0

    def delta_between(self, version_from: int, version_to: int):
        """The composed delta between two retained versions."""
        from repro.graph.updates import GraphDelta

        return GraphDelta.between(self.graph_at(version_from),
                                  self.graph_at(version_to),
                                  version_from=int(version_from),
                                  version_to=int(version_to))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GraphContext(graph={self.graph.name!r}, "
                f"operators={sorted(self._operators)})")


# Weak *values*: a context strongly references its graph (the key), so a
# WeakKeyDictionary would never evict.  With weak values the entry lives
# exactly as long as some algorithm holds the context.
_SHARED_CONTEXTS: "weakref.WeakValueDictionary[DiGraph, GraphContext]" = \
    weakref.WeakValueDictionary()


__all__ = ["GraphContext"]
