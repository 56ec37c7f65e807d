"""Write-ahead logged edge batches and versioned graph deltas.

Everything the online-update plane needs to change a graph *safely* lives
here, deliberately below the service layer so both the single-process CLI
loop and the worker-pool supervisor share one implementation:

* :class:`EdgeBatch` — a validated, deduplicated set of edge inserts and
  deletes with a JSON wire form (``{"type": "update", "insert": [[s, t],
  ...], "delete": [[s, t], ...]}``);
* :func:`apply_edge_batch` — the pure functional core: old graph + batch →
  new graph (node count, name and directedness fixed; an undirected graph
  mirrors the batch);
* :class:`GraphDelta` — the *normalized* difference between two graph
  versions: the edges actually inserted/deleted (a delete of a missing edge
  or an insert of an existing one vanishes here);
* :class:`UpdateLog` — a CRC-framed write-ahead log.  Each record is
  framed ``MAGIC | length | crc32 | json`` and fsynced before the caller is
  allowed to mutate anything, so a batch is either durably logged or never
  acknowledged.  Replay tolerates a torn tail (the frame a crash
  interrupted) by stopping at the first bad frame; compaction rewrites the
  log through the tmp + fsync + ``os.replace`` idiom used by index saves.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.digraph import DiGraph
from repro.utils.validation import check_integer

PathLike = Union[str, Path]

#: Per-record frame magic of the write-ahead log.
WAL_MAGIC = b"UWAL"
#: Frame header after the magic: payload length, then CRC-32 of the payload.
_WAL_HEADER = struct.Struct(">II")
#: Refuse absurd frame lengths (a corrupt length field must not allocate GiB).
_WAL_MAX_RECORD_BYTES = 64 << 20


class WalCorruptionError(RuntimeError):
    """Raised when the WAL holds a bad frame *before* its final record.

    A bad final frame is a torn tail (the crash the log exists to survive)
    and is silently dropped; a bad frame with valid frames after it means
    the file was corrupted at rest, which replay must not paper over.
    """


def _as_edge_array(edges: Any) -> np.ndarray:
    """Coerce ``edges`` into a deduplicated, sorted ``(k, 2)`` int64 array.

    Outside an integer array, every node id must pass :func:`check_integer`,
    the rule for query ids, so ``1.5`` or ``true`` is rejected, not coerced.
    """
    if edges is None:
        return np.empty((0, 2), dtype=np.int64)
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu":
        array = edges.astype(np.int64)
    else:
        rows = np.asarray(list(edges), dtype=object)
        array = np.asarray([check_integer(node, "node id")
                            for node in rows.ravel()],
                           dtype=np.int64).reshape(rows.shape)
    if array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError("edges must be an iterable of (source, target) pairs")
    return np.unique(array, axis=0)


def _edge_keys(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Collision-free int64 key per edge (valid because node ids < num_nodes)."""
    span = max(int(num_nodes), 1)
    return edges[:, 0] * span + edges[:, 1]


@dataclass(frozen=True)
class EdgeBatch:
    """A validated batch of edge inserts and deletes.

    Rows are deduplicated and sorted on construction so two batches with
    the same edge sets compare equal and serialize identically.  An edge
    present in both lists is treated as *insert wins*: deletes are applied
    before inserts by :func:`apply_edge_batch`.
    """

    inserts: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    deletes: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    def __post_init__(self) -> None:
        for attr in ("inserts", "deletes"):
            array = _as_edge_array(getattr(self, attr))
            array.setflags(write=False)
            object.__setattr__(self, attr, array)
        if (self.inserts.size and self.inserts.min() < 0) or \
                (self.deletes.size and self.deletes.min() < 0):
            raise ValueError("node ids must be non-negative")

    # ------------------------------------------------------------------ #
    # construction / wire form
    # ------------------------------------------------------------------ #
    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "EdgeBatch":
        """Build a batch from its JSON wire dict (``insert`` / ``delete``)."""
        if not isinstance(payload, dict):
            raise ValueError("update record must be a JSON object")
        unknown = set(payload) - {"type", "insert", "delete", "version_to"}
        if unknown:
            raise ValueError(f"update record has unknown fields {sorted(unknown)}")
        try:
            return cls(inserts=payload.get("insert") or [],
                       deletes=payload.get("delete") or [])
        except (TypeError, ValueError, OverflowError) as error:
            raise ValueError(f"malformed update record: {error}") from error

    def to_wire(self) -> Dict[str, Any]:
        return {"type": "update",
                "insert": self.inserts.tolist(),
                "delete": self.deletes.tolist()}

    # ------------------------------------------------------------------ #
    # validation / accounting
    # ------------------------------------------------------------------ #
    def validate(self, num_nodes: int) -> "EdgeBatch":
        """Check every endpoint against ``num_nodes`` (growth is disallowed:
        the CSR delta keeps the node count fixed)."""
        for label, edges in (("insert", self.inserts), ("delete", self.deletes)):
            if edges.size and int(edges.max()) >= num_nodes:
                raise ValueError(
                    f"update {label} references a node id >= num_nodes "
                    f"({int(edges.max())} >= {num_nodes})")
        return self

    @property
    def is_empty(self) -> bool:
        return self.inserts.shape[0] == 0 and self.deletes.shape[0] == 0

    @property
    def num_changes(self) -> int:
        return int(self.inserts.shape[0] + self.deletes.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeBatch):
            return NotImplemented
        return (np.array_equal(self.inserts, other.inserts)
                and np.array_equal(self.deletes, other.deletes))


def apply_edge_batch(graph: DiGraph, batch: EdgeBatch) -> DiGraph:
    """Apply a batch to a graph, returning the new immutable graph.

    Deletes are applied before inserts, so an edge named in both lists is
    present afterwards.  The node count, name and directedness are
    preserved; for an undirected graph the batch is mirrored, matching the
    doubling :meth:`DiGraph.from_edges` performs.
    """
    batch.validate(graph.num_nodes)
    inserts, deletes = batch.inserts, batch.deletes
    if not graph.directed:
        inserts = _as_edge_array(np.vstack([inserts, inserts[:, ::-1]])
                                 if inserts.size else inserts)
        deletes = _as_edge_array(np.vstack([deletes, deletes[:, ::-1]])
                                 if deletes.size else deletes)
    return graph.apply_edits(inserts, deletes)


@dataclass(frozen=True)
class GraphDelta:
    """The normalized difference between two versions of one graph.

    ``inserted`` / ``deleted`` hold the edges that actually changed (a
    requested delete of a missing edge or insert of an existing edge is
    normalized away), so an empty delta means the structure did not move
    and no index needs rebuilding.
    """

    old_graph: DiGraph
    new_graph: DiGraph
    inserted: np.ndarray
    deleted: np.ndarray
    version_from: int = 0
    version_to: int = 0

    def __post_init__(self) -> None:
        if self.old_graph.num_nodes != self.new_graph.num_nodes:
            raise ValueError("graph deltas cannot change the node count")
        for attr in ("inserted", "deleted"):
            array = _as_edge_array(getattr(self, attr))
            array.setflags(write=False)
            object.__setattr__(self, attr, array)

    @classmethod
    def between(cls, old_graph: DiGraph, new_graph: DiGraph, *,
                version_from: int = 0, version_to: int = 0) -> "GraphDelta":
        """The exact edge-set difference between two graphs."""
        if old_graph.num_nodes != new_graph.num_nodes:
            raise ValueError("graph deltas cannot change the node count")
        num_nodes = old_graph.num_nodes
        old_edges = old_graph.edge_array()
        new_edges = new_graph.edge_array()
        old_keys = _edge_keys(old_edges, num_nodes)
        new_keys = _edge_keys(new_edges, num_nodes)
        inserted = new_edges[~np.isin(new_keys, old_keys)]
        deleted = old_edges[~np.isin(old_keys, new_keys)]
        return cls(old_graph=old_graph, new_graph=new_graph,
                   inserted=inserted, deleted=deleted,
                   version_from=int(version_from), version_to=int(version_to))

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        return self.inserted.shape[0] == 0 and self.deleted.shape[0] == 0

    @property
    def num_changes(self) -> int:
        return int(self.inserted.shape[0] + self.deleted.shape[0])


# --------------------------------------------------------------------------- #
# write-ahead log
# --------------------------------------------------------------------------- #
class UpdateLog:
    """A CRC-framed write-ahead log of edge batches.

    Append semantics: the record is framed, written and ``fsync``-ed before
    :meth:`append` returns, so a caller that acknowledges an update after
    appending can never lose it to a crash.  A crash *during* the append
    leaves a torn final frame, which :meth:`replay` silently drops — the
    un-acknowledged batch simply never happened.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)

    # ------------------------------------------------------------------ #
    # append
    # ------------------------------------------------------------------ #
    def append(self, batch: EdgeBatch, version_to: int) -> Dict[str, Any]:
        """Durably append one batch; returns the record written."""
        record = batch.to_wire()
        record["version_to"] = int(version_to)
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        frame = WAL_MAGIC + _WAL_HEADER.pack(len(payload),
                                             zlib.crc32(payload)) + payload
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        with open(self.path, "ab") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        if created:
            _fsync_directory(self.path.parent)
        return record

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def replay(self) -> List[Dict[str, Any]]:
        """Every intact record, in append order.

        A torn final frame (the crash signature) is dropped; a bad frame
        *followed by* valid data raises :class:`WalCorruptionError` — that
        is corruption at rest, not a torn tail, and silently resuming past
        it would replay a different history than was acknowledged.
        """
        if not self.path.exists():
            return []
        blob = self.path.read_bytes()
        records: List[Dict[str, Any]] = []
        offset = 0
        header_bytes = len(WAL_MAGIC) + _WAL_HEADER.size
        while offset < len(blob):
            frame_start = offset
            if len(blob) - offset < header_bytes:
                break                     # torn header at the tail
            if blob[offset:offset + len(WAL_MAGIC)] != WAL_MAGIC:
                self._raise_unless_tail(blob, frame_start)
                break
            offset += len(WAL_MAGIC)
            length, crc = _WAL_HEADER.unpack_from(blob, offset)
            offset += _WAL_HEADER.size
            if length > _WAL_MAX_RECORD_BYTES or len(blob) - offset < length:
                break                     # torn payload at the tail
            payload = blob[offset:offset + length]
            offset += length
            if zlib.crc32(payload) != crc:
                self._raise_unless_tail(blob, offset)
                break
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise WalCorruptionError(
                    f"{self.path}: frame at byte {frame_start} holds "
                    f"invalid JSON ({error})") from error
            records.append(record)
        return records

    def _raise_unless_tail(self, blob: bytes, offset: int) -> None:
        """A bad frame is only forgivable when nothing valid follows it."""
        # A valid next frame can start exactly at ``offset`` (a CRC-corrupt
        # interior frame ends right where its intact successor begins), so
        # the whole remainder is searched, not just offset+1 onward.
        remainder = blob[offset:]
        if WAL_MAGIC in remainder:
            raise WalCorruptionError(
                f"{self.path}: corrupt frame at byte {offset} with valid "
                "frames after it (corruption at rest, not a torn tail)")

    def last_version(self) -> int:
        """The highest durably logged ``version_to`` (0 for an empty log)."""
        records = self.replay()
        return max((int(record.get("version_to", 0)) for record in records),
                   default=0)

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def compact(self, up_to_version: int) -> int:
        """Drop records with ``version_to <= up_to_version``; returns kept count.

        Used once a checkpoint (e.g. a persisted index at version ``v``)
        makes the prefix redundant.  The rewrite goes through a temporary
        file, fsync and :func:`os.replace`, so a crash mid-compaction
        leaves either the old or the new log, never a torn one.
        """
        records = [record for record in self.replay()
                   if int(record.get("version_to", 0)) > int(up_to_version)]
        tmp_path = self.path.with_name(f".{self.path.name}.tmp-{os.getpid()}")
        try:
            with open(tmp_path, "wb") as handle:
                for record in records:
                    payload = json.dumps(record,
                                         separators=(",", ":")).encode("utf-8")
                    handle.write(WAL_MAGIC + _WAL_HEADER.pack(
                        len(payload), zlib.crc32(payload)) + payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                tmp_path.unlink()
            except OSError:
                pass
            raise
        _fsync_directory(self.path.parent)
        return len(records)


class GraphCheckpoint:
    """An atomically written snapshot of one graph version, paired with a WAL.

    Compaction safety contract: :meth:`UpdateLog.compact` may only drop the
    prefix up to version ``v`` once a checkpoint *at* version ``v`` is
    durably on disk.  Recovery (:meth:`repro.graph.context.GraphContext.
    recover`) then rebuilds the graph from the checkpoint before replaying
    the remaining tail — without the checkpoint, a compacted log's first
    record would jump past the base graph's version and replay would
    correctly refuse the gap.

    The snapshot stores the full edge array plus the graph's fingerprint;
    :meth:`load` re-verifies the fingerprint after reconstruction, so a
    checkpoint corrupted at rest fails loudly instead of silently serving a
    different graph than was acknowledged.
    """

    #: Appended to the WAL's file name to derive the sibling checkpoint path.
    SUFFIX = ".checkpoint.npz"

    def __init__(self, path: PathLike):
        self.path = Path(path)

    @classmethod
    def for_wal(cls, wal: "UpdateLog") -> "GraphCheckpoint":
        """The checkpoint that guards compaction of ``wal``."""
        wal_path = Path(wal.path)
        return cls(wal_path.with_name(wal_path.name + cls.SUFFIX))

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, graph: DiGraph, version: int) -> Path:
        """Durably snapshot ``graph`` at ``version`` (tmp + fsync + replace)."""
        payload = {
            "edges": graph.edge_array(),
            "num_nodes": np.int64(graph.num_nodes),
            "version": np.int64(int(version)),
            "directed": np.bool_(graph.directed),
            "name": np.array(graph.name),
            "fingerprint": graph.fingerprint(),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = self.path.with_name(f".{self.path.name}.tmp-{os.getpid()}")
        try:
            with open(tmp_path, "wb") as handle:
                np.savez_compressed(handle, **payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                tmp_path.unlink()
            except OSError:
                pass
            raise
        _fsync_directory(self.path.parent)
        return self.path

    def load(self) -> Optional[Tuple[DiGraph, int]]:
        """The snapshot as ``(graph, version)``, or ``None`` when absent.

        The reconstructed graph's fingerprint must match the stored one —
        a mismatch (or an unreadable file) raises
        :class:`WalCorruptionError`, because a wrong checkpoint combined
        with a compacted WAL cannot be recovered past silently.
        """
        if not self.path.exists():
            return None
        try:
            with np.load(self.path, allow_pickle=False) as data:
                edges = np.asarray(data["edges"], dtype=np.int64)
                num_nodes = int(data["num_nodes"])
                version = int(data["version"])
                directed = bool(data["directed"])
                name = str(data["name"])
                fingerprint = np.asarray(data["fingerprint"])
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile) as error:
            raise WalCorruptionError(
                f"{self.path}: graph checkpoint is corrupt or unreadable "
                f"({error})") from error
        # ``edge_array`` already lists both directions of an undirected
        # graph, so the CSRs are rebuilt from the literal pairs and only
        # the flag is restored afterwards.
        graph = DiGraph.from_edges(edges.reshape(-1, 2), num_nodes,
                                   directed=True, name=name)
        if not directed:
            graph = dataclasses.replace(graph, directed=False)
        if not np.array_equal(graph.fingerprint(), fingerprint):
            raise WalCorruptionError(
                f"{self.path}: checkpoint fingerprint mismatch after "
                "reconstruction (corruption at rest)")
        return graph, version


def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync (persists creates/renames where supported)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass


__all__ = [
    "EdgeBatch",
    "GraphCheckpoint",
    "GraphDelta",
    "UpdateLog",
    "WalCorruptionError",
    "apply_edge_batch",
]
