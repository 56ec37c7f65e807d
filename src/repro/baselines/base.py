"""Common interface shared by every SimRank algorithm in the library.

The experiment harness treats all methods uniformly: index-based methods
(MC, Linearization, PRSim, SLING) pay a measurable preprocessing cost and
carry an index whose size Figure 4/8 plots; index-free methods (ExactSim,
ParSim, ProbeSim) answer queries directly.  The abstract base class captures
that contract so drivers can sweep over heterogeneous algorithm instances.

Four pieces of the contract live here so every method honours them the same
way:

* **Shared graph context** — algorithms receive (or lazily obtain) a
  :class:`~repro.graph.context.GraphContext` and take their
  :class:`TransitionOperator` from it, so ten algorithm instances on one
  graph build the CSR transition matrices once, not ten times.
* **Idempotent, timed preprocessing** — subclasses implement
  :meth:`_build_index`; the public :meth:`preprocess` wrapper times it,
  records ``preprocessing_seconds`` and never rebuilds an existing index
  unless asked (``force=True``).
* **Batched queries** — :meth:`single_source_batch` answers many sources in
  one call.  The default implementation loops over :meth:`single_source`;
  the methods with a vectorized batch (ExactSim, SLING, Linearization)
  override it and answer :meth:`single_source` as a batch of one, so each
  method has one single-source implementation.
* **Capability-declared query types** — :meth:`single_pair` and :meth:`top_k`
  always work (derived from a single-source pass by default); a method that
  overrides one with a genuinely cheaper native path declares it in
  :attr:`SimRankAlgorithm.native_capabilities`, and the service planner
  then runs that kind natively every time.
* **Index persistence** — :meth:`save_index` / :meth:`load_index` write and
  read an npz snapshot of the method's index so expensive preprocessing
  survives the process.  Subclasses expose their index through the
  ``_index_payload`` / ``_restore_index`` hooks; the base class handles the
  envelope (format version, algorithm name, decay and a graph fingerprint,
  all verified on load).
"""

from __future__ import annotations

import abc
import logging
import os
import zipfile
import zlib
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Union)

import numpy as np

from repro.graph.context import GraphContext
from repro.graph.digraph import DiGraph
from repro.utils.timing import Timer
from repro.utils.validation import check_node_index

_LOGGER = logging.getLogger("repro.baselines")

if TYPE_CHECKING:  # imported lazily to keep baselines ↔ core import-cycle free
    from repro.core.result import SinglePairResult, SingleSourceResult, TopKResult

#: Version tag written into every index file; bumped on layout changes.
#: Version 2 added per-array checksums to the envelope.
INDEX_FORMAT_VERSION = 2

PathLike = Union[str, Path]

#: The query kinds the service planner routes.  ``single_source`` (and its
#: batch form) is the universal contract every method implements;
#: ``single_pair`` and ``top_k`` always have derived fallbacks here in the
#: base class, and a method lists a kind in ``native_capabilities`` exactly
#: when it overrides the fallback with a genuinely cheaper native path.
QUERY_SINGLE_SOURCE = "single_source"
QUERY_SINGLE_PAIR = "single_pair"
QUERY_TOP_K = "top_k"
QUERY_KINDS = (QUERY_SINGLE_SOURCE, QUERY_SINGLE_PAIR, QUERY_TOP_K)


class IndexPersistenceError(RuntimeError):
    """Raised when an index cannot be saved or loaded."""


def check_unit_interval(values: np.ndarray, name: str) -> None:
    """Refuse a stored array unless every entry is finite and in [0, 1].

    Diagonals and stored hop probabilities are such values in every build;
    a NaN or inf would reach the wire as invalid JSON.
    """
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise IndexPersistenceError(f"{name} holds a value outside [0, 1]")


def truncation_depth(epsilon: float, decay: float) -> int:
    """⌈log(2/ε) / log(1/c)⌉: the hop depth whose tail c^ℓ is at most ε/2."""
    return int(np.ceil(np.log(2.0 / epsilon) / np.log(1.0 / decay)))


#: Chunk size of the streamed checksum walk (bytes).  Large enough that the
#: per-chunk Python overhead vanishes, small enough that verifying a
#: memory-mapped multi-GB array never holds more than one chunk resident.
_CHECKSUM_CHUNK_BYTES = 1 << 22


def _array_checksum(array: np.ndarray,
                    chunk_bytes: int = _CHECKSUM_CHUNK_BYTES) -> int:
    """CRC-32 over an array's dtype, shape and raw bytes (C order).

    Catches the corruption modes an intact zip container can still hide
    (bit flips inside a stored-uncompressed member, a member swapped between
    two valid files) on top of the truncation errors the container itself
    reports.

    The walk is *streamed* in fixed-size chunks: a memory-mapped array is
    verified page-wise without ever materializing a full in-RAM copy, so N
    workers can CRC-check a multi-GB shared index at attach time for the
    cost of one sequential read.  The digest is byte-identical to a
    whole-buffer ``crc32(array.tobytes())`` for every layout.
    """
    array = np.asarray(array)
    header = f"{array.dtype.str}|{array.shape}".encode()
    crc = zlib.crc32(header)
    if array.ndim == 0 or array.nbytes <= chunk_bytes:
        return zlib.crc32(np.ascontiguousarray(array).tobytes(), crc) & 0xFFFFFFFF
    if array.flags.c_contiguous:
        # Zero-copy path: slice the raw buffer; only the touched pages of a
        # memmap become resident, and they can be evicted behind the walk.
        view = memoryview(array).cast("B")
        for start in range(0, len(view), chunk_bytes):
            crc = zlib.crc32(view[start:start + chunk_bytes], crc)
        return crc & 0xFFFFFFFF
    # Non-contiguous: stream C-order blocks of whole outer rows.  The
    # concatenation of per-block C-order bytes equals the array's C-order
    # byte stream, so the digest matches the contiguous path exactly.
    row_bytes = max(1, array.nbytes // max(1, array.shape[0]))
    rows = max(1, chunk_bytes // row_bytes)
    for start in range(0, array.shape[0], rows):
        block = np.ascontiguousarray(array[start:start + rows])
        crc = zlib.crc32(block.tobytes(), crc)
    return crc & 0xFFFFFFFF


def _npy_member_array(path: Path, info: "zipfile.ZipInfo") -> np.ndarray:
    """Memory-map one *stored* (uncompressed) ``.npy`` member of an npz file.

    The member's bytes sit contiguously in the zip container, so the array
    can be mapped read-only straight out of the file: N processes attaching
    the same index share one page-cache copy.  Only the npy header (~100
    bytes) is actually read here.
    """
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local = handle.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            raise IndexPersistenceError(
                f"{path}: zip local header of {info.filename!r} is corrupt")
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        handle.seek(info.header_offset + 30 + name_len + extra_len)
        data_start = handle.tell()
        version = np.lib.format.read_magic(handle)
        read_header = getattr(np.lib.format, "_read_array_header", None)
        if read_header is not None:
            shape, fortran, dtype = read_header(handle, version)
        elif version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        else:
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        offset = handle.tell()
        if dtype.hasobject:
            raise IndexPersistenceError(
                f"{path}: member {info.filename!r} holds Python objects")
        count = int(np.prod(shape)) if shape else 1
        if count == 0 or len(shape) == 0:
            # Empty and 0-d members are not mappable; read the few bytes.
            data = handle.read(count * dtype.itemsize)
            array = np.frombuffer(data, dtype=dtype, count=count)
            return array.reshape(shape, order="F" if fortran else "C")
        expected_end = offset + count * dtype.itemsize
        if expected_end > data_start + info.file_size + 16:
            raise IndexPersistenceError(
                f"{path}: member {info.filename!r} is truncated")
    return np.memmap(path, dtype=dtype, mode="r", offset=offset,
                     shape=shape, order="F" if fortran else "C")


def _mmap_npz_payload(path: Path) -> Dict[str, np.ndarray]:
    """Open an npz as a dict of read-only arrays, memory-mapping what it can.

    Members stored uncompressed (``np.savez`` / ``save_index(compressed=
    False)``) come back as ``np.memmap`` views sharing the page cache across
    processes; deflated members (and the tiny empty/0-d ones) fall back to a
    per-member materialized load, so a compressed index still loads — it
    just is not shared.
    """
    arrays: Dict[str, np.ndarray] = {}
    fallback: List[str] = []
    with zipfile.ZipFile(path) as container:
        for info in container.infolist():
            name = info.filename
            key = name[:-4] if name.endswith(".npy") else name
            if info.compress_type == zipfile.ZIP_STORED and name.endswith(".npy"):
                arrays[key] = _npy_member_array(path, info)
            else:
                fallback.append(key)
    if fallback:
        with np.load(path, allow_pickle=False) as data:
            for key in fallback:
                arrays[key] = data[key]
    return arrays


class SimRankAlgorithm(abc.ABC):
    """A single-source SimRank algorithm bound to one graph."""

    #: Human-readable name used in experiment output (overridden by subclasses).
    name: str = "simrank-algorithm"
    #: Whether the method builds an index in a preprocessing phase.
    index_based: bool = False
    #: Query kinds (beyond ``single_source``) this method answers natively —
    #: i.e. with a dedicated path that is cheaper than deriving the answer
    #: from a full single-source pass.  The planner consults this to route
    #: typed queries; subclasses with a native path override it.
    native_capabilities: frozenset = frozenset()

    def __init__(self, graph: DiGraph, *, decay: float = 0.6,
                 context: Optional[GraphContext] = None):
        if context is not None and context.graph is not graph \
                and context.graph != graph \
                and not context.knows_graph(graph):
            # A context that has moved on through apply_updates() still
            # retains its historical versions; binding an algorithm to one
            # of those is legitimate (an instance serving the previous
            # version until the planner swaps it onto the newest one).
            raise ValueError("context was built for a different graph")
        self.graph = graph
        self.decay = decay
        self.context = context if context is not None else GraphContext.shared(graph)
        self.preprocessing_seconds: float = 0.0
        #: Version recorded in a loaded index envelope (0 until load_index).
        self.index_graph_version: int = 0
        self._prepared = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def preprocess(self, *, force: bool = False) -> "SimRankAlgorithm":
        """Build the index (no-op for index-free methods).  Returns ``self``.

        Idempotent: a second call returns immediately unless ``force=True``,
        so callers can invoke it defensively without re-paying preprocessing
        (or perturbing the RNG stream of sampling-based index builds).
        """
        if self._prepared and not force:
            return self
        timer = Timer()
        with timer:
            self._build_index()
        self.preprocessing_seconds = timer.elapsed
        self._prepared = True
        return self

    def _build_index(self) -> None:
        """Subclass hook: build the method's index (no-op for index-free)."""

    @property
    def prepared(self) -> bool:
        return self._prepared

    def ensure_prepared(self) -> None:
        if not self._prepared:
            self.preprocess()

    # ------------------------------------------------------------------ #
    # online updates: rebind, then rebuild
    # ------------------------------------------------------------------ #
    def repair(self, delta) -> Dict[str, Any]:
        """Carry this instance from ``delta.old_graph`` to ``delta.new_graph``.

        The one update path of every method: rebind to the new graph and,
        when an index is already built, rebuild it there.  Rebinding
        re-seeds the method's walk engine, so the rebuilt index — and every
        answer read from it — is bit-identical to a fresh instance built on
        ``delta.new_graph`` with the same config.  An incremental patch
        would have to beat this on cost, and on the measured graphs the
        nodes an edit reaches are nearly all of them.

        Returns a report dict: ``strategy`` is ``noop`` (empty delta),
        ``rebind`` (no index to carry: index-free, or not built yet and
        built lazily on the new graph) or ``rebuild``.
        """
        if delta.old_graph is not self.graph and delta.old_graph != self.graph:
            raise ValueError(
                f"delta starts at a different graph than this {self.name} "
                "instance is bound to")
        self._rebind_graph(delta.new_graph)
        if delta.is_empty:
            strategy = "noop"
        elif self.index_based and self._prepared:
            _LOGGER.info("%s: rebuilding index on graph version %d",
                         self.name, delta.version_to)
            self.preprocess(force=True)
            strategy = "rebuild"
        else:
            strategy = "rebind"
        return {"method": self.name, "strategy": strategy,
                "version_to": int(delta.version_to)}

    def _rebind_graph(self, graph: DiGraph) -> None:
        """Point this instance at another version of its graph.

        Keeps the shared context when it already knows ``graph`` (the
        common case: the context itself applied the updates), otherwise
        falls back to the process-wide shared context of the new graph.
        Subclasses refresh graph-derived snapshots (walk engines, operator
        references) in :meth:`_on_graph_rebound`.
        """
        self.graph = graph
        if self.context.graph is not graph and self.context.graph != graph \
                and not self.context.knows_graph(graph):
            self.context = GraphContext.shared(graph)
        self._on_graph_rebound()

    def _on_graph_rebound(self) -> None:
        """Subclass hook: (re)build the graph-derived snapshots.

        Subclasses build their walk engines (seeded from the config),
        operators and graph-derived vectors here and call it from
        ``__init__`` too, so a rebound instance answers exactly like a fresh
        one on the new graph.
        """

    def _operator_for_graph(self, decay: Optional[float] = None):
        """A :class:`TransitionOperator` for *this instance's* graph.

        Uses the context's cache when the context is on the same version;
        during a serve-stale window (context ahead of an instance not yet
        swapped forward) it builds a private operator so the instance's
        matrices keep describing the graph its index describes.
        """
        decay = self.decay if decay is None else decay
        if self.context.graph is self.graph or self.context.graph == self.graph:
            return self.context.operator(decay)
        from repro.graph.transition import TransitionOperator

        return TransitionOperator(self.graph, decay)

    @property
    def graph_version(self) -> int:
        """The context's version number of the bound graph (0 if unknown)."""
        return self.context.version_of(self.graph)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def single_source(self, source: int) -> SingleSourceResult:
        """Answer a single-source query (implicitly preprocessing if needed)."""

    def single_source_batch(self, sources: Sequence[int]) -> List[SingleSourceResult]:
        """Answer one query per entry of ``sources``.

        Every id is validated before any work starts.  The default
        implementation preprocesses once and loops over :meth:`single_source`,
        which makes it exactly equivalent to issuing the queries sequentially
        (including the RNG stream of sampling-based methods).  Methods with a
        vectorized multi-source path override this and define
        :meth:`single_source` as ``single_source_batch([source])[0]``.
        """
        source_ids = [check_node_index(source, self.graph.num_nodes, "source")
                      for source in sources]
        self.ensure_prepared()
        return [self.single_source(source) for source in source_ids]

    def single_pair(self, source: int, target: int) -> SinglePairResult:
        """Answer a single-pair query S(source, target).

        The default implementation derives the answer from a full
        single-source pass (one entry of the score vector); methods that can
        evaluate one entry without materialising the vector override this
        and declare ``single_pair`` in :attr:`native_capabilities`.
        """
        from repro.core.result import derive_from_single_source

        return derive_from_single_source(self.single_source(source),
                                         target=target)

    def top_k(self, source: int, k: int = 500) -> TopKResult:
        """Answer a top-k query (derived: truncate a full single-source pass).

        A method whose native path beats the full pass on measured graphs
        overrides this and declares ``top_k`` in :attr:`native_capabilities`
        (SLING, which stops accumulating hop levels once the k-th score gap
        exceeds the remaining tail bound).
        """
        from repro.core.result import derive_from_single_source

        return derive_from_single_source(self.single_source(source), k=k)

    def capabilities(self) -> Dict[str, str]:
        """Routing table row: query kind -> ``"native"`` or ``"derived"``."""
        table = {QUERY_SINGLE_SOURCE: "native"}
        for kind in (QUERY_SINGLE_PAIR, QUERY_TOP_K):
            table[kind] = ("native" if kind in self.native_capabilities
                           else "derived")
        return table

    # ------------------------------------------------------------------ #
    # index persistence
    # ------------------------------------------------------------------ #
    def _index_payload(self) -> Dict[str, np.ndarray]:
        """Subclass hook: the index as a flat dict of arrays (npz entries)."""
        raise IndexPersistenceError(
            f"{self.name} does not implement index persistence")

    def _restore_index(self, payload: Mapping[str, np.ndarray]) -> None:
        """Subclass hook: rebuild the in-memory index from ``payload``."""
        raise IndexPersistenceError(
            f"{self.name} does not implement index persistence")

    def save_index(self, path: PathLike, *, compressed: bool = True) -> Path:
        """Persist the method's index to ``path`` (npz), preprocessing if needed.

        The file carries the algorithm name, decay, a fingerprint of the
        graph, the recorded preprocessing time and a per-array checksum
        table, all of which :meth:`load_index` verifies — loading a PRSim
        index into SLING, an index built on a different graph, or a file
        corrupted at rest fails loudly instead of silently returning wrong
        scores.

        ``compressed=False`` stores the arrays raw (``np.savez``): the file
        is larger, but :meth:`load_index` with ``mmap_mode='r'`` can then
        memory-map every member, so N serving workers attach one shared
        page-cache copy instead of N materialized heaps.

        The write is crash-safe: the npz is assembled in a temporary file in
        the target directory, fsynced, and atomically renamed over ``path``
        (``os.replace``), so a crash — even SIGKILL — mid-save leaves either
        the previous index bit-identical or the new one, never a torn file.
        """
        if not self.index_based:
            raise IndexPersistenceError(
                f"{self.name} is index-free; there is no index to save")
        self.ensure_prepared()
        payload = self._index_payload()
        envelope = {
            "_meta_version": np.int64(INDEX_FORMAT_VERSION),
            "_meta_algorithm": np.array(self.name),
            "_meta_decay": np.float64(self.decay),
            "_meta_fingerprint": self.graph.fingerprint(),
            "_meta_preprocessing_seconds": np.float64(self.preprocessing_seconds),
            "_meta_graph_version": np.int64(self.graph_version),
        }
        overlap = set(envelope) & set(payload)
        if overlap:
            raise IndexPersistenceError(f"payload uses reserved keys {sorted(overlap)}")
        checked = {**envelope, **payload}
        envelope["_meta_checksum_keys"] = np.array(sorted(checked))
        envelope["_meta_checksum_values"] = np.array(
            [_array_checksum(np.asarray(checked[key]))
             for key in sorted(checked)], dtype=np.uint32)
        path = Path(path)
        if path.suffix != ".npz":
            # np.savez would silently append the suffix; normalize first so
            # the returned path is the file actually written.
            path = path.with_name(path.name + ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        writer = np.savez_compressed if compressed else np.savez
        try:
            with open(tmp_path, "wb") as handle:
                writer(handle, **envelope, **payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                tmp_path.unlink()
            except OSError:
                pass
            raise
        try:
            # Persist the rename itself; not all filesystems support
            # fsyncing a directory, so failures here are non-fatal.
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            pass
        return path

    def load_index(self, path: PathLike, *,
                   mmap_mode: Optional[str] = None) -> "SimRankAlgorithm":
        """Load an index previously written by :meth:`save_index`.

        Verifies the format version, per-array checksums, algorithm name,
        decay and graph fingerprint before handing the payload to the
        subclass, then marks the instance prepared.  Returns ``self``.

        With ``mmap_mode='r'`` the arrays of an *uncompressed* index file
        are memory-mapped read-only instead of materialized: attach time is
        O(header) per array, the kernel shares one page-cache copy between
        every process mapping the same file, and the checksum verification
        streams over the mapping in fixed-size chunks, so even a multi-GB
        index never forces a full-RAM copy.  Compressed members degrade
        gracefully to a materialized load.

        Truncated, garbage or internally inconsistent files surface as
        :class:`IndexPersistenceError` naming the path — never as a raw
        ``zipfile``/``numpy`` exception the caller has to know about.  A
        missing file keeps raising :class:`FileNotFoundError` (absence is a
        different condition from corruption and callers branch on it).
        """
        if not self.index_based:
            raise IndexPersistenceError(
                f"{self.name} is index-free; there is no index to load")
        if mmap_mode not in (None, "r"):
            raise ValueError(f"mmap_mode must be None or 'r', got {mmap_mode!r}")
        path = Path(path)
        try:
            if mmap_mode == "r":
                payload = _mmap_npz_payload(path)
            else:
                with np.load(path, allow_pickle=False) as data:
                    payload = {key: data[key] for key in data.files}
        except FileNotFoundError:
            raise
        except IndexPersistenceError:
            raise
        except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError) as error:
            raise IndexPersistenceError(
                f"{path}: index file is corrupt or unreadable ({error})") from error
        try:
            version = int(payload.pop("_meta_version", -1))
            if version != INDEX_FORMAT_VERSION:
                raise IndexPersistenceError(
                    f"{path}: unsupported index format version {version} "
                    f"(expected {INDEX_FORMAT_VERSION})")
            self._verify_checksums(path, payload)
            algorithm = str(payload.pop("_meta_algorithm"))
            if algorithm != self.name:
                raise IndexPersistenceError(
                    f"{path}: index was built by {algorithm!r}, not {self.name!r}")
            decay = float(payload.pop("_meta_decay"))
            if not np.isclose(decay, self.decay):
                raise IndexPersistenceError(
                    f"{path}: index was built with decay {decay}, "
                    f"instance uses {self.decay}")
            fingerprint = payload.pop("_meta_fingerprint")
            if not np.array_equal(fingerprint, self.graph.fingerprint()):
                raise IndexPersistenceError(
                    f"{path}: index was built on a different graph")
            preprocessing_seconds = float(payload.pop("_meta_preprocessing_seconds"))
            # Version-1..2 files written before the update plane carry no
            # graph version; 0 means "the base version of whatever graph
            # the fingerprint matched".
            index_graph_version = int(payload.pop("_meta_graph_version", 0))
            self._restore_index(payload)
        except IndexPersistenceError:
            raise
        except (KeyError, ValueError, TypeError) as error:
            # A malformed payload that passed the container checks: missing
            # keys or arrays the subclass cannot interpret.
            raise IndexPersistenceError(
                f"{path}: index payload is malformed ({error})") from error
        self.preprocessing_seconds = preprocessing_seconds
        self.index_graph_version = index_graph_version
        self._prepared = True
        return self

    @staticmethod
    def _verify_checksums(path: Path, payload: Dict[str, np.ndarray]) -> None:
        """Check every stored array against the envelope's checksum table."""
        keys = payload.pop("_meta_checksum_keys", None)
        values = payload.pop("_meta_checksum_values", None)
        if keys is None or values is None:
            raise IndexPersistenceError(
                f"{path}: index file carries no checksum table")
        keys = [str(key) for key in np.asarray(keys).tolist()]
        values = np.asarray(values, dtype=np.uint64).tolist()
        if len(keys) != len(values):
            raise IndexPersistenceError(
                f"{path}: checksum table is internally inconsistent")
        expected = dict(zip(keys, values))
        missing = sorted(set(expected) - set(payload) - {"_meta_version"})
        if missing:
            raise IndexPersistenceError(
                f"{path}: index file is missing checksummed arrays {missing}")
        for key, array in payload.items():
            if key not in expected:
                raise IndexPersistenceError(
                    f"{path}: array {key!r} has no recorded checksum")
            if _array_checksum(np.asarray(array)) != expected[key]:
                raise IndexPersistenceError(
                    f"{path}: checksum mismatch for array {key!r} "
                    "(file corrupted at rest)")

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def index_bytes(self) -> int:
        """Size of the method's index structures in bytes (0 for index-free)."""
        return 0

    def describe(self) -> str:
        kind = "index-based" if self.index_based else "index-free"
        return f"{self.name} ({kind})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(graph={self.graph.name!r}, decay={self.decay})"


__all__ = [
    "SimRankAlgorithm",
    "IndexPersistenceError",
    "check_unit_interval",
    "truncation_depth",
    "INDEX_FORMAT_VERSION",
    "QUERY_SINGLE_SOURCE",
    "QUERY_SINGLE_PAIR",
    "QUERY_TOP_K",
    "QUERY_KINDS",
]
