"""Process-wide thread-parallel execution substrate for the kernels.

One shared :class:`~concurrent.futures.ThreadPoolExecutor` serves the two
threaded kernel paths.  Threads (not processes) suffice because both spend
their time in C code that releases the GIL:

* ``parallel_spmm`` — column blocks of one CSR×dense product (the
  per-level products of ExactSim, SLING and Linearization, both index
  builds of ``dense_lane_levels``, and the dense steps of the probe kernel
  :func:`repro.kernels.frontier.accumulate_probes`).  A PL200K (200k × 8)
  product takes 17.5 ms at 2 threads vs 23.5 ms at 1.
* ``pair_meet_counts`` (:mod:`repro.randomwalk.aggregate`) — one chunk of
  at most ``PAIR_CHUNK`` walk pairs per task.

``dense_lane_levels`` is the all-sources propagation behind two index
builds: PRSim's hub vectors (``Pᵀ`` over the hubs) and SLING's hop
matrices (``P`` over every node).  It carries unit lanes as the columns of
one dense (n × lanes) state per chunk of at most :data:`DENSE_LANE_BYTES`,
advanced by one ``parallel_spmm`` per level, so its working set is bounded
at any n.  Exact lane states fill within a few levels, where the dense
product beats a sparse × sparse one: at one thread on a 2-core box,
SLING's DB build (ε = 1e-3) went 83 → 20 s and 2.2 → 0.27 GB peak RSS.
:func:`pruned_lane_levels` stores what both builds keep of it: per level,
one CSR matrix with a row per lane.

All three are bit-identical at any thread count.  scipy's ``csr_matvecs``
walks each row's nonzeros in order whichever columns share the call, so a
column block or a lane chunk changes no float; a pair-walk chunk draws
from a stream fixed by its position in the input, never by the thread
that runs it.

The thread count comes from ``REPRO_NUM_THREADS``, else the CPUs this
process may run on, and :func:`set_num_threads` overrides it at runtime.
Products below :data:`MIN_PARALLEL_WORK`, or with fewer than two columns,
stay serial.  Forked children drop the pool (``os.register_at_fork``):
executor threads do not survive ``fork``, so each worker process builds its
own on first use.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

__all__ = [
    "DENSE_LANE_BYTES",
    "MIN_PARALLEL_WORK",
    "available_cpus",
    "column_blocks",
    "default_num_threads",
    "dense_lane_levels",
    "get_num_threads",
    "parallel_spmm",
    "pruned_lane_levels",
    "run_blocks",
    "set_num_threads",
]

#: Minimum amount of kernel work (scalar multiply-adds of the dense product)
#: below which the serial path always wins: thread handoff costs ~50µs
#: while a small product finishes in less.
MIN_PARALLEL_WORK = 1 << 21

#: Cap on one chunk's dense lane state in :func:`dense_lane_levels`
#: (bytes); 64 MB keeps the (num_nodes × lanes) matrix cache- and
#: RAM-friendly.
DENSE_LANE_BYTES = 64 << 20

_ENV_VAR = "REPRO_NUM_THREADS"

_lock = threading.Lock()
_num_threads: Optional[int] = None
_pool: Optional[ThreadPoolExecutor] = None
_pool_size = 0


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` and cgroup cpusets shrink it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def default_num_threads() -> int:
    """Thread count from ``REPRO_NUM_THREADS``, else :func:`available_cpus`."""
    raw = os.environ.get(_ENV_VAR, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = 1
        return max(1, value)
    return available_cpus()


def get_num_threads() -> int:
    """The thread count parallel kernels currently target."""
    global _num_threads
    with _lock:
        if _num_threads is None:
            _num_threads = default_num_threads()
        return _num_threads


def set_num_threads(count: int) -> int:
    """Override the process-wide kernel thread count; returns the old value.

    Takes effect on the next parallel call — an in-flight call keeps the
    blocking it already chose.  ``count`` is clamped to at least 1.
    """
    global _num_threads
    count = max(1, int(count))
    with _lock:
        previous = _num_threads if _num_threads is not None \
            else default_num_threads()
        _num_threads = count
    return previous


def _reset_after_fork() -> None:
    # Executor threads do not survive fork; drop the handle so the child
    # lazily builds a fresh pool (and re-reads the env on first use only if
    # never resolved in the parent — an explicit set_num_threads sticks).
    global _pool, _pool_size
    _pool = None
    _pool_size = 0


os.register_at_fork(after_in_child=_reset_after_fork)


def _executor(workers: int) -> ThreadPoolExecutor:
    global _pool, _pool_size
    with _lock:
        if _pool is None or _pool_size < workers:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-kernel")
            _pool_size = workers
        return _pool


def run_blocks(fn: Callable, blocks: Sequence) -> List:
    """``[fn(block) for block in blocks]``, computed on the kernel pool.

    At most :func:`get_num_threads` blocks are in flight at once, each in a
    copy of the caller's context (so :func:`repro.utils.deadline.checkpoint`
    sees the caller's deadline).  Results come back in block order; the
    first exception propagates once no block of the call is still running.
    With one thread or one block the call runs inline.  Never call this
    from inside a block: a bounded pool can deadlock on nested calls.
    """
    threads = get_num_threads()
    if threads <= 1 or len(blocks) <= 1:
        return [fn(block) for block in blocks]
    pool = _executor(threads)
    running, results = deque(), []
    try:
        for block in blocks:
            if len(running) == threads:
                results.append(running.popleft().result())
            running.append(pool.submit(contextvars.copy_context().run,
                                       fn, block))
        results += [future.result() for future in running]
    finally:
        for future in running:
            future.cancel()
        wait(running)
    return results


def column_blocks(num_columns: int, *, threads: Optional[int] = None
                  ) -> List[Tuple[int, int]]:
    """Split ``num_columns`` into ≤ ``threads`` contiguous half-open ranges."""
    if threads is None:
        threads = get_num_threads()
    pieces = max(1, min(int(threads), int(num_columns)))
    bounds = np.linspace(0, num_columns, pieces + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1]))
            for i in range(pieces) if bounds[i] < bounds[i + 1]]


def parallel_spmm(matrix, dense: np.ndarray, *,
                  threads: Optional[int] = None) -> np.ndarray:
    """``matrix @ dense`` with contiguous column blocks on separate threads.

    ``matrix`` is a scipy CSR/CSC operator, ``dense`` a (n,) vector or
    (n, L) matrix.  Bit-identical to the serial product (see the module
    docstring); falls back to plain ``matrix @ dense`` when the auto
    heuristic (``nnz × L`` against :data:`MIN_PARALLEL_WORK`, at least two
    columns, more than one configured thread) rules parallelism out.
    """
    if dense.ndim != 2 or dense.shape[1] < 2:
        return matrix @ dense
    num_columns = dense.shape[1]
    if threads is None:
        threads = get_num_threads()
    work = int(getattr(matrix, "nnz", 0)) * num_columns
    if threads <= 1 or work < MIN_PARALLEL_WORK:
        return matrix @ dense
    blocks = column_blocks(num_columns, threads=threads)
    if len(blocks) <= 1:
        return matrix @ dense
    out = np.empty((matrix.shape[0], num_columns), dtype=np.float64)

    def _block(bounds: Tuple[int, int]) -> None:
        lo, hi = bounds
        # ascontiguousarray keeps scipy on its fast C-ordered multivector
        # path; the product and the slice copy both release the GIL.
        out[:, lo:hi] = matrix @ np.ascontiguousarray(dense[:, lo:hi])

    run_blocks(_block, blocks)
    return out


def dense_lane_levels(matrix, starts: np.ndarray, iterations: int,
                      scale: float) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(chunk_start, level, state)`` for unit lanes at ``starts``.

    Column ``b`` of ``state`` is lane ``chunk_start + b``: ``(scale ·
    matrix)^level`` applied to the unit vector at ``starts[chunk_start +
    b]``, exactly.  A chunk holds at most :data:`DENSE_LANE_BYTES` and
    yields levels 0..``iterations`` before the next one starts.  The next
    level is computed from a yielded state, so callers never write to it.
    A column's floats depend on neither its chunk nor the thread count.
    """
    num_nodes = matrix.shape[0]
    lanes = max(1, DENSE_LANE_BYTES // (8 * max(num_nodes, 1)))
    for chunk_start in range(0, starts.shape[0], lanes):
        chunk = starts[chunk_start:chunk_start + lanes]
        state = np.zeros((num_nodes, chunk.shape[0]), dtype=np.float64)
        state[chunk, np.arange(chunk.shape[0])] = 1.0
        for level in range(iterations + 1):
            yield chunk_start, level, state
            if level < iterations:
                state = parallel_spmm(matrix, state)
                state *= scale


def _pruned_rows(state: np.ndarray, threshold: float,
                 snapshot_scale: float) -> sparse.csr_matrix:
    """The lanes of ``snapshot_scale · state`` as CSR rows, keeping entries
    ≥ ``threshold``.

    One transpose copy makes the lane-major scan contiguous, which halves
    the cost of the mask over a strided view, and leaves each row's column
    indices sorted.  The temporaries die with the call, before the next
    level's product allocates.
    """
    rows = np.array(state.T, order="C")
    if snapshot_scale != 1.0:
        rows *= snapshot_scale
    keep = rows >= threshold
    flat = np.flatnonzero(keep)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=1))))
    return sparse.csr_matrix(
        (rows.ravel()[flat], flat % rows.shape[1], indptr), shape=rows.shape)


def pruned_lane_levels(matrix, starts: np.ndarray, iterations: int,
                       scale: float, threshold: float, *,
                       snapshot_scale: float = 1.0) -> List[sparse.csr_matrix]:
    """:func:`dense_lane_levels` stored sparsely: one CSR matrix per level.

    Row ``b`` of level ``ℓ`` is lane ``b``'s state times ``snapshot_scale``,
    keeping the entries ≥ ``threshold``; only the stored snapshots are
    pruned, the state propagates exactly.  Each chunk's lanes are one block
    of rows, stacked in chunk order.  SLING's hop matrices and PRSim's hub
    index are both this call.
    """
    blocks: List[List[sparse.csr_matrix]] = [[] for _ in range(iterations + 1)]
    for _, level, state in dense_lane_levels(matrix, starts, iterations, scale):
        blocks[level].append(_pruned_rows(state, threshold, snapshot_scale))
    return [parts[0] if len(parts) == 1 else sparse.vstack(parts, format="csr")
            for parts in blocks]
