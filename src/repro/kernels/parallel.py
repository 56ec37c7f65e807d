"""Process-wide thread-parallel execution substrate for the kernels.

One shared :class:`~concurrent.futures.ThreadPoolExecutor` serves the two
threaded kernel paths in the process.  Threads (not processes) are the
right vehicle here because both bottom out in C code that releases the
GIL: ``scipy``'s CSR×dense product and the Generator's binomial/multinomial
fills.  Each path stays because it won when measured on a 2-core box:

* ``parallel_spmm`` — column blocks of one CSR×dense product (the
  per-level products of ExactSim, SLING and Linearization, and PRSim's hub
  build).  A PL200K (200k × 8) product takes 17.5 ms at 2 threads vs
  23.5 ms at 1.
* sharded ``pair_meet_counts`` (see :mod:`repro.randomwalk.aggregate`) —
  the Algorithm 2/3 pair walks.  ``exactsim-gq`` p50 is 3.94 s at 2
  threads vs 4.59 s at 1.

Determinism contract
--------------------
* ``parallel_spmm`` — bit-identical.  scipy's ``csr_matvecs`` computes each
  output element by walking the row's CSR nonzeros in order, independently of
  which other columns sit in the same call, so computing a contiguous column
  block at a time changes no float.  Each thread writes a disjoint slice of
  one preallocated output.
* sharded pair walks — *not* bit-identical to serial, but deterministic:
  shard ``i`` draws from the ``i``-th ``Generator.spawn`` child stream, so a
  step above ``SHARD_MIN_STATES`` occupied states depends only on the seed
  and the thread count, never on thread scheduling.  Below the threshold
  the serial stream runs at any thread count, bit for bit.

Thread count resolves from ``REPRO_NUM_THREADS`` (falling back to the CPU
count) and can be overridden at runtime with :func:`set_num_threads`.  An
auto heuristic (work below :data:`MIN_PARALLEL_WORK`, fewer than two
columns) keeps tiny products on the serial path so they never pay
thread-pool overhead.  The pool is discarded in forked children
(``os.register_at_fork``) — executor threads do not survive ``fork``, and
worker processes re-create their own pool on first use.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MIN_PARALLEL_WORK",
    "column_blocks",
    "default_num_threads",
    "get_num_threads",
    "parallel_spmm",
    "run_blocks",
    "set_num_threads",
]

#: Minimum amount of kernel work (scalar multiply-adds of the dense product)
#: below which the serial path always wins: thread handoff costs ~50µs
#: while a small product finishes in less.
MIN_PARALLEL_WORK = 1 << 21

_ENV_VAR = "REPRO_NUM_THREADS"

_lock = threading.Lock()
_num_threads: Optional[int] = None
_pool: Optional[ThreadPoolExecutor] = None
_pool_size = 0


def default_num_threads() -> int:
    """Thread count from ``REPRO_NUM_THREADS``, else the CPU count."""
    raw = os.environ.get(_ENV_VAR, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = 1
        return max(1, value)
    return max(1, os.cpu_count() or 1)


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
    """Run ``fn`` over ``blocks``, in threads when there is more than one.

    Results come back in block order regardless of completion order; the
    first exception propagates.  With a single block the call is inlined —
    no pool, no handoff.
    """
    if len(blocks) <= 1:
        return [fn(block) for block in blocks]
    pool = _executor(len(blocks))
    return list(pool.map(fn, blocks))


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
