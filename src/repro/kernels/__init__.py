"""Vectorized CSR frontier kernels.

The Algorithm 3 deterministic local exploitation (``diagonal/local.py``) and
the reverse probes of ProbeSim and PRSim expand a *frontier* — a small set
of (node, mass) pairs — one level at a time over the CSR adjacency.  The
seed implementation walked neighbour lists in pure Python; this package
replaces those loops with array kernels that gather whole CSR slices with
``np.repeat``, scatter with ``np.bincount``, and filter with boolean masks,
so the per-edge cost drops to a few vectorized instructions while the work
stays proportional to the frontier size.

Layout:

* :mod:`repro.kernels.sparsevec` — the array-backed sparse-vector container
  (``indices: int64[]``, ``values: float64[]``) the kernels produce/consume;
* :mod:`repro.kernels.frontier` — the kernels themselves
  (:func:`propagate_distribution`, :func:`propagate_batch` and its
  transpose twin), plus :func:`accumulate_probes`, the one probe loop of
  ProbeSim and PRSim: COO steps of :func:`propagate_batch_transpose` while a
  batch is sparse, dense lanes on ``parallel_spmm`` once it fills;
* :mod:`repro.kernels.multiprop` — the level-synchronous, forward-only
  :class:`MultiPropagation` engine: B independent reverse-walk
  propagations carried as one stacked COO state, advanced per level through
  shared CSR slices with per-lane termination and edge accounting (the
  Algorithm 3 prefetch of :mod:`repro.diagonal.local`);
* :mod:`repro.kernels.parallel` — the thread pool behind the two threaded
  paths: column-blocked ``parallel_spmm`` and the chunked pair walks of
  :mod:`repro.randomwalk.aggregate`, both bit-identical at any thread count;
  plus ``dense_lane_levels``, the chunked dense-lane propagation of
  ExactSim's phase 1 and of the PRSim and SLING index builds, which runs on
  ``parallel_spmm``, and ``pruned_lane_levels``, which stores its levels as
  CSR matrices cut by ``pruned_rows`` (the rule ExactSim's stored hops use
  too).

The original dict-based loops are kept with the tests, in
``tests/specs/frontier.py``, as executable specifications for the
equivalence suite.
"""

from repro.kernels.frontier import (
    accumulate_probes,
    csr_gather,
    propagate_batch,
    propagate_batch_transpose,
    propagate_distribution,
)
from repro.kernels.multiprop import MultiPropagation, dense_lane_limit
from repro.kernels.sparsevec import SparseVector

__all__ = [
    "MultiPropagation",
    "SparseVector",
    "accumulate_probes",
    "dense_lane_limit",
    "csr_gather",
    "propagate_batch",
    "propagate_batch_transpose",
    "propagate_distribution",
]
