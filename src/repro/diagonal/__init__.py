"""Estimation of the diagonal correction matrix D.

The linearized SimRank identity S = Σ_ℓ c^ℓ (P^ℓ)ᵀ D P^ℓ needs the diagonal
correction matrix D, whose entry D(k, k) = 1 − Pr[two √c-walks from k meet].
This package provides the estimators the paper discusses:

* :func:`repro.diagonal.basic.estimate_diagonal_basic` — Algorithm 2 applied
  to every node with a per-node sample allocation (basic ExactSim);
* :func:`repro.diagonal.local.estimate_diagonal_local_batch` — Algorithm 3
  (optimized ExactSim) for the allocations of a whole batch of sources: the
  Lemma 4 recursion under a 2·R(k)/√c edge budget per heavy node, with the
  tail past ℓ(k) estimated by √c-walk pairs;
* :func:`repro.diagonal.parsim_approx.parsim_diagonal` — the D = (1 − c)·I
  approximation that ParSim and many follow-ups adopt.

The exact D the tests validate these against (from an exact SimRank matrix,
or as the solution of a linear system) lives with the tests, in
``tests/specs/``.
"""

from repro.diagonal.basic import estimate_diagonal_basic, estimate_diagonal_basic_batch
from repro.diagonal.local import estimate_diagonal_local_batch
from repro.diagonal.parsim_approx import parsim_diagonal

__all__ = [
    "estimate_diagonal_basic",
    "estimate_diagonal_basic_batch",
    "estimate_diagonal_local_batch",
    "parsim_diagonal",
]
