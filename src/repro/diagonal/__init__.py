"""Estimation of the diagonal correction matrix D.

The linearized SimRank identity S = Σ_ℓ c^ℓ (P^ℓ)ᵀ D P^ℓ needs the diagonal
correction matrix D, whose entry D(k, k) = 1 − Pr[two √c-walks from k meet].
This package provides every estimator the paper discusses:

* :func:`repro.diagonal.basic.estimate_diagonal_basic` — Algorithm 2 applied
  to every node with a per-node sample allocation (basic ExactSim);
* :func:`repro.diagonal.local.estimate_diagonal_local_batch` — Algorithm 3
  (optimized ExactSim) for the allocations of a whole batch of sources: the
  Lemma 4 recursion under a 2·R(k)/√c edge budget per heavy node, with the
  tail past ℓ(k) estimated by √c-walk pairs;
  :func:`repro.diagonal.local.estimate_diagonal_entry_local` runs it for one
  node and :func:`repro.diagonal.local.first_meeting_probabilities` runs the
  recursion unbudgeted;
* :func:`repro.diagonal.exact.exact_diagonal` — the exact D derived from an
  exact SimRank matrix (small-graph oracle used by the tests);
* :func:`repro.diagonal.parsim_approx.parsim_diagonal` — the D = (1 − c)·I
  approximation that ParSim and many follow-ups adopt.
"""

from repro.diagonal.basic import estimate_diagonal_basic, estimate_diagonal_basic_batch
from repro.diagonal.local import (
    LocalExploitResult,
    estimate_diagonal_entry_local,
    estimate_diagonal_local_batch,
    first_meeting_probabilities,
)
from repro.diagonal.exact import exact_diagonal, exact_diagonal_entry
from repro.diagonal.linear_system import (
    linearized_diagonal_residual,
    solve_diagonal_linear_system,
)
from repro.diagonal.parsim_approx import parsim_diagonal

__all__ = [
    "linearized_diagonal_residual",
    "solve_diagonal_linear_system",
    "estimate_diagonal_basic",
    "estimate_diagonal_basic_batch",
    "LocalExploitResult",
    "estimate_diagonal_entry_local",
    "estimate_diagonal_local_batch",
    "first_meeting_probabilities",
    "exact_diagonal",
    "exact_diagonal_entry",
    "parsim_diagonal",
]
