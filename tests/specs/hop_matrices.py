"""SLING's hop matrices by sparse × sparse products — the executable spec.

SLING builds its pruned reverse hop matrices H_ℓ = (√c Pᵀ)^ℓ by carrying
every node as a unit lane of :func:`repro.kernels.parallel.
dense_lane_levels` (:meth:`repro.baselines.sling.SLING._build_index`).  The
function here keeps the loop that build replaced: the running matrix starts
as the identity, advances by one scipy sparse × sparse product per level,
and only the stored snapshots are pruned.  ``tests/test_sling.py`` pins the
dense build against it: identical supports (after ``sorted_indices()``, as
scipy's product leaves rows unsorted), values within 1e-15.
"""

from __future__ import annotations

from typing import List

import numpy as np
from scipy import sparse

from repro.baselines.sling import SLING


def sling_hop_matrices(sling: SLING) -> List[sparse.csr_matrix]:
    """The pruned H_0 .. H_L of ``sling``'s graph, ε and decay."""
    iterations = sling.num_iterations()
    threshold = (1.0 - sling._operator.sqrt_c) * sling.epsilon
    sqrt_c = sling._operator.sqrt_c
    current = sparse.identity(sling.graph.num_nodes, format="csr",
                              dtype=np.float64)
    matrices: List[sparse.csr_matrix] = []
    for level in range(iterations + 1):
        pruned = current.copy()
        pruned.data[pruned.data < threshold] = 0.0
        pruned.eliminate_zeros()
        matrices.append(pruned)
        if level < iterations:
            current = (sqrt_c * (current @ sling._operator.matrix_t)).tocsr()
    return matrices
