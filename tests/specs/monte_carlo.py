"""MC's single-source query as a scan of every stored walk — the executable
spec.

:meth:`repro.baselines.monte_carlo.MonteCarloSimRank.single_source` reads
one bucket of the walk store's inverse per live cell (step t ≥ 1, replica
r) of the source.  The function here keeps the path it replaced: at every
step, compare the source's r-th walk with the r-th walk of every node, and
report the fraction of replicas that met at some step.
``tests/test_monte_carlo.py`` pins the production path against it with
``np.array_equal``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.monte_carlo import MonteCarloSimRank


def mc_single_source_reference(algorithm: MonteCarloSimRank,
                               source: int) -> np.ndarray:
    """S(source, ·) from an O(L·r·n) scan of the prepared walk store."""
    algorithm.ensure_prepared()
    index = algorithm._index
    # source_walks[t, r]: node of the r-th source walk at step t.
    source_walks = index[:, :, source]
    # A pair (source walk r, walk r of node j) meets if at any step t >= 1
    # both are alive and on the same node.
    met = np.zeros((index.shape[1], index.shape[2]), dtype=bool)
    for step in range(1, index.shape[0]):
        source_at_step = source_walks[step][:, np.newaxis]       # (r, 1)
        met |= (source_at_step >= 0) & (source_at_step == index[step])
    scores = met.mean(axis=0)
    scores[source] = 1.0
    return scores
