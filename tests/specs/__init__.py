"""Executable specifications the production paths are pinned against.

Each module is a plain, sequential reference implementation of something
the library computes with a batched or vectorised kernel.  The tests
compare the two, so the specs are safety code: they must keep running, but
no caller of the library needs them, and they live here instead of in
``src/``.

* :mod:`specs.exact_diagonal` — the exact D from an exact SimRank matrix;
* :mod:`specs.linear_system` — the exact D as the solution of a linear
  system, independent of the SimRank matrix;
* :mod:`specs.algorithm3` — Algorithm 3's Lemma 4 recursion, one node and
  one distribution fetch at a time, with its own edge-budget window and
  cache;
* :mod:`specs.frontier` — the dict-based frontier loops behind
  :mod:`repro.kernels.frontier`;
* :mod:`specs.walks` — the full-width, per-walk √c-walk engine behind
  :mod:`repro.randomwalk.engine`;
* :mod:`specs.probes` — PRSim's per-hub reverse walks and ProbeSim's
  per-node probes;
* :mod:`specs.hop_matrices` — SLING's hop matrices by sparse × sparse
  products;
* :mod:`specs.monte_carlo` — MC's single-source query as a scan of every
  stored walk;
* :mod:`specs.ppr` — hitting probabilities, converged PPR vectors and
  power-iteration PPR, the references for :mod:`repro.ppr.hop_ppr`.

``tests/`` is on ``sys.path`` under pytest, so tests import these as
``from specs.walks import ReferenceWalkEngine``.  A script outside
``tests/`` that times a spec puts ``tests/`` on ``sys.path`` itself.
"""
