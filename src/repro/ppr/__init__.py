"""Personalized-PageRank substrate: ℓ-hop PPR vectors and PageRank."""

from repro.ppr.hop_ppr import HopPPR, hop_ppr_batch, hop_ppr_vectors
from repro.ppr.pagerank import pagerank

__all__ = [
    "HopPPR",
    "hop_ppr_batch",
    "hop_ppr_vectors",
    "pagerank",
]
