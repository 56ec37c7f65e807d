"""The old name of ExactSim's phase 1, kept for one reader.

``perfbench/layers.py`` rebinds ``forward_push_hop_ppr_batch`` as its
``ppr.push`` layer; the tracer then wraps every module attribute holding this
object, so the span covers :func:`~repro.ppr.hop_ppr.hop_ppr_batch` wherever
it is called.  The alias goes once the benchmark names the new function.
"""

from repro.ppr.hop_ppr import hop_ppr_batch

forward_push_hop_ppr_batch = hop_ppr_batch

__all__ = ["forward_push_hop_ppr_batch"]
