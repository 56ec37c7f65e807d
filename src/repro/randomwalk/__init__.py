"""Compacted / count-aggregated √c-walk simulation and meeting estimation."""

from repro.randomwalk.engine import CountFrontier, SqrtCWalkEngine, WalkBatch
from repro.randomwalk.meeting import (
    estimate_meeting_probability,
    estimate_diagonal_entry,
    estimate_tail_meeting_probability,
)

__all__ = [
    "CountFrontier",
    "SqrtCWalkEngine",
    "WalkBatch",
    "estimate_meeting_probability",
    "estimate_diagonal_entry",
    "estimate_tail_meeting_probability",
]
