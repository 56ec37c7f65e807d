"""Input-validation helpers shared by the public API surface.

All validators raise ``ValueError``/``TypeError`` with actionable messages so
that misuse fails loudly at the boundary instead of corrupting results deep
inside a numeric kernel.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np


def check_probability(value: float, name: str, *, inclusive_low: bool = True,
                      inclusive_high: bool = True) -> float:
    """Validate that ``value`` lies in [0, 1] (bounds optionally exclusive)."""
    value = float(value)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok):
        low = "[" if inclusive_low else "("
        high = "]" if inclusive_high else ")"
        raise ValueError(f"{name} must lie in {low}0, 1{high}, got {value!r}")
    return value


def check_positive(value: float, name: str) -> float:
    """A positive, finite ``value`` as ``float``; NaN and ±inf raise."""
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    value = float(value)
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_integer(value: Any, name: str) -> int:
    """An integral number (``3`` or ``3.0``) as ``int``, for ids read off the
    wire; a bool, a fractional or non-finite float, or anything ``int()``
    rejects raises ``ValueError``."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"'{name}' must be an integer, got {value!r}")
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"'{name}' must be an integer, got {value!r}")
    if isinstance(value, (float, np.floating)) and value != as_int:
        raise ValueError(f"'{name}' must be an integer, got {value!r}")
    return as_int


def check_node_index(node: int, num_nodes: int, name: str = "node") -> int:
    """Validate a node index against the graph size and return it as ``int``."""
    if not isinstance(node, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(node).__name__}")
    node = int(node)
    if node < 0 or node >= num_nodes:
        raise ValueError(f"{name}={node} is out of range for a graph with {num_nodes} nodes")
    return node


def check_vector_length(vector: np.ndarray, expected: int, name: str = "vector") -> np.ndarray:
    """Validate that ``vector`` is 1-D with length ``expected``."""
    array = np.asarray(vector)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.shape[0] != expected:
        raise ValueError(f"{name} must have length {expected}, got {array.shape[0]}")
    return array


def check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


__all__ = [
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_integer",
    "check_node_index",
    "check_vector_length",
    "check_positive_int",
]
