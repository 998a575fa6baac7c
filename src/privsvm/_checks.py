"""The parameter rules every entry point applies to its own arguments.

Each rule is written once, here, and each failure is a ValueError whose
message starts with the parameter's name: "<name> must ...". Every comparison
is written so that NaN fails it, since NaN passes any check of the form x <= 0.
"""

from __future__ import annotations

import math

import numpy as np


def positive(**values) -> None:
    """Each value is finite and > 0."""
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive")


def probability(**values) -> None:
    """Each value lies in the open interval (0, 1)."""
    for name, v in values.items():
        if not 0 < v < 1:
            raise ValueError(f"{name} must lie in (0, 1)")


def at_least(minimum, **values) -> None:
    """Each value is >= minimum."""
    for name, v in values.items():
        if not v >= minimum:
            raise ValueError(f"{name} must be at least {minimum}")


def exceeds(minimum, **values) -> None:
    """Each value is > minimum; +inf passes, as a moment that diverges does."""
    for name, v in values.items():
        if not v > minimum:
            raise ValueError(f"{name} must exceed {minimum}")


def count(minimum, **values) -> None:
    """Each value is a count: finite, a whole number, and >= minimum."""
    for name, v in values.items():
        if not (math.isfinite(v) and float(v).is_integer() and v >= minimum):
            raise ValueError(f"{name} must be a whole number of at least {minimum}")


def as_points(X, dim: int) -> np.ndarray:
    """X as an (m, dim) float array; ValueError for any other shape."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"points must be an (m, {dim}) array, got shape {X.shape}")
    return X
