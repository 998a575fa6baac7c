"""Laplace noise generation and Erlang tail arithmetic.

Sampling goes through the inverse CDF so every draw is an exact, reproducible
function of the generator's uniform stream.
"""

from __future__ import annotations

import math

import numpy as np

from . import _checks
from ._checks import at_least, positive

__all__ = ["sample_laplace", "erlang_tail_probability"]


def sample_laplace(scale: float, count: int, rng) -> np.ndarray:
    """Draw `count` i.i.d. Laplace(0, scale) values from `rng`.

    Uses the inverse CDF -scale * sgn(u) * ln(1 - 2|u|) with u uniform on
    (-1/2, 1/2); u = 0 maps to 0. The generator's uniforms lie in [0, 1), so
    u = -1/2, which would map to -inf, is possible; exactly those entries are
    redrawn from the same generator, in index order. Every other draw, and
    the stream consumed when no redraw is needed, are unchanged.
    """
    positive(scale=scale)
    _checks.count(1, count=count)
    u = rng.random(int(count)) - 0.5
    edge = np.flatnonzero(u == -0.5)
    while edge.size:
        u[edge] = rng.random(edge.size) - 0.5
        edge = edge[u[edge] == -0.5]
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def erlang_tail_probability(q: int, scale: float, threshold: float) -> float:
    """Exact Pr(X > threshold) for X ~ Erlang(q, scale).

    The upper tail is exp(-x/scale) * sum_{j=0}^{q-1} (x/scale)^j / j!,
    evaluated in log space for stability.
    """
    _checks.count(1, q=q)
    positive(scale=scale)
    at_least(0, threshold=threshold)
    x = threshold / scale
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0  # exp(-inf + 0 * inf) would be NaN
    log_x = math.log(x)
    terms = [math.exp(-x + j * log_x - math.lgamma(j + 1)) for j in range(int(q))]
    return min(1.0, math.fsum(terms))
