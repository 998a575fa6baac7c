"""Kernel families, their evaluation, and sampling from their spectral measures.

The translation-invariant families are normalized so k(x, x) = 1, which makes
the Fourier transform of each a probability density:

    rbf(sigma)  exp(-|x-y|_2^2 / (2 sigma^2))   <->  N(0, sigma^-2 I) per coordinate
    laplacian   exp(-|x-y|_1)                   <->  standard Cauchy per coordinate
    cauchy      prod_i 1/(1 + (x_i-y_i)^2)      <->  Laplace(0, 1) per coordinate
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .noise import sample_laplace

__all__ = [
    "UnsupportedKernelError",
    "KernelSpec",
    "linear_kernel",
    "rbf_kernel",
    "laplacian_kernel",
    "cauchy_kernel",
    "gram",
    "sample_spectral",
    "spectral_second_moment",
]

LINEAR = "linear"
RBF = "rbf"
LAPLACIAN = "laplacian"
CAUCHY = "cauchy"
_FAMILIES = (LINEAR, RBF, LAPLACIAN, CAUCHY)

# Cells per row block of a translation-invariant Gram. The block buffer and the
# output block it accumulates into (256 KB each) stay in a core's L2 cache,
# and the budget is in cells, not rows, so a one-column Gram over a grid still
# takes few Python iterations.
_BLOCK_CELLS = 1 << 15


class UnsupportedKernelError(ValueError):
    """Raised when an operation needs a spectral density the kernel lacks."""


@dataclass(frozen=True)
class KernelSpec:
    """Tagged kernel family; `sigma` is the bandwidth and only used by rbf."""

    family: str
    sigma: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == RBF:
            if not isinstance(self.sigma, (int, float, np.number)) or not self.sigma > 0:
                raise ValueError("rbf kernel requires a number sigma > 0")
        elif self.sigma is not None:
            raise ValueError(f"{self.family} kernel takes no sigma parameter")

    def translation_invariant(self) -> bool:
        return self.family != LINEAR

    def to_doc(self) -> dict:
        doc = {"family": self.family}
        if self.sigma is not None:
            doc["sigma"] = float(self.sigma)
        return doc

    @staticmethod
    def from_doc(doc: dict) -> "KernelSpec":
        if not isinstance(doc, dict) or "family" not in doc:
            raise ValueError("kernel document must be an object with a 'family' field")
        return KernelSpec(doc["family"], doc.get("sigma"))


def linear_kernel() -> KernelSpec:
    return KernelSpec(LINEAR)


def rbf_kernel(sigma: float) -> KernelSpec:
    return KernelSpec(RBF, sigma)


def laplacian_kernel() -> KernelSpec:
    return KernelSpec(LAPLACIAN)


def cauchy_kernel() -> KernelSpec:
    return KernelSpec(CAUCHY)


def gram(k: KernelSpec, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Pairwise kernel matrix between the rows of A and B (B defaults to A).

    A and B must be 2-D with the same number of columns. The linear kernel is
    A @ B.T. The translation-invariant families fill the (n_A, n_B) output in
    row blocks of about `_BLOCK_CELLS` cells, one coordinate at a time and in
    index order, so memory is the n_A·n_B output plus one (rows, n_B) block
    buffer whatever the dimension. Each entry is a function of the exact
    coordinate differences only, so gram(k, A) is exactly symmetric and
    k(x, x) is exactly 1.
    """
    A = np.asarray(A, dtype=np.float64)
    B = A if B is None else np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError(
            f"point sets must be 2-D (rows, dim), got shapes {A.shape} and {B.shape}"
        )
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch between point sets")
    if k.family == LINEAR:
        return A @ B.T
    n_b = B.shape[0]
    Bt = np.ascontiguousarray(B.T)
    # the empty sum is 0 and the empty product 1, so a 0-column input gives 1s
    out = (np.ones if k.family == CAUCHY else np.zeros)((A.shape[0], n_b))
    rows = max(1, _BLOCK_CELLS // max(n_b, 1))
    buf = np.empty((min(rows, A.shape[0]), n_b))
    for start in range(0, A.shape[0], rows):
        a = A[start : start + rows]
        block = out[start : start + rows]
        t = buf[: a.shape[0]]
        for j in range(A.shape[1]):
            np.subtract(a[:, j, None], Bt[j], out=t)
            if k.family == RBF:
                np.square(t, out=t)
                block += t
            elif k.family == LAPLACIAN:
                np.abs(t, out=t)
                block += t
            else:
                np.square(t, out=t)
                t += 1.0
                np.divide(1.0, t, out=t)
                block *= t
        if k.family == RBF:
            block /= -(2.0 * k.sigma**2)
            np.exp(block, out=block)
        elif k.family == LAPLACIAN:
            np.negative(block, out=block)
            np.exp(block, out=block)
    return out


def sample_spectral(k: KernelSpec, d: int, count: int, rng) -> np.ndarray:
    """Draw `count` i.i.d. vectors in R^d from the spectral density of k.

    rbf(sigma) draws componentwise N(0, 1/sigma^2); laplacian draws standard
    Cauchy via tan(pi (u - 1/2)); cauchy draws Laplace(0, 1) via the inverse
    CDF. Shape of the result is (count, d).
    """
    _checks.count(1, d=d, count=count)
    if k.family == RBF:
        return rng.standard_normal((count, d)) / k.sigma
    if k.family == LAPLACIAN:
        return np.tan(np.pi * (rng.random((count, d)) - 0.5))
    if k.family == CAUCHY:
        return sample_laplace(1.0, count * d, rng).reshape(count, d)
    raise UnsupportedKernelError(
        f"{k.family} kernel has no spectral density to sample"
    )


def spectral_second_moment(k: KernelSpec, d: int) -> float:
    """E[<w, w>] under the spectral density of k; inf when the moment diverges."""
    _checks.count(1, d=d)
    if k.family == RBF:
        return d / k.sigma**2
    if k.family == LAPLACIAN:
        return math.inf
    if k.family == CAUCHY:
        return 2.0 * d
    raise UnsupportedKernelError(
        f"{k.family} kernel has no spectral density"
    )
