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

from .noise import sample_laplace

__all__ = [
    "UnsupportedKernelError",
    "KernelSpec",
    "linear_kernel",
    "rbf_kernel",
    "laplacian_kernel",
    "cauchy_kernel",
    "kernel_eval",
    "gram",
    "sample_spectral",
    "spectral_second_moment",
]

LINEAR = "linear"
RBF = "rbf"
LAPLACIAN = "laplacian"
CAUCHY = "cauchy"
_FAMILIES = (LINEAR, RBF, LAPLACIAN, CAUCHY)


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
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("rbf kernel requires sigma > 0")
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


def kernel_eval(k: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) for two vectors of equal dimension."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be vectors of equal dimension")
    return float(gram(k, x[None, :], y[None, :])[0, 0])


def gram(k: KernelSpec, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Pairwise kernel matrix between the rows of A and B (B defaults to A)."""
    A = np.asarray(A, dtype=np.float64)
    B = A if B is None else np.asarray(B, dtype=np.float64)
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch between point sets")
    if k.family == LINEAR:
        return A @ B.T
    diff = A[:, None, :] - B[None, :, :]
    if k.family == RBF:
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        return np.exp(-sq / (2.0 * k.sigma**2))
    if k.family == LAPLACIAN:
        return np.exp(-np.abs(diff).sum(axis=-1))
    # cauchy
    return np.prod(1.0 / (1.0 + diff**2), axis=-1)


def sample_spectral(k: KernelSpec, d: int, count: int, rng) -> np.ndarray:
    """Draw `count` i.i.d. vectors in R^d from the spectral density of k.

    rbf(sigma) draws componentwise N(0, 1/sigma^2); laplacian draws standard
    Cauchy via tan(pi (u - 1/2)); cauchy draws Laplace(0, 1) via the inverse
    CDF. Shape of the result is (count, d).
    """
    if d < 1 or count < 1:
        raise ValueError("d and count must be positive")
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
    if d < 1:
        raise ValueError("d must be positive")
    if k.family == RBF:
        return d / k.sigma**2
    if k.family == LAPLACIAN:
        return math.inf
    if k.family == CAUCHY:
        return 2.0 * d
    raise UnsupportedKernelError(
        f"{k.family} kernel has no spectral density"
    )
