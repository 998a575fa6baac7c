"""Random cosine/sine feature maps whose inner product approximates a kernel.

A map of d_hat spectral vectors w_1..w_{d_hat} in R^d defines the
2*d_hat-dimensional feature map

    phi(x) = d_hat^{-1/2} [cos<w_1, x>, sin<w_1, x>, ..., cos<w_{d_hat}, x>, sin<w_{d_hat}, x>]

so that <phi(x), phi(y)> = mean_i cos(<w_i, x - y>), an unbiased estimate of
the translation-invariant kernel the vectors were drawn from.

On a regular grid both the kernel estimate and a model in this feature space
are sums Re sum_i c_i e^{i<w_i, x>}, which `grid_values` evaluates by rotating
each axis's phases rather than taking a cosine per point and feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import as_points, count, exceeds, positive, probability
from .kernels import KernelSpec, sample_spectral

__all__ = [
    "CalibrationError",
    "RandomFeatureMap",
    "feature_matrix",
    "displacement_kernel",
    "grid_values",
    "approx_failure_bound",
    "calibrate_rff_dim",
]


class CalibrationError(ValueError):
    """Raised when the dimension calibration formula does not apply."""


@dataclass(frozen=True, eq=False)
class RandomFeatureMap:
    """d_hat spectral vectors defining a 2*d_hat-dimensional feature map."""

    omegas: np.ndarray
    kernel: KernelSpec

    def __post_init__(self):
        omegas = np.array(self.omegas, dtype=np.float64)
        if omegas.ndim != 2 or omegas.shape[0] < 1:
            raise ValueError("omegas must be a (d_hat, d) array with d_hat >= 1")
        if not self.kernel.translation_invariant():
            raise ValueError("feature maps require a translation-invariant kernel")
        omegas.setflags(write=False)
        object.__setattr__(self, "omegas", omegas)

    @classmethod
    def from_rng(cls, kernel: KernelSpec, dim: int, d_hat: int, rng) -> "RandomFeatureMap":
        return cls(sample_spectral(kernel, dim, d_hat, rng), kernel)

    @property
    def d_hat(self) -> int:
        return self.omegas.shape[0]

    @property
    def dim(self) -> int:
        return self.omegas.shape[1]

    @property
    def feature_dim(self) -> int:
        return 2 * self.d_hat

    def __eq__(self, other):
        if not isinstance(other, RandomFeatureMap):
            return NotImplemented
        return np.array_equal(self.omegas, other.omegas) and self.kernel == other.kernel


def feature_matrix(m: RandomFeatureMap, X: np.ndarray) -> np.ndarray:
    """Row-wise feature vectors for an (n, d) array of points: cos/sin pairs,
    unit norm, in a fresh array."""
    X = as_points(X, m.dim)
    z = X @ m.omegas.T
    # Formed after cos and sin, the result lies above their freed space, which
    # can then take a Database's copy of it instead of new memory.
    out = np.stack([np.cos(z), np.sin(z)], axis=-1).reshape(X.shape[0], 2 * m.d_hat)
    out *= m.d_hat**-0.5
    return out


def displacement_kernel(m: RandomFeatureMap, deltas: np.ndarray) -> np.ndarray:
    """Approximate kernel values mean_i cos(<w_i, delta>) for the rows delta of deltas.

    The one random-feature kernel estimate: <phi(x), phi(y)> for any x, y with
    x - y = delta. A zero displacement gives exactly 1.
    """
    return np.mean(np.cos(deltas @ m.omegas.T), axis=1)


# Grid steps between direct evaluations of an axis's phases by exp; the
# rotations in between each add a rounding error of about one ulp.
_REANCHOR = 64


def _axis_phases(omega: np.ndarray, lo: float, hi: float, resolution: int) -> np.ndarray:
    """(resolution, d_hat) phases e^{i omega_j a_k} at a = linspace(lo, hi, resolution).

    Row k is row k - 1 times e^{i omega_j h}, one complex multiply per entry;
    every _REANCHOR-th row and the row of a zero coordinate are exp taken
    directly, so a zero coordinate has phase exactly 1.
    """
    a = np.linspace(lo, hi, resolution)
    step = np.exp(1j * omega * ((hi - lo) / (resolution - 1)))
    out = np.empty((resolution, omega.size), dtype=np.complex128)
    for k in range(resolution):
        if k % _REANCHOR == 0 or a[k] == 0.0:
            out[k] = np.exp(1j * (a[k] * omega))
        else:
            np.multiply(out[k - 1], step, out=out[k])
    return out


def grid_values(m: RandomFeatureMap, coeffs, box, resolution: int) -> np.ndarray:
    """Re sum_i c_i e^{i<w_i, x>} at every point x of box.grid(resolution), in its row order.

    With c_i = (w_cos,i - i w_sin,i) / sqrt(d_hat) this is the decision value
    of weights w on the map; with c_i = 1, divided by d_hat, it is
    `displacement_kernel` on the grid. The grid is a product of axes, so
    e^{i<w, x>} is a product of per-axis phases: the leading axes are
    multiplied out into a (resolution^(d-1), d_hat) array and the last axis is
    contracted against it in one complex matrix product.
    """
    count(2, **{"grid resolution": resolution})
    if box.dim != m.dim:
        raise ValueError("box dimension must match the map dimension")
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (m.d_hat,):
        raise ValueError(f"coeffs must have length {m.d_hat}")
    axes = [_axis_phases(m.omegas[:, j], box.lower[j], box.upper[j], resolution)
            for j in range(m.dim)]
    lead = coeffs[None, :]
    for phases in axes[:-1]:
        lead = (lead[:, None, :] * phases[None, :, :]).reshape(-1, m.d_hat)
    return (lead @ axes[-1].T).real.ravel()


def approx_failure_bound(eps: float, d_hat: int, d: int, sigma_p2: float, diam: float) -> float:
    """Bound 2^8 (sigma_p diam / eps)^2 exp(-d_hat eps^2 / (4 (d+2))) on
    P(sup |approx - true kernel| >= eps), with sigma_p2 = sigma_p^2 the spectral
    second moment (infinite if it diverges); `calibrate_rff_dim` inverts it."""
    positive(eps=eps, diam=diam)
    count(1, d_hat=d_hat, d=d)
    exceeds(0, sigma_p2=sigma_p2)
    if math.isinf(sigma_p2):
        return math.inf
    return 2.0**8 * sigma_p2 * diam**2 / eps**2 * math.exp(-d_hat * eps**2 / (4.0 * (d + 2)))


def calibrate_rff_dim(eps: float, delta: float, d: int, sigma_p: float, diam: float) -> int:
    """Smallest d_hat guaranteeing sup |approx - true kernel| < eps w.p. >= 1 - delta.

    Evaluates ceil((4 (d+2) / eps^2) * ln(2^8 (sigma_p * diam)^2 / (delta eps^2))),
    the d_hat at which `approx_failure_bound` falls to delta, where sigma_p^2
    is the spectral second moment and diam the diameter of the domain. Fails
    for kernels whose spectral second moment diverges.
    """
    positive(eps=eps, diam=diam)
    probability(delta=delta)
    count(1, d=d)
    exceeds(0, sigma_p=sigma_p)
    if math.isinf(sigma_p):
        raise CalibrationError(
            "spectral second moment is not finite; choose d_hat manually"
        )
    bound = (4.0 * (d + 2) / eps**2) * math.log(
        2.0**8 * (sigma_p * diam) ** 2 / (delta * eps**2)
    )
    return max(1, math.ceil(bound))
