"""Release mechanisms for SVM learning and their closed-form calibrations.

Two private mechanisms are provided, both output perturbations of the primal
weight vector:

* `train_private_finite` trains on the identity-linear feature map phi(x) = x
  (F = d) and releases w + Laplace noise.
* `train_private_rff` draws a random cosine/sine feature map for a
  translation-invariant kernel, trains in that 2*d_hat-dimensional space, and
  releases the noisy weights together with the spectral vectors.

The calibration functions convert between the noise scale lambda, the privacy
level beta, and the (eps, delta) accuracy target; lambda is always chosen by
the caller, never silently picked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import noise
from .data import Database
from .kernels import KernelSpec, linear_kernel
from .rff import CalibrationError, RandomFeatureMap, feature_matrix
from .solver import as_points, primal_weights, solve_svm_dual

__all__ = [
    "IDENTITY_MAP",
    "PrivateModel",
    "CalibrationReport",
    "train_private_finite",
    "train_private_rff",
    "calibrate_noise_privacy_finite",
    "calibrate_noise_privacy_rff",
    "calibrate_noise_utility_finite",
    "calibrate_noise_utility_rff",
    "calibrate_rff_dim_hinge",
    "optimal_dp_upper_bound_hinge",
    "calibration_report_finite",
    "calibration_report_rff",
    "optimal_dp_lower_bound_linear",
    "optimal_dp_lower_bound_rbf",
]

IDENTITY_MAP = "identity-linear"

# Largest rbf bandwidth admitted by the packing lower bound.
RBF_SIGMA_CEILING = math.sqrt(1.0 / (2.0 * math.log(2.0)))


def _draw_noise(scale, count, rng):
    # Seam for tests that need the noiseless weights; release callers cannot
    # disable noise through any public parameter.
    return noise.sample_laplace(scale, count, rng)


@dataclass(frozen=True, eq=False)
class PrivateModel:
    """Released artifact: noisy weights plus the data-independent description.

    `feature_map` is either IDENTITY_MAP or a RandomFeatureMap; `claimed`
    records the guarantee metadata (beta or eps/delta plus calibration
    inputs) asserted by the caller. The training coefficients and examples
    are deliberately absent.
    """

    weights: np.ndarray
    feature_map: object
    kernel: KernelSpec
    C: float
    lam: float
    claimed: dict = field(default_factory=dict)
    n: int = 0
    dim: int = 0
    seed: int | None = None

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        weights.setflags(write=False)
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.feature_map == IDENTITY_MAP:
            if weights.shape != (self.dim,):
                raise ValueError("identity map weights must have length dim")
        elif isinstance(self.feature_map, RandomFeatureMap):
            if weights.shape != (self.feature_map.feature_dim,):
                raise ValueError("weights must have length 2*d_hat")
        else:
            raise ValueError("feature_map must be IDENTITY_MAP or a RandomFeatureMap")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", weights)

    def decision(self, x) -> float:
        return float(self.decision_values(np.asarray(x, dtype=np.float64)[None, :])[0])

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        X = as_points(X, self.dim)
        if self.feature_map == IDENTITY_MAP:
            return X @ self.weights
        return feature_matrix(self.feature_map, X) @ self.weights

    def __eq__(self, other):
        if not isinstance(other, PrivateModel):
            return NotImplemented
        return (
            np.array_equal(self.weights, other.weights)
            and self.feature_map == other.feature_map
            and self.kernel == other.kernel
            and (self.C, self.lam, self.claimed, self.n, self.dim, self.seed)
            == (other.C, other.lam, other.claimed, other.n, other.dim, other.seed)
        )


def train_private_finite(
    db: Database, C: float, lam: float, rng, claimed: dict | None = None,
    seed: int | None = None,
) -> PrivateModel:
    """Train on the identity-linear map and release noisy weights.

    The released vector is sum_i a_i y_i x_i plus d i.i.d. Laplace(0, lam)
    draws from `rng`.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    w = primal_weights(solve_svm_dual(db, linear_kernel(), C))
    w_hat = w + _draw_noise(lam, db.dim, rng)
    return PrivateModel(
        weights=w_hat,
        feature_map=IDENTITY_MAP,
        kernel=linear_kernel(),
        C=float(C),
        lam=float(lam),
        claimed=dict(claimed or {}),
        n=db.n,
        dim=db.dim,
        seed=seed,
    )


def train_private_rff(
    db: Database, kernel: KernelSpec, C: float, lam: float, d_hat: int, rng,
    claimed: dict | None = None, seed: int | None = None,
) -> PrivateModel:
    """Train in a random feature space and release noisy weights plus the map.

    Consumes `rng` in a fixed order: first the d_hat spectral vectors, then
    the 2*d_hat Laplace noise scalars, so a fixed generator state determines
    the whole response.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if d_hat < 1:
        raise ValueError("d_hat must be positive")
    fmap = RandomFeatureMap.from_rng(kernel, db.dim, d_hat, rng)
    w = primal_weights(solve_svm_dual(db, fmap, C))
    w_hat = w + _draw_noise(lam, 2 * d_hat, rng)
    return PrivateModel(
        weights=w_hat,
        feature_map=fmap,
        kernel=kernel,
        C=float(C),
        lam=float(lam),
        claimed=dict(claimed or {}),
        n=db.n,
        dim=db.dim,
        seed=seed,
    )


def _require_positive(**values):
    for name, v in values.items():
        if v <= 0:
            raise ValueError(f"{name} must be positive")


def calibrate_noise_privacy_finite(
    L: float, C: float, kappa: float, F: int, beta: float, n: int
) -> float:
    """Smallest noise scale giving beta-privacy on an F-dimensional map.

    4 L C kappa sqrt(F) / (beta n), where L is the loss Lipschitz constant and
    kappa bounds sqrt(k(x, x)).
    """
    _require_positive(L=L, C=C, kappa=kappa, F=F, beta=beta)
    if n <= 1:
        raise ValueError("n must exceed 1")
    return 4.0 * L * C * kappa * math.sqrt(F) / (beta * n)


def calibrate_noise_privacy_rff(
    L: float, C: float, d_hat: int, beta: float, n: int
) -> float:
    """Smallest noise scale giving beta-privacy for the random-feature mechanism.

    2^2.5 L C sqrt(d_hat) / (beta n); the feature map has unit norm and 2*d_hat
    coordinates, which is where the 2^2.5 comes from.
    """
    _require_positive(L=L, C=C, d_hat=d_hat, beta=beta)
    if n <= 1:
        raise ValueError("n must exceed 1")
    return 2.0**2.5 * L * C * math.sqrt(d_hat) / (beta * n)


def calibrate_noise_utility_finite(eps: float, delta: float, Phi: float, F: int) -> float:
    """Largest noise scale keeping the finite mechanism (eps, delta)-accurate.

    eps / (2 Phi (F ln 2 + ln(1/delta))), with Phi a bound on the coordinate
    magnitude of the feature map over the domain.
    """
    _require_positive(eps=eps, Phi=Phi, F=F)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return eps / (2.0 * Phi * (F * math.log(2.0) + math.log(1.0 / delta)))


def calibrate_noise_utility_rff(eps: float, delta: float, d_hat: int) -> float:
    """Largest noise scale keeping the random-feature release close to its
    own noiseless weights: min{eps / (2^4 ln2 sqrt(d_hat)),
    eps sqrt(d_hat) / (8 ln(2/delta))}."""
    _require_positive(eps=eps, d_hat=d_hat)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    root = math.sqrt(d_hat)
    return min(
        eps / (2.0**4 * math.log(2.0) * root),
        eps * root / (8.0 * math.log(2.0 / delta)),
    )


def calibrate_rff_dim_hinge(
    eps: float, delta: float, C: float, d: int, sigma_p: float, diam: float
) -> int:
    """Feature-space dimension making the rff mechanism (eps, delta)-accurate
    against the exact-kernel hinge SVM.

    Uses theta(eps) = min{1, eps^4 / (2^12 C^4)} (hinge loss: L = 1 and the
    coefficient l1-norm is bounded by C) and returns
    ceil((4 (d+2) / theta) * ln(2^9 (sigma_p diam)^2 / (delta theta))).
    """
    _require_positive(eps=eps, C=C, d=d, diam=diam)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not math.isfinite(sigma_p) or sigma_p <= 0:
        raise CalibrationError(
            "spectral second moment is not finite; choose d_hat manually"
        )
    theta = min(1.0, eps**4 / (2.0**12 * C**4))
    bound = (4.0 * (d + 2) / theta) * math.log(
        2.0**9 * (sigma_p * diam) ** 2 / (delta * theta)
    )
    return max(1, math.ceil(bound))


@dataclass(frozen=True)
class CalibrationReport:
    """Privacy/utility window for one parameter set.

    Feasible means one lambda satisfies both sides; beta_achievable is the
    smallest privacy level whose window closes (lambda_min == lambda_max).
    """

    lambda_min_privacy: float
    lambda_max_utility: float
    d_hat: int | None
    feasible: bool
    beta_achievable: float

    def to_doc(self) -> dict:
        return {
            "lambda_min_privacy": self.lambda_min_privacy,
            "lambda_max_utility": self.lambda_max_utility,
            "d_hat": self.d_hat,
            "feasible": self.feasible,
            "beta_achievable": self.beta_achievable,
        }


def optimal_dp_upper_bound_hinge(
    eps: float, delta: float, C: float, n: int, d: int, sigma_p: float, diam: float
) -> CalibrationReport:
    """Best privacy level the rff mechanism certifies at an (eps, delta) target.

    Picks d_hat by `calibrate_rff_dim_hinge`, sets lambda to the utility
    ceiling, and reports beta = 2^2.5 C sqrt(d_hat) / (lambda n). By
    construction the window is exactly closed, so the report is feasible.
    """
    if n <= 1:
        raise ValueError("n must exceed 1")
    d_hat = calibrate_rff_dim_hinge(eps, delta, C, d, sigma_p, diam)
    lam_max = calibrate_noise_utility_rff(eps, delta, d_hat)
    beta = 2.0**2.5 * C * math.sqrt(d_hat) / (lam_max * n)
    return CalibrationReport(
        lambda_min_privacy=lam_max,
        lambda_max_utility=lam_max,
        d_hat=d_hat,
        feasible=True,
        beta_achievable=beta,
    )


def calibration_report_finite(
    beta: float, eps: float, delta: float, C: float, n: int,
    kappa: float, Phi: float, F: int, L: float = 1.0,
) -> CalibrationReport:
    """Both sides of the noise window for the finite mechanism at a given beta."""
    lam_min = calibrate_noise_privacy_finite(L, C, kappa, F, beta, n)
    lam_max = calibrate_noise_utility_finite(eps, delta, Phi, F)
    beta_ach = 4.0 * L * C * kappa * math.sqrt(F) / (lam_max * n)
    return CalibrationReport(
        lambda_min_privacy=lam_min,
        lambda_max_utility=lam_max,
        d_hat=None,
        feasible=lam_min <= lam_max,
        beta_achievable=beta_ach,
    )


def calibration_report_rff(
    beta: float, eps: float, delta: float, C: float, n: int,
    d: int, sigma_p: float, diam: float, L: float = 1.0,
) -> CalibrationReport:
    """Both sides of the noise window for the rff mechanism at a given beta."""
    d_hat = calibrate_rff_dim_hinge(eps, delta, C, d, sigma_p, diam)
    lam_min = calibrate_noise_privacy_rff(L, C, d_hat, beta, n)
    lam_max = calibrate_noise_utility_rff(eps, delta, d_hat)
    beta_ach = 2.0**2.5 * L * C * math.sqrt(d_hat) / (lam_max * n)
    return CalibrationReport(
        lambda_min_privacy=lam_min,
        lambda_max_utility=lam_max,
        d_hat=d_hat,
        feasible=lam_min <= lam_max,
        beta_achievable=beta_ach,
    )


def optimal_dp_lower_bound_linear(delta: float) -> float:
    """No (eps, delta)-accurate mechanism for the linear-kernel hinge SVM can
    beat privacy level ln((1 - delta) / delta)."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.log((1.0 - delta) / delta)


def optimal_dp_lower_bound_rbf(delta: float, sigma: float) -> tuple[int, float]:
    """Packing lower bound for the rbf-kernel hinge SVM.

    Returns (N, ln((1 - delta) (N - 1) / delta)) with
    N = floor((2 / sigma) sqrt(2 / ln 2)); requires
    0 < sigma < sqrt(1 / (2 ln 2)) ~= 0.8493.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 < sigma < RBF_SIGMA_CEILING:
        raise ValueError(
            f"sigma must lie in (0, {RBF_SIGMA_CEILING:.4f}) for the packing bound"
        )
    N = math.floor((2.0 / sigma) * math.sqrt(2.0 / math.log(2.0)))
    return N, math.log((1.0 - delta) * (N - 1) / delta)
