"""Release mechanisms for SVM learning and their closed-form calibrations.

Two private mechanisms are provided, both output perturbations of the primal
weight vector on a finite feature map:

* `train_private_finite` uses the linear kernel's map phi(x) = x (F = d).
* `train_private_rff` takes a random cosine/sine feature map drawn for a
  translation-invariant kernel (random features, Rahimi and Recht 2007) and
  releases the noisy weights together with the spectral vectors.

Each trains the linear SVM on the map's feature matrix of the training points
(`noiseless_weights`) and adds Laplace noise (`_perturb`); the audits call the
same two steps.

Each guarantee formula is written here once, for the calibrations, reports
and audits alike: the l1 sensitivities `sensitivity_finite` and
`sensitivity_rff` (noise scale = sensitivity / beta, achieved privacy level =
sensitivity / lambda) and the rbf packing size `rbf_packing_size`. The hinge
loss's Lipschitz constant L = 1 is part of each formula, not a parameter.
lambda is always chosen by the caller, never silently picked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import noise, rff
from .data import Database
from .kernels import KernelSpec, linear_kernel
from .rff import RandomFeatureMap, calibrate_rff_dim
from .solver import as_points, primal_weights, solve_svm_dual

__all__ = [
    "PrivateModel",
    "CalibrationReport",
    "train_private_finite",
    "train_private_rff",
    "features",
    "noiseless_weights",
    "sensitivity_finite",
    "sensitivity_rff",
    "rbf_packing_size",
    "calibrate_noise_privacy_finite",
    "calibrate_noise_privacy_rff",
    "calibrate_noise_utility_finite",
    "calibrate_noise_utility_rff",
    "calibrate_rff_dim_hinge",
    "calibration_report_finite",
    "calibration_report_rff",
    "optimal_dp_lower_bound_linear",
    "optimal_dp_lower_bound_rbf",
]

# Largest rbf bandwidth admitted by the packing lower bound.
RBF_SIGMA_CEILING = math.sqrt(1.0 / (2.0 * math.log(2.0)))


@dataclass(frozen=True, eq=False)
class PrivateModel:
    """Released artifact: noisy weights plus the data-independent description.

    `feature_map` is the finite map the weights live on: `linear_kernel()`
    (phi(x) = x, dim weights) or a RandomFeatureMap (2*d_hat weights). `n`,
    at least 2, is the training set's size and `dim`, at least 1, its
    points' dimension.
    `claimed` records the guarantee metadata (beta or eps/delta) asserted by
    the caller. The training coefficients and examples, and anything that
    could regenerate the noise, are deliberately absent.
    """

    weights: np.ndarray
    feature_map: KernelSpec | RandomFeatureMap
    C: float
    lam: float
    n: int
    dim: int
    claimed: dict = field(default_factory=dict)

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        weights.setflags(write=False)
        _require_positive(C=self.C, lam=self.lam)
        if not self.n >= 2:
            raise ValueError("n must be at least 2: a database has more than one entry")
        if not self.dim >= 1:
            raise ValueError("dim must be at least 1")
        if isinstance(self.feature_map, RandomFeatureMap):
            if self.feature_map.dim != self.dim:
                raise ValueError(
                    f"feature map takes {self.feature_map.dim}-D points, model dim is {self.dim}"
                )
            width = self.feature_map.feature_dim
        elif self.feature_map == linear_kernel():
            width = self.dim
        else:
            raise ValueError("feature_map must be linear_kernel() or a RandomFeatureMap")
        if weights.shape != (width,):
            raise ValueError(f"weights must have length {width}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", weights)

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return features(self.feature_map, as_points(X, self.dim)) @ self.weights

    def __eq__(self, other):
        if not isinstance(other, PrivateModel):
            return NotImplemented
        return (
            np.array_equal(self.weights, other.weights)
            and self.feature_map == other.feature_map
            and (self.C, self.lam, self.claimed, self.n, self.dim)
            == (other.C, other.lam, other.claimed, other.n, other.dim)
        )


def features(fmap, X: np.ndarray) -> np.ndarray:
    """Feature matrix of the rows of X on a release's feature map: X itself
    for `linear_kernel()`, cosine/sine features for a RandomFeatureMap."""
    if isinstance(fmap, RandomFeatureMap):
        return rff.feature_matrix(fmap, X)
    if fmap != linear_kernel():
        raise ValueError(f"the {fmap.family} kernel has no finite feature map")
    return X


def noiseless_weights(db: Database, fmap, C: float) -> np.ndarray:
    """Primal weights of the exact linear SVM on the map's feature matrix of
    db's points: the vector a release on `fmap` perturbs."""
    phi = Database(features(fmap, db.points), db.labels)
    return primal_weights(solve_svm_dual(phi, linear_kernel(), C))


def _perturb(w, lam, rng) -> np.ndarray:
    # w plus one Laplace(0, lam) draw per entry, row-major, added in place to
    # the fresh draws; the test seam for noiseless releases, never a parameter.
    out = noise.sample_laplace(lam, np.size(w), rng).reshape(np.shape(w))
    out += w
    return out


def _release(db, fmap, C, lam, rng, claimed) -> PrivateModel:
    claimed = dict(claimed or {})
    if unknown := sorted(set(claimed) - {"beta", "epsilon", "delta"}):
        raise ValueError(f"claimed takes only beta, epsilon and delta, not {', '.join(unknown)}")
    _require_positive(lam=lam, **{k: claimed[k] for k in ("beta", "epsilon") if k in claimed})
    if "delta" in claimed and not 0 < claimed["delta"] < 1:
        raise ValueError("claimed delta must lie in (0, 1)")
    return PrivateModel(
        weights=_perturb(noiseless_weights(db, fmap, C), lam, rng),
        feature_map=fmap,
        C=float(C),
        lam=float(lam),
        n=db.n,
        dim=db.dim,
        claimed=claimed,
    )


def train_private_finite(
    db: Database, C: float, lam: float, rng, claimed: dict | None = None
) -> PrivateModel:
    """Train on the linear kernel's map phi(x) = x and release noisy weights.

    The released vector is sum_i a_i y_i x_i plus d i.i.d. Laplace(0, lam)
    draws from `rng`, which must be a generator nobody else can reproduce.
    """
    return _release(db, linear_kernel(), C, lam, rng, claimed)


def train_private_rff(
    db: Database, fmap: RandomFeatureMap, C: float, lam: float, rng, claimed: dict | None = None
) -> PrivateModel:
    """Train on a drawn random feature map and release noisy weights plus the map.

    The weights get 2*d_hat Laplace(0, lam) draws from `rng`, which must be a
    generator nobody else can reproduce; the public `fmap` may be seeded.
    """
    return _release(db, fmap, C, lam, rng, claimed)


def _require_positive(**values):
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive")


def sensitivity_finite(C: float, kappa: float, F: int, n: int) -> float:
    """Bound 4 L C kappa sqrt(F) / n on |w - w'|_1 for neighbouring databases
    of size n, on an F-dimensional map with sqrt(k(x, x)) <= kappa; the hinge
    loss is 1-Lipschitz, so L = 1."""
    _require_positive(C=C, kappa=kappa, F=F)
    if n <= 1:
        raise ValueError("n must exceed 1")
    return 4.0 * C * kappa * math.sqrt(F) / n


def sensitivity_rff(C: float, d_hat: int, n: int) -> float:
    """l1 sensitivity 2^2.5 L C sqrt(d_hat) / n (L = 1) of the random-feature
    weights; the map has unit norm and 2*d_hat coordinates, hence the 2^2.5."""
    _require_positive(C=C, d_hat=d_hat)
    if n <= 1:
        raise ValueError("n must exceed 1")
    return 2.0**2.5 * C * math.sqrt(d_hat) / n


def rbf_packing_size(sigma: float) -> int:
    """Size N = floor((2 / sigma) sqrt(2 / ln 2)) of the rbf packing family;
    requires 0 < sigma < sqrt(1 / (2 ln 2)) ~= 0.8493."""
    if not 0 < sigma < RBF_SIGMA_CEILING:
        raise ValueError(
            f"sigma must lie in (0, {RBF_SIGMA_CEILING:.4f}) for the packing bound"
        )
    return math.floor((2.0 / sigma) * math.sqrt(2.0 / math.log(2.0)))


def calibrate_noise_privacy_finite(C: float, kappa: float, F: int, beta: float, n: int) -> float:
    """Smallest noise scale giving beta-privacy on an F-dimensional map:
    `sensitivity_finite(C, kappa, F, n) / beta`."""
    _require_positive(beta=beta)
    return sensitivity_finite(C, kappa, F, n) / beta


def calibrate_noise_privacy_rff(C: float, d_hat: int, beta: float, n: int) -> float:
    """Smallest noise scale giving beta-privacy for the random-feature
    mechanism: `sensitivity_rff(C, d_hat, n) / beta`."""
    _require_positive(beta=beta)
    return sensitivity_rff(C, d_hat, n) / beta


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
    coefficient l1-norm is bounded by C): the random kernel must be
    sqrt(theta)-close to the exact one except with probability delta / 2, so
    this is `calibrate_rff_dim(sqrt(theta), delta / 2, d, sigma_p, diam)`,
    ceil((4 (d+2) / theta) * ln(2^9 (sigma_p diam)^2 / (delta theta))).
    """
    _require_positive(eps=eps, C=C)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    theta = min(1.0, eps**4 / (2.0**12 * C**4))
    return calibrate_rff_dim(math.sqrt(theta), delta / 2, d, sigma_p, diam)


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


def calibration_report_finite(
    beta: float, eps: float, delta: float, C: float, n: int,
    kappa: float, Phi: float, F: int,
) -> CalibrationReport:
    """Both sides of the noise window for the finite mechanism at a given beta."""
    lam_min = calibrate_noise_privacy_finite(C, kappa, F, beta, n)
    lam_max = calibrate_noise_utility_finite(eps, delta, Phi, F)
    return CalibrationReport(
        lambda_min_privacy=lam_min,
        lambda_max_utility=lam_max,
        d_hat=None,
        feasible=lam_min <= lam_max,
        beta_achievable=sensitivity_finite(C, kappa, F, n) / lam_max,
    )


def calibration_report_rff(
    beta: float, eps: float, delta: float, C: float, n: int,
    d: int, sigma_p: float, diam: float,
) -> CalibrationReport:
    """Both sides of the noise window for the rff mechanism at a given beta;
    `beta_achievable` is the best beta it certifies at (eps, delta)."""
    d_hat = calibrate_rff_dim_hinge(eps, delta, C, d, sigma_p, diam)
    lam_min = calibrate_noise_privacy_rff(C, d_hat, beta, n)
    lam_max = calibrate_noise_utility_rff(eps, delta, d_hat)
    return CalibrationReport(
        lambda_min_privacy=lam_min,
        lambda_max_utility=lam_max,
        d_hat=d_hat,
        feasible=lam_min <= lam_max,
        beta_achievable=sensitivity_rff(C, d_hat, n) / lam_max,
    )


def optimal_dp_lower_bound_linear(delta: float) -> float:
    """No (eps, delta)-accurate mechanism for the linear-kernel hinge SVM can
    beat privacy level ln((1 - delta) / delta)."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.log((1.0 - delta) / delta)


def optimal_dp_lower_bound_rbf(delta: float, sigma: float) -> tuple[int, float]:
    """Packing lower bound for the rbf-kernel hinge SVM.

    Returns (N, ln((1 - delta) (N - 1) / delta)) with N = rbf_packing_size(sigma).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    N = rbf_packing_size(sigma)
    return N, math.log((1.0 - delta) * (N - 1) / delta)
