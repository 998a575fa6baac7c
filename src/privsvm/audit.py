"""Seeded Monte-Carlo audits of the mechanisms' guarantees.

Each audit is a pure function of its configuration and a 64-bit base seed:
trial t draws from a generator seeded with mix64(base_seed, t), so trials
never share state and reports are reproducible bit for bit. Statistical
audits of proved guarantees must pass (up to documented Monte-Carlo slack);
a failure indicates an implementation defect. The privacy-ratio audit is the
one exception: finite samples cannot certify a density-ratio bound, so it is
a smoke test with an explicit heuristic slack, never a proof.

An audit of a release names its mechanism by the kernel, as a release names
its feature map: `linear_kernel()` is the finite mechanism (phi(x) = x) and a
translation-invariant kernel the random-feature one. Audits train and add
noise by the release's own two steps, so they sample what a release ships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels as _kernels
from . import mechanisms as _mechanisms
from .data import Database, DomainBox, neighbor_replace_last
from .kernels import (
    KernelSpec,
    UnsupportedKernelError,
    linear_kernel,
    rbf_kernel,
    spectral_second_moment,
)
from .mechanisms import (
    calibrate_noise_privacy_finite,
    noiseless_weights,
    rbf_packing_size,
    sensitivity_finite,
    train_private_rff,
)
from .rff import RandomFeatureMap, approx_failure_bound, grid_values
from .solver import decision_values, solve_svm_dual

__all__ = [
    "mix64",
    "child_rng",
    "AuditReport",
    "LowerBoundFamily",
    "linear_separation_pair",
    "rbf_packing_family",
    "default_grid_resolution",
    "sensitivity_audit",
    "utility_audit",
    "kernel_approx_audit",
    "privacy_ratio_audit",
    "packing_separation_audit",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(base_seed: int, t: int) -> int:
    """splitmix64 finalizer of (base_seed + t * golden ratio) mod 2^64."""
    z = (base_seed + t * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def child_rng(base_seed: int, t: int):
    """Independent generator for trial t of an audit seeded with base_seed."""
    return np.random.default_rng(mix64(base_seed, t))


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit: observed statistic against its theoretical bound.

    `comparison` states the pass direction: "<=" means pass iff
    statistic <= bound, ">=" the reverse (minus any slack noted in details).
    """

    name: str
    trials: int
    statistic: float
    bound: float
    passed: bool
    seed: int
    comparison: str = "<="
    details: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "audit": {
                "name": self.name,
                "trials": self.trials,
                "statistic": self.statistic,
                "bound": self.bound,
                "pass": self.passed,
                "seed": self.seed,
                "comparison": self.comparison,
                "details": dict(self.details),
            }
        }


@dataclass(frozen=True)
class LowerBoundFamily:
    """Pairwise-neighboring databases whose exact SVM classifiers separate."""

    databases: tuple
    expected_separation: float
    params: dict = field(default_factory=dict)
    expected_weights: tuple | None = None


def linear_separation_pair(C: float, n: int, eps: float) -> LowerBoundFamily:
    """Neighbouring pair of 1-D databases whose exact linear-SVM weights differ
    by exactly 2*eps.

    Both share floor(n/2) points at -M labelled -1 and the next n-1-floor(n/2)
    points at +M labelled +1, with M = 2 n eps / C; they differ only in the
    label of the last point, placed at M - m with m = n eps / C. Closed-form
    optimal weights are attached for regression checks.
    """
    _mechanisms._require_positive(C=C)
    if n <= 1:
        raise ValueError("n must exceed 1")
    eps_cap = math.sqrt(C) / (2 * n)
    if not 0 < eps < eps_cap:
        raise ValueError(
            f"eps must lie strictly inside (0, sqrt(C)/(2n)) = (0, {eps_cap!r})"
        )
    M = 2.0 * n * eps / C
    m = n * eps / C
    neg = n // 2
    pos = n - 1 - neg
    xs = np.concatenate([np.full(neg, -M), np.full(pos, M), [M - m]])[:, None]
    base_labels = np.concatenate([np.full(neg, -1.0), np.full(pos, 1.0), [0.0]])
    labels1 = base_labels.copy()
    labels1[-1] = -1.0
    labels2 = base_labels.copy()
    labels2[-1] = 1.0
    w1 = C * (M * (n - 2) + m) / n
    w2 = C * (M * n - m) / n
    return LowerBoundFamily(
        databases=(Database(xs, labels1), Database(xs, labels2)),
        expected_separation=2.0 * eps,
        params={
            "C": C,
            "n": n,
            "eps": eps,
            "M": M,
            "m": m,
            "bound_margin_ok": 1.0 / M > C * (M * n - m) / n,
        },
        expected_weights=(w1, w2),
    )


def rbf_packing_family(C: float, n: int, sigma: float) -> LowerBoundFamily:
    """N pairwise-neighbouring 2-D databases whose rbf-SVM classifiers form a
    packing.

    Database i holds n-1 negatively labelled points at the origin and one
    positive point at angle 2 pi i / N on the unit circle; any two databases
    differ only in that last point. Requires n > C and
    sigma < sqrt(1/(2 ln 2)) so that the last dual coefficient is pinned at
    C/n and adjacent classifiers stay C/(2n) apart.
    """
    _mechanisms._require_positive(C=C)
    if n <= C:
        raise ValueError("n must exceed C")
    if n <= 1:
        raise ValueError("n must exceed 1")
    N = rbf_packing_size(sigma)
    databases = []
    for i in range(1, N + 1):
        theta = 2.0 * math.pi * i / N
        points = np.zeros((n, 2))
        points[-1] = (math.cos(theta), math.sin(theta))
        labels = np.full(n, -1.0)
        labels[-1] = 1.0
        databases.append(Database(points, labels))
    return LowerBoundFamily(
        databases=tuple(databases),
        expected_separation=C / (2.0 * n),
        params={"C": C, "n": n, "sigma": sigma, "N": N},
    )


def default_grid_resolution(d: int) -> int:
    """51 points per axis up to 2-D, 11 up to 4-D; beyond that pick explicitly."""
    if d <= 2:
        return 51
    if d <= 4:
        return 11
    raise ValueError("choose a grid resolution explicitly for d > 4")


def sensitivity_audit(
    trials: int, n: int, C: float, box: DomainBox, seed: int
) -> AuditReport:
    """Check the weight-vector l1 sensitivity bound on random neighbour pairs.

    Each trial draws a database of n uniform points in the box with uniform
    labels, rotates it by a random offset (so every position gets its turn as
    the differing entry), replaces the last entry, trains the exact
    linear-map SVM on both, and records |w - w'|_1. The bound is
    sensitivity_finite(C, kappa, d, n) = 4 C kappa sqrt(d) / n with kappa
    the largest point norm in the box; the bound always holds, so any
    observed violation is an implementation defect.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    d = box.dim
    worst = 0.0
    for t in range(trials):
        rng = child_rng(seed, t)
        points = rng.uniform(box.lower, box.upper, size=(n, d))
        labels = rng.integers(0, 2, size=n) * 2.0 - 1.0
        shift = int(rng.integers(0, n))
        db = Database(np.roll(points, shift, axis=0), np.roll(labels, shift))
        # the replacement point is drawn before its label
        neighbor = neighbor_replace_last(
            db, rng.uniform(box.lower, box.upper, size=d), rng.integers(0, 2) * 2 - 1
        )
        diff = (noiseless_weights(db, linear_kernel(), C)
                - noiseless_weights(neighbor, linear_kernel(), C))
        worst = max(worst, float(np.abs(diff).sum()))
    kappa = box.max_l2_norm()
    bound = sensitivity_finite(C, kappa, d, n)
    return AuditReport(
        name="sensitivity",
        trials=trials,
        statistic=worst,
        bound=bound,
        passed=worst <= bound,
        seed=seed,
        details={"n": n, "C": C, "kappa": kappa, "F": d},
    )


def _mean_hinge(margins: np.ndarray) -> float:
    return float(np.mean(np.maximum(0.0, 1.0 - margins)))


def _require_box(box: DomainBox, dim: int):
    if box.dim != dim:
        raise ValueError(f"box has dimension {box.dim}, data has {dim}")


def utility_audit(
    db: Database,
    kernel: KernelSpec,
    C: float,
    lam: float,
    eps: float,
    delta: float,
    trials: int,
    grid_resolution: int | None,
    seed: int,
    box: DomainBox,
    d_hat: int | None = None,
) -> AuditReport:
    """Estimate how often the private classifier strays more than eps from its
    non-private reference in sup-norm over the declared box.

    The kernel names the mechanism, as a release's feature map does:
    `linear_kernel()` without `d_hat` audits the finite mechanism, a
    translation-invariant kernel with `d_hat` features the rff mechanism, and
    any other combination is a ValueError. The reference is the exact SVM on
    that kernel. For the finite mechanism a trial perturbs the reference
    weights as a release does; with mu the released minus the reference
    weights, released minus reference is mu^T x, linear in x, so its sup over
    the box is attained at a corner and taken exactly, as
    max(sum_j max(mu_j lo_j, mu_j hi_j), -sum_j min(mu_j lo_j, mu_j hi_j)),
    and `grid_resolution` is unused. For the rff mechanism a trial draws a map
    and then a `train_private_rff` release's noise from one generator, evaluated
    by `grid_values` on a grid over the box with `grid_resolution` points per
    axis. Either sup is taken together with the gaps at the training points,
    so the hinge-risk transfer check there (mean hinge gap <= sup gap, hinge
    being 1-Lipschitz) is exact. Passing means the failure fraction is at
    most delta.
    """
    # every KernelSpec but the linear one is translation-invariant
    if not isinstance(kernel, KernelSpec) or kernel.translation_invariant() != (d_hat is not None):
        raise ValueError("utility_audit takes linear_kernel() without d_hat (finite mechanism)"
                         " or a translation-invariant kernel with d_hat (rff mechanism)")
    _mechanisms._require_positive(eps=eps)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be positive")
    _require_box(box, db.dim)
    y = db.labels

    # released(rng) gives one trial's sup gap over the box and its values at
    # the training points.
    if d_hat is None:
        mechanism = "finite"
        grid_resolution = None  # unused: the sup over the box is exact
        eval_count = db.n
        w_ref = noiseless_weights(db, kernel, C)
        ref_train = db.points @ w_ref

        def released(rng):
            w = _mechanisms._perturb(w_ref, lam, rng)
            vals = db.points @ w
            mu = w - w_ref
            lo, hi = mu * box.lower, mu * box.upper
            box_sup = max(np.maximum(lo, hi).sum(), -np.minimum(lo, hi).sum())
            return max(float(box_sup), float(np.max(np.abs(vals - ref_train)))), vals
    else:
        mechanism = "rff"
        eval_points = np.vstack([box.grid(grid_resolution), db.points])
        eval_count = eval_points.shape[0]
        ref_vals = decision_values(solve_svm_dual(db, kernel, C), eval_points)
        ref_train = ref_vals[-db.n:]

        def released(rng):
            fmap = RandomFeatureMap.from_rng(kernel, db.dim, d_hat, rng)
            model = train_private_rff(db, fmap, C, lam, rng)
            w = model.weights
            coeffs = (w[0::2] - 1j * w[1::2]) / math.sqrt(d_hat)
            vals = np.concatenate([
                grid_values(model.feature_map, coeffs, box, grid_resolution),
                model.decision_values(db.points),
            ])
            return float(np.max(np.abs(vals - ref_vals))), vals[-db.n:]

    ref_hinge = _mean_hinge(y * ref_train)
    failures = 0
    hinge_violation = 0.0
    for t in range(trials):
        sup, vals = released(child_rng(seed, t))
        if sup > eps:
            failures += 1
        hinge_violation = max(hinge_violation, abs(_mean_hinge(y * vals) - ref_hinge) - sup)

    statistic = failures / trials
    return AuditReport(
        name="utility",
        trials=trials,
        statistic=statistic,
        bound=delta,
        passed=statistic <= delta,
        seed=seed,
        details={
            "mechanism": mechanism,
            "lambda": lam,
            "eps": eps,
            "grid_resolution": grid_resolution,
            "eval_points": eval_count,
            "hinge_transfer_ok": bool(hinge_violation <= 1e-12),
            "hinge_transfer_violation": hinge_violation,
        },
    )


def kernel_approx_audit(
    kernel: KernelSpec,
    d_hat: int,
    box: DomainBox,
    eps: float,
    trials: int,
    grid_resolution: int,
    seed: int,
) -> AuditReport:
    """Fraction of independent feature-map draws whose kernel approximation
    misses by eps or more, against the failure probability the dimension
    calibration promises at this d_hat.

    Both kernels depend only on x - y, so the sup is taken over a grid on the
    displacement box, where each draw's estimate is `grid_values` with
    c_i = 1 divided by d_hat (the mean `displacement_kernel` takes). When the
    inverted failure probability exceeds one the bound is vacuous and flagged
    as such.
    """
    if not kernel.translation_invariant():
        raise UnsupportedKernelError("kernel approximation requires a translation-invariant kernel")
    _mechanisms._require_positive(eps=eps)
    if trials < 1:
        raise ValueError("trials must be positive")
    d = box.dim
    displacements = box.displacement_box()
    true_vals = _kernels.gram(kernel, displacements.grid(grid_resolution), np.zeros((1, d)))[:, 0]
    ones = np.ones(d_hat)
    failures = 0
    worst_sup = 0.0
    for t in range(trials):
        fmap = RandomFeatureMap.from_rng(kernel, d, d_hat, child_rng(seed, t))
        approx = grid_values(fmap, ones, displacements, grid_resolution) / d_hat
        sup = float(np.max(np.abs(approx - true_vals)))
        worst_sup = max(worst_sup, sup)
        if sup >= eps:
            failures += 1
    statistic = failures / trials
    delta_inverted = approx_failure_bound(
        eps, d_hat, d, spectral_second_moment(kernel, d), box.diameter()
    )
    bound = min(1.0, delta_inverted)
    return AuditReport(
        name="kernel_approx",
        trials=trials,
        statistic=statistic,
        bound=bound,
        passed=statistic <= bound,
        seed=seed,
        details={
            "d_hat": d_hat,
            "eps": eps,
            "grid_resolution": grid_resolution,
            "delta_inverted": delta_inverted,
            "bound_vacuous": bool(delta_inverted >= 1.0),
            "worst_sup_error": worst_sup,
        },
    )


def _require_neighbors(db1: Database, db2: Database):
    if db1.dim != db2.dim or db1.n != db2.n:
        raise ValueError("neighboring databases must share size and dimension")
    if not (
        np.array_equal(db1.points[:-1], db2.points[:-1])
        and np.array_equal(db1.labels[:-1], db2.labels[:-1])
    ):
        raise ValueError("databases are not neighbors: they differ before the last entry")


def privacy_ratio_audit(
    db1: Database,
    db2: Database,
    C: float,
    lam: float,
    beta: float,
    trials: int,
    bins: int,
    coordinate_index: int,
    seed: int,
    box: DomainBox,
) -> AuditReport:
    """Finite-sample smoke test of the released coordinate's density ratio.

    The mechanism is the finite one, the linear kernel trained with C and
    released with Laplace(0, lam) noise. Histograms one coordinate of the
    released weights over `trials` runs per database on shared bin edges and
    reports the largest |log count ratio| over bins holding at least 20
    samples from each side. Passing means the statistic stays within beta
    plus the heuristic slack 3 sqrt(2 / min bin count). This can expose a
    broken mechanism; it cannot certify privacy. `lambda_required_for_beta`
    takes kappa from the declared box, never from the data.
    """
    _require_neighbors(db1, db2)
    _require_box(box, db1.dim)
    if trials < 1 or bins < 2:
        raise ValueError("trials and bins must be positive (bins >= 2)")
    if not 0 <= coordinate_index < db1.dim:
        raise ValueError("coordinate_index out of range")
    _mechanisms._require_positive(beta=beta)

    d = db1.dim
    samples = []
    for which, db in enumerate((db1, db2)):
        w = noiseless_weights(db, linear_kernel(), C)
        # solver output is deterministic; only the noise varies across trials
        released = _mechanisms._perturb(np.broadcast_to(w, (trials, d)), lam, child_rng(seed, which))
        samples.append(released[:, coordinate_index])

    lo = min(samples[0].min(), samples[1].min())
    hi = max(samples[0].max(), samples[1].max())
    edges = np.linspace(lo, hi, bins + 1)
    counts1, _ = np.histogram(samples[0], bins=edges)
    counts2, _ = np.histogram(samples[1], bins=edges)
    qualifying = (counts1 >= 20) & (counts2 >= 20)

    details = {
        "lambda": lam,
        "lambda_required_for_beta": calibrate_noise_privacy_finite(
            C, box.max_l2_norm(), d, beta, db1.n
        ),
        "beta": beta,
        "bins": bins,
        "coordinate_index": coordinate_index,
        "qualifying_bins": int(qualifying.sum()),
        "smoke_test": True,
    }
    if not np.any(qualifying):
        return AuditReport(
            name="privacy_ratio",
            trials=trials,
            statistic=math.nan,
            bound=beta,
            passed=False,
            seed=seed,
            details={**details, "reason": "no bin holds 20 samples from both sides"},
        )
    ratios = np.abs(
        np.log(counts1[qualifying].astype(float) / counts2[qualifying].astype(float))
    )
    statistic = float(np.max(ratios))
    min_count = int(
        min(counts1[qualifying].min(), counts2[qualifying].min())
    )
    slack = 3.0 * math.sqrt(2.0 / min_count)
    return AuditReport(
        name="privacy_ratio",
        trials=trials,
        statistic=statistic,
        bound=beta,
        passed=statistic <= beta + slack,
        seed=seed,
        details={**details, "slack": slack, "min_bin_count": min_count},
    )


def packing_separation_audit(C: float, n: int, sigma: float) -> AuditReport:
    """Train the exact rbf SVM on every database of the packing family and
    verify the pairwise classifier separation the construction promises.

    The statistic is the minimum over ordered pairs i != j of
    |f_i(x_{i,last}) - f_j(x_{i,last})|; it must reach C/(2n) up to solver
    tolerance. Deterministic: no seed is consumed.
    """
    family = rbf_packing_family(C, n, sigma)
    kernel = rbf_kernel(sigma)
    models = [solve_svm_dual(db, kernel, C) for db in family.databases]
    last_alphas = [float(m.alphas[-1]) for m in models]

    N = len(family.databases)
    probes = np.array([db.points[-1] for db in family.databases])
    # values[j, i] = f_j(x_{i,last}); each model is evaluated once on all probes
    values = np.array([decision_values(model, probes) for model in models])
    gaps = np.abs(values - np.diag(values))
    np.fill_diagonal(gaps, math.inf)
    worst = float(gaps.min())
    refined = (
        1.0 - math.exp(-(2.0 / sigma**2) * math.sin(math.pi / N) ** 2)
    ) * C / n
    bound = family.expected_separation
    tolerance = 1e-6
    return AuditReport(
        name="rbf_packing_separation",
        trials=N * (N - 1) // 2,
        statistic=worst,
        bound=bound,
        passed=worst >= bound - tolerance,
        seed=0,
        comparison=">=",
        details={
            "N": N,
            "sigma": sigma,
            "C": C,
            "n": n,
            "deterministic": True,
            "tolerance": tolerance,
            "refined_pair_bound": refined,
            "alpha_last_min": min(last_alphas),
            "alpha_last_max": max(last_alphas),
            "expected_alpha_last": C / n,
        },
    )
