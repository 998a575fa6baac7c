import itertools
import math

import numpy as np
import pytest

import privsvm.mechanisms as mechanisms
from privsvm.audit import (
    child_rng,
    default_grid_resolution,
    kernel_approx_audit,
    linear_separation_pair,
    mix64,
    packing_separation_audit,
    privacy_ratio_audit,
    rbf_packing_family,
    sensitivity_audit,
    utility_audit,
)
from privsvm.data import Database, DomainBox, neighbor_replace_last
from privsvm.kernels import linear_kernel, rbf_kernel
from privsvm.mechanisms import (
    calibrate_noise_privacy_finite,
    optimal_dp_lower_bound_rbf,
    rbf_packing_size,
    sensitivity_finite,
    train_private_finite,
    train_private_rff,
)
from privsvm.rff import RandomFeatureMap, calibrate_rff_dim, displacement_kernel
from privsvm.solver import decision_values, solve_svm_dual


def unit_box(d=2):
    return DomainBox(np.full(d, -1.0), np.full(d, 1.0))


def test_mix64_is_deterministic_and_spreads():
    assert mix64(1, 2) == mix64(1, 2)
    seen = {mix64(42, t) for t in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= s < 2**64 for s in seen)
    a = child_rng(7, 3).random(4)
    b = child_rng(7, 3).random(4)
    assert np.array_equal(a, b)


def test_linear_separation_pair_closed_form():
    fam = linear_separation_pair(1.0, 10, 0.04)
    d1, d2 = fam.databases
    assert fam.params["M"] == pytest.approx(0.8)
    assert fam.params["m"] == pytest.approx(0.4)
    assert fam.expected_weights == (pytest.approx(0.68), pytest.approx(0.76))
    assert fam.expected_separation == pytest.approx(0.08)
    assert fam.params["bound_margin_ok"]  # 1/M = 1.25 > 0.76
    # the pair differs only in the last label
    assert np.array_equal(d1.points, d2.points)
    assert np.array_equal(d1.labels[:-1], d2.labels[:-1])
    assert d1.labels[-1] == -1.0 and d2.labels[-1] == 1.0
    # five negatives at -M, four positives at +M, probe at M - m
    assert np.sum(d1.points == -0.8) == 5
    assert d1.points[-1, 0] == pytest.approx(0.4)


def test_linear_separation_pair_solver_agreement():
    fam = linear_separation_pair(1.0, 10, 0.04)
    weights = []
    for db in fam.databases:
        model = solve_svm_dual(db, linear_kernel(), 1.0)
        weights.append(float((db.points.T @ (model.alphas * db.labels))[0]))
    assert weights[0] == pytest.approx(fam.expected_weights[0], abs=1e-9)
    assert weights[1] == pytest.approx(fam.expected_weights[1], abs=1e-9)
    gap = abs(weights[0] - weights[1])
    assert gap == pytest.approx(fam.expected_separation, abs=1e-9)
    # named sensitivity fixture: the observed gap respects the l1 bound
    kappa = 0.8
    assert gap <= 4 * 1.0 * kappa * 1.0 / 10


def test_linear_separation_pair_boundary():
    with pytest.raises(ValueError, match="sqrt"):
        linear_separation_pair(1.0, 10, math.sqrt(1.0) / 20)  # eps == cap
    with pytest.raises(ValueError):
        linear_separation_pair(1.0, 10, 0.0)


def test_rbf_packing_family_structure():
    fam = rbf_packing_family(1.0, 8, 0.3)
    assert fam.params["N"] == 11
    for sigma in (0.1, 0.3, 0.5, 0.84):
        N = rbf_packing_family(1.0, 8, sigma).params["N"]
        assert N == rbf_packing_size(sigma) == optimal_dp_lower_bound_rbf(0.05, sigma)[0]
    assert len(fam.databases) == 11
    assert fam.expected_separation == pytest.approx(1.0 / 16.0)
    first = fam.databases[0]
    for db in fam.databases:
        assert np.array_equal(db.points[:-1], first.points[:-1])
        assert np.array_equal(db.labels, first.labels)
        assert np.linalg.norm(db.points[-1]) == pytest.approx(1.0, rel=1e-12)


def test_rbf_packing_family_preconditions():
    with pytest.raises(ValueError, match="exceed C"):
        rbf_packing_family(8.0, 8, 0.3)
    with pytest.raises(ValueError, match="sigma"):
        rbf_packing_family(1.0, 8, 0.9)


def test_packing_separation_audit_passes():
    report = packing_separation_audit(1.0, 8, 0.3)
    assert report.passed
    assert report.comparison == ">="
    assert report.trials == 55  # 11 choose 2
    assert report.statistic >= report.bound - 1e-6
    assert report.statistic >= report.details["refined_pair_bound"] - 1e-9
    assert report.details["alpha_last_min"] == pytest.approx(0.125, abs=1e-6)
    assert report.details["alpha_last_max"] == pytest.approx(0.125, abs=1e-6)


def test_sensitivity_audit_small_run():
    report = sensitivity_audit(40, 10, 1.0, unit_box(), seed=2)
    assert report.passed
    assert report.bound == pytest.approx(4 * math.sqrt(2) * math.sqrt(2) / 10)
    assert report.bound == sensitivity_finite(1.0, unit_box().max_l2_norm(), 2, 10)
    assert 0.0 < report.statistic <= report.bound


def test_sensitivity_audit_reproducible():
    a = sensitivity_audit(10, 8, 1.0, unit_box(), seed=5)
    b = sensitivity_audit(10, 8, 1.0, unit_box(), seed=5)
    assert a == b
    c = sensitivity_audit(10, 8, 1.0, unit_box(), seed=6)
    assert c.statistic != a.statistic


def test_identical_replacement_gives_zero_weight_gap():
    rng = np.random.default_rng(3)
    db = Database(rng.uniform(-1, 1, (10, 2)), rng.choice([-1.0, 1.0], 10))
    twin = neighbor_replace_last(db, db.points[-1], db.labels[-1])
    m1 = solve_svm_dual(db, linear_kernel(), 1.0)
    m2 = solve_svm_dual(twin, linear_kernel(), 1.0)
    w1 = db.points.T @ (m1.alphas * db.labels)
    w2 = twin.points.T @ (m2.alphas * twin.labels)
    assert np.array_equal(w1, w2)


def fixed_db(n=20, seed=4):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1, 1, (n, 2))
    labels = np.where(points[:, 0] + points[:, 1] > 0, 1.0, -1.0)
    return Database(points, labels)


def test_utility_audit_zero_noise_statistic_is_zero(monkeypatch):
    monkeypatch.setattr(mechanisms, "_perturb", lambda w, lam, rng: np.array(w))
    report = utility_audit(fixed_db(), linear_kernel(), 1.0, 0.05, 0.5, 0.1, 20, None, 1,
                           unit_box())
    assert report.statistic == 0.0
    assert report.details["hinge_transfer_ok"]


def test_utility_audit_finite_at_calibrated_noise():
    from privsvm.mechanisms import calibrate_noise_utility_finite

    db = fixed_db()
    lam = calibrate_noise_utility_finite(0.5, 0.1, 1.0, 2)
    report = utility_audit(db, linear_kernel(), 1.0, lam, 0.5, 0.1, 100, None, 9, unit_box())
    assert report.passed
    assert report.details["hinge_transfer_ok"]


def test_utility_audit_rff_mechanism_runs():
    db = fixed_db(n=12)
    report = utility_audit(db, rbf_kernel(1.0), 1.0, 1e-4, 0.75, 0.5, 10, 11, 3, unit_box(),
                           d_hat=400)
    # tiny noise and a roomy eps: the feature-space model should track the
    # exact-kernel model in most draws
    assert report.statistic <= 0.5
    assert report.details["hinge_transfer_ok"]


@pytest.mark.parametrize("eps", [0.2, 0.3])
def test_utility_audit_rff_matches_pointwise_evaluation(eps):
    # the grid is evaluated by grid_values; the failure count must be the one
    # each release's decision_values gives on the same points
    db = fixed_db(n=12)
    kernel, C, lam, d_hat, trials, G, seed = rbf_kernel(1.0), 1.0, 0.1, 50, 20, 21, 3
    box = unit_box()
    report = utility_audit(db, kernel, C, lam, eps, 0.5, trials, G, seed, box, d_hat=d_hat)
    eval_points = np.vstack([box.grid(G), db.points])
    ref = decision_values(solve_svm_dual(db, kernel, C), eval_points)
    failures = sum(
        np.max(np.abs(train_private_rff(db, RandomFeatureMap.from_rng(kernel, db.dim, d_hat, g),
                                        C, lam, g).decision_values(eval_points) - ref)) > eps
        for g in (child_rng(seed, t) for t in range(trials))
    )
    assert 0 < failures < trials
    assert report.statistic == failures / trials
    assert report.passed == (failures / trials <= 0.5)


@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_utility_audit_finite_matches_release_evaluation(eps):
    # the box sup is taken in closed form; the failure count must be the one
    # each release's decision_values gives at the box corners and training points
    db = fixed_db(n=12)
    C, lam, trials, seed = 1.0, 0.1, 20, 3
    box = unit_box()
    report = utility_audit(db, linear_kernel(), C, lam, eps, 0.5, trials, None, seed, box)
    corners = np.array(list(itertools.product(*zip(box.lower, box.upper))))
    eval_points = np.vstack([corners, db.points])
    ref = decision_values(solve_svm_dual(db, linear_kernel(), C), eval_points)
    failures = sum(
        np.max(np.abs(train_private_finite(db, C, lam, child_rng(seed, t))
                      .decision_values(eval_points) - ref)) > eps
        for t in range(trials)
    )
    assert 0 < failures < trials
    assert report.statistic == failures / trials
    assert report.passed == (failures / trials <= 0.5)


def test_utility_audit_finite_sup_on_asymmetric_box(monkeypatch):
    # mu = (1, -1) on [0, 1]^2: mu^T x ranges over [-1, 1], so the sup is 1,
    # not the 2 that sum_j max(|mu_j lo_j|, |mu_j hi_j|) would give
    monkeypatch.setattr(mechanisms, "_perturb", lambda w, lam, rng: w + np.array([1.0, -1.0]))
    rng = np.random.default_rng(2)
    db = Database(rng.uniform(0, 1, (10, 2)), np.array([1.0, -1.0] * 5))
    box = DomainBox(np.zeros(2), np.ones(2))
    assert utility_audit(db, linear_kernel(), 1.0, 0.1, 1.0, 0.1, 4, None, 1, box).statistic == 0.0
    report = utility_audit(db, linear_kernel(), 1.0, 0.1, 0.999, 0.1, 4, None, 1, box)
    assert report.statistic == 1.0
    assert report.details["eval_points"] == db.n
    assert report.details["hinge_transfer_ok"]


def test_utility_audit_rejects_box_of_other_dimension():
    with pytest.raises(ValueError, match="dimension"):
        utility_audit(fixed_db(), linear_kernel(), 1.0, 0.1, 0.5, 0.1, 5, None, 1, unit_box(3))


def test_utility_audit_rejects_bad_eps():
    with pytest.raises(ValueError):
        utility_audit(fixed_db(), linear_kernel(), 1.0, 0.1, math.inf, 0.1, 5, None, 1, unit_box())
    with pytest.raises(ValueError):
        utility_audit(fixed_db(), linear_kernel(), 1.0, 0.1, 0.5, 1.5, 5, None, 1, unit_box())


def test_kernel_approx_audit_vacuous_eps():
    report = kernel_approx_audit(rbf_kernel(1.0), 1, unit_box(1), 2.0, 20, 21, seed=8)
    assert report.statistic == 0.0  # |khat - k| <= 2 always


def test_kernel_approx_audit_tiny_dim_fails_often():
    report = kernel_approx_audit(rbf_kernel(1.0), 1, unit_box(1), 0.01, 30, 21, seed=8)
    assert report.statistic >= 0.9
    assert report.details["bound_vacuous"]
    assert report.passed  # bound capped at 1 is trivially met; flagged vacuous


def test_kernel_approx_audit_calibrated():
    eps = delta = 0.25
    d_hat = calibrate_rff_dim(eps, delta, 1, 1.0, 2.0)
    report = kernel_approx_audit(rbf_kernel(1.0), d_hat, unit_box(1), eps, 50, 51, seed=13)
    assert report.passed
    assert report.statistic <= delta
    assert not report.details["bound_vacuous"]


@pytest.mark.parametrize("d, G, eps", [(1, 51, 0.07), (2, 21, 0.1)])
def test_kernel_approx_audit_matches_pointwise_evaluation(d, G, eps):
    # displacement_kernel on every grid row, per trial stream, as the audit's reference
    kernel, d_hat, trials, seed = rbf_kernel(1.0), 200, 40, 5
    report = kernel_approx_audit(kernel, d_hat, unit_box(d), eps, trials, G, seed=seed)
    deltas = unit_box(d).displacement_box().grid(G)
    true_vals = np.exp(-0.5 * np.sum(deltas**2, axis=1))
    sups = [
        np.max(np.abs(displacement_kernel(
            RandomFeatureMap.from_rng(kernel, d, d_hat, child_rng(seed, t)), deltas) - true_vals))
        for t in range(trials)
    ]
    failures = sum(sup >= eps for sup in sups)
    assert 0 < failures < trials
    assert report.statistic == failures / trials
    assert report.passed == (failures / trials <= report.bound)
    assert report.details["worst_sup_error"] == pytest.approx(max(sups), rel=0, abs=1e-12)


def test_privacy_ratio_identical_databases_near_zero():
    db = fixed_db(n=10)
    report = privacy_ratio_audit(db, db, 1.0, 0.4, 1.0, 20_000, 20, 0, 21, unit_box())
    assert report.statistic <= 0.3
    assert report.passed


def test_privacy_ratio_on_separation_pair():
    fam = linear_separation_pair(1.0, 10, 0.04)
    d1, d2 = fam.databases
    lam = calibrate_noise_privacy_finite(1.0, 0.8, 1, 1.0, 10)
    box = DomainBox(np.array([-0.8]), np.array([0.8]))  # the pair's points reach +-M = 0.8
    report = privacy_ratio_audit(d1, d2, 1.0, lam, 1.0, 20_000, 40, 0, 17, box)
    assert report.passed
    assert report.details["smoke_test"]
    assert report.details["lambda_required_for_beta"] == pytest.approx(lam, rel=1e-12)
    assert report.details["lambda_required_for_beta"] == calibrate_noise_privacy_finite(
        1.0, box.max_l2_norm(), 1, 1.0, 10
    )


def test_privacy_ratio_detects_undercalibrated_noise():
    # half the required scale at a tiny beta: reported, not asserted as a
    # guarantee, but the statistic should clearly exceed beta
    fam = linear_separation_pair(1.0, 10, 0.04)
    d1, d2 = fam.databases
    lam = 0.32 / 2
    report = privacy_ratio_audit(d1, d2, 1.0, lam, 0.05, 20_000, 40, 0, 19, unit_box(1))
    assert report.statistic > 0.05


def test_privacy_ratio_rejects_non_neighbors():
    rng = np.random.default_rng(1)
    a = Database(rng.uniform(-1, 1, (5, 2)), rng.choice([-1.0, 1.0], 5))
    b = Database(rng.uniform(-1, 1, (5, 2)), rng.choice([-1.0, 1.0], 5))
    with pytest.raises(ValueError, match="neighbors"):
        privacy_ratio_audit(a, b, 1.0, 0.1, 1.0, 100, 10, 0, 0, unit_box())


def test_default_grid_resolution():
    assert default_grid_resolution(1) == 51
    assert default_grid_resolution(2) == 51
    assert default_grid_resolution(3) == 11
    assert default_grid_resolution(4) == 11
    with pytest.raises(ValueError):
        default_grid_resolution(5)


def test_utility_audit_kernel_names_the_mechanism():
    # linear_kernel() is the finite mechanism, which takes no d_hat; a
    # translation-invariant kernel is the rff one, which needs it
    db = fixed_db(n=6)
    fmap = RandomFeatureMap.from_rng(rbf_kernel(1.0), 2, 4, np.random.default_rng(1))
    for kernel, d_hat in [(linear_kernel(), 4), (rbf_kernel(1.0), None), (fmap, 4),
                          (fmap, None)]:
        with pytest.raises(ValueError, match="d_hat"):
            utility_audit(db, kernel, 1.0, 0.1, 0.5, 0.1, 2, 5, 1, unit_box(), d_hat=d_hat)
