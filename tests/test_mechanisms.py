import math

import numpy as np
import pytest

import privsvm.mechanisms as mechanisms
from privsvm.data import Database
from privsvm.kernels import cauchy_kernel, laplacian_kernel, linear_kernel, rbf_kernel
from privsvm.mechanisms import (
    IDENTITY_MAP,
    PrivateModel,
    calibrate_noise_privacy_finite,
    calibrate_noise_privacy_rff,
    calibrate_noise_utility_finite,
    calibrate_noise_utility_rff,
    calibrate_rff_dim_hinge,
    calibration_report_finite,
    calibration_report_rff,
    optimal_dp_lower_bound_linear,
    optimal_dp_lower_bound_rbf,
    optimal_dp_upper_bound_hinge,
    train_private_finite,
    train_private_rff,
)
from privsvm.rff import CalibrationError, RandomFeatureMap, feature_matrix
from privsvm.solver import primal_weights, solve_svm_dual


def two_point_db():
    return Database(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))


def _zero_noise(monkeypatch):
    monkeypatch.setattr(
        mechanisms, "_draw_noise", lambda scale, count, rng: np.zeros(count)
    )


def test_private_finite_zero_noise_hook(monkeypatch):
    _zero_noise(monkeypatch)
    model = train_private_finite(two_point_db(), 2.0, 0.1, np.random.default_rng(0))
    assert np.array_equal(model.weights, [1.0, 0.0])
    assert model.feature_map == IDENTITY_MAP
    assert model.n == 2 and model.dim == 2


def test_private_finite_noise_reproducible_from_seed():
    seed = 31337
    model = train_private_finite(two_point_db(), 2.0, 0.1, np.random.default_rng(seed))
    # recompute the draw through the documented inverse CDF on the same stream
    u = np.random.default_rng(seed).random(2) - 0.5
    mu = -0.1 * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    assert np.array_equal(model.weights, np.array([1.0, 0.0]) + mu)


def test_private_finite_noise_is_zero_mean():
    reps = 10_000
    sums = np.zeros(2)
    for t in range(reps):
        model = train_private_finite(
            two_point_db(), 2.0, 0.5, np.random.default_rng(1000 + t)
        )
        sums += model.weights
    mean = sums / reps
    se = math.sqrt(2 * 0.5**2 / reps)
    assert abs(mean[0] - 1.0) <= 3 * se
    assert abs(mean[1] - 0.0) <= 3 * se


def test_private_finite_rejects_bad_lambda():
    with pytest.raises(ValueError):
        train_private_finite(two_point_db(), 1.0, 0.0, np.random.default_rng(0))


def test_private_rff_deterministic_given_seed():
    db = two_point_db()
    a = train_private_rff(db, rbf_kernel(1.0), 1.0, 0.2, 16, np.random.default_rng(5))
    b = train_private_rff(db, rbf_kernel(1.0), 1.0, 0.2, 16, np.random.default_rng(5))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.feature_map.omegas, b.feature_map.omegas)
    assert a.weights.shape == (32,)


def test_private_rff_zero_noise_releases_primal_weights(monkeypatch):
    _zero_noise(monkeypatch)
    rng = np.random.default_rng(41)
    db = Database(rng.uniform(-1, 1, (9, 2)), rng.choice([-1.0, 1.0], 9))
    model = train_private_rff(db, rbf_kernel(0.8), 1.5, 0.1, 20, np.random.default_rng(3))
    expected = primal_weights(solve_svm_dual(db, model.feature_map, 1.5))
    assert np.array_equal(model.weights, expected)


def test_private_rff_label_flip_negates_weights(monkeypatch):
    _zero_noise(monkeypatch)
    rng = np.random.default_rng(23)
    points = rng.uniform(-1, 1, (8, 2))
    labels = rng.choice([-1.0, 1.0], 8)
    db = Database(points, labels)
    flipped = Database(points, -labels)
    a = train_private_rff(db, rbf_kernel(1.0), 1.0, 0.1, 24, np.random.default_rng(7))
    b = train_private_rff(flipped, rbf_kernel(1.0), 1.0, 0.1, 24, np.random.default_rng(7))
    assert np.allclose(a.weights, -b.weights, atol=1e-12)


def test_private_rff_weight_norm_bounded(monkeypatch):
    # coefficients sum to at most C and features have unit norm, so the
    # noiseless weights can never exceed C in Euclidean norm
    _zero_noise(monkeypatch)
    rng = np.random.default_rng(77)
    for kernel in (rbf_kernel(0.7), laplacian_kernel(), cauchy_kernel()):
        points = rng.uniform(-1, 1, (10, 2))
        labels = rng.choice([-1.0, 1.0], 10)
        db = Database(points, labels)
        C = float(rng.uniform(0.5, 3.0))
        model = train_private_rff(db, kernel, C, 0.1, 32, np.random.default_rng(rng.integers(2**32)))
        assert np.linalg.norm(model.weights) <= C + 1e-9


def test_private_rff_rejects_linear_kernel():
    with pytest.raises(ValueError):
        train_private_rff(two_point_db(), linear_kernel(), 1.0, 0.1, 8, np.random.default_rng(0))


def test_private_model_decisions():
    w = np.array([0.5, -2.0])
    model = PrivateModel(w, IDENTITY_MAP, linear_kernel(), 1.0, 0.1, n=2, dim=2)
    assert model.decision(np.array([2.0, 1.0])) == pytest.approx(-1.0)
    rffm = train_private_rff(two_point_db(), rbf_kernel(1.0), 1.0, 0.1, 8, np.random.default_rng(1))
    x = np.array([0.3, 0.4])
    phi = feature_matrix(rffm.feature_map, x[None, :])[0]
    assert rffm.decision(x) == pytest.approx(float(rffm.weights @ phi), abs=1e-12)


def test_private_model_validation():
    with pytest.raises(ValueError):
        PrivateModel(np.zeros(3), IDENTITY_MAP, linear_kernel(), 1.0, 0.1, n=2, dim=2)
    with pytest.raises(ValueError):
        PrivateModel(np.zeros(2), IDENTITY_MAP, linear_kernel(), 1.0, 0.0, n=2, dim=2)
    with pytest.raises(ValueError):
        PrivateModel(np.zeros(2), "bogus-map", linear_kernel(), 1.0, 0.1, n=2, dim=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_private_model_rejects_non_finite_weights(bad):
    weights = np.zeros(2)
    weights[1] = bad
    with pytest.raises(ValueError, match="finite"):
        PrivateModel(weights, IDENTITY_MAP, linear_kernel(), 1.0, 0.1, n=2, dim=2)
    fmap = RandomFeatureMap.draw(rbf_kernel(1.0), 2, 3, seed=1)
    weights = np.zeros(fmap.feature_dim)
    weights[0] = bad
    with pytest.raises(ValueError, match="finite"):
        PrivateModel(weights, fmap, rbf_kernel(1.0), 1.0, 0.1, n=2, dim=2)


def test_calibrate_noise_privacy_finite():
    assert calibrate_noise_privacy_finite(1, 1, 1, 4, 1, 100) == pytest.approx(0.08, rel=1e-12)
    full = calibrate_noise_privacy_finite(1, 1, 1, 4, 1, 100)
    assert calibrate_noise_privacy_finite(1, 1, 1, 4, 1, 200) == pytest.approx(full / 2, rel=1e-12)
    assert calibrate_noise_privacy_finite(1, 1, 1, 1, 1, 100) == pytest.approx(full / 2, rel=1e-12)
    with pytest.raises(ValueError):
        calibrate_noise_privacy_finite(1, 1, 1, 4, 0, 100)
    with pytest.raises(ValueError):
        calibrate_noise_privacy_finite(1, 1, 1, 4, 1, 1)


def test_calibrate_noise_privacy_rff():
    assert calibrate_noise_privacy_rff(1, 1, 4, 1, 100) == pytest.approx(2**3.5 / 100, rel=1e-12)
    base = calibrate_noise_privacy_rff(1, 1, 4, 1, 100)
    assert calibrate_noise_privacy_rff(1, 1, 16, 1, 100) == pytest.approx(2 * base, rel=1e-12)
    assert calibrate_noise_privacy_rff(1, 1, 4, 2, 100) == pytest.approx(base / 2, rel=1e-12)


def test_calibrate_noise_utility_finite():
    expected = 1.0 / (2.0 * (2.0 * math.log(2.0) + 1.0))
    assert calibrate_noise_utility_finite(1.0, math.exp(-1.0), 1.0, 2) == pytest.approx(
        expected, rel=1e-12
    )
    near_one = calibrate_noise_utility_finite(1.0, 1.0 - 1e-12, 1.0, 2)
    assert near_one == pytest.approx(1.0 / (2.0 * 2.0 * math.log(2.0)), rel=1e-9)
    assert calibrate_noise_utility_finite(1.0, 0.5, 2.0, 2) == pytest.approx(
        calibrate_noise_utility_finite(1.0, 0.5, 1.0, 2) / 2, rel=1e-12
    )
    with pytest.raises(ValueError):
        calibrate_noise_utility_finite(1.0, 1.0, 1.0, 2)


def test_calibrate_noise_utility_rff():
    assert calibrate_noise_utility_rff(1.0, 0.2, 4) == pytest.approx(
        1.0 / (32.0 * math.log(2.0)), rel=1e-12
    )
    # the d_hat^{-1/2} branch dominates once d_hat grows
    big = calibrate_noise_utility_rff(1.0, 0.2, 10_000)
    assert big == pytest.approx(1.0 / (2.0**4 * math.log(2.0) * 100.0), rel=1e-12)
    with pytest.raises(ValueError):
        calibrate_noise_utility_rff(1.0, 2.0, 4)


def test_calibrate_rff_dim_hinge():
    # theta saturates at 1 once eps >= 8 C
    val = calibrate_rff_dim_hinge(8.0, 0.5, 1.0, 1, 1.0, 1.0)
    unclamped = (4 * 3 / 1.0) * math.log(2**9 * 1.0 / (0.5 * 1.0))
    assert val == math.ceil(unclamped)

    theta = 1.0 / 4096.0
    expected = math.ceil(
        (4 * 4 / theta) * math.log(2**9 * 4.0 / (0.1 * theta))
    )
    assert expected == 1_195_703
    assert calibrate_rff_dim_hinge(1.0, 0.1, 1.0, 2, math.sqrt(2.0), math.sqrt(2.0)) == expected

    with pytest.raises(CalibrationError):
        calibrate_rff_dim_hinge(1.0, 0.1, 1.0, 2, math.inf, 1.0)


def test_upper_bound_report_composition():
    eps, delta, C, n, d = 1.0, 0.1, 1.0, 100, 2
    sigma_p, diam = math.sqrt(2.0), 2.0
    report = optimal_dp_upper_bound_hinge(eps, delta, C, n, d, sigma_p, diam)
    lam_max = calibrate_noise_utility_rff(eps, delta, report.d_hat)
    assert report.lambda_max_utility == lam_max
    assert report.beta_achievable == pytest.approx(
        2**2.5 * C * math.sqrt(report.d_hat) / (lam_max * n), rel=1e-12
    )
    assert report.feasible

    bigger_n = optimal_dp_upper_bound_hinge(eps, delta, C, 1000, d, sigma_p, diam)
    assert bigger_n.beta_achievable < report.beta_achievable

    tighter_eps = optimal_dp_upper_bound_hinge(0.5, delta, C, n, d, sigma_p, diam)
    assert tighter_eps.beta_achievable > report.beta_achievable


def test_calibration_reports_window_consistency():
    rep = calibration_report_finite(1.0, 0.5, 0.1, 1.0, 100, kappa=1.0, Phi=1.0, F=2)
    assert rep.feasible == (rep.lambda_min_privacy <= rep.lambda_max_utility)
    assert rep.d_hat is None
    # at beta_achievable the window closes exactly
    closed = calibration_report_finite(
        rep.beta_achievable, 0.5, 0.1, 1.0, 100, kappa=1.0, Phi=1.0, F=2
    )
    assert closed.lambda_min_privacy == pytest.approx(closed.lambda_max_utility, rel=1e-12)

    rff_rep = calibration_report_rff(1.0, 0.5, 0.1, 1.0, 100, 2, math.sqrt(2.0), 2.0)
    assert rff_rep.d_hat >= 1
    assert rff_rep.feasible == (rff_rep.lambda_min_privacy <= rff_rep.lambda_max_utility)


def test_lower_bound_linear():
    assert optimal_dp_lower_bound_linear(0.5) == 0.0
    assert optimal_dp_lower_bound_linear(0.05) == pytest.approx(math.log(19.0), rel=1e-12)
    deltas = np.linspace(0.01, 0.4, 14)
    values = [optimal_dp_lower_bound_linear(d) for d in deltas]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        optimal_dp_lower_bound_linear(0.0)


def test_lower_bound_rbf():
    N, bound = optimal_dp_lower_bound_rbf(0.05, 0.3)
    assert N == 11
    assert bound == pytest.approx(math.log(190.0), rel=1e-12)
    N_half, _ = optimal_dp_lower_bound_rbf(0.05, 0.15)
    assert N_half == math.floor((2.0 / 0.15) * math.sqrt(2.0 / math.log(2.0)))
    assert N_half in (2 * N, 2 * N + 1)
    with pytest.raises(ValueError, match="0.8493"):
        optimal_dp_lower_bound_rbf(0.05, 0.9)


def test_lower_bounds_consistent():
    for delta in np.linspace(0.01, 0.4, 8):
        for sigma in (0.1, 0.3, 0.5, 0.8):
            _, rbf_bound = optimal_dp_lower_bound_rbf(delta, sigma)
            assert rbf_bound >= optimal_dp_lower_bound_linear(delta)


def test_claimed_metadata_is_stored():
    claimed = {"beta": 1.0, "L": 1.0, "kappa": 1.0, "F": 2, "n": 2}
    model = train_private_finite(
        two_point_db(), 2.0, 0.1, np.random.default_rng(0), claimed=claimed, seed=0
    )
    assert model.claimed == claimed
    assert model.seed == 0
