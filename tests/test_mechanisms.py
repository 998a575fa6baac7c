import math

import numpy as np
import pytest

import privsvm.mechanisms as mechanisms
import privsvm.rff as rff
from privsvm.data import Database
from privsvm.kernels import cauchy_kernel, laplacian_kernel, linear_kernel, rbf_kernel
from privsvm.mechanisms import (
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
    noiseless_weights,
    sensitivity_finite,
    sensitivity_rff,
    train_private_finite,
    train_private_rff,
)
from privsvm.noise import sample_laplace
from privsvm.rff import CalibrationError, RandomFeatureMap, feature_matrix
from privsvm.solver import primal_weights, solve_svm_dual


def two_point_db():
    return Database(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))


def rff_release(db, kernel, C, lam, d_hat, rng):
    # draws the map and then the noise from one generator, as utility_audit does
    return train_private_rff(db, RandomFeatureMap.from_rng(kernel, db.dim, d_hat, rng), C, lam, rng)


def _zero_noise(monkeypatch):
    monkeypatch.setattr(mechanisms, "_perturb", lambda w, lam, rng: np.array(w))


def test_private_finite_zero_noise_hook(monkeypatch):
    _zero_noise(monkeypatch)
    model = train_private_finite(two_point_db(), 2.0, 0.1, np.random.default_rng(0))
    assert np.array_equal(model.weights, [1.0, 0.0])
    assert model.feature_map == linear_kernel()
    assert model.n == 2 and model.dim == 2


def test_private_finite_noise_reproducible_from_seed():
    seed = 31337
    model = train_private_finite(two_point_db(), 2.0, 0.1, np.random.default_rng(seed))
    # recompute the draw through the documented inverse CDF on the same stream
    u = np.random.default_rng(seed).random(2) - 0.5
    mu = -0.1 * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    assert np.array_equal(model.weights, np.array([1.0, 0.0]) + mu)


def test_release_perturbs_the_noiseless_weights():
    # a release is noiseless_weights plus one Laplace draw per weight from
    # rng, and _perturb of a stacked copy draws the rows in order
    rng = np.random.default_rng(5)
    db = Database(rng.uniform(-1, 1, (12, 3)), rng.choice([-1.0, 1.0], 12))
    w = noiseless_weights(db, linear_kernel(), 1.5)
    model = train_private_finite(db, 1.5, 0.2, np.random.default_rng(9))
    assert np.array_equal(model.weights, w + sample_laplace(0.2, 3, np.random.default_rng(9)))
    stacked = mechanisms._perturb(np.broadcast_to(w, (4, 3)), 0.2, np.random.default_rng(9))
    assert np.array_equal(stacked[0], model.weights)
    assert np.array_equal(stacked, w + sample_laplace(0.2, 12, np.random.default_rng(9)).reshape(4, 3))


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
    a = rff_release(db, rbf_kernel(1.0), 1.0, 0.2, 16, np.random.default_rng(5))
    b = rff_release(db, rbf_kernel(1.0), 1.0, 0.2, 16, np.random.default_rng(5))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.feature_map.omegas, b.feature_map.omegas)
    assert a.weights.shape == (32,)


def test_private_rff_zero_noise_releases_primal_weights(monkeypatch):
    _zero_noise(monkeypatch)
    rng = np.random.default_rng(41)
    db = Database(rng.uniform(-1, 1, (9, 2)), rng.choice([-1.0, 1.0], 9))
    model = rff_release(db, rbf_kernel(0.8), 1.5, 0.1, 20, np.random.default_rng(3))
    phi = Database(feature_matrix(model.feature_map, db.points), db.labels)
    expected = primal_weights(solve_svm_dual(phi, linear_kernel(), 1.5))
    assert np.array_equal(model.weights, expected)
    assert np.array_equal(noiseless_weights(db, model.feature_map, 1.5), expected)


def test_private_rff_computes_the_feature_matrix_once(monkeypatch):
    # the release trains the linear SVM on the one feature matrix it keeps
    calls = []
    original = rff.feature_matrix

    def counted(m, X):
        calls.append(X.shape)
        return original(m, X)

    monkeypatch.setattr(rff, "feature_matrix", counted)
    rng = np.random.default_rng(41)
    db = Database(rng.uniform(-1, 1, (9, 2)), rng.choice([-1.0, 1.0], 9))
    rff_release(db, rbf_kernel(0.8), 1.5, 0.1, 20, np.random.default_rng(3))
    assert calls == [(9, 2)]


def test_private_rff_label_flip_negates_weights(monkeypatch):
    _zero_noise(monkeypatch)
    rng = np.random.default_rng(23)
    points = rng.uniform(-1, 1, (8, 2))
    labels = rng.choice([-1.0, 1.0], 8)
    db = Database(points, labels)
    flipped = Database(points, -labels)
    a = rff_release(db, rbf_kernel(1.0), 1.0, 0.1, 24, np.random.default_rng(7))
    b = rff_release(flipped, rbf_kernel(1.0), 1.0, 0.1, 24, np.random.default_rng(7))
    assert np.allclose(a.weights, -b.weights, atol=1e-12)


def invariance_instances():
    """Ten random databases (n 5-200, d 1-5) with C drawn from {0.1, 1, 10, 1000}."""
    rng = np.random.default_rng(2016)
    for _ in range(10):
        n, d = int(rng.integers(5, 201)), int(rng.integers(1, 6))
        db = Database(rng.uniform(-1, 1, (n, d)), rng.choice([-1.0, 1.0], n))
        yield db, float(rng.choice([0.1, 1.0, 10.0, 1000.0]))


def test_label_flip_negates_noiseless_weights_exactly():
    # Q is unchanged when every label flips, so the solve takes the same
    # steps on negated data and the weights come out negated bit for bit
    for db, C in invariance_instances():
        flipped = Database(db.points, -db.labels)
        w = noiseless_weights(db, linear_kernel(), C)
        assert np.array_equal(noiseless_weights(flipped, linear_kernel(), C), -w)


def test_doubled_points_and_quartered_c_halve_noiseless_weights_exactly():
    # every quantity of the solve scales by a power of two, so the weights
    # halve bit for bit
    for db, C in invariance_instances():
        doubled = Database(2.0 * db.points, db.labels)
        w = noiseless_weights(db, linear_kernel(), C)
        assert np.array_equal(noiseless_weights(doubled, linear_kernel(), C / 4), w / 2)


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
        model = rff_release(db, kernel, C, 0.1, 32, np.random.default_rng(rng.integers(2**32)))
        assert np.linalg.norm(model.weights) <= C + 1e-9


def test_private_rff_rejects_linear_kernel():
    with pytest.raises(ValueError):
        rff_release(two_point_db(), linear_kernel(), 1.0, 0.1, 8, np.random.default_rng(0))


def test_private_model_decisions():
    w = np.array([0.5, -2.0])
    model = PrivateModel(w, linear_kernel(), 1.0, 0.1, n=2, dim=2)
    assert model.decision_values(np.array([[2.0, 1.0]]))[0] == pytest.approx(-1.0)
    rffm = rff_release(two_point_db(), rbf_kernel(1.0), 1.0, 0.1, 8, np.random.default_rng(1))
    x = np.array([0.3, 0.4])
    phi = feature_matrix(rffm.feature_map, x[None, :])[0]
    value = rffm.decision_values(x[None, :])[0]
    assert value == pytest.approx(float(rffm.weights @ phi), abs=1e-12)


@pytest.mark.parametrize("C, lam, name", [
    (math.inf, 0.1, "C"), (math.nan, 0.1, "C"), (0.0, 0.1, "C"),
    (1.0, math.inf, "lam"), (1.0, math.nan, "lam"),
])
def test_private_model_requires_finite_positive_c_and_lambda(C, lam, name):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        PrivateModel(np.zeros(2), linear_kernel(), C, lam, n=2, dim=2)


def test_private_model_validation():
    with pytest.raises(ValueError):
        PrivateModel(np.zeros(3), linear_kernel(), 1.0, 0.1, n=2, dim=2)
    with pytest.raises(ValueError):
        PrivateModel(np.zeros(2), linear_kernel(), 1.0, 0.0, n=2, dim=2)
    with pytest.raises(ValueError):
        PrivateModel(np.zeros(2), "bogus-map", 1.0, 0.1, n=2, dim=2)
    # an exact translation-invariant kernel has no finite map to carry weights
    with pytest.raises(ValueError, match="feature_map"):
        PrivateModel(np.zeros(2), rbf_kernel(1.0), 1.0, 0.1, n=2, dim=2)


def test_private_model_requires_n_and_dim():
    with pytest.raises(TypeError):
        PrivateModel(np.zeros(0), linear_kernel(), 1.0, 0.1)
    with pytest.raises(ValueError, match="n must be at least 2"):
        PrivateModel(np.zeros(2), linear_kernel(), 1.0, 0.1, n=1, dim=2)
    with pytest.raises(ValueError, match="dim must be at least 1"):
        PrivateModel(np.zeros(0), linear_kernel(), 1.0, 0.1, n=2, dim=0)


def test_private_model_rejects_map_of_another_dimension():
    fmap = RandomFeatureMap.from_rng(rbf_kernel(1.0), 3, 3, np.random.default_rng(1))
    with pytest.raises(ValueError, match="dim"):
        PrivateModel(np.zeros(fmap.feature_dim), fmap, 1.0, 0.1, n=2, dim=2)
    model = PrivateModel(np.zeros(fmap.feature_dim), fmap, 1.0, 0.1, n=2, dim=3)
    assert model.decision_values(np.zeros((1, 3))).shape == (1,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_private_model_rejects_non_finite_weights(bad):
    weights = np.zeros(2)
    weights[1] = bad
    with pytest.raises(ValueError, match="finite"):
        PrivateModel(weights, linear_kernel(), 1.0, 0.1, n=2, dim=2)
    fmap = RandomFeatureMap.from_rng(rbf_kernel(1.0), 2, 3, np.random.default_rng(1))
    weights = np.zeros(fmap.feature_dim)
    weights[0] = bad
    with pytest.raises(ValueError, match="finite"):
        PrivateModel(weights, fmap, 1.0, 0.1, n=2, dim=2)


def test_calibrate_noise_privacy_finite():
    assert calibrate_noise_privacy_finite(1, 1, 4, 1, 100) == pytest.approx(0.08, rel=1e-12)
    full = calibrate_noise_privacy_finite(1, 1, 4, 1, 100)
    assert calibrate_noise_privacy_finite(1, 1, 4, 1, 200) == pytest.approx(full / 2, rel=1e-12)
    assert calibrate_noise_privacy_finite(1, 1, 1, 1, 100) == pytest.approx(full / 2, rel=1e-12)
    with pytest.raises(ValueError):
        calibrate_noise_privacy_finite(1, 1, 4, 0, 100)
    with pytest.raises(ValueError):
        calibrate_noise_privacy_finite(1, 1, 4, 1, 1)
    assert calibrate_noise_privacy_finite(3, 1.5, 5, 0.7, 90) == (
        sensitivity_finite(3, 1.5, 5, 90) / 0.7
    )


def test_calibrate_noise_privacy_rff():
    assert calibrate_noise_privacy_rff(1, 4, 1, 100) == pytest.approx(2**3.5 / 100, rel=1e-12)
    base = calibrate_noise_privacy_rff(1, 4, 1, 100)
    assert calibrate_noise_privacy_rff(1, 16, 1, 100) == pytest.approx(2 * base, rel=1e-12)
    assert calibrate_noise_privacy_rff(1, 4, 2, 100) == pytest.approx(base / 2, rel=1e-12)
    assert calibrate_noise_privacy_rff(3, 7, 0.7, 90) == sensitivity_rff(3, 7, 90) / 0.7
    with pytest.raises(ValueError):
        sensitivity_rff(1, 4, 1)


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


def test_calibration_report_rff_beta_achievable():
    # the best beta the rff mechanism certifies at an (eps, delta) target:
    # lambda at the utility ceiling, beta = sensitivity_rff / lambda
    eps, delta, C, n, d = 1.0, 0.1, 1.0, 100, 2
    sigma_p, diam = math.sqrt(2.0), 2.0
    report = calibration_report_rff(1.0, eps, delta, C, n, d, sigma_p, diam)
    lam_max = calibrate_noise_utility_rff(eps, delta, report.d_hat)
    assert report.lambda_max_utility == lam_max
    assert report.beta_achievable == pytest.approx(
        2**2.5 * C * math.sqrt(report.d_hat) / (lam_max * n), rel=1e-12
    )

    bigger_n = calibration_report_rff(1.0, eps, delta, C, 1000, d, sigma_p, diam)
    assert bigger_n.beta_achievable < report.beta_achievable

    tighter_eps = calibration_report_rff(1.0, 0.5, delta, C, n, d, sigma_p, diam)
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
    claimed = {"beta": 1.0, "epsilon": 0.5, "delta": 0.1}
    model = train_private_finite(
        two_point_db(), 2.0, 0.1, np.random.default_rng(0), claimed=claimed
    )
    assert model.claimed == claimed


@pytest.mark.parametrize("key", ["seed", "n", "L"])
def test_release_refuses_other_claimed_keys(key):
    # a claim is beta, epsilon and delta only: a "seed" key would be written
    # into the file and regenerate the noise
    db, claimed = two_point_db(), {"beta": 1.0, key: 7}
    fmap = RandomFeatureMap.from_rng(rbf_kernel(1.0), 2, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"not {key}$"):
        train_private_finite(db, 1.0, 0.1, np.random.default_rng(0), claimed=claimed)
    with pytest.raises(ValueError, match=f"not {key}$"):
        train_private_rff(db, fmap, 1.0, 0.1, np.random.default_rng(0), claimed=claimed)
