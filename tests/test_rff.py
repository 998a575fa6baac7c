import math

import numpy as np
import pytest

from privsvm.data import DomainBox
from privsvm.kernels import cauchy_kernel, laplacian_kernel, linear_kernel, rbf_kernel
from privsvm.rff import (
    CalibrationError,
    RandomFeatureMap,
    approx_failure_bound,
    calibrate_rff_dim,
    displacement_kernel,
    feature_matrix,
    grid_values,
)


def _map(d_hat=8, dim=2, seed=1, kernel=None):
    rng = np.random.default_rng(seed)
    return RandomFeatureMap.from_rng(kernel or rbf_kernel(1.0), dim, d_hat, rng)


def _features(m, x):
    # the feature vector of one point: a one-row feature matrix
    return feature_matrix(m, x[None, :])[0]


def _kernel(m, x, y):
    # the kernel estimate for one pair: displacement_kernel of one row
    return displacement_kernel(m, (x - y)[None, :])[0]


def test_features_at_origin():
    m = _map()
    phi = _features(m, np.zeros(2))
    expected = np.zeros(16)
    expected[0::2] = 8**-0.5
    assert np.array_equal(phi, expected)


def test_features_unit_norm():
    m = _map(d_hat=13)
    rng = np.random.default_rng(2)
    for _ in range(20):
        phi = _features(m, rng.standard_normal(2) * 3)
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-12)


def test_features_single_vector_quarter_turn():
    m = RandomFeatureMap(np.array([[math.pi, 0.0]]), rbf_kernel(1.0))
    phi = _features(m, np.array([0.5, 0.0]))
    assert phi[0] == pytest.approx(0.0, abs=1e-12)  # cos(pi/2)
    assert phi[1] == pytest.approx(1.0, abs=1e-12)  # sin(pi/2)


def test_feature_order_is_interleaved_cos_sin():
    m = _map(d_hat=5)
    x = np.array([0.3, -1.2])
    z = m.omegas @ x
    phi = _features(m, x)
    assert np.array_equal(phi[0::2], np.cos(z) * 5**-0.5)
    assert np.array_equal(phi[1::2], np.sin(z) * 5**-0.5)


def test_kernel_self_value_is_exactly_one():
    rng = np.random.default_rng(9)
    for seed in range(5):
        m = _map(d_hat=64, seed=seed)
        for _ in range(10):
            x = rng.standard_normal(2)
            assert displacement_kernel(m, (x - x)[None, :])[0] == 1.0


def test_kernel_matches_feature_inner_product():
    m = _map(d_hat=32)
    rng = np.random.default_rng(12)
    for _ in range(20):
        x, y = rng.standard_normal((2, 2))
        direct = _kernel(m, x, y)
        via_features = float(_features(m, x) @ _features(m, y))
        assert direct == pytest.approx(via_features, abs=1e-12)
        assert direct == _kernel(m, y, x)
        assert abs(direct) <= 1.0


def test_displacement_kernel_rowwise_matches_one_row_calls():
    # the one random-feature kernel estimate, for many rows or for one pair
    m = _map(d_hat=32, dim=3)
    rng = np.random.default_rng(13)
    X, Y = rng.standard_normal((2, 6, 3))
    rows = displacement_kernel(m, X - Y)
    assert rows.shape == (6,)
    pairwise = [_kernel(m, x, y) for x, y in zip(X, Y)]
    assert np.allclose(rows, pairwise, rtol=0, atol=1e-15)
    assert np.all(displacement_kernel(m, np.zeros((4, 3))) == 1.0)


def _rowwise(f, points, rows=1 << 16):
    # f over the rows of points in slices, so a 130^3 grid stays small in memory
    return np.concatenate([f(points[i:i + rows]) for i in range(0, len(points), rows)])


@pytest.mark.parametrize("kernel", [rbf_kernel(0.7), laplacian_kernel(), cauchy_kernel()],
                         ids=["rbf", "laplacian", "cauchy"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("G", [2, 11, 51, 130])
def test_grid_values_match_pointwise_forms(kernel, d, G):
    # 130 points per axis cross the re-anchoring interval twice, off its multiples
    d_hat = 9
    m = _map(d_hat=d_hat, dim=d, seed=10 * d + G, kernel=kernel)
    box = DomainBox(np.array([-1.0, -0.5, 0.0])[:d], np.array([1.0, 2.0, 0.75])[:d])
    displacements = box.displacement_box()
    deltas = displacements.grid(G)
    kernel_grid = grid_values(m, np.ones(d_hat), displacements, G) / d_hat
    expected = _rowwise(lambda rows: displacement_kernel(m, rows), deltas)
    assert np.max(np.abs(kernel_grid - expected)) <= 1e-12
    zero = np.flatnonzero(np.all(deltas == 0.0, axis=1))
    assert zero.size == G % 2
    assert np.all(kernel_grid[zero] == 1.0)

    w = np.random.default_rng(G).standard_normal(2 * d_hat)
    coeffs = (w[0::2] - 1j * w[1::2]) / math.sqrt(d_hat)
    model_grid = grid_values(m, coeffs, box, G)
    expected = _rowwise(lambda rows: feature_matrix(m, rows) @ w, box.grid(G))
    assert np.max(np.abs(model_grid - expected)) <= 1e-12


def test_grid_values_validation():
    m = _map(d_hat=4, dim=2)
    box = DomainBox(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="resolution"):
        grid_values(m, np.ones(4), box, 1)
    with pytest.raises(ValueError, match="dimension"):
        grid_values(m, np.ones(4), DomainBox(np.zeros(3), np.ones(3)), 5)
    with pytest.raises(ValueError, match="length 4"):
        grid_values(m, np.ones(3), box, 5)


def test_kernel_monte_carlo_convergence():
    m = _map(d_hat=4000, dim=1, seed=42)
    approx = _kernel(m, np.array([1.0]), np.array([0.0]))
    oracle = float(np.cos(m.omegas[:, 0] * 1.0).mean())
    assert approx == pytest.approx(oracle, abs=1e-12)
    assert abs(approx - math.exp(-0.5)) <= 0.05


def test_gram_matches_pointwise_and_feature_path():
    m = _map(d_hat=16)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 2))
    B = rng.standard_normal((3, 2))
    G = feature_matrix(m, A) @ feature_matrix(m, B).T
    for i in range(4):
        for j in range(3):
            assert G[i, j] == pytest.approx(_kernel(m, A[i], B[j]), abs=1e-12)


def test_deterministic_rebuild():
    a = _map(d_hat=40, dim=3, seed=2024, kernel=laplacian_kernel())
    b = _map(d_hat=40, dim=3, seed=2024, kernel=laplacian_kernel())
    assert np.array_equal(a.omegas, b.omegas)
    assert a == b


def test_map_rejects_linear_kernel():
    with pytest.raises(ValueError):
        RandomFeatureMap(np.ones((2, 2)), linear_kernel())


def test_dimension_checks():
    m = _map()
    with pytest.raises(ValueError):
        feature_matrix(m, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        feature_matrix(m, np.zeros(2))
    with pytest.raises(ValueError):
        displacement_kernel(m, np.zeros((1, 3)))


def test_calibrate_dim_examples():
    assert calibrate_rff_dim(0.5, 0.5, 1, 1.0, 1.0) == 366
    assert calibrate_rff_dim(0.25, 0.5, 1, 1.0, 1.0) > 366
    assert calibrate_rff_dim(0.5, 0.5, 1, 1.0, 2.0) == 433


def test_calibrate_dim_formula():
    eps, delta, d, sigma_p, diam = 0.3, 0.1, 3, 1.7, 2.2
    bound = (4 * (d + 2) / eps**2) * math.log(2**8 * (sigma_p * diam) ** 2 / (delta * eps**2))
    assert calibrate_rff_dim(eps, delta, d, sigma_p, diam) == math.ceil(bound)


def test_calibrate_dim_inverts_failure_bound():
    # the smallest d_hat whose forward failure bound reaches delta; the 1e-12
    # slack covers rounding in the two closed forms
    for eps in (0.05, 0.3, 1.0):
        for delta in (1e-3, 0.1, 0.9):
            for d in (1, 3):
                for sigma_p in (0.5, 1.7):
                    for diam in (0.1, 2.2):
                        d_hat = calibrate_rff_dim(eps, delta, d, sigma_p, diam)
                        bound = approx_failure_bound(eps, d_hat, d, sigma_p**2, diam)
                        assert bound <= delta * (1 + 1e-12)
                        if d_hat > 1:
                            below = approx_failure_bound(eps, d_hat - 1, d, sigma_p**2, diam)
                            assert below > delta * (1 - 1e-12)


def test_calibrate_dim_rejects_infinite_moment():
    with pytest.raises(CalibrationError, match="manually"):
        calibrate_rff_dim(0.5, 0.5, 1, math.inf, 1.0)
    assert approx_failure_bound(0.5, 10**6, 1, math.inf, 1.0) == math.inf


def test_calibrate_dim_domain():
    with pytest.raises(ValueError):
        calibrate_rff_dim(0.0, 0.5, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        calibrate_rff_dim(0.5, 1.0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        calibrate_rff_dim(0.5, 0.5, 1, 1.0, 0.0)


def test_uniform_approximation_rate():
    # at the calibrated dimension the sup error rarely reaches eps
    eps = delta = 0.5
    d_hat = calibrate_rff_dim(eps, delta, 1, 1.0, 1.0)
    grid = np.linspace(-1.0, 1.0, 51)
    truth = np.exp(-0.5 * grid**2)
    failures = 0
    for seed in range(50):
        m = _map(d_hat=d_hat, dim=1, seed=seed)
        approx = np.cos(grid[:, None] * m.omegas[:, 0][None, :]).mean(axis=1)
        if np.max(np.abs(approx - truth)) >= eps:
            failures += 1
    assert failures / 50 <= delta
