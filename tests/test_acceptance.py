"""End-to-end acceptance checks.

Each test is one criterion, run at its stated tolerance; the terminal summary
prints one PASS/FAIL line per criterion (see conftest.py).
"""

import math
import time

import numpy as np
import pytest

from privsvm.audit import (
    kernel_approx_audit,
    linear_separation_pair,
    packing_separation_audit,
    privacy_ratio_audit,
    sensitivity_audit,
    utility_audit,
)
from privsvm.data import Database, DomainBox
from privsvm.kernels import linear_kernel, rbf_kernel
from privsvm.mechanisms import (
    calibrate_noise_privacy_finite,
    calibrate_noise_privacy_rff,
    calibrate_noise_utility_finite,
    calibrate_noise_utility_rff,
    optimal_dp_lower_bound_linear,
    optimal_dp_lower_bound_rbf,
    train_private_finite,
    train_private_rff,
)
from privsvm.model_io import load_model, model_to_doc, save_model
from privsvm.noise import erlang_tail_probability, sample_laplace
from privsvm.rff import RandomFeatureMap, calibrate_rff_dim, displacement_kernel
from privsvm.solver import solve_svm_dual

from test_solver import brute_force_dual_max

pytestmark = pytest.mark.acceptance


@pytest.mark.acceptance
def test_linear_pair_closed_form_weights():
    # C=1, n=10, eps=0.04: weights 0.68 / 0.76, gap exactly 2*eps; under 1 s
    start = time.perf_counter()
    fam = linear_separation_pair(1.0, 10, 0.04)
    weights = []
    for db in fam.databases:
        model = solve_svm_dual(db, linear_kernel(), 1.0)
        weights.append(float((db.points.T @ (model.alphas * db.labels))[0]))
    assert abs(weights[0] - 0.68) <= 1e-6
    assert abs(weights[1] - 0.76) <= 1e-6
    assert abs(abs(weights[0] - weights[1]) - 0.08) <= 1e-6
    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance
def test_sensitivity_bound_random_pairs():
    # 500 random neighbour pairs, d=2, n=20, C=1, box [-1,1]^2: no violation
    start = time.perf_counter()
    box = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    report = sensitivity_audit(trials=500, n=20, C=1.0, box=box, seed=20240)
    assert report.passed
    assert report.statistic <= report.bound
    assert report.bound == pytest.approx(4.0 * math.sqrt(2.0) * math.sqrt(2.0) / 20)
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance
def test_calibration_arithmetic():
    assert calibrate_noise_privacy_finite(1, 1, 4, 1, 100) == pytest.approx(
        0.08, rel=1e-12
    )
    assert calibrate_noise_privacy_rff(1, 4, 1, 100) == pytest.approx(
        2.0**3.5 / 100.0, rel=1e-12
    )
    assert calibrate_noise_utility_rff(1.0, 0.2, 4) == pytest.approx(
        1.0 / (32.0 * math.log(2.0)), rel=1e-12
    )
    assert calibrate_rff_dim(0.5, 0.5, 1, 1.0, 1.0) == 366


@pytest.mark.acceptance
def test_rff_identity_and_uniform_approximation():
    start = time.perf_counter()
    # self-similarity is exact for 100 random points across random maps
    rng = np.random.default_rng(404)
    for trial in range(100):
        m = RandomFeatureMap.from_rng(rbf_kernel(1.0), 2, 16, np.random.default_rng(trial))
        x = rng.uniform(-5.0, 5.0, 2)
        assert displacement_kernel(m, (x - x)[None, :])[0] == 1.0
    # calibrated dimension keeps the grid sup-error under 0.25 in >= 75% of draws
    eps = delta = 0.25
    d_hat = calibrate_rff_dim(eps, delta, 1, 1.0, 2.0)
    box = DomainBox(np.array([-1.0]), np.array([1.0]))
    report = kernel_approx_audit(
        rbf_kernel(1.0), d_hat, box, eps, trials=200, grid_resolution=51, seed=505
    )
    assert report.statistic <= 0.25
    assert time.perf_counter() - start < 120.0


@pytest.mark.acceptance
def test_finite_mechanism_utility_monte_carlo():
    # fixed 40-point 2-D dataset, lambda at the utility ceiling for
    # (eps=0.5, delta=0.1): empirical sup-norm failure rate <= 0.1
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    points = rng.uniform(-1.0, 1.0, (40, 2))
    labels = np.where(points[:, 0] + points[:, 1] > 0.0, 1.0, -1.0)
    db = Database(points, labels)
    lam = calibrate_noise_utility_finite(0.5, 0.1, 1.0, 2)
    box = DomainBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    report = utility_audit(
        db, linear_kernel(), C=1.0, lam=lam, eps=0.5, delta=0.1, trials=500,
        grid_resolution=None, seed=606, box=box,
    )
    assert report.statistic <= 0.1
    assert report.details["hinge_transfer_ok"]
    assert time.perf_counter() - start < 120.0


@pytest.mark.acceptance
def test_noise_distribution_and_erlang_tails():
    draws = sample_laplace(2.0, 10**5, np.random.default_rng(7070))
    assert 7.6 <= float(draws.var()) <= 8.4

    trials = 10**5
    scale = 1.0
    for q in (1, 2, 8):
        rng = np.random.default_rng(8000 + q)
        norms = np.abs(sample_laplace(scale, trials * q, rng).reshape(trials, q)).sum(axis=1)
        for t in (0.5 * q * scale, 1.0 * q * scale, 2.0 * q * scale):
            empirical = float((norms > t).mean())
            analytic = erlang_tail_probability(q, scale, t)
            assert abs(empirical - analytic) <= 0.01


@pytest.mark.acceptance
def test_rbf_packing_separation():
    # C=1, n=8, sigma=0.3: 11 databases, every last coefficient 0.125, and the
    # smallest pairwise decision gap at least 1/16
    start = time.perf_counter()
    report = packing_separation_audit(1.0, 8, 0.3)
    assert report.details["N"] == 11
    assert abs(report.details["alpha_last_min"] - 0.125) <= 1e-6
    assert abs(report.details["alpha_last_max"] - 0.125) <= 1e-6
    assert report.statistic >= 0.0625 - 1e-6
    assert report.passed
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance
def test_lower_bound_formulas():
    assert optimal_dp_lower_bound_linear(0.05) == pytest.approx(math.log(19.0), rel=1e-12)
    N, bound = optimal_dp_lower_bound_rbf(0.05, 0.3)
    assert N == 11
    assert bound == pytest.approx(math.log(190.0), rel=1e-12)


@pytest.mark.acceptance
def test_solver_oracle_equivalence():
    # 100 random three-point instances against the exhaustive grid oracle
    rng = np.random.default_rng(909)
    for _ in range(100):
        points = rng.uniform(-1.0, 1.0, (3, 2))
        labels = rng.choice([-1.0, 1.0], 3)
        db = Database(points, labels)
        kernel = rbf_kernel(float(rng.uniform(0.5, 2.0))) if rng.random() < 0.5 else linear_kernel()
        model = solve_svm_dual(db, kernel, 1.0)
        assert model.residual <= 1e-8
        assert model.objective >= brute_force_dual_max(db, kernel, 1.0) - 1e-4


@pytest.mark.acceptance
def test_release_contract_round_trip(tmp_path):
    rng = np.random.default_rng(111)
    db = Database(rng.uniform(-1, 1, (10, 2)), rng.choice([-1.0, 1.0], 10))
    finite = train_private_finite(db, 1.0, 0.3, np.random.default_rng(1))
    gen = np.random.default_rng(2)
    rff = train_private_rff(db, RandomFeatureMap.from_rng(rbf_kernel(1.0), 2, 16, gen), 1.0, 0.3, gen)
    for name, model in (("finite", finite), ("rff", rff)):
        doc = model_to_doc(model)
        assert "alphas" not in doc
        assert "entries" not in doc
        assert "seed" not in doc
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded == model


@pytest.mark.acceptance
def test_privacy_ratio_smoke_test():
    # smoke test only: finite samples bound nothing, but at the calibrated
    # noise the binned log-ratio must stay within beta plus documented slack
    start = time.perf_counter()
    fam = linear_separation_pair(1.0, 10, 0.04)
    d1, d2 = fam.databases
    beta = 1.0
    lam = calibrate_noise_privacy_finite(1.0, 0.8, 1, beta, 10)
    report = privacy_ratio_audit(
        d1, d2, C=1.0, lam=lam, beta=beta, trials=10**5, bins=40, coordinate_index=0, seed=313,
        box=DomainBox(np.array([-0.8]), np.array([0.8])),  # the pair reaches +-0.8
    )
    assert report.passed
    assert report.statistic <= beta + report.details["slack"]
    assert time.perf_counter() - start < 120.0
