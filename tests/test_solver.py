import numpy as np
import pytest

from privsvm.audit import child_rng
from privsvm.data import Database
from privsvm.kernels import (
    cauchy_kernel, gram, kernel_eval, laplacian_kernel, linear_kernel, rbf_kernel,
)
from privsvm.mechanisms import PrivateModel
from privsvm.rff import RandomFeatureMap, feature_matrix
from privsvm.solver import (
    _DEGENERATE_DIAG,
    ConvergenceError,
    decision_values,
    gram_any,
    kkt_residual,
    primal_weights,
    solve_svm_dual,
)


def two_point_db():
    return Database(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))


def independent_q(db, kernel):
    """Q = (y y^T) * K from kernels.gram, or from the feature matrix for random features."""
    if isinstance(kernel, RandomFeatureMap):
        phi = feature_matrix(kernel, db.points)
        K = phi @ phi.T
    else:
        K = gram(kernel, db.points)
    return (db.labels[:, None] * db.labels[None, :]) * K


def brute_force_dual_max(db, kernel, C, step=1e-3):
    """Grid maximum of the dual objective over the box, for n == 3 instances.

    Independent check of the solver: evaluates the objective at every grid
    point (multiples of `step`, plus the box corner value C/n on each axis)
    and returns the largest value found.
    """
    assert db.n == 3
    Q = independent_q(db, kernel)
    ub = C / db.n
    g = np.arange(0.0, ub + step / 2, step)
    if g[-1] < ub:
        g = np.append(g, ub)
    c1 = g - 0.5 * Q[0, 0] * g**2
    base = (
        (g - 0.5 * Q[1, 1] * g**2)[:, None]
        + (g - 0.5 * Q[2, 2] * g**2)[None, :]
        - Q[1, 2] * np.outer(g, g)
    )
    slope = Q[0, 1] * g[:, None] + Q[0, 2] * g[None, :]
    buf = np.empty_like(base)
    best = -np.inf
    for i, a1 in enumerate(g):
        np.multiply(slope, -a1, out=buf)
        buf += base
        best = max(best, buf.max() + c1[i])
    return float(best)


def mask_residual(alphas, grad, upper):
    """Reference KKT residual: interior, lower-bound and upper-bound violations taken separately."""
    at_lower = alphas <= 0.0
    at_upper = alphas >= upper
    interior = ~(at_lower | at_upper)
    return max(
        float(np.max(np.abs(grad[interior]), initial=0.0)),
        float(np.max(grad[at_lower], initial=0.0)),
        float(np.max(-grad[at_upper], initial=0.0)),
    )


def full_cycle_dual(Q, upper, tol=1e-8, max_sweeps=10**6):
    """Reference solver: the coordinate-ascent loop visiting every coordinate 1..n each sweep.

    Returns the dual objective at its exit point, evaluated with Q.
    """
    n = len(Q)
    diag = np.diag(Q)
    alphas = np.zeros(n)
    q = np.zeros(n)
    for sweep in range(1, max_sweeps + 1):
        for i in range(n):
            g = 1.0 - q[i]
            if diag[i] <= _DEGENERATE_DIAG:
                new = upper if g > 0 else (0.0 if g < 0 else alphas[i])
            else:
                new = alphas[i] + g / diag[i]
                if new < 0.0:
                    new = 0.0
                elif new > upper:
                    new = upper
            step = new - alphas[i]
            if step != 0.0:
                alphas[i] = new
                q += step * Q[:, i]
        if sweep % 64 == 0:
            q = Q @ alphas
        if mask_residual(alphas, 1.0 - q, upper) <= tol:
            return float(alphas.sum() - 0.5 * (alphas @ (Q @ alphas)))
    raise AssertionError(f"reference loop did not converge in {max_sweeps} sweeps")


def assert_matches_reference(db, kernel, C, tol=1e-8, max_sweeps=10**6):
    """The solver and the full-cycle reference reach the same dual optimum.

    With every projected gradient |pg_i| <= tol and every |a*_i - a_i| <= C/n,
    concavity gives D* - D(a) <= sum_i pg_i (a*_i - a_i) <= C * tol, so both
    objectives lie within C * tol of D* and of each other.
    """
    Q = independent_q(db, kernel)
    upper = C / db.n
    model = solve_svm_dual(db, kernel, C, tol=tol, max_sweeps=max_sweeps)
    assert mask_residual(model.alphas, 1.0 - Q @ model.alphas, upper) <= tol
    objective = float(model.alphas.sum() - 0.5 * (model.alphas @ (Q @ model.alphas)))
    assert abs(objective - full_cycle_dual(Q, upper, tol)) <= C * tol
    return model


def face_instance():
    """train-exact's shape at n=100: rbf sigma=1, C=1000, about 28 free coefficients."""
    rng = np.random.default_rng(0)
    db = Database(rng.uniform(-1, 1, (100, 4)), rng.choice([-1.0, 1.0], 100))
    return db, rbf_kernel(1.0), 1000.0


def random_instance(rng, n=3, d=2, C=1.0):
    points = rng.uniform(-1.0, 1.0, (n, d))
    labels = rng.choice([-1.0, 1.0], n)
    kernel = rbf_kernel(float(rng.uniform(0.5, 2.0))) if rng.random() < 0.5 else linear_kernel()
    return Database(points, labels), kernel, C


def test_two_point_solution():
    # hand/grid-checked optimum: alpha sums to 1, objective 1/2, weights (1, 0)
    model = solve_svm_dual(two_point_db(), linear_kernel(), C=2.0, tol=1e-8)
    assert model.alphas.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(model.alphas >= 0.0) and np.all(model.alphas <= 1.0)
    assert model.objective == pytest.approx(0.5, abs=1e-12)
    assert model.residual <= 1e-8
    w = primal_weights(model)
    assert np.allclose(w, [1.0, 0.0], atol=1e-12)


def test_vanishing_c_collapses_to_zero():
    model = solve_svm_dual(two_point_db(), linear_kernel(), C=1e-12)
    assert np.all(model.alphas <= 1e-12 / 2)
    w = primal_weights(model)
    assert np.linalg.norm(w) <= 2e-12


def test_packing_member_alpha_at_bound():
    # one positive point on the circle against seven at the origin pins the
    # last coefficient at C/n
    n = 8
    points = np.zeros((n, 2))
    points[-1] = (np.cos(2 * np.pi / 11), np.sin(2 * np.pi / 11))
    labels = np.full(n, -1.0)
    labels[-1] = 1.0
    model = solve_svm_dual(Database(points, labels), rbf_kernel(0.3), C=1.0)
    assert model.alphas[-1] == pytest.approx(0.125, abs=1e-9)


def test_decision_values_examples():
    model = solve_svm_dual(two_point_db(), linear_kernel(), C=2.0)
    vals = decision_values(model, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert vals[0] == pytest.approx(1.0, abs=1e-9)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)
    zero = solve_svm_dual(two_point_db(), linear_kernel(), C=1e-12)
    assert decision_values(zero, np.array([[0.3, 0.7]]))[0] == pytest.approx(0.0, abs=1e-12)
    # each row against the pointwise sum a_i y_i k(x, x_i)
    rng = np.random.default_rng(6)
    db = Database(rng.uniform(-1, 1, (8, 2)), rng.choice([-1.0, 1.0], 8))
    model = solve_svm_dual(db, rbf_kernel(1.1), 1.5)
    X = rng.uniform(-1, 1, (7, 2))
    vals = decision_values(model, X)
    coef = model.alphas * db.labels
    for i in range(7):
        expected = sum(c * kernel_eval(rbf_kernel(1.1), X[i], p) for c, p in zip(coef, db.points))
        assert vals[i] == pytest.approx(expected, abs=1e-12)


def test_primal_dual_consistency_linear():
    # the released primal classifier <w, phi(x)> equals the dual one, for the
    # linear kernel's map and for a random feature map
    rng = np.random.default_rng(31)
    fmap = RandomFeatureMap.draw(rbf_kernel(1.0), 2, 16, seed=4)
    maps = (linear_kernel(), fmap)
    for _ in range(10):
        db, _, C = random_instance(rng, n=6)
        X = rng.uniform(-1, 1, (5, 2))
        for feature_map in maps:
            model = solve_svm_dual(db, feature_map, C)
            released = PrivateModel(
                primal_weights(model), feature_map, C, 1.0, n=db.n, dim=db.dim
            )
            assert np.allclose(
                released.decision_values(X), decision_values(model, X), rtol=0, atol=1e-9
            )
    with pytest.raises(ValueError, match="no finite feature map"):
        primal_weights(solve_svm_dual(db, rbf_kernel(1.0), C))


@pytest.mark.parametrize("decide", [
    decision_values,
    lambda model, X: PrivateModel(
        primal_weights(model), linear_kernel(), 2.0, 1.0, n=2, dim=2
    ).decision_values(X),
], ids=["solver", "private_model"])
@pytest.mark.parametrize("X", [np.zeros(2), np.zeros((2, 3)), np.zeros((1, 1, 2))],
                         ids=["1d", "wrong_width", "3d"])
def test_decision_values_rejects_bad_shape(decide, X):
    model = solve_svm_dual(two_point_db(), linear_kernel(), C=2.0)
    with pytest.raises(ValueError, match="array"):
        decide(model, X)


@pytest.mark.parametrize("kernel", [
    linear_kernel(), rbf_kernel(0.7), laplacian_kernel(), cauchy_kernel(),
    RandomFeatureMap.draw(rbf_kernel(1.0), 3, 40, seed=5),
], ids=["linear", "rbf", "laplacian", "cauchy", "rff"])
@pytest.mark.parametrize("n", [2, 7, 1000])
def test_gram_any_is_exactly_symmetric(kernel, n):
    # the solver builds Q in place from the Gram's transpose
    A = np.random.default_rng(n).uniform(-2, 2, (n, 3))
    G = gram_any(kernel, A)
    assert np.array_equal(G, G.T)


def test_oracle_equivalence_small_instances():
    rng = np.random.default_rng(101)
    for _ in range(10):
        db, kernel, C = random_instance(rng)
        model = solve_svm_dual(db, kernel, C)
        assert model.residual <= 1e-8
        assert model.objective >= brute_force_dual_max(db, kernel, C) - 1e-4


@pytest.mark.parametrize("kernel", [
    linear_kernel(), rbf_kernel(0.7), laplacian_kernel(), cauchy_kernel(),
    RandomFeatureMap.draw(rbf_kernel(1.0), 3, 40, seed=5),
], ids=["linear", "rbf", "laplacian", "cauchy", "rff"])
@pytest.mark.parametrize("C", [1.0, 100.0, 1000.0])
def test_active_set_matches_full_cycle_reference(kernel, C):
    rng = np.random.default_rng(int(C))
    db = Database(rng.uniform(-1, 1, (40, 3)), rng.choice([-1.0, 1.0], 40))
    assert_matches_reference(db, kernel, C)


def test_monotone_objective_trace():
    rng = np.random.default_rng(17)
    for db, kernel, C in [random_instance(rng, n=12) for _ in range(5)] + [face_instance()]:
        model = solve_svm_dual(db, kernel, C)
        trace = model.objective_trace
        assert len(trace) == model.sweeps
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-10


def test_feasibility_after_every_sweep():
    rng = np.random.default_rng(0)
    db = Database(rng.uniform(-1, 1, (30, 2)), rng.choice([-1.0, 1.0], 30))
    full = solve_svm_dual(db, rbf_kernel(0.5), C=10.0)
    assert full.sweeps >= 5
    for cap in range(1, 5):
        with pytest.raises(ConvergenceError) as info:
            solve_svm_dual(db, rbf_kernel(0.5), C=10.0, max_sweeps=cap)
        err = info.value
        assert np.all(err.alphas >= 0.0)
        assert np.all(err.alphas <= 10.0 / 30 + 1e-15)
        assert err.residual > 1e-8
        assert err.sweeps == cap


def test_solver_determinism():
    rng = np.random.default_rng(8)
    small = Database(rng.uniform(-1, 1, (15, 2)), rng.choice([-1.0, 1.0], 15))
    for db, kernel, C in [(small, rbf_kernel(0.8), 1.0), face_instance()]:
        a = solve_svm_dual(db, kernel, C)
        b = solve_svm_dual(db, kernel, C)
        assert np.array_equal(a.alphas, b.alphas)
        assert a.objective == b.objective
        assert a.sweeps == b.sweeps
        assert a.objective_trace == b.objective_trace


def test_label_flip_negates_weights():
    rng = np.random.default_rng(14)
    db = Database(rng.uniform(-1, 1, (10, 2)), rng.choice([-1.0, 1.0], 10))
    flipped = Database(db.points, -db.labels)
    w = primal_weights(solve_svm_dual(db, linear_kernel(), 1.0))
    w_flipped = primal_weights(solve_svm_dual(flipped, linear_kernel(), 1.0))
    assert np.allclose(w, -w_flipped, atol=1e-12)


def test_degenerate_diagonal_handled():
    # a point at the origin makes its linear-kernel diagonal zero; its dual
    # gradient stays 1 so the coefficient must sit at the upper bound
    db = Database(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
    model = solve_svm_dual(db, linear_kernel(), C=2.0)
    assert model.alphas[0] == pytest.approx(1.0, abs=1e-12)
    assert model.residual <= 1e-8


@pytest.mark.parametrize("C", [100.0, 1000.0])
def test_degenerate_coordinates_enter_and_leave_active_set(C):
    # points at the origin have a zero linear-kernel row, so their gradient
    # is 1 throughout: each must enter on the first sweep, reach C/n exactly,
    # and then drop out of the sweeps while the other coordinates converge
    rng = np.random.default_rng(23)
    points = rng.uniform(-1, 1, (12, 2))
    points[[0, 5, 11]] = 0.0
    labels = rng.choice([-1.0, 1.0], 12)
    db = Database(points, labels)
    assert np.all(np.diag(independent_q(db, linear_kernel()))[[0, 5, 11]] <= _DEGENERATE_DIAG)
    with pytest.raises(ConvergenceError) as info:
        solve_svm_dual(db, linear_kernel(), C, max_sweeps=1)
    assert np.all(info.value.alphas[[0, 5, 11]] == C / 12)
    model = assert_matches_reference(db, linear_kernel(), C)
    assert np.all(model.alphas[[0, 5, 11]] == C / 12)


def test_face_step_reaches_face_optimum():
    # once the bound set settles, one linear solve on the ~28 free coefficients
    # lands on the face's exact optimum; coordinate ascent alone stops near tol
    db, kernel, C = face_instance()
    model = assert_matches_reference(db, kernel, C)
    Q = independent_q(db, kernel)
    assert mask_residual(model.alphas, 1.0 - Q @ model.alphas, C / db.n) <= 1e-12


def test_face_step_survives_cycling_and_singular_faces():
    # a sensitivity-audit trial (linear kernel, d=2) whose singular 3-coordinate
    # face made an unguarded face step cycle forever; the ascent test stops it
    rng = child_rng(5083645093440689066, 49)
    points = rng.uniform(-1, 1, (50, 2))
    labels = rng.integers(0, 2, size=50) * 2.0 - 1.0
    shift = int(rng.integers(0, 50))
    db = Database(np.roll(points, shift, axis=0), np.roll(labels, shift))
    assert_matches_reference(db, linear_kernel(), 10.0, max_sweeps=1000)
    # every point twice: both copies of two points end free, so the face
    # matrix has two pairs of identical columns and the face solve must be skipped
    rng = np.random.default_rng(1)
    points = np.tile(rng.uniform(-1, 1, (6, 2)), (2, 1))
    labels = np.tile(rng.choice([-1.0, 1.0], 6), 2)
    db = Database(points, labels)
    model = assert_matches_reference(db, linear_kernel(), 100.0, max_sweeps=1000)
    free = np.flatnonzero((model.alphas > 0.0) & (model.alphas < 100.0 / 12))
    assert free.tolist() == [0, 2, 6, 8]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(independent_q(db, linear_kernel())[np.ix_(free, free)], np.ones(4))


def test_kkt_residual_matches_mask_definition():
    # coefficients exactly at 0, at C/n and inside, gradients of both signs
    rng = np.random.default_rng(41)
    for _ in range(200):
        alphas = rng.choice([0.0, 0.5, 0.999, 1.0], 9)
        grad = rng.choice([-1.0, 0.0, 1.0], 9) * rng.uniform(0, 2, 9)
        assert kkt_residual(alphas, grad, 1.0) == mask_residual(alphas, grad, 1.0)


def test_kkt_residual_directionality():
    alphas = np.array([0.0, 0.5, 1.0])
    grad = np.array([-0.3, 0.0, 0.2])
    assert kkt_residual(alphas, grad, 1.0) == 0.0
    assert kkt_residual(np.array([0.0, 0.5, 1.0]), np.array([0.3, 0.0, 0.2]), 1.0) == pytest.approx(0.3)
    assert kkt_residual(np.array([0.0, 0.5, 1.0]), np.array([-0.3, 0.0, -0.2]), 1.0) == pytest.approx(0.2)
    assert kkt_residual(np.array([0.0, 0.6, 1.0]), np.array([-0.3, -0.05, 0.2]), 1.0) == pytest.approx(0.05)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        solve_svm_dual(two_point_db(), linear_kernel(), C=0.0)
    with pytest.raises(ValueError):
        solve_svm_dual(two_point_db(), linear_kernel(), C=1.0, tol=0.0)
