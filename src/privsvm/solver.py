"""Hinge-loss SVM training via cyclic projected coordinate ascent on the dual.

The dual maximizes sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j k(x_i, x_j) over the
box 0 <= a_i <= C/n. There is no equality constraint (the primal carries no
bias term), so single-coordinate updates are exact. The first sweep visits
every coordinate in the order 1..n; each later sweep visits, in increasing
index order, only the coordinates that can move: the interior ones and those
at a bound whose gradient points into the box. That set is recomputed after
every sweep from the full gradient, and the stopping test is the
full-coordinate KKT residual, so skipping a coordinate never hides a
violation. The order depends only on the inputs, which keeps solutions
bit-stable across runs.

Coordinate ascent settles which coefficients sit at a bound long before it
converges on the free ones, where it converges only linearly. So after a
sweep that leaves the same free set F (coefficients strictly inside the box)
as the sweep before, and F is not the face last tried, the solver takes one
face step: it solves Q_FF d = g_F for the free coefficients, with g = 1 - Q a
and every bound coefficient held, and moves toward a_F + d as far as the box
allows. The step is kept only if the dual objective strictly increases, so
every iterate is still an ascent step; without that test a singular face
system can make the sweeps and the steps undo each other forever. When the
face is the optimal one the step lands on its exact optimum, so the exit
residual is often far below tol.

The solver knows only exact kernels (KernelSpec). A finite feature map, such
as random features, is trained as the linear kernel on its feature matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data import Database
from .kernels import KernelSpec

__all__ = [
    "ConvergenceError",
    "SvmModel",
    "solve_svm_dual",
    "kkt_residual",
    "primal_weights",
    "decision_values",
]

_DEGENERATE_DIAG = 1e-15


class ConvergenceError(RuntimeError):
    """Solver hit the sweep limit; carries the best iterate and its residual."""

    def __init__(self, message, alphas, residual, objective, sweeps):
        super().__init__(message)
        self.alphas = alphas
        self.residual = residual
        self.objective = objective
        self.sweeps = sweeps


def as_points(X, dim: int) -> np.ndarray:
    """X as an (m, dim) float array; ValueError for any other shape."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"points must be an (m, {dim}) array, got shape {X.shape}")
    return X


@dataclass(frozen=True, eq=False)
class SvmModel:
    """Dual solution: coefficients, the training data, kernel, and trade-off C."""

    alphas: np.ndarray
    support: Database
    kernel: KernelSpec
    C: float
    objective: float
    residual: float
    sweeps: int
    objective_trace: tuple = field(repr=False, default=())

    def __post_init__(self):
        alphas = np.array(self.alphas, dtype=np.float64)
        if alphas.shape != (self.support.n,):
            raise ValueError(
                f"alphas must have one entry per support example, shape ({self.support.n},);"
                f" got shape {alphas.shape}"
            )
        if not (math.isfinite(self.C) and self.C > 0):
            raise ValueError("C must be finite and positive")
        alphas.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)

    def __eq__(self, other):
        if not isinstance(other, SvmModel):
            return NotImplemented
        return (
            np.array_equal(self.alphas, other.alphas)
            and self.support == other.support
            and self.kernel == other.kernel
            and self.C == other.C
        )


def _kkt_state(alphas: np.ndarray, grad: np.ndarray, upper: float):
    """KKT residual and the coordinates a sweep can move, from one projected gradient.

    The projected gradient is g_i at interior coordinates, max(g_i, 0) at 0
    and min(g_i, 0) at `upper`; the residual is its largest magnitude. The
    movable coordinates, in increasing order, are the interior ones and those
    with a nonzero projected gradient: a bound coordinate whose gradient
    points out of the box has a projected step of exactly 0.
    """
    at_lower = alphas <= 0.0
    at_upper = alphas >= upper
    pg = np.where(at_lower, np.maximum(grad, 0.0), np.where(at_upper, np.minimum(grad, 0.0), grad))
    movable = np.flatnonzero((pg != 0.0) | ~(at_lower | at_upper))
    return float(np.max(np.abs(pg), initial=0.0)), movable


def kkt_residual(alphas: np.ndarray, grad: np.ndarray, upper: float) -> float:
    """Largest first-order violation of the box-constrained maximization.

    With g_i the dual gradient: interior coordinates need |g_i| small, the
    lower-active need g_i <= 0, the upper-active need g_i >= 0.
    """
    return _kkt_state(alphas, grad, upper)[0]


def _face_step(Q, alphas, q, free, upper) -> bool:
    """One step toward the optimum of the face that fixes every bound coefficient.

    With F the free coefficients and g = 1 - q, the face optimum is
    alphas_F + d for Q_FF d = g_F. The step goes as far toward it as the box
    allows: the coefficients that block are set exactly to their bound, the
    rest clipped into the box. It is taken, updating alphas and q in place,
    only if the dual objective strictly increases; returns whether it was.
    """
    Q_FF = Q[np.ix_(free, free)]
    g = 1.0 - q[free]
    try:
        d = np.linalg.solve(Q_FF, g)
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(d)):
        return False
    a = alphas[free]
    bound = np.where(d > 0.0, upper, 0.0)  # the bound each coefficient heads for
    with np.errstate(divide="ignore"):
        reach = np.where(d != 0.0, (bound - a) / d, np.inf)
    t = min(1.0, float(reach.min()))
    new = np.clip(a + t * d, 0.0, upper)
    blocked = reach <= t
    new[blocked] = bound[blocked]
    s = new - a
    if not g @ s - 0.5 * (s @ (Q_FF @ s)) > 0.0:
        return False
    alphas[free] = new
    q += Q[:, free] @ s
    return True


def solve_svm_dual(
    db: Database,
    kernel: KernelSpec,
    C: float,
    tol: float = 1e-8,
    max_sweeps: int = 10**6,
) -> SvmModel:
    """Solve the hinge-loss dual to KKT residual <= tol.

    A sweep is one pass of single-coordinate updates: over every coordinate
    on the first sweep, and afterwards over only the coordinates the full
    gradient at the end of the previous sweep lets move (interior, or at a
    bound with the gradient pointing into the box), in increasing index
    order. Q @ alphas is kept for all n coordinates, so each sweep ends with
    every coordinate's gradient and the exit test is the full KKT residual.

    A sweep whose free set matches the previous sweep's (and was not tried
    last) is followed by one face step, a direct solve on the free
    coefficients kept only if it raises the objective; it belongs to that
    sweep, whose objective_trace entry is taken after it. The exit residual
    is then often far below tol.

    Args:
        db: training database (n > 1 entries).
        kernel: a KernelSpec. A feature map is not one: train the linear
            kernel on its feature matrix instead.
        C: finite, positive regularization trade-off; box constraints are [0, C/n].
        tol: KKT residual required at exit.
        max_sweeps: sweep limit before ConvergenceError.

    Returns:
        SvmModel with feasible coefficients, the achieved dual objective, the
        exit residual, and the per-sweep objective trace.
    """
    if not isinstance(kernel, KernelSpec):
        raise ValueError("kernel must be a KernelSpec; for a random feature map,"
                         " solve linear_kernel() on feature_matrix(map, X)")
    if not (math.isfinite(C) and C > 0):
        raise ValueError("C must be finite and positive")
    if not tol > 0 or max_sweeps < 1:
        raise ValueError("tol and max_sweeps must be positive")
    n = db.n
    y = db.labels
    # The Gram is exactly symmetric, so its transpose is Q's column-major
    # layout, which makes each column Q[:, i] the sweep reads contiguous.
    Q = kernels.gram(kernel, db.points).T
    Q *= y[:, None]
    Q *= y
    diag = np.diag(Q)
    upper = C / n

    alphas = np.zeros(n)
    q = np.zeros(n)  # Q @ alphas, maintained incrementally
    trace = []
    movable = range(n)
    free = tried = np.empty(0, dtype=np.intp)
    for sweep in range(1, max_sweeps + 1):
        for i in movable:
            g = 1.0 - q[i]
            if diag[i] <= _DEGENERATE_DIAG:
                # objective is linear in this coordinate
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
            q = Q @ alphas  # shed incremental rounding drift
        settled, free = free, np.flatnonzero((alphas > 0.0) & (alphas < upper))
        if free.size and np.array_equal(free, settled) and not np.array_equal(free, tried):
            tried = free
            if _face_step(Q, alphas, q, free, upper):
                free = np.flatnonzero((alphas > 0.0) & (alphas < upper))
        trace.append(float(alphas.sum() - 0.5 * (alphas @ q)))
        residual, movable = _kkt_state(alphas, 1.0 - q, upper)
        if residual <= tol:
            break
        movable = movable.tolist()  # Python ints index faster than numpy scalars

    # max_sweeps >= 1, so the loop ran and set `sweep` and `residual`
    converged = residual <= tol
    q = Q @ alphas
    objective = float(alphas.sum() - 0.5 * (alphas @ q))
    residual = kkt_residual(alphas, 1.0 - q, upper)
    if not converged:
        raise ConvergenceError(
            f"no convergence after {max_sweeps} sweeps (residual {residual:.3e})",
            alphas, residual, objective, sweep,
        )
    return SvmModel(
        alphas=alphas,
        support=db,
        kernel=kernel,
        C=float(C),
        objective=objective,
        residual=residual,
        sweeps=sweep,
        objective_trace=tuple(trace),
    )


def primal_weights(model: SvmModel) -> np.ndarray:
    """Weight vector X^T (a * y) of a linear-kernel model on feature vectors X."""
    if model.kernel.family != kernels.LINEAR:
        raise ValueError(f"the {model.kernel.family} kernel has no finite feature map")
    return model.support.points.T @ (model.alphas * model.support.labels)


def decision_values(model: SvmModel, X) -> np.ndarray:
    """Decision values sum_i a_i y_i k(x, x_i) for the rows x of X."""
    X = as_points(X, model.support.dim)
    K = kernels.gram(model.kernel, X, model.support.points)
    return K @ (model.alphas * model.support.labels)
