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

The solver knows only exact kernels (KernelSpec), and the kernel's family
picks the state a sweep updates. For a nonlinear kernel it is q = Q a, with
Q = (y y^T) * K from the n x n Gram, and a coordinate step adds a column of Q.
For the linear kernel it is the weight vector w = Z^T a, with Z = y * X the
labelled points, as in dual coordinate descent for linear SVMs (Hsieh et
al., ICML 2008): a step reads g_i = 1 - z_i . w and adds a multiple of z_i,
O(dim) instead of O(n), and no Gram is formed. Each sweep then ends with
q = Z w. A finite feature map, such as random features, is trained as the
linear kernel on its feature matrix, so a release solves in weight space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from ._checks import as_points, count, positive
from .data import Database
from .kernels import KernelSpec

__all__ = [
    "ConvergenceError",
    "SvmModel",
    "solve_svm_dual",
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
        positive(C=self.C)
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


def _face_step(Q_FF, g, a, upper):
    """The free coefficients after one step toward their face's optimum, or None.

    With a the free coefficients, g = 1 - (Q a)_F their gradient and Q_FF
    their block of Q, the face optimum is a + d for Q_FF d = g. The step goes
    as far toward it as the box allows: the coefficients that block are set
    exactly to their bound, the rest clipped into the box. It is returned
    only if the dual objective strictly increases.
    """
    try:
        d = np.linalg.solve(Q_FF, g)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(d)):
        return None
    bound = np.where(d > 0.0, upper, 0.0)  # the bound each coefficient heads for
    with np.errstate(divide="ignore"):
        reach = np.where(d != 0.0, (bound - a) / d, np.inf)
    t = min(1.0, float(reach.min()))
    new = np.clip(a + t * d, 0.0, upper)
    blocked = reach <= t
    new[blocked] = bound[blocked]
    s = new - a
    if not g @ s - 0.5 * (s @ (Q_FF @ s)) > 0.0:
        return None
    return new


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
    order. Each sweep ends with q = Q @ alphas for all n coordinates, so the
    exit test is the full KKT residual. A nonlinear kernel keeps q itself; the
    linear kernel keeps w = Z^T alphas (Z = y * X) and forms q = Z @ w, and
    the face step's block of Q is Z_F Z_F^T (Hsieh et al. 2008).

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
    positive(C=C, tol=tol)
    count(1, max_sweeps=max_sweeps)
    n = db.n
    y = db.labels
    upper = C / n
    linear = kernel.family == kernels.LINEAR
    if linear:
        # Weight space: rows z_i of Z = y * X, state w = Z^T alphas, q = Z w.
        Z = db.points * y[:, None]
        cols, diag, v = list(Z), np.einsum("ij,ij->i", Z, Z), np.zeros(db.dim)
    else:
        # The Gram is exactly symmetric, so its transpose is Q's column-major
        # layout, which makes each column Q[:, i] the sweep reads contiguous.
        Q = kernels.gram(kernel, db.points).T
        Q *= y[:, None]
        Q *= y
        cols, diag, v = list(Q.T), np.diag(Q), np.zeros(n)  # v = q = Q @ alphas

    # The loop's scalars are Python floats: the same IEEE arithmetic as numpy
    # scalars at a fraction of the per-operation cost.
    diag = diag.tolist()
    alphas = np.zeros(n)
    trace = []
    movable = range(n)
    free = tried = np.empty(0, dtype=np.intp)
    for sweep in range(1, int(max_sweeps) + 1):
        for i in movable:
            g = 1.0 - (float(cols[i].dot(v)) if linear else v.item(i))
            a = alphas.item(i)
            if diag[i] <= _DEGENERATE_DIAG:
                # objective is linear in this coordinate
                new = upper if g > 0 else (0.0 if g < 0 else a)
            else:
                new = a + g / diag[i]
                if new < 0.0:
                    new = 0.0
                elif new > upper:
                    new = upper
            step = new - a
            if step != 0.0:
                alphas[i] = new
                v += step * cols[i]
        if sweep % 64 == 0:
            v = Z.T @ alphas if linear else Q @ alphas  # shed incremental rounding drift
        q = Z @ v if linear else v
        settled, free = free, np.flatnonzero((alphas > 0.0) & (alphas < upper))
        if free.size and np.array_equal(free, settled) and not np.array_equal(free, tried):
            tried = free
            Q_F = Z[free].T if linear else Q[:, free]  # Z_F^T, or the columns of Q
            new = _face_step(Q_F.T @ Q_F if linear else Q_F[free], 1.0 - q[free],
                             alphas[free], upper)
            if new is not None:
                v += Q_F @ (new - alphas[free])
                alphas[free] = new
                q = Z @ v if linear else v
                free = np.flatnonzero((alphas > 0.0) & (alphas < upper))
        trace.append(float(alphas.sum() - 0.5 * (alphas @ q)))
        residual, movable = _kkt_state(alphas, 1.0 - q, upper)
        if residual <= tol:
            break
        movable = movable.tolist()  # Python ints index faster than numpy scalars

    # max_sweeps >= 1, so the loop ran and set `sweep` and `residual`
    converged = residual <= tol
    q = Z @ (Z.T @ alphas) if linear else Q @ alphas
    objective = float(alphas.sum() - 0.5 * (alphas @ q))
    residual = _kkt_state(alphas, 1.0 - q, upper)[0]
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
