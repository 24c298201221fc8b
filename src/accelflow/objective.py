"""Twice-differentiable test objectives with analytic derivative oracles.

Every objective is packaged as an :class:`ObjectiveOracle` holding callables
for the value, gradient, and Hessian. Controllers and integrators only ever
talk to the oracle interface, so adding a new objective means adding one
constructor here and its name to the config layer's problem registry
(``ProblemConfig.build``).

The value, the gradient and the Hessian take one point (n,) or N stacked
points (N, n), and give one entry or row per point, with the bits of the
one-point call.
The quadratic's Hessian does not depend on the point, so it stays one
(n, n) matrix that broadcasts over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class ObjectiveOracle:
    """Callable bundle (E, grad E, hess E) for a smooth objective on R^n.

    value, gradient and hessian also take N stacked points (N, n); value
    then gives one number per point.
    """

    dim: int
    value: Callable[[Array], Union[float, Array]]
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array]
    name: str = "objective"


@dataclass(frozen=True)
class ProblemInstance:
    """An oracle plus a start point and, when known in closed form, the minimizer."""

    oracle: ObjectiveOracle
    x0: Array
    x_star: Optional[Array] = None


def _stacked(at_point: Callable[[Array], Array]) -> Callable[[Array], Array]:
    """Let a one-point oracle callable take N stacked points (N, n) too.

    The rows are evaluated one at a time, so each gets the one-point bits.
    Any other shape goes to the one-point callable, which rejects it.
    """
    def over_rows(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.array([at_point(row) for row in x])
        return at_point(x)
    return over_rows


# ---------------------------------------------------------------------------
# quadratic
# ---------------------------------------------------------------------------


def quadratic_problem(Q: Array, x_star: Optional[Array] = None,
                      x0: Optional[Array] = None) -> ProblemInstance:
    """E(x) = 0.5 (x - x*)^T Q (x - x*) for symmetric positive definite Q.

    Q is validated once at construction: asymmetry or a non-positive
    eigenvalue is a hard error, not a warning, because downstream metric
    and convergence arguments assume a genuine positive definite quadratic.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    n = Q.shape[0]
    asym = np.max(np.abs(Q - Q.T))
    if asym > 1e-12 * (1.0 + np.max(np.abs(Q))):
        raise ValueError(f"Q must be symmetric, max asymmetry {asym:.3e}")
    eigs = np.linalg.eigvalsh(Q)
    if eigs[0] <= 0.0:
        raise ValueError(f"Q must be positive definite, min eigenvalue {eigs[0]:.3e}")

    if x_star is None:
        x_star = np.zeros(n)
    x_star = np.asarray(x_star, dtype=float)
    if x_star.shape != (n,):
        raise ValueError(f"x_star has shape {x_star.shape}, expected ({n},)")
    if x0 is None:
        x0 = x_star + np.ones(n)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")

    def value(x: Array) -> Union[float, Array]:
        d = np.asarray(x, dtype=float) - x_star
        if d.ndim == 2:
            return 0.5 * np.vecdot(np.vecmat(d, Q), d)
        return 0.5 * float(d @ Q @ d)

    def gradient(x: Array) -> Array:
        return np.matvec(Q, np.asarray(x, dtype=float) - x_star)

    def hessian(x: Array) -> Array:
        return Q.copy()

    oracle = ObjectiveOracle(n, value, gradient, hessian, name="quadratic")
    return ProblemInstance(oracle, x0, x_star=x_star)


def random_quadratic(dim: int, kappa: float,
                     seed: Union[int, np.random.Generator, None] = None,
                     x0: Optional[Array] = None,
                     scale: float = 1.0) -> ProblemInstance:
    """Random SPD quadratic with condition number exactly kappa.

    Eigenvalues are spread over [scale, scale * kappa] (log spacing of
    the unscaled [1, kappa] range) and the eigenbasis is a
    Haar-random rotation, so the axes of ill-conditioning are not aligned
    with the coordinate directions.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if kappa < 1.0:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if not (scale > 0.0):
        raise ValueError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    eigs = np.logspace(0.0, np.log10(kappa), dim)
    U, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q = U @ np.diag(scale * eigs) @ U.T
    Q = 0.5 * (Q + Q.T)
    x_star = rng.standard_normal(dim)
    if x0 is None:
        x0 = x_star + rng.standard_normal(dim)
    return quadratic_problem(Q, x_star=x_star, x0=x0)


# ---------------------------------------------------------------------------
# Rosenbrock (2-D)
# ---------------------------------------------------------------------------


def rosenbrock_problem(x0: Optional[Array] = None) -> ProblemInstance:
    """The 2-D Rosenbrock valley, E(x) = 100 (x2 - x1^2)^2 + (1 - x1)^2."""
    if x0 is None:
        x0 = np.array([-1.2, 1.0])
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,):
        raise ValueError(f"x0 has shape {x0.shape}, expected (2,)")

    def _check(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if x.shape != (2,):
            raise ValueError(f"rosenbrock oracle is 2-D, got shape {x.shape}")
        return x

    @_stacked
    def value(x: Array) -> float:
        x = _check(x)
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    @_stacked
    def gradient(x: Array) -> Array:
        x = _check(x)
        return np.array([
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ])

    @_stacked
    def hessian(x: Array) -> Array:
        x = _check(x)
        return np.array([
            [1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0]],
            [-400.0 * x[0], 200.0],
        ])

    oracle = ObjectiveOracle(2, value, gradient, hessian, name="rosenbrock")
    return ProblemInstance(oracle, x0, x_star=np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# log-sum-exp
# ---------------------------------------------------------------------------


def log_sum_exp_problem(A: Array, b: Array,
                        x0: Optional[Array] = None) -> ProblemInstance:
    """E(x) = log sum_i exp(a_i^T x + b_i), a smooth convex max surrogate.

    Evaluation subtracts the running max before exponentiating, so large
    arguments do not overflow; the gradient and Hessian reuse the same
    softmax weights:

        grad E = A^T p,    hess E = A^T (diag(p) - p p^T) A,

    with p the softmax of A x + b. The Hessian is computed in the
    equivalent centered form sum_i p_i (a_i - grad E)(a_i - grad E)^T,
    i.e. C^T diag(p) C with the rows of C = A - 1 (grad E)^T, then
    symmetrized. That costs O(m n^2) for m terms in n dimensions instead
    of the O(m^2 n) of forming the m x m middle matrix, and it does not
    cancel: where p concentrates on one term, both A^T diag(p) A and
    (grad E)(grad E)^T approach a_i a_i^T while their difference is
    tiny, and subtracting them (or diag(p) - p p^T) can lose every
    digit. The Hessian is positive semidefinite, which is exactly the
    marginal case the Hessian-metric safeguards have to handle, so this
    objective doubles as a stress test for them.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be a 2-D array, got shape {A.shape}")
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")

    def _softmax(x: Array) -> tuple[float, Array]:
        x = np.asarray(x, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"log_sum_exp oracle takes shape ({n},), got "
                             f"{x.shape}")
        z = A @ x + b
        zmax = float(np.max(z))
        w = np.exp(z - zmax)
        s = float(np.sum(w))
        return zmax + np.log(s), w / s

    @_stacked
    def value(x: Array) -> float:
        val, _ = _softmax(x)
        return val

    @_stacked
    def gradient(x: Array) -> Array:
        _, p = _softmax(x)
        return A.T @ p

    @_stacked
    def hessian(x: Array) -> Array:
        _, p = _softmax(x)
        C = A - A.T @ p
        H = (C.T * p) @ C
        return 0.5 * (H + H.T)

    oracle = ObjectiveOracle(n, value, gradient, hessian, name="log_sum_exp")
    return ProblemInstance(oracle, x0)


def random_log_sum_exp(dim: int, terms: int,
                       seed: Union[int, np.random.Generator, None] = None,
                       x0: Optional[Array] = None) -> ProblemInstance:
    if dim < 1 or terms < 2:
        raise ValueError(f"need dim >= 1 and terms >= 2, got dim={dim} terms={terms}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((terms, dim))
    b = rng.standard_normal(terms)
    if x0 is None:
        x0 = rng.standard_normal(dim)
    return log_sum_exp_problem(A, b, x0=x0)
