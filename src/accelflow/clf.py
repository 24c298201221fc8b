"""Quadratic control-Lyapunov certificates on the adjoint-velocity pair.

The auxiliary system steers (lambda, v) to the origin, where lambda tracks
the negated gradient along the search trajectory and v is the search
velocity. The certificate used throughout is the plain quadratic

    V(lambda, v) = (a/2) |lambda|^2 + (b/2) |v|^2 + c lambda . v,

positive definite exactly when a > 0, b > 0, and a b - c^2 > 0; the cross
term (c != 0) is what couples the gradient error into the controlled
channel. Its derivative along the auxiliary vector field splits into a
drift part, which the control cannot touch, and a control part entering
through grad_v V:

    lie V = -(a lambda + c v) . (hess E(x) v) + (c lambda + b v) . u.

Each function takes one state, as vectors of shape (n,), or N stacked
states, as (N, n) arrays. A stacked call returns one value per row, and
every row holds the bits the one-state call gives: the dot products and
Hessian-vector products go through np.vecdot and np.matvec, which take
the same BLAS path per row as a @ b and H @ v. A Hessian that depends on
the point is taken in row blocks (objective._row_blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .objective import ObjectiveOracle, _row_blocks

Array = np.ndarray


@dataclass(frozen=True)
class ClfParams:
    """Coefficients of the quadratic certificate, checked once on build.

    pd_hessian_mode additionally pins c < 0. With c < 0 the uncontrolled
    drift is strictly dissipative wherever the Hessian is positive
    definite, so flows that rely on that argument should construct their
    params with the flag set.
    """

    a: float
    b: float
    c: float
    pd_hessian_mode: bool = False

    def __post_init__(self) -> None:
        if not (self.a > 0.0):
            raise ValueError(f"need a > 0, got a={self.a}")
        if not (self.b > 0.0):
            raise ValueError(f"need b > 0, got b={self.b}")
        if self.c == 0.0:
            raise ValueError("need c != 0, the cross term is what makes the "
                             "certificate informative")
        # c * c: a float ** raises OverflowError where * gives inf
        det = self.a * self.b - self.c * self.c
        if not (det > 0.0):
            raise ValueError(
                f"need a*b - c^2 > 0 for positive definiteness, got {det}")
        if self.pd_hessian_mode and not (self.c < 0.0):
            raise ValueError(f"pd_hessian_mode requires c < 0, got c={self.c}")


#: Stock choice used by the named flows: V = |lambda|^2 + |v|^2 / 2 - lambda.v.
DEFAULT_CLF = ClfParams(a=2.0, b=1.0, c=-1.0, pd_hessian_mode=True)


def _pair(lambda_x: Array, v: Array) -> tuple[Array, Array]:
    lam = np.asarray(lambda_x, dtype=float)
    vv = np.asarray(v, dtype=float)
    if lam.shape != vv.shape or lam.ndim not in (1, 2):
        raise ValueError(
            f"lambda and v must be one state (n,) or stacked states (N, n) "
            f"with equal shapes, got {lam.shape} and {vv.shape}")
    return lam, vv


def _scalar(value: Array) -> Union[float, Array]:
    """A float for one state, the array of per-row values for stacked ones."""
    return float(value) if value.ndim == 0 else value


def state_norm(a: Array) -> Union[float, Array]:
    """Euclidean norm of one vector, or of each stacked row.

    sqrt(a . a) is np.linalg.norm's own formula for a vector, so each row
    gets the bits np.linalg.norm gives it.
    """
    return np.sqrt(np.vecdot(a, a))


def _dot(a: Array, b: Array) -> Union[float, Array]:
    """np.vecdot(a, b), by ndarray.dot for vectors: same BLAS, less cost.

    For vectors of one entry ndarray.dot is a plain product, which can be
    -0.0 where np.vecdot sums it to +0.0."""
    return a.dot(b) if a.ndim == 1 else np.vecdot(a, b)


def clf_value(p: ClfParams, lambda_x: Array, v: Array) -> Union[float, Array]:
    lam, vv = _pair(lambda_x, v)
    return _scalar(_value(0.5 * p.a, 0.5 * p.b, p.c * lam, lam, vv))


def _value(half_a: float, half_b: float, c_lam: Array, lam: Array,
           vv: Array) -> Union[np.float64, Array]:
    """clf_value without its input checks, for the control laws, which
    fold half_a = 0.5 * a and half_b = 0.5 * b once and hold c_lam =
    c * lambda already. Gives a numpy scalar for one state."""
    return _dot(half_a * lam, lam) + _dot(half_b * vv, vv) + _dot(c_lam, vv)


def clf_grad_lambda(p: ClfParams, lambda_x: Array, v: Array) -> Array:
    lam, vv = _pair(lambda_x, v)
    return p.a * lam + p.c * vv


def clf_grad_v(p: ClfParams, lambda_x: Array, v: Array) -> Array:
    lam, vv = _pair(lambda_x, v)
    return p.c * lam + p.b * vv


def eps_v(lambda_x: Array, v: Array) -> Union[float, Array]:
    """State-scaled threshold below which grad_v V counts as zero."""
    return _eps(*_pair(lambda_x, v))


def _norm(a: Array) -> float:
    """state_norm of one vector, as a float and cheaper (see _dot)."""
    return math.sqrt(a.dot(a))


def _eps(lam: Array, vv: Array) -> Union[float, Array]:
    """eps_v without its input checks, for the control laws, whose
    caller has made them."""
    norm = _norm if lam.ndim == 1 else state_norm
    return 1e-10 * (1.0 + norm(lam) + norm(vv))


def lie_derivative(p: ClfParams, oracle: ObjectiveOracle, x: Array,
                   lambda_x: Array, v: Array, u: Array) -> Union[float, Array]:
    """Derivative of V along the auxiliary field closed with control u."""
    lam, vv = _pair(lambda_x, v)
    u = np.asarray(u, dtype=float)
    if u.shape != vv.shape:
        raise ValueError(f"u has shape {u.shape}, expected {vv.shape}")
    parts = [np.matvec(oracle.hessian_at(x[rows]), vv[rows])
             for rows in _row_blocks(oracle, x)]
    Hv = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return _scalar(np.vecdot(-clf_grad_lambda(p, lam, vv), Hv)
                   + np.vecdot(clf_grad_v(p, lam, vv), u))


@dataclass(frozen=True)
class DriftReport:
    """Outcome of the drift test on the zero-authority set.

    applicable is False off the set grad_v V = 0 and at the origin; there
    the test says nothing and holds must be ignored. On the set, holds
    means the uncontrolled decay -drift_term is strictly negative.
    """

    applicable: bool
    holds: bool
    drift_term: float
    reason: str = ""


def drift_condition_check(p: ClfParams, oracle: ObjectiveOracle, x: Array,
                          lambda_x: Array, v: Array) -> DriftReport:
    """Test dissipation where the control has no authority.

    On the set grad_v V = 0 (away from the origin) the Lie derivative
    collapses to -drift_term with

        drift_term = (a lambda + c v) . (hess E(x) v),

    so the certificate decays there if and only if drift_term > 0. On that
    set lambda = -(b/c) v, which turns the term into
    ((c^2 - a b)/c) v . hess E(x) v: with a valid certificate the scalar
    factor is positive exactly when c < 0, hence the pd_hessian_mode sign
    convention.
    """
    lam, vv = _pair(lambda_x, v)
    Hv = oracle.hessian_at(x) @ vv
    term = float(clf_grad_lambda(p, lam, vv) @ Hv)
    if np.linalg.norm(lam) == 0.0 and np.linalg.norm(vv) == 0.0:
        return DriftReport(False, False, term, reason="origin is the target")
    dvv = clf_grad_v(p, lam, vv)
    if np.linalg.norm(dvv) > eps_v(lam, vv):
        return DriftReport(False, False, term,
                           reason="state is off the set grad_v V = 0")
    return DriftReport(True, term > 0.0, term)
