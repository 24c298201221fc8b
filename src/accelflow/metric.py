"""Positive definite metrics weighting the control effort.

The admissible control sets are ellipsoids u^T W u <= Delta. Three choices
of W are supported: the identity (plain steepest-style steering), the
objective Hessian with an eigenvalue floor (Newton-style steering near
positive curvature), and a quasi-Newton matrix maintained from observed
(step, gradient-change) pairs. Everything downstream only needs W to be
symmetric positive definite, so each W gets its certificate once, where
it is made: by shift_to_floor for the Hessian and the quasi-Newton
update, and by MetricSpec for a caller's qn_state. metric_solve then only
solves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .objective import ObjectiveOracle

Array = np.ndarray

#: relative curvature threshold below which a quasi-Newton pair is skipped
CURVATURE_SKIP_REL = 1e-10


class MetricKind(str, Enum):
    EUCLIDEAN = "euclidean"
    HESSIAN = "hessian"
    QUASI_NEWTON = "quasi_newton"


@dataclass(frozen=True, eq=False)
class MetricSpec:
    """Which W to use, plus the state the quasi-Newton variant carries.

    qn_state is the current B matrix; None means "not initialized yet" and
    resolves to the identity. Updates return a new spec rather than
    mutating, so whoever drives the iteration owns the sequencing. A
    qn_state must be finite with a finite Cholesky factor.
    """

    kind: MetricKind
    eig_floor: float = 1e-6
    qn_state: Optional[Array] = None

    def __post_init__(self) -> None:
        if not (self.eig_floor > 0.0):
            raise ValueError(f"eig_floor must be positive, got {self.eig_floor}")
        if self.qn_state is not None:
            B = np.asarray(self.qn_state, dtype=float)
            if not (np.isfinite(B).all() and _has_cholesky(B)):
                raise ValueError("qn_state is not positive definite")


def _has_cholesky(M: Array) -> bool:
    """True when M has a finite Cholesky factor.

    numpy's Cholesky returns NaN instead of raising on a NaN diagonal, so
    success alone does not prove M positive definite.
    """
    try:
        return bool(np.isfinite(np.linalg.cholesky(M)).all())
    except np.linalg.LinAlgError:
        return False


def shift_to_floor(M: Array, floor: float) -> Array:
    """Symmetrize M and lift its smallest eigenvalue to at least floor.

    A Cholesky factorization of M_sym - floor*I (floor subtracted on the
    diagonal of a copy) is tried first. When it succeeds with a finite
    factor, M_sym already sits at or above the floor and is returned
    unchanged, and that factor is also the certificate that the result is
    positive definite: callers need not factor it again. Only when the
    factorization fails, or its factor is not finite, does eigvalsh
    find the smallest eigenvalue, and the diagonal is raised by the gap
    to floor. A matrix with a NaN or infinite entry raises ValueError.
    """
    M = np.asarray(M, dtype=float)
    M = 0.5 * (M + M.T)
    diag = slice(None, None, M.shape[0] + 1)
    shifted = M.copy()
    shifted.flat[diag] -= floor
    if _has_cholesky(shifted):
        return M
    if not np.isfinite(M).all():
        raise ValueError("matrix is not finite; no floor applies")
    min_eig = float(np.linalg.eigvalsh(M)[0])
    if min_eig < floor:
        M.flat[diag] += floor - min_eig
    return M


def metric_matrix(spec: MetricSpec, oracle: ObjectiveOracle, x: Array,
                  H: Optional[Array] = None) -> Array:
    """Resolve the metric W at the current point.

    H, when given, is hess E(x) already evaluated by the caller; the
    Hessian metric uses it instead of asking the oracle again.
    """
    if spec.kind is MetricKind.EUCLIDEAN:
        return np.eye(oracle.dim)
    if spec.kind is MetricKind.HESSIAN:
        return shift_to_floor(oracle.hessian(x) if H is None else H,
                              spec.eig_floor)
    if spec.kind is MetricKind.QUASI_NEWTON:
        if spec.qn_state is None:
            return np.eye(oracle.dim)
        B = np.asarray(spec.qn_state, dtype=float)
        if B.shape != (oracle.dim, oracle.dim):
            raise ValueError(
                f"qn_state has shape {B.shape}, expected "
                f"({oracle.dim}, {oracle.dim})")
        return B
    raise ValueError(f"unknown metric kind {spec.kind!r}")


def metric_solve(W: Array, rhs: Array) -> Array:
    """Solve W z = rhs with np.linalg.solve; W got its certificate where it
    was made (see the module docstring).

    N stacked right-hand sides (N, n) share the one W. Each row is its own
    one-column LAPACK solve, so it gets the bits of the one-row call.
    """
    W = np.asarray(W, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if (W.ndim != 2 or W.shape[0] != W.shape[1] or rhs.ndim not in (1, 2)
            or rhs.shape[-1] != W.shape[0]):
        raise ValueError(f"shape mismatch: W {W.shape}, rhs {rhs.shape}")
    if rhs.ndim == 1:
        return np.linalg.solve(W, rhs)
    return np.linalg.solve(W, rhs[..., None])[..., 0]


def quasi_newton_update(spec: MetricSpec, s: Array, g_delta: Array) -> MetricSpec:
    """Damped BFGS update of the quasi-Newton metric from one observed pair.

    Inputs: s, the step taken; g_delta, the gradient change over the step.
    The pair is skipped outright when the curvature s . g_delta falls below
    a small multiple of |s| |g_delta| (this covers zero and negative
    curvature). When the curvature is positive but weak against the model
    curvature s . B s, g_delta is pulled toward B s (Powell damping) so the
    updated matrix stays positive definite. An eigenvalue floor is applied
    afterwards, and its shift_to_floor certifies the new matrix.
    """
    if spec.kind is not MetricKind.QUASI_NEWTON:
        raise ValueError("quasi_newton_update only applies to quasi_newton metrics")
    s = np.asarray(s, dtype=float)
    y = np.asarray(g_delta, dtype=float)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"s and g_delta must be 1-D with equal shapes, got "
                         f"{s.shape} and {y.shape}")

    B = spec.qn_state
    B = np.eye(s.size) if B is None else np.asarray(B, dtype=float)

    sy = float(s @ y)
    if not (sy > CURVATURE_SKIP_REL * np.linalg.norm(s) * np.linalg.norm(y)):
        return spec if spec.qn_state is not None else dataclasses.replace(
            spec, qn_state=B)

    Bs = B @ s
    sBs = float(s @ Bs)
    if sBs <= 0.0:
        raise ValueError("quasi-Newton state lost positive definiteness; "
                         "this indicates a corrupted qn_state")
    if sy < 0.2 * sBs:
        theta = 0.8 * sBs / (sBs - sy)
        y = theta * y + (1.0 - theta) * Bs
        sy = float(s @ y)  # equals 0.2 * sBs by construction

    B_new = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
    B_new = shift_to_floor(B_new, spec.eig_floor)
    return dataclasses.replace(spec, qn_state=B_new)
