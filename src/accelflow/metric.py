"""Positive definite metrics weighting the control effort.

The admissible control sets are ellipsoids u^T W u <= Delta. Three choices
of W are supported: the identity (plain steepest-style steering), the
objective Hessian with an eigenvalue floor (Newton-style steering near
positive curvature), and a quasi-Newton matrix maintained from observed
(step, gradient-change) pairs. Everything downstream only needs W to be
symmetric positive definite, so each W gets its certificate once, where
it is made, and metric_solve then only solves:

* a Hessian W, by the shift_to_floor that floors it: at each point for
  a Hessian that depends on the point, and once per bound law, at its
  first solve, for a constant one (a quadratic's);
* a quasi-Newton matrix, by the shift_to_floor in the quasi_newton_update
  that makes it;
* a qn_state a caller supplies, by MetricSpec's own Cholesky check.

A W that stays fixed (a floored constant Hessian for a law, a
quasi-Newton matrix until the next update) is also factored once, by an
_LU, with the LAPACK numpy bundles: one dgetrf, then one dgetrs per
solve. np.linalg.solve's dgesv is that dgetrf and that dgetrs, so the
bits are its bits. A Hessian that depends on the point is not factored.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import os
from dataclasses import InitVar, dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .clf import _norm
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

    kind takes a MetricKind or its string value. qn_state is the current
    B matrix; None means "not initialized yet" and resolves to the
    identity. Updates return a new spec rather than mutating, so whoever
    drives the iteration owns the sequencing. A qn_state must be finite
    with a finite Cholesky factor; certified=True says it already has its
    certificate (quasi_newton_update's floor), so it is not factored
    again. A spec holds no floored Hessian: the law bound over it floors
    one where it solves (control._inverse).
    """

    kind: MetricKind
    eig_floor: float = 1e-6
    qn_state: Optional[Array] = None
    certified: InitVar[bool] = False

    def __post_init__(self, certified: bool) -> None:
        object.__setattr__(self, "kind", MetricKind(self.kind))
        if not (self.eig_floor > 0.0):
            raise ValueError(f"eig_floor must be positive, got {self.eig_floor}")
        if self.qn_state is not None and not certified:
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
    Hessian metric uses it instead of asking the oracle again, and
    otherwise reads it through oracle.hessian_at, which takes a constant
    Hessian without a call.
    """
    if spec.kind is MetricKind.EUCLIDEAN:
        return np.eye(oracle.dim)
    if spec.kind is MetricKind.HESSIAN:
        return shift_to_floor(oracle.hessian_at(x) if H is None else H,
                              spec.eig_floor)
    if spec.qn_state is None:  # quasi_newton, not updated yet
        return np.eye(oracle.dim)
    B = np.asarray(spec.qn_state, dtype=float)
    if B.shape != (oracle.dim, oracle.dim):
        raise ValueError(
            f"qn_state has shape {B.shape}, expected "
            f"({oracle.dim}, {oracle.dim})")
    return B


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


@functools.cache
def _lapack() -> Optional[tuple]:
    """(dgetrf, dgetrs, thread count) of the OpenBLAS that numpy bundles for
    np.linalg.solve, or None where it bundles none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    try:
        name = next(f for f in os.listdir(libs)
                    if f.startswith("libscipy_openblas64_"))
        lib = ctypes.CDLL(os.path.join(libs, name))
        found = (lib.scipy_dgetrf_64_, lib.scipy_dgetrs_64_,
                 lib.scipy_openblas_get_num_threads64_)
    except (OSError, StopIteration, AttributeError):
        return None
    # every integer is an int64 (ILP64) passed, like every array, by its
    # address; dgetrs ends with the hidden length of its trans
    found[0].argtypes, found[0].restype = [ctypes.c_void_p] * 6, None
    found[1].argtypes, found[1].restype = (
        [ctypes.c_char_p] + [ctypes.c_void_p] * 8 + [ctypes.c_size_t], None)
    found[2].argtypes, found[2].restype = [], ctypes.c_int
    return found


def _address(a: Array) -> int:
    """The address of C-contiguous a's buffer, at about a third of the
    cost of a.ctypes.data."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


class _LU:
    """W^{-1} rhs for one fixed W, by its LU factors (module docstring).

    W is factored where the holder is made. solve takes one row (n,) or
    stacked rows (N, n), each its own one-column dgetrs into a fresh copy.
    It is metric_solve for no rows or another shape, and where numpy bundles
    no OpenBLAS, where that runs more than one thread (dgesv and dgetrf
    then split their work at other sizes) or where dgetrf finds W singular.
    """

    def __init__(self, W: Array) -> None:
        self.W = W = np.asarray(W, dtype=float)
        self._call: Optional[tuple] = None  # dgetrs's arguments before b
        lapack = _lapack()
        if (lapack is None or lapack[2]() != 1 or W.ndim != 2
                or W.shape[0] != W.shape[1]):
            return
        getrf, self._getrs, _ = lapack
        # n, nrhs and info
        self._ints = np.array([len(W), 1, 0], dtype=np.int64)
        self._lu = np.array(W, order="F")
        self._piv = np.empty(len(W), dtype=np.int64)
        # the Fortran-ordered factor's address is its C-ordered transpose's
        ints, lu, piv = map(_address, (self._ints, self._lu.T, self._piv))
        n, one, info = ints, ints + 8, ints + 16
        getrf(n, n, lu, n, piv, info)
        if self._ints[2] == 0:
            self._call = (b"N", n, one, lu, n, piv)
            self._tail = (n, info, 1)

    def solve(self, rhs: Array) -> Array:
        rhs = np.asarray(rhs, dtype=float)
        if (self._call is None or rhs.ndim > 2 or rhs.size == 0
                or rhs.shape[-1:] != self.W.shape[:1]):
            return metric_solve(self.W, rhs)
        z = np.array(rhs, order="C")
        at = _address(z)
        row = 8 * len(self.W)
        for k in range(len(z) if z.ndim == 2 else 1):  # b is row k of z
            self._getrs(*self._call, at + k * row, *self._tail)
        return z


def quasi_newton_update(spec: MetricSpec, s: Array, g_delta: Array) -> MetricSpec:
    """Damped BFGS update of the quasi-Newton metric from one observed pair.

    Inputs: s, the step taken; g_delta, the gradient change over the step.
    The pair is skipped outright when the curvature s . g_delta falls below
    a small multiple of |s| |g_delta| (this covers zero and negative
    curvature). When the curvature is positive but weak against the model
    curvature s . B s, g_delta is pulled toward B s (Powell damping) so the
    updated matrix stays positive definite. An eigenvalue floor is applied
    afterwards, and its shift_to_floor is the new matrix's certificate:
    the returned spec does not factor it again. A skipped pair on a spec
    with no state yet returns the identity as its state.
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
    if not (sy > CURVATURE_SKIP_REL * _norm(s) * _norm(y)):
        return spec if spec.qn_state is not None else dataclasses.replace(
            spec, qn_state=B, certified=True)

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
    return dataclasses.replace(spec, qn_state=B_new, certified=True)
