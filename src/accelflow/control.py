"""Feedback controllers steering the adjoint-velocity pair to the origin.

Three families, all reading the same certificate from :mod:`accelflow.clf`:

* min_p: pointwise minimization of the certificate derivative over the
  ellipsoid u^T W u <= Delta. Away from grad_v V = 0 the optimum sits on
  the boundary, directed along -W^{-1} grad_v V.
* min_p_star: effort-penalized variant that enforces the decay rate
  lie V = -eta V exactly while it is the binding constraint, and switches
  the control off when the uncontrolled drift already decays fast enough.
* direct: linear state feedback u = K_a lambda + K_b v + K_c hess E(x) v
  whose gains are tied to the certificate coefficients; its closed loop is
  the continuous-time limit of gradient-correction momentum methods.

Substituting lambda = -grad E(x), the first two families collapse to

    u = -W^{-1} (gamma_a grad E(x) + gamma_b v),

with gains read off the multiplier via :func:`gains_from_sigma`. That one
functional form, specialized per metric, is how the classical flows
(Polyak damping, Newton-type damping, quasi-Newton damping) drop out.

Each family is one frozen type that holds only its own parameters: MinP,
MinPStar and Direct, with ControllerSpec naming any of them. A type's
bind(oracle) builds its law (x, lambda_x, v) -> ControlResult once per
run: the parameters as floats, the identity-metric path and
oracle.constant_hessian are read there, and the metric is taken as it
is. A run binds it, then calls it at every state; the law takes
evaluate_control's inputs as float arrays, unchecked, and gives what
evaluate_control gives. evaluate_control is the checked entry for one
call: it validates the shapes, then binds the law, unless it is given
one already bound, and calls it.

A law's one-state path is the one every RK4 stage takes. So a law holds
its coefficients as 0-d arrays, made at bind (_held): numpy converts a
Python float operand at every call, and takes a 0-d float64 array as it
is, for the same product. One state takes its dots by ndarray.dot and
its norms by math.sqrt, with eps_v's formula written out (see clf._dot).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from .clf import (
    ClfParams,
    DEFAULT_CLF,
    DriftReport,
    _eps,
    _value,
    clf_value,
    drift_condition_check,
    state_norm,
)
from .metric import MetricKind, MetricSpec, _LU, metric_matrix, metric_solve
from .objective import ObjectiveOracle, _row_blocks

Array = np.ndarray


class DeltaMode(str, Enum):
    """How the min_p effort budget is resolved at a state.

    constant: fixed budget Delta.
    taper: Delta shrinks as min(Delta, |grad_v V|^2) so the control winds
        down near the target instead of chattering at full effort.
    fixed_sigma: bypass the budget and use a constant multiplier sigma_q,
        which is what turns min_p into a constant-gain flow.
    """

    CONSTANT = "constant"
    TAPER = "taper"
    FIXED_SIGMA = "fixed_sigma"


@dataclass(eq=False, slots=True)  # made at every stage: no frozen __init__
class ControlResult:
    """Control value plus the diagnostics tests and verifiers care about.

    sigma is the scalar multiplier on -W^{-1} grad_v V (None for the direct
    family); drift and rho are only filled by min_p_star, which computes
    them anyway. For N stacked states u is (N, n), and branch, sigma,
    drift and rho hold one entry per row. Callers read it and never write
    to it; its slots refuse a field it does not declare.
    """

    u: Array
    branch: Union[str, Array]
    sigma: Union[float, Array, None] = None
    drift: Union[float, Array, None] = None
    rho: Union[float, Array, None] = None


class InfeasibleStateError(RuntimeError):
    """Raised when min_p_star cannot certify its decay rate at a state.

    This happens on the zero-authority set grad_v V = 0 when the
    uncontrolled drift fails to beat the requested rate; the attached
    report tells whether the drift condition itself failed or merely the
    rate was too ambitious.
    """

    def __init__(self, message: str, report: DriftReport):
        super().__init__(message)
        self.report = report


Law = Callable[[Array, Array, Array], ControlResult]
_EUCLIDEAN = MetricSpec(MetricKind.EUCLIDEAN)


@dataclass(frozen=True, eq=False)
class MinP:
    """min_p: the certificate's steepest descent within an effort budget.

    delta_mode resolves the budget: delta in the constant and taper modes,
    the constant multiplier sigma_q in fixed_sigma mode, which does not
    read delta. It takes a DeltaMode or its string value.
    """

    clf: ClfParams = DEFAULT_CLF
    metric: MetricSpec = _EUCLIDEAN
    delta: float = 1.0
    delta_mode: DeltaMode = DeltaMode.CONSTANT
    sigma_q: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_mode", DeltaMode(self.delta_mode))
        if self.delta_mode is DeltaMode.FIXED_SIGMA:
            if self.sigma_q is None or not (self.sigma_q > 0.0):
                raise ValueError(f"fixed_sigma mode needs sigma_q > 0, got "
                                 f"{self.sigma_q}")
        elif self.sigma_q is not None:
            raise ValueError("sigma_q only applies to fixed_sigma mode")
        elif self.delta is None or not (self.delta > 0.0):
            raise ValueError(f"min_p needs delta > 0, got {self.delta}")

    def bind(self, oracle: ObjectiveOracle) -> Law:
        """The min_p law for oracle, built once per run."""
        inverse = _inverse(self.metric, oracle)
        fixed = self.delta_mode is DeltaMode.FIXED_SIGMA
        taper = self.delta_mode is DeltaMode.TAPER
        q = float(self.sigma_q if fixed else self.delta)  # sigma_q, or delta
        b, c, minus_q = _held(self.clf.b, self.clf.c, -q)
        zero = np.zeros(oracle.dim)

        def steer(x: Array, d: Array) -> tuple[Array, Array]:
            """(u, sigma) on stacked rows."""
            z = d + zero if inverse is None else inverse(x, d)
            if fixed:
                sigma = np.full(len(d), q)
            else:
                # fmin keeps delta against a nan, as the one-state min does
                budget = np.fmin(q, np.vecdot(d, d)) if taper else q
                sigma = np.sqrt(budget / np.vecdot(d, z))
            return _pull(sigma, z), sigma

        def law(x: Array, lam: Array, v: Array) -> ControlResult:
            d = c * lam + b * v  # grad_v V
            # where grad_v V vanishes, the control channel has no descent
            # direction for V: the origin branch. A nan norm is not on it.
            if d.ndim == 1:
                d2 = d.dot(d)
                if math.sqrt(d2) <= 1e-10 * (1.0 + math.sqrt(lam.dot(lam))
                                             + math.sqrt(v.dot(v))):
                    return ControlResult(np.zeros(len(v)), "origin", 0.0)
                z = d + zero if inverse is None else inverse(x, d)
                if fixed:
                    return ControlResult(minus_q * z, "boundary", q)
                sigma = np.sqrt((min(q, d2) if taper else q) / d.dot(z))
                # u = -sigma z goes into z, a fresh vector
                np.multiply(-sigma, z, out=z)
                return ControlResult(z, "boundary", float(sigma))
            boundary = ~(state_norm(d) <= _eps(lam, v))
            u, sigma = _on_rows(boundary,
                                lambda take: steer(take(x), take(d)), v)
            return ControlResult(u, np.where(boundary, "boundary", "origin"),
                                 sigma)

        return law


@dataclass(frozen=True, eq=False)
class MinPStar:
    """min_p_star: the least effort that makes lie V = -rate_eta V."""

    clf: ClfParams = DEFAULT_CLF
    metric: MetricSpec = _EUCLIDEAN
    rate_eta: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_eta is None or not (self.rate_eta > 0.0):
            raise ValueError(f"min_p_star needs rate_eta > 0, got "
                             f"{self.rate_eta}")

    def bind(self, oracle: ObjectiveOracle) -> Law:
        """The min_p_star law for oracle, built once per run."""
        p = self.clf
        eta = float(self.rate_eta)
        # clf_value's 0.5 * p.a and 0.5 * p.b, folded
        a, b, c, half_a, half_b = _held(p.a, p.b, p.c, 0.5 * p.a, 0.5 * p.b)
        inverse = _inverse(self.metric, oracle)
        zero = np.zeros(oracle.dim)
        constant = oracle.constant_hessian

        def steer(x: Array, d: Array, gap: Array,
                  H: Array) -> tuple[Array, Array]:
            """(u, sigma) on stacked rows."""
            z = d + zero if inverse is None else inverse(x, d, H)
            sigma = gap / np.vecdot(d, z)
            return _pull(sigma, z), sigma

        def law(x: Array, lam: Array, v: Array) -> ControlResult:
            H = oracle.hessian(x) if constant is None else constant
            # where the uncontrolled decay meets the rate, save the effort; a
            # nan gap needs control, and without authority is infeasible
            if lam.ndim == 1:
                c_lam = c * lam
                # the drift is (-w) . Hv, whose dot sums a zero to +0.0;
                # w . Hv can give -0.0 there, so its zero is not negated
                s = (a * lam + c * v).dot(H.dot(v))
                drift = -float(s) if s else 0.0
                rho = eta * float(_value(half_a, half_b, c_lam, lam, v))
                gap = drift + rho
                if gap <= 0.0:
                    return ControlResult(np.zeros(len(v)), "inactive", 0.0,
                                         drift, rho)
                d = c_lam + b * v  # grad_v V
                if not math.sqrt(d.dot(d)) > 1e-10 * (
                        1.0 + math.sqrt(lam.dot(lam)) + math.sqrt(v.dot(v))):
                    raise _infeasible(self, oracle, x, lam, v, drift, rho)
                z = d + zero if inverse is None else inverse(x, d, H)
                # lie V = drift - sigma * quad = -rho, the rate binds
                # exactly. u = -sigma z goes into z, a fresh vector, and
                # -gap / quad is -sigma bit for bit.
                minus = -gap / d.dot(z)
                np.multiply(minus, z, out=z)
                return ControlResult(z, "active", -float(minus), drift, rho)
            drift = np.vecdot(-(a * lam + c * v), np.matvec(H, v))
            rho = eta * clf_value(p, lam, v)
            gap = drift + rho
            need = ~(gap <= 0.0)
            d = c * lam + b * v

            def rows_of(
                    take: Callable[[Array], Array]) -> tuple[Array, Array]:
                # one Hessian for every row (a quadratic's) is not indexed
                return steer(take(x), take(d), take(gap),
                             take(H) if H.ndim == 3 else H)

            stuck = need & ~(state_norm(d) > _eps(lam, v))
            if stuck.any():
                k = int(np.argmax(stuck))
                # the rows before it raise what one-state calls raise
                _on_rows(need & (np.arange(len(need)) < k), rows_of, v)
                raise _infeasible(self, oracle, x[k], lam[k], v[k], drift[k],
                                  rho[k])
            u, sigma = _on_rows(need, rows_of, v)
            return ControlResult(u, np.where(need, "active", "inactive"),
                                 sigma, drift, rho)

        return law


@dataclass(frozen=True, eq=False)
class Direct:
    """direct: u = gamma_a lambda - gamma_b v - gamma_c hess E(x) v.

    The gains must meet the certificate's stability conditions
    (validate_direct_gains). The law weights no effort, so it takes no
    metric: its metric is the identity, a class constant.
    """

    gamma_a: float
    gamma_b: float
    gamma_c: float
    clf: ClfParams = DEFAULT_CLF
    metric: ClassVar[MetricSpec] = _EUCLIDEAN

    def __post_init__(self) -> None:
        violations = validate_direct_gains(self.clf, self.gamma_a,
                                           self.gamma_b, self.gamma_c)
        if violations:
            raise ValueError("direct gains violate the stability conditions: "
                             + "; ".join(violations))

    def bind(self, oracle: ObjectiveOracle) -> Law:
        """The direct law for oracle, built once per run."""
        gamma_a, gamma_b, gamma_c = _held(self.gamma_a, self.gamma_b,
                                          self.gamma_c)
        constant = oracle.constant_hessian

        def law(x: Array, lam: Array, v: Array) -> ControlResult:
            H = oracle.hessian(x) if constant is None else constant
            # ndarray.dot is np.matvec's gemv for one state. A 1 x 1 dot is
            # a plain product, whose H (-0.0) = -0.0 np.matvec gives as
            # +0.0, but u is the same: there gamma_a lam - gamma_b v is
            # +0.0 or nonzero
            one = v.ndim == 1
            u = (gamma_a * lam - gamma_b * v
                 - gamma_c * (H.dot(v) if one else np.matvec(H, v)))
            return ControlResult(u, "linear" if one
                                 else np.full(len(u), "linear"))

        return law


ControllerSpec = Union[MinP, MinPStar, Direct]


# ---------------------------------------------------------------------------
# named flows
# ---------------------------------------------------------------------------


def momentum_flow_controller(gamma_a: float, gamma_b: float,
                             metric: MetricSpec) -> MinP:
    """Constant-gain controller realizing v' = -W^{-1}(gamma_a grad E + gamma_b v).

    Internally this is min_p in fixed_sigma mode with a certificate built
    to put the requested gain pair on the ray (-c sigma, b sigma). With the
    Euclidean metric the closed loop is heavy-ball damping; with the
    Hessian or quasi-Newton metric it is the corresponding Newton-type
    flow.
    """
    if not (gamma_a > 0.0 and gamma_b > 0.0):
        raise ValueError(f"need gamma_a, gamma_b > 0, got ({gamma_a}, {gamma_b})")
    # b = 1 makes sigma_q = gamma_b; c follows from the gain ratio and a
    # sits strictly above c^2 to keep the certificate positive definite
    c = -gamma_a / gamma_b
    clf = ClfParams(a=c * c + 1.0, b=1.0, c=c, pd_hessian_mode=True)
    return MinP(clf=clf, metric=metric, delta_mode=DeltaMode.FIXED_SIGMA,
                sigma_q=gamma_b)


def polyak_controller(gamma_a: float, gamma_b: float) -> MinP:
    """Heavy-ball flow x'' + gamma_b x' + gamma_a grad E(x) = 0."""
    return momentum_flow_controller(gamma_a, gamma_b, _EUCLIDEAN)


def accelerated_newton_controller(gamma_a: float, gamma_b: float,
                                  eig_floor: float = 1e-6) -> MinP:
    """Newton-damped flow: the momentum flow in the Hessian metric."""
    return momentum_flow_controller(
        gamma_a, gamma_b, MetricSpec(MetricKind.HESSIAN, eig_floor=eig_floor))


def quasi_newton_flow_controller(gamma_a: float, gamma_b: float,
                                 eig_floor: float = 1e-6) -> MinP:
    """Momentum flow in a quasi-Newton metric updated along the trajectory."""
    return momentum_flow_controller(
        gamma_a, gamma_b, MetricSpec(MetricKind.QUASI_NEWTON, eig_floor=eig_floor))


def nesterov_flow_controller(gamma_a: float,
                             clf: ClfParams = DEFAULT_CLF) -> Direct:
    """Gradient-corrected momentum flow via the direct family.

    Given the certificate, one free gain magnitude remains; gamma_b and
    gamma_c follow from the stability conditions b gamma_a = c K_b and
    gamma_c = -a/c. The closed loop is

        x'' + gamma_c hess E(x) x' + gamma_b x' + gamma_a grad E(x) = 0.
    """
    if not (clf.c < 0.0):
        raise ValueError("nesterov_flow_controller needs a certificate with c < 0")
    gamma_b = -clf.b * gamma_a / clf.c
    gamma_c = -clf.a / clf.c
    return Direct(gamma_a, gamma_b, gamma_c, clf=clf)


# ---------------------------------------------------------------------------
# gain algebra
# ---------------------------------------------------------------------------


def gains_from_sigma(clf: ClfParams, sigma_q: float) -> tuple[float, float]:
    """Read the (gamma_a, gamma_b) gain pair off a constant multiplier.

    u = -sigma W^{-1} grad_v V with lambda = -grad E expands to
    -W^{-1}((-c sigma) grad E + (b sigma) v), so the gains are
    (-c sigma, b sigma). Both are positive exactly when c < 0; a positive
    c flips gamma_a into an anti-gradient-descent sign, which is almost
    surely a configuration mistake, hence the warning.
    """
    if not (sigma_q > 0.0):
        raise ValueError(f"sigma_q must be positive, got {sigma_q}")
    gamma_a = -clf.c * sigma_q
    gamma_b = clf.b * sigma_q
    if gamma_a < 0.0:
        warnings.warn("c > 0 makes gamma_a negative: the flow pushes along "
                      "the gradient instead of against it", UserWarning,
                      stacklevel=2)
    return gamma_a, gamma_b


def validate_direct_gains(clf: ClfParams, gamma_a: float, gamma_b: float,
                          gamma_c: float) -> tuple[str, ...]:
    """The stability conditions the linear-feedback gains violate under the
    certificate, one line each: empty when the gains hold.

    In feedback form u = K_a lambda + K_b v + K_c hess E(x) v with
    K_a = gamma_a, K_b = -gamma_b, K_c = -gamma_c. Stability of the
    closed loop under the certificate asks for K_a > 0, K_b < 0, the
    coupling identity b K_a = c K_b, and K_c = a/c.
    """
    if not (clf.c < 0.0):
        raise ValueError(f"direct gains require a certificate with c < 0, "
                         f"got c={clf.c}")
    k_a, k_b, k_c = gamma_a, -gamma_b, -gamma_c
    violations = []
    if not (k_a > 0.0):
        violations.append(f"K_a = gamma_a must be positive, got {k_a}")
    if not (k_b < 0.0):
        violations.append(f"K_b = -gamma_b must be negative, got {k_b}")
    lhs, rhs = clf.b * k_a, clf.c * k_b
    if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs), 1.0):
        violations.append(f"coupling b K_a = c K_b violated: {lhs} vs {rhs}")
    target = clf.a / clf.c
    if abs(k_c - target) > 1e-12 * max(abs(target), 1.0):
        violations.append(f"K_c must equal a/c = {target}, got {k_c}")
    return tuple(violations)


# ---------------------------------------------------------------------------
# pointwise control laws
# ---------------------------------------------------------------------------


def evaluate_control(spec: Union[ControllerSpec, Law],
                     oracle: ObjectiveOracle, x: Array, lambda_x: Array,
                     v: Array) -> ControlResult:
    """Evaluate the controller, with diagnostics: the checked entry.

    spec is a controller spec, bound here for oracle, or a law a caller
    already bound for oracle (spec.bind), which is called as it is: a run
    checks its start state with the law it then steps with, so it binds
    once. x, lambda_x and v are one state (n,) or N stacked states (N, n).
    For stacked states every ControlResult field holds one entry per row, and
    each row holds the bits the one-state call gives it. A branch is a
    mask over the rows, and a row that takes no control gets u = +0.0.
    min_p_star raises at the first row where it is infeasible, with the
    error the one-state call raises there. The law takes a Hessian that
    depends on the point in row blocks (objective._row_blocks), one call
    per block, in row order, and never holds one per row of them all.
    """
    lam = np.asarray(lambda_x, dtype=float)
    vv = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != oracle.dim:
        raise ValueError(f"x has shape {x.shape}, expected ({oracle.dim},) "
                         f"or (N, {oracle.dim})")
    if vv.shape != x.shape:
        raise ValueError(f"v has shape {vv.shape}, expected {x.shape}")
    if lam.shape != x.shape:
        raise ValueError(f"lambda has shape {lam.shape}, expected {x.shape}")
    law = spec if callable(spec) else spec.bind(oracle)
    parts = [law(x[rows], lam[rows], vv[rows])
             for rows in _row_blocks(oracle, x)]
    return parts[0] if len(parts) == 1 else ControlResult(*(
        None if getattr(parts[0], name) is None
        else np.concatenate([getattr(part, name) for part in parts])
        for name in ControlResult.__slots__))


def _held(*values: float) -> tuple[Array, ...]:
    """A law's coefficients as 0-d float64 arrays (see the module
    docstring)."""
    return tuple(np.array(float(value)) for value in values)


def _inverse(metric: MetricSpec,
             oracle: ObjectiveOracle) -> Optional[Callable]:
    """(x, d, H=None) -> W^{-1} d for the metric at x, one row or stacked.

    None for the identity metric (Euclidean, or quasi-Newton before its
    first update), which needs no solve: the laws add +0.0 to d there, as
    a zero vector made at bind (see _held), and so does the discrete
    Newton driver. That matches the solve bit for
    bit except at a -0.0 in d: it always maps that to +0.0, while the
    LAPACK solve does so at some positions and keeps -0.0 at others,
    depending on the signs of the other entries. H is hess E(x) when the
    caller already holds it. No metric is certified again for the solve:
    each got its certificate where it was made.

    A W that does not depend on the point (a quasi-Newton matrix, or a
    Hessian metric over oracle.constant_hessian) is made and factored
    once, at the law's first solve (metric._LU), and serves every stacked
    row: the law floors a constant Hessian there, once, with no hessian
    call. A Hessian per row is floored and solved one row at a time, in
    row order, so the first row that fails raises what its one-row call
    raises.
    """
    if metric.kind is MetricKind.EUCLIDEAN or (
            metric.kind is MetricKind.QUASI_NEWTON and metric.qn_state is None):
        return None
    if (metric.kind is not MetricKind.HESSIAN
            or oracle.constant_hessian is not None):
        lu: Optional[_LU] = None

        def fixed(x: Array, d: Array, H: Optional[Array] = None) -> Array:
            nonlocal lu
            if lu is None:
                lu = _LU(metric_matrix(metric, oracle, x))
            return lu.solve(d)

        return fixed

    def inverse(x: Array, d: Array, H: Optional[Array] = None) -> Array:
        if H is None:
            H = oracle.hessian_at(x)
        if H.ndim == 3:  # not by a self-call, a cycle
            return np.array([
                metric_solve(metric_matrix(metric, oracle, xk, Hk), dk)
                for xk, dk, Hk in zip(x, d, H)])
        return metric_solve(metric_matrix(metric, oracle, x, H), d)

    return inverse


def _on_rows(rows: Array, steer: Callable,
             like: Array) -> tuple[Array, Array]:
    """steer's (u, sigma) on the stacked rows where rows holds, 0.0 on the
    others. steer reads its inputs through the take it is given: whole when
    rows holds everywhere, a[rows] otherwise, and no call when nowhere."""
    if rows.all():
        return steer(lambda a: a)
    u, sigma = np.zeros_like(like), np.zeros(rows.shape)
    if rows.any():
        u[rows], sigma[rows] = steer(lambda a: a[rows])
    return u, sigma


def _pull(sigma: Union[float, Array], z: Array) -> Array:
    """-sigma z, with one sigma per row for stacked rows."""
    return -(sigma[:, None] if z.ndim == 2 else sigma) * z


def _infeasible(spec: MinPStar, oracle: ObjectiveOracle, x: Array,
                lam: Array, vv: Array, drift: float,
                rho: float) -> InfeasibleStateError:
    """The error for one state that needs control and has no authority."""
    report = drift_condition_check(spec.clf, oracle, x, lam, vv)
    if report.applicable and not report.holds:
        detail = (f"the drift condition fails there (drift_term = "
                  f"{report.drift_term:.6g} <= 0)")
    else:
        detail = (f"the drift decays but slower than the requested rate "
                  f"(drift = {drift:.6g}, rho = {rho:.6g}); lower rate_eta")
    return InfeasibleStateError(
        "min_p_star has no control authority on grad_v V = 0 and " + detail,
        report)
