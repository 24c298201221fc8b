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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .clf import (
    ClfParams,
    DEFAULT_CLF,
    DriftReport,
    _eps,
    clf_value,
    drift_condition_check,
    state_norm,
)
from .metric import MetricKind, MetricSpec, metric_matrix, metric_solve
from .objective import ObjectiveOracle

Array = np.ndarray


class ControllerFamily(str, Enum):
    MIN_P = "min_p"
    MIN_P_STAR = "min_p_star"
    DIRECT = "direct"


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


@dataclass(frozen=True)
class DirectGains:
    gamma_a: float
    gamma_b: float
    gamma_c: float


@dataclass(frozen=True)
class GainReport:
    holds: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class ControllerSpec:
    """One controller = family + certificate + metric + family parameters.

    Exactly the active family's parameter block may be set; the factories
    below are the intended way to build these.
    """

    family: ControllerFamily
    clf: ClfParams
    metric: MetricSpec
    delta: Optional[float] = None          # min_p, constant and taper modes
    delta_mode: DeltaMode = DeltaMode.CONSTANT
    sigma_q: Optional[float] = None        # min_p, fixed_sigma mode
    rate_eta: Optional[float] = None       # min_p_star
    gains: Optional[DirectGains] = None    # direct

    def __post_init__(self) -> None:
        if self.family is ControllerFamily.MIN_P:
            self._require_none(rate_eta=self.rate_eta, gains=self.gains)
            if self.delta_mode is DeltaMode.FIXED_SIGMA:
                if self.delta is not None:
                    raise ValueError("fixed_sigma mode ignores delta; leave it unset")
                if self.sigma_q is None or not (self.sigma_q > 0.0):
                    raise ValueError(f"fixed_sigma mode needs sigma_q > 0, got "
                                     f"{self.sigma_q}")
            else:
                if self.sigma_q is not None:
                    raise ValueError("sigma_q only applies to fixed_sigma mode")
                if self.delta is None or not (self.delta > 0.0):
                    raise ValueError(f"min_p needs delta > 0, got {self.delta}")
        elif self.family is ControllerFamily.MIN_P_STAR:
            self._require_none(delta=self.delta, sigma_q=self.sigma_q,
                               gains=self.gains)
            if self.rate_eta is None or not (self.rate_eta > 0.0):
                raise ValueError(f"min_p_star needs rate_eta > 0, got {self.rate_eta}")
        elif self.family is ControllerFamily.DIRECT:
            self._require_none(delta=self.delta, sigma_q=self.sigma_q,
                               rate_eta=self.rate_eta)
            if self.gains is None:
                raise ValueError("direct controller needs gains")
            report = validate_direct_gains(self.clf, self.gains.gamma_a,
                                           self.gains.gamma_b, self.gains.gamma_c)
            if not report.holds:
                raise ValueError("direct gains violate the stability conditions: "
                                 + "; ".join(report.violations))
        else:
            raise ValueError(f"unknown controller family {self.family!r}")

    def _require_none(self, **fields) -> None:
        for name, value in fields.items():
            if value is not None:
                raise ValueError(
                    f"{name} does not belong to the {self.family.value} family")


@dataclass(frozen=True, eq=False)
class ControlResult:
    """Control value plus the diagnostics tests and verifiers care about.

    sigma is the scalar multiplier on -W^{-1} grad_v V (None for the direct
    family); drift and rho are only filled by min_p_star, which computes
    them anyway. For N stacked states u is (N, n), and branch, sigma,
    drift and rho hold one entry per row.
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


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


def min_p_controller(clf: ClfParams = DEFAULT_CLF,
                     metric: MetricSpec = MetricSpec(MetricKind.EUCLIDEAN),
                     delta: Optional[float] = 1.0,
                     delta_mode: DeltaMode = DeltaMode.CONSTANT,
                     sigma_q: Optional[float] = None) -> ControllerSpec:
    if delta_mode is DeltaMode.FIXED_SIGMA:
        delta = None
    return ControllerSpec(ControllerFamily.MIN_P, clf, metric, delta=delta,
                          delta_mode=delta_mode, sigma_q=sigma_q)


def min_p_star_controller(clf: ClfParams = DEFAULT_CLF,
                          metric: MetricSpec = MetricSpec(MetricKind.EUCLIDEAN),
                          rate_eta: float = 1.0) -> ControllerSpec:
    return ControllerSpec(ControllerFamily.MIN_P_STAR, clf, metric,
                          rate_eta=rate_eta)


def direct_controller(gamma_a: float, gamma_b: float, gamma_c: float,
                      clf: ClfParams = DEFAULT_CLF) -> ControllerSpec:
    """Linear feedback: it weights no effort, so its metric is Euclidean."""
    return ControllerSpec(ControllerFamily.DIRECT, clf,
                          MetricSpec(MetricKind.EUCLIDEAN),
                          gains=DirectGains(gamma_a, gamma_b, gamma_c))


def momentum_flow_controller(gamma_a: float, gamma_b: float,
                             metric: MetricSpec) -> ControllerSpec:
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
    return min_p_controller(clf=clf, metric=metric,
                            delta_mode=DeltaMode.FIXED_SIGMA, sigma_q=gamma_b)


def polyak_controller(gamma_a: float, gamma_b: float) -> ControllerSpec:
    """Heavy-ball flow x'' + gamma_b x' + gamma_a grad E(x) = 0."""
    return momentum_flow_controller(gamma_a, gamma_b,
                                    MetricSpec(MetricKind.EUCLIDEAN))


def accelerated_newton_controller(gamma_a: float, gamma_b: float,
                                  eig_floor: float = 1e-6) -> ControllerSpec:
    """Newton-damped flow: the momentum flow in the Hessian metric."""
    return momentum_flow_controller(
        gamma_a, gamma_b, MetricSpec(MetricKind.HESSIAN, eig_floor=eig_floor))


def quasi_newton_flow_controller(gamma_a: float, gamma_b: float,
                                 eig_floor: float = 1e-6) -> ControllerSpec:
    """Momentum flow in a quasi-Newton metric updated along the trajectory."""
    return momentum_flow_controller(
        gamma_a, gamma_b, MetricSpec(MetricKind.QUASI_NEWTON, eig_floor=eig_floor))


def nesterov_flow_controller(gamma_a: float,
                             clf: ClfParams = DEFAULT_CLF) -> ControllerSpec:
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
    return direct_controller(gamma_a, gamma_b, gamma_c, clf=clf)


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
                          gamma_c: float) -> GainReport:
    """Check the linear-feedback gains against the certificate.

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
    return GainReport(holds=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# pointwise control laws
# ---------------------------------------------------------------------------


def evaluate_control(spec: ControllerSpec, oracle: ObjectiveOracle, x: Array,
                     lambda_x: Array, v: Array) -> ControlResult:
    """Evaluate the controller, with diagnostics.

    x, lambda_x and v are one state (n,) or N stacked states (N, n). For
    stacked states every ControlResult field holds one entry per row, and
    each row holds the bits the one-state call gives it. A branch is a
    mask over the rows, and a row that takes no control gets u = +0.0.
    min_p_star raises at the first row where it is infeasible, with the
    error the one-state call raises there.
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

    if spec.family is ControllerFamily.MIN_P:
        return _min_p(spec, oracle, x, lam, vv)
    if spec.family is ControllerFamily.MIN_P_STAR:
        return _min_p_star(spec, oracle, x, lam, vv)
    return _direct(spec, oracle, x, lam, vv)


def _metric_inverse(metric: MetricSpec, oracle: ObjectiveOracle, x: Array,
                    d: Array, H: Optional[Array] = None) -> Array:
    """W^{-1} d for the metric resolved at x, for one row or stacked rows.

    The identity metric (Euclidean, or quasi-Newton before its first
    update) needs no solve. d + 0.0 matches the solve bit for bit except
    at a -0.0 in d: it always maps that to +0.0, while the LAPACK solve
    does so at some positions and keeps -0.0 at others, depending on the
    signs of the other entries. H is hess E(x) when the caller already
    holds it. No metric is factored again for the solve: each got its
    certificate where it was made.

    One W serves every stacked row when it does not depend on the point
    (a quadratic's Hessian, a quasi-Newton matrix). A Hessian per row is
    floored and solved one row at a time, in row order, so the first row
    that fails raises what its one-row call raises.
    """
    if metric.kind is MetricKind.EUCLIDEAN or (
            metric.kind is MetricKind.QUASI_NEWTON and metric.qn_state is None):
        return d + 0.0
    if metric.kind is MetricKind.HESSIAN and H is None:
        H = oracle.hessian(x)
    if H is not None and H.ndim == 3:
        return np.array([_metric_inverse(metric, oracle, xk, dk, Hk)
                         for xk, dk, Hk in zip(x, d, H)])
    return metric_solve(metric_matrix(metric, oracle, x, H), d)


def _on_rows(rows: Array, law: Callable[[Optional[Array]], tuple[Array, Array]],
             like: Array) -> tuple[Array, Array]:
    """law's (u, sigma) on the rows where rows holds, 0.0 on the others.

    law reads its inputs through _take with the mask it is given. When
    rows holds everywhere, as it always does for one state that takes the
    branch, that mask is None and law sees its inputs whole; when rows
    holds nowhere, law is not called. One state's mask is a numpy bool,
    whose all() costs more than the rest of this.
    """
    if rows.ndim == 0:
        return law(None) if rows else (np.zeros_like(like), 0.0)
    if rows.all():
        return law(None)
    u, sigma = np.zeros_like(like), np.zeros(rows.shape)
    if rows.any():
        u[rows], sigma[rows] = law(rows)
    return u, sigma


def _take(a: Array, rows: Optional[Array]) -> Array:
    return a if rows is None else a[rows]


def _pull(sigma: Union[float, Array], z: Array) -> Array:
    """-sigma z, with one sigma per row for stacked rows."""
    return -(sigma[:, None] if z.ndim == 2 else sigma) * z


def _label(rows: Array, yes: str, no: str) -> Union[str, Array]:
    return np.where(rows, yes, no) if rows.ndim else (yes if rows else no)


def _result(u: Array, branch: Union[str, Array], sigma: Optional[Array] = None,
            drift: Optional[Array] = None,
            rho: Optional[Array] = None) -> ControlResult:
    """One state's diagnostics as floats, stacked states' as arrays."""
    if u.ndim == 2:
        return ControlResult(u, branch, sigma, drift, rho)
    if drift is None:
        return ControlResult(u, branch, float(sigma))
    return ControlResult(u, branch, float(sigma), float(drift), float(rho))


def _min_p(spec: ControllerSpec, oracle: ObjectiveOracle, x: Array,
           lam: Array, vv: Array) -> ControlResult:
    d = spec.clf.c * lam + spec.clf.b * vv  # grad_v V
    # where grad_v V vanishes, the control channel has no descent
    # direction for V: the origin branch. A nan norm is not on it.
    boundary = ~(state_norm(d) <= _eps(lam, vv))

    def law(rows: Optional[Array]) -> tuple[Array, Array]:
        dd = _take(d, rows)
        z = _metric_inverse(spec.metric, oracle, _take(x, rows), dd)
        if spec.delta_mode is DeltaMode.FIXED_SIGMA:
            sigma = (spec.sigma_q if dd.ndim == 1
                     else np.full(len(dd), spec.sigma_q))
        else:
            delta = spec.delta
            if spec.delta_mode is DeltaMode.TAPER:
                # fmin keeps delta against a nan, as Python's min does;
                # for one state min is the cheaper of the two
                dd2 = np.vecdot(dd, dd)
                delta = min(delta, dd2) if dd.ndim == 1 \
                    else np.fmin(delta, dd2)
            sigma = np.sqrt(delta / np.vecdot(dd, z))
        return _pull(sigma, z), sigma

    u, sigma = _on_rows(boundary, law, vv)
    return _result(u, _label(boundary, "boundary", "origin"), sigma)


def _min_p_star(spec: ControllerSpec, oracle: ObjectiveOracle, x: Array,
                lam: Array, vv: Array) -> ControlResult:
    p = spec.clf
    d = p.c * lam + p.b * vv  # grad_v V
    H = oracle.hessian(x)
    drift = np.vecdot(-(p.a * lam + p.c * vv), np.matvec(H, vv))
    rho = spec.rate_eta * clf_value(p, lam, vv)
    # where the uncontrolled decay already meets the rate, save the
    # effort; a nan gap needs control
    gap = drift + rho
    need = ~(gap <= 0.0)

    def law(rows: Optional[Array]) -> tuple[Array, Array]:
        dd = _take(d, rows)
        # one Hessian for every row (a quadratic's) is not indexed
        z = _metric_inverse(spec.metric, oracle, _take(x, rows), dd,
                            _take(H, rows) if H.ndim > x.ndim else H)
        sigma = _take(gap, rows) / np.vecdot(dd, z)
        # lie V = drift - sigma * quad = -rho, the rate binds exactly
        return _pull(sigma, z), sigma

    # a state that needs control and has no authority is infeasible
    if need.ndim == 0:
        if need and not state_norm(d) > _eps(lam, vv):
            raise _infeasible(spec, oracle, x, lam, vv, drift, rho)
    else:
        stuck = need & ~(state_norm(d) > _eps(lam, vv))
        if stuck.any():
            k = int(np.argmax(stuck))
            # the rows before it raise what they raise one state at a time
            _on_rows(need & (np.arange(len(need)) < k), law, vv)
            raise _infeasible(spec, oracle, x[k], lam[k], vv[k], drift[k],
                              rho[k])
    u, sigma = _on_rows(need, law, vv)
    return _result(u, _label(need, "active", "inactive"), sigma, drift, rho)


def _infeasible(spec: ControllerSpec, oracle: ObjectiveOracle, x: Array,
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


def _direct(spec: ControllerSpec, oracle: ObjectiveOracle, x: Array,
            lam: Array, vv: Array) -> ControlResult:
    g = spec.gains
    Hv = np.matvec(oracle.hessian(x), vv)
    u = g.gamma_a * lam - g.gamma_b * vv - g.gamma_c * Hv
    return ControlResult(u, "linear" if u.ndim == 1
                         else np.full(len(u), "linear"))
