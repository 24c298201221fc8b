"""Discrete optimization steps generated by the continuous flows.

The algebra here is exact, not asymptotic: conjugate-gradient iterations
rewrite as heavy-ball momentum steps, the one-step and two-step forms of
gradient-corrected momentum generate identical sequences, and the flow
gains map onto step-size/momentum/correction coefficients. The tests pin
these identities at rounding-error tolerances, so every function keeps
the update exactly in the stated form rather than an algebraically
rearranged one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .metric import MetricKind, MetricSpec, metric_matrix, metric_solve, \
    quasi_newton_update
from .objective import ObjectiveOracle

Array = np.ndarray
Schedule = Callable[[int], float]


@dataclass(frozen=True, eq=False)
class StepAux:
    """Per-step coefficients and quantities, where applicable."""

    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None
    beta_cg: Optional[float] = None
    g: Optional[Array] = None
    v: Optional[Array] = None


@dataclass(eq=False)
class IterateSequence:
    points: list[Array]
    aux: list[StepAux] = field(default_factory=list)

    def as_array(self) -> Array:
        return np.array(self.points)

    def grad_norms(self, oracle: ObjectiveOracle) -> Array:
        return np.array([np.linalg.norm(oracle.gradient(x))
                         for x in self.points])


def constant(value: float) -> Schedule:
    """Constant coefficient schedule."""
    return lambda k: value


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def heavy_ball_step(oracle: ObjectiveOracle, x_k: Array, x_km1: Array,
                    alpha_k: float, beta_k: float) -> Array:
    """x_{k+1} = x_k - alpha_k grad E(x_k) + beta_k (x_k - x_{k-1})."""
    x_k = np.asarray(x_k, dtype=float)
    x_km1 = np.asarray(x_km1, dtype=float)
    return x_k - alpha_k * oracle.gradient(x_k) + beta_k * (x_k - x_km1)


def cg_to_momentum(alpha_k: float, alpha_km1: float, beta_cg_k: float) -> float:
    """Momentum coefficient equivalent to a conjugate-gradient correction.

    Folding v_{k-1} = (x_k - x_{k-1}) / alpha_{k-1} into the CG update
    turns the direction recursion into a heavy-ball step with
    beta_k = alpha_k beta^CG_k / alpha_{k-1}.
    """
    if not (alpha_km1 > 0.0):
        raise ValueError(f"alpha_km1 must be positive, got {alpha_km1}")
    return alpha_k * beta_cg_k / alpha_km1


def nesterov_two_step(oracle: ObjectiveOracle, y_k: Array, x_km1: Array,
                      alpha_k: float, beta_k: float) -> tuple[Array, Array]:
    """Lookahead form: descend at y_k, then extrapolate past the new point."""
    y_k = np.asarray(y_k, dtype=float)
    x_km1 = np.asarray(x_km1, dtype=float)
    x_k = y_k - alpha_k * oracle.gradient(y_k)
    y_kp1 = x_k + beta_k * (x_k - x_km1)
    return x_k, y_kp1


def nesterov_one_step(oracle: ObjectiveOracle, x_k: Array, x_km1: Array,
                      g_km1: Array, alpha_k: float, beta_k: float,
                      gamma_k: float) -> Array:
    """Momentum step with a gradient-correction term.

    x_{k+1} = x_k - alpha_k g_k + beta_k (x_k - x_{k-1})
                  - gamma_k (g_k - g_{k-1}),

    the discretization of the flow whose damping includes a Hessian term;
    gamma_k = alpha_k beta_k recovers the lookahead form exactly.
    """
    x_k = np.asarray(x_k, dtype=float)
    x_km1 = np.asarray(x_km1, dtype=float)
    g_km1 = np.asarray(g_km1, dtype=float)
    g_k = oracle.gradient(x_k)
    return (x_k - alpha_k * g_k + beta_k * (x_k - x_km1)
            - gamma_k * (g_k - g_km1))


def flow_to_discrete(gains: Sequence[float], h: float) -> tuple[float, float, float]:
    """Map flow gains (gamma_a, gamma_b, gamma_c) to step coefficients.

    Central differencing of the acceleration and backward differencing of
    the two damping terms give

        alpha = gamma_a h^2,  beta = 1 - gamma_b h,  gamma = gamma_c h,

    first-order accurate in h. A step size with 1 - gamma_b h < 0 would
    flip the momentum sign, so it is rejected.
    """
    gamma_a, gamma_b, gamma_c = (float(g) for g in gains)
    if not (h > 0.0):
        raise ValueError(f"h must be positive, got {h}")
    beta = 1.0 - gamma_b * h
    if beta < 0.0:
        raise ValueError(
            f"1 - gamma_b h = {beta} < 0: unstable momentum coefficient, "
            f"reduce h below {1.0 / gamma_b:.3g}")
    return gamma_a * h * h, beta, gamma_c * h


def accelerated_newton_step(oracle: ObjectiveOracle, metric: MetricSpec,
                            x_k: Array, v_k: Array, gains: Sequence[float],
                            h: float) -> tuple[Array, Array]:
    """Semi-implicit Euler step of the metric-weighted momentum flow.

        v_{k+1} = v_k - h W^{-1}(gamma_a grad E(x_k) + gamma_b v_k)
        x_{k+1} = x_k + h v_{k+1}

    The metric must be curvature-carrying (hessian or quasi_newton); with
    the identity there is nothing Newton-like about the step. Quasi-Newton
    state updates belong to the caller, which sees both endpoints.
    """
    if metric.kind is MetricKind.EUCLIDEAN:
        raise ValueError("accelerated_newton_step needs a hessian or "
                         "quasi_newton metric")
    if not (h > 0.0):
        raise ValueError(f"h must be positive, got {h}")
    gamma_a, gamma_b = (float(g) for g in gains)
    x_k = np.asarray(x_k, dtype=float)
    v_k = np.asarray(v_k, dtype=float)
    W = metric_matrix(metric, oracle, x_k)
    # shift_to_floor already certified a Hessian metric
    v_kp1 = v_k - h * metric_solve(W, gamma_a * oracle.gradient(x_k)
                                   + gamma_b * v_k,
                                   certified=metric.kind is MetricKind.HESSIAN)
    return x_k + h * v_kp1, v_kp1


# ---------------------------------------------------------------------------
# iteration drivers
# ---------------------------------------------------------------------------


def heavy_ball_iterate(oracle: ObjectiveOracle, x0: Array, steps: int,
                       alpha: Schedule, beta: Schedule,
                       x_m1: Optional[Array] = None,
                       tol_g: Optional[float] = None) -> IterateSequence:
    """Run heavy_ball_step; x_{-1} defaults to x0 (no initial momentum)."""
    x = np.asarray(x0, dtype=float)
    x_prev = x.copy() if x_m1 is None else np.asarray(x_m1, dtype=float)
    seq = IterateSequence(points=[x.copy()])
    for k in range(steps):
        a, b = alpha(k), beta(k)
        x_new = heavy_ball_step(oracle, x, x_prev, a, b)
        seq.aux.append(StepAux(alpha=a, beta=b, g=oracle.gradient(x)))
        x_prev, x = x, x_new
        seq.points.append(x.copy())
        if tol_g is not None and np.linalg.norm(oracle.gradient(x)) <= tol_g:
            break
    return seq


def cg_iterate(oracle: ObjectiveOracle, x0: Array, steps: int,
               alpha_rule: Callable, beta_cg_rule: Callable,
               tol_g: Optional[float] = None) -> IterateSequence:
    """Two-sequence conjugate-gradient form.

        v_k = -g_k + beta^CG_k v_{k-1},   x_{k+1} = x_k + alpha_k v_k,

    with v_{-1} = 0, so the first direction is steepest descent and
    beta^CG_0 is recorded as 0 without consulting the rule. Rules receive
    (oracle, k, x_k, g_k, v_km1 or g_km1) so both canned and custom
    schedules fit one shape.
    """
    x = np.asarray(x0, dtype=float)
    v = np.zeros_like(x)
    g_prev = None
    seq = IterateSequence(points=[x.copy()])
    for k in range(steps):
        g = oracle.gradient(x)
        b = 0.0 if k == 0 else float(beta_cg_rule(oracle, k, g, g_prev))
        if b < 0.0:
            raise ValueError(f"beta_cg_rule returned {b} < 0 at step {k}")
        v = -g + b * v
        a = float(alpha_rule(oracle, k, x, g, v))
        if a < 0.0:
            raise ValueError(f"alpha_rule returned {a} < 0 at step {k}")
        x = x + a * v
        seq.aux.append(StepAux(alpha=a, beta_cg=b, g=g, v=v.copy()))
        seq.points.append(x.copy())
        g_prev = g
        if tol_g is not None and np.linalg.norm(oracle.gradient(x)) <= tol_g:
            break
    return seq


def exact_line_search_alpha(oracle: ObjectiveOracle, k: int, x: Array,
                            g: Array, v: Array) -> float:
    """Exact minimizer along v for locally quadratic objectives."""
    Hv = oracle.hessian(x) @ v
    curv = float(v @ Hv)
    if curv <= 0.0:
        raise ValueError(f"nonpositive curvature {curv} along the search "
                         f"direction at step {k}")
    return -float(g @ v) / curv


def fletcher_reeves_beta(oracle: ObjectiveOracle, k: int, g: Array,
                         g_prev: Array) -> float:
    gg_prev = float(g_prev @ g_prev)
    if gg_prev == 0.0:
        return 0.0
    return float(g @ g) / gg_prev


def nesterov_one_step_iterate(oracle: ObjectiveOracle, x0: Array, steps: int,
                              alpha: Schedule, beta: Schedule,
                              gamma: Optional[Schedule] = None,
                              tol_g: Optional[float] = None) -> IterateSequence:
    """Run nesterov_one_step from x_{-1} = x0, g_{-1} = grad E(x0).

    gamma defaults to the product alpha(k) * beta(k), the choice under
    which this sequence coincides with the lookahead sequence of the
    two-step form.
    """
    x = np.asarray(x0, dtype=float)
    x_prev = x.copy()
    g_prev = oracle.gradient(x)
    seq = IterateSequence(points=[x.copy()])
    for k in range(steps):
        a, b = alpha(k), beta(k)
        c = a * b if gamma is None else gamma(k)
        g = oracle.gradient(x)
        x_new = nesterov_one_step(oracle, x, x_prev, g_prev, a, b, c)
        seq.aux.append(StepAux(alpha=a, beta=b, gamma=c, g=g))
        x_prev, x, g_prev = x, x_new, g
        seq.points.append(x.copy())
        if tol_g is not None and np.linalg.norm(oracle.gradient(x)) <= tol_g:
            break
    return seq


def nesterov_two_step_iterate(oracle: ObjectiveOracle, x0: Array, steps: int,
                              alpha: Schedule, beta: Schedule,
                              tol_g: Optional[float] = None) -> IterateSequence:
    """Run nesterov_two_step from y_0 = x0.

    points holds the lookahead sequence y_0, y_1, ..., where the gradient
    is actually evaluated; the descent iterates x_k ride along in aux.
    The first extrapolation uses x_{-1} = x_0 (the first descent point),
    so it starts momentum-free, matching the one-step driver's seeding.
    """
    y = np.asarray(x0, dtype=float)
    x_prev: Optional[Array] = None
    seq = IterateSequence(points=[y.copy()])
    for k in range(steps):
        a, b = alpha(k), beta(k)
        g = oracle.gradient(y)
        x_k = y - a * g
        y = x_k + b * (x_k - (x_k if x_prev is None else x_prev))
        x_prev = x_k
        seq.aux.append(StepAux(alpha=a, beta=b, g=g, v=x_k.copy()))
        seq.points.append(y.copy())
        if tol_g is not None and np.linalg.norm(oracle.gradient(y)) <= tol_g:
            break
    return seq


def accelerated_newton_iterate(oracle: ObjectiveOracle, metric: MetricSpec,
                               x0: Array, gains: Sequence[float], h: float,
                               steps: int, v0: Optional[Array] = None,
                               tol_g: Optional[float] = None) -> IterateSequence:
    """Drive accelerated_newton_step, owning quasi-Newton state updates."""
    x = np.asarray(x0, dtype=float)
    v = np.zeros_like(x) if v0 is None else np.asarray(v0, dtype=float)
    g = oracle.gradient(x)
    seq = IterateSequence(points=[x.copy()])
    for k in range(steps):
        x_new, v_new = accelerated_newton_step(oracle, metric, x, v, gains, h)
        g_new = oracle.gradient(x_new)
        if metric.kind is MetricKind.QUASI_NEWTON:
            metric = quasi_newton_update(metric, x_new - x, g_new - g)
        x, v, g = x_new, v_new, g_new
        seq.aux.append(StepAux(alpha=h, g=g, v=v.copy()))
        seq.points.append(x.copy())
        if tol_g is not None and np.linalg.norm(g) <= tol_g:
            break
    return seq
