"""Discrete optimization steps generated by the continuous flows.

The algebra here is exact, not asymptotic: conjugate-gradient iterations
rewrite as heavy-ball momentum steps, the one-step and two-step forms of
gradient-corrected momentum generate identical sequences, and the flow
gains map onto step-size/momentum/correction coefficients. The tests pin
these identities at rounding-error tolerances, so every function keeps
the update exactly in the stated form rather than an algebraically
rearranged one. Each formula exists once, as a private update that the
public single step and its driver share; every driver runs on one loop
that evaluates the gradient once per iterate and carries it forward.
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


@dataclass(eq=False)
class IterateSequence:
    """Iterates with the norm of the gradient at each of them.

    The drivers fill both lists as they go, one entry per iterate.
    """

    points: list[Array]
    grad_norms: list[float] = field(default_factory=list)


def constant(value: float) -> Schedule:
    """Constant coefficient schedule."""
    return lambda k: value


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def _heavy_ball(x_k: Array, x_km1: Array, g_k: Array, alpha_k: float,
                beta_k: float) -> Array:
    return x_k - alpha_k * g_k + beta_k * (x_k - x_km1)


def heavy_ball_step(oracle: ObjectiveOracle, x_k: Array, x_km1: Array,
                    alpha_k: float, beta_k: float) -> Array:
    """x_{k+1} = x_k - alpha_k grad E(x_k) + beta_k (x_k - x_{k-1})."""
    x_k = np.asarray(x_k, dtype=float)
    x_km1 = np.asarray(x_km1, dtype=float)
    return _heavy_ball(x_k, x_km1, oracle.gradient(x_k), alpha_k, beta_k)


def cg_to_momentum(alpha_k: float, alpha_km1: float, beta_cg_k: float) -> float:
    """Momentum coefficient equivalent to a conjugate-gradient correction.

    Folding v_{k-1} = (x_k - x_{k-1}) / alpha_{k-1} into the CG update
    turns the direction recursion into a heavy-ball step with
    beta_k = alpha_k beta^CG_k / alpha_{k-1}.
    """
    if not (alpha_km1 > 0.0):
        raise ValueError(f"alpha_km1 must be positive, got {alpha_km1}")
    return alpha_k * beta_cg_k / alpha_km1


def _nesterov_two_step(y_k: Array, x_km1: Optional[Array], g_k: Array,
                       alpha_k: float, beta_k: float) -> tuple[Array, Array]:
    x_k = y_k - alpha_k * g_k
    # x_{k-1} = None extrapolates from x_k itself: no momentum
    y_kp1 = x_k + beta_k * (x_k - (x_k if x_km1 is None else x_km1))
    return x_k, y_kp1


def nesterov_two_step(oracle: ObjectiveOracle, y_k: Array, x_km1: Array,
                      alpha_k: float, beta_k: float) -> tuple[Array, Array]:
    """Lookahead form: descend at y_k, then extrapolate past the new point."""
    y_k = np.asarray(y_k, dtype=float)
    x_km1 = np.asarray(x_km1, dtype=float)
    return _nesterov_two_step(y_k, x_km1, oracle.gradient(y_k), alpha_k,
                              beta_k)


def _nesterov_one_step(x_k: Array, x_km1: Array, g_k: Array, g_km1: Array,
                       alpha_k: float, beta_k: float, gamma_k: float) -> Array:
    return (x_k - alpha_k * g_k + beta_k * (x_k - x_km1)
            - gamma_k * (g_k - g_km1))


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
    return _nesterov_one_step(x_k, x_km1, oracle.gradient(x_k), g_km1,
                              alpha_k, beta_k, gamma_k)


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


def _check_newton(metric: MetricSpec, h: float) -> None:
    if metric.kind is MetricKind.EUCLIDEAN:
        raise ValueError("accelerated_newton_step needs a hessian or "
                         "quasi_newton metric")
    if not (h > 0.0):
        raise ValueError(f"h must be positive, got {h}")


def _accelerated_newton(oracle: ObjectiveOracle, metric: MetricSpec,
                        x_k: Array, v_k: Array, g_k: Array, gamma_a: float,
                        gamma_b: float, h: float) -> tuple[Array, Array]:
    W = metric_matrix(metric, oracle, x_k)
    v_kp1 = v_k - h * metric_solve(W, gamma_a * g_k + gamma_b * v_k)
    return x_k + h * v_kp1, v_kp1


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
    _check_newton(metric, h)
    gamma_a, gamma_b = (float(g) for g in gains)
    x_k = np.asarray(x_k, dtype=float)
    v_k = np.asarray(v_k, dtype=float)
    return _accelerated_newton(oracle, metric, x_k, v_k, oracle.gradient(x_k),
                               gamma_a, gamma_b, h)


# ---------------------------------------------------------------------------
# iteration drivers
# ---------------------------------------------------------------------------

#: step(k, x_k, g_k) -> x_{k+1}
Step = Callable[[int, Array, Array], Array]


def _iterate(oracle: ObjectiveOracle, x0: Array, steps: int,
             tol_g: Optional[float], step: Step) -> IterateSequence:
    """The one iteration loop behind every driver.

    The gradient is evaluated once per point, at x0 and then at each new
    iterate, where it serves the tol_g test and the next step; its norm is
    taken once too, for the tol_g test and the sequence's grad_norms. A
    non-finite iterate ends the run: it is kept, with a NaN gradient norm
    the oracle is not asked for, so the sequence reads as diverged.
    """
    x = np.array(x0, dtype=float)
    g = oracle.gradient(x)
    seq = IterateSequence(points=[x], grad_norms=[_norm(g)])
    for k in range(steps):
        x = step(k, x, g)
        seq.points.append(x)
        if not np.isfinite(x).all():
            seq.grad_norms.append(float("nan"))
            break
        g = oracle.gradient(x)
        seq.grad_norms.append(_norm(g))
        if tol_g is not None and seq.grad_norms[-1] <= tol_g:
            break
    return seq


def _norm(g: Array) -> float:
    """Euclidean norm of a gradient, finite whenever the true norm is.

    The plain norm squares the entries, so it overflows once they pass
    about 1.3e154. Only then is g rescaled by its largest entry.
    """
    out = float(np.linalg.norm(g))
    if out == np.inf and np.isfinite(g).all():
        scale = float(np.max(np.abs(g)))
        out = scale * float(np.linalg.norm(g / scale))
    return out


def heavy_ball_iterate(oracle: ObjectiveOracle, x0: Array, steps: int,
                       alpha: Schedule, beta: Schedule,
                       tol_g: Optional[float] = None) -> IterateSequence:
    """Run heavy_ball_step from x_{-1} = x0 (no initial momentum)."""
    x_prev = np.asarray(x0, dtype=float)

    def step(k: int, x: Array, g: Array) -> Array:
        nonlocal x_prev
        x_new = _heavy_ball(x, x_prev, g, alpha(k), beta(k))
        x_prev = x
        return x_new

    return _iterate(oracle, x0, steps, tol_g, step)


def cg_iterate(oracle: ObjectiveOracle, x0: Array, steps: int,
               alpha_rule: Callable, beta_cg_rule: Callable,
               tol_g: Optional[float] = None) -> IterateSequence:
    """Two-sequence conjugate-gradient form.

        v_k = -g_k + beta^CG_k v_{k-1},   x_{k+1} = x_k + alpha_k v_k,

    with v_{-1} = 0, so the first direction is steepest descent and
    beta^CG_0 is 0 without consulting the rule. Rules receive
    (oracle, k, x_k, g_k, v_km1 or g_km1) so both canned and custom
    schedules fit one shape.
    """
    v = np.zeros_like(np.asarray(x0, dtype=float))
    g_prev: Optional[Array] = None

    def step(k: int, x: Array, g: Array) -> Array:
        nonlocal v, g_prev
        b = 0.0 if k == 0 else float(beta_cg_rule(oracle, k, g, g_prev))
        if b < 0.0:
            raise ValueError(f"beta_cg_rule returned {b} < 0 at step {k}")
        v = -g + b * v
        a = float(alpha_rule(oracle, k, x, g, v))
        if a < 0.0:
            raise ValueError(f"alpha_rule returned {a} < 0 at step {k}")
        g_prev = g
        return x + a * v

    return _iterate(oracle, x0, steps, tol_g, step)


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
    x_prev = np.asarray(x0, dtype=float)
    g_prev: Optional[Array] = None

    def step(k: int, x: Array, g: Array) -> Array:
        nonlocal x_prev, g_prev
        a, b = alpha(k), beta(k)
        c = a * b if gamma is None else gamma(k)
        x_new = _nesterov_one_step(x, x_prev, g,
                                   g if g_prev is None else g_prev, a, b, c)
        x_prev, g_prev = x, g
        return x_new

    return _iterate(oracle, x0, steps, tol_g, step)


def nesterov_two_step_iterate(oracle: ObjectiveOracle, x0: Array, steps: int,
                              alpha: Schedule, beta: Schedule,
                              tol_g: Optional[float] = None) -> IterateSequence:
    """Run nesterov_two_step from y_0 = x0.

    points holds the lookahead sequence y_0, y_1, ..., where the gradient
    is actually evaluated; the descent iterates x_k are not kept.
    The first extrapolation uses x_{-1} = x_0 (the first descent point),
    so it starts momentum-free, matching the one-step driver's seeding.
    """
    x_prev: Optional[Array] = None

    def step(k: int, y: Array, g: Array) -> Array:
        nonlocal x_prev
        x_prev, y_new = _nesterov_two_step(y, x_prev, g, alpha(k), beta(k))
        return y_new

    return _iterate(oracle, x0, steps, tol_g, step)


def accelerated_newton_iterate(oracle: ObjectiveOracle, metric: MetricSpec,
                               x0: Array, gains: Sequence[float], h: float,
                               steps: int,
                               tol_g: Optional[float] = None) -> IterateSequence:
    """Drive accelerated_newton_step from v_0 = 0, owning quasi-Newton updates.

    The update for the pair (x_{k-1}, x_k) runs at the start of step k,
    the first point where both gradients are at hand and the metric is
    needed.
    """
    _check_newton(metric, h)
    gamma_a, gamma_b = (float(c) for c in gains)
    v = np.zeros_like(np.asarray(x0, dtype=float))
    last: Optional[tuple[Array, Array]] = None

    def step(k: int, x: Array, g: Array) -> Array:
        nonlocal metric, v, last
        if last is not None and metric.kind is MetricKind.QUASI_NEWTON:
            metric = quasi_newton_update(metric, x - last[0], g - last[1])
        x_new, v = _accelerated_newton(oracle, metric, x, v, g, gamma_a,
                                       gamma_b, h)
        last = (x, g)
        return x_new

    return _iterate(oracle, x0, steps, tol_g, step)
