"""Discrete optimization methods generated by the continuous flows.

The algebra here is exact, not asymptotic: conjugate-gradient iterations
rewrite as heavy-ball momentum steps (cg_to_momentum), the one-step and
two-step forms of gradient-corrected momentum generate identical
sequences, and the flow gains map onto step-size/momentum/correction
coefficients (flow_to_discrete). The tests pin these identities at
rounding-error tolerances, so every update keeps exactly the stated form
rather than an algebraically rearranged one. Each method has one public
entry, its *_iterate driver, whose step holds the method's one formula
on (x_k, x_{k-1}, g_k, g_{k-1}); every driver runs on one loop that
evaluates the gradient once per iterate and carries the previous point
and gradient, seeded as x_{-1} = x0 and g_{-1} = grad E(x0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .clf import _norm as _vector_norm
from .control import _inverse
from .flow import DIVERGENCE_LIMIT
from .metric import MetricKind, MetricSpec, quasi_newton_update
from .objective import ObjectiveOracle

Array = np.ndarray
Schedule = Callable[[int], float]


@dataclass(eq=False)
class IterateSequence:
    """Iterates with the norm of the gradient at each of them.

    The drivers fill both lists as they go, one entry per iterate, and
    set diverged when the run stopped at a rejected iterate. Every point
    is finite: the loop rejects an iterate that is not, and a start that
    is not raises.
    """

    points: list[Array]
    grad_norms: list[float] = field(default_factory=list)
    diverged: bool = field(default=False, init=False)


def constant(value: float) -> Schedule:
    """Constant coefficient schedule."""
    return lambda k: value


# ---------------------------------------------------------------------------
# coefficient maps
# ---------------------------------------------------------------------------


def cg_to_momentum(alpha_k: float, alpha_km1: float, beta_cg_k: float) -> float:
    """Momentum coefficient equivalent to a conjugate-gradient correction.

    Folding v_{k-1} = (x_k - x_{k-1}) / alpha_{k-1} into the CG update
    turns the direction recursion into a heavy-ball step with
    beta_k = alpha_k beta^CG_k / alpha_{k-1}.
    """
    if not (alpha_km1 > 0.0):
        raise ValueError(f"alpha_km1 must be positive, got {alpha_km1}")
    return alpha_k * beta_cg_k / alpha_km1


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


# ---------------------------------------------------------------------------
# iteration drivers
# ---------------------------------------------------------------------------

#: step(k, x_k, x_{k-1}, g_k, g_{k-1}) -> x_{k+1}
Step = Callable[[int, Array, Array, Array, Array], Array]


def _iterate(oracle: ObjectiveOracle, x0: Array, steps: int,
             tol_g: Optional[float], step: Step) -> IterateSequence:
    """The one iteration loop behind every driver.

    The gradient is evaluated once per point, at x0 and then at each new
    iterate, where it serves the tol_g test and the next two steps; its
    norm is taken once too, for the tol_g test and the sequence's
    grad_norms. The loop alone carries x_{k-1} and g_{k-1}, seeded as
    x_{-1} = x0 and g_{-1} = grad E(x0), and moves them forward only with
    an accepted iterate. A divergence ends the run by flow.integrate's
    rule, at the last accepted iterate, with diverged set. An iterate is
    rejected when its norm is not within DIVERGENCE_LIMIT, before its
    gradient is asked for, or when its gradient norm is not finite; a
    start with such a gradient is the run's only point. A start that is
    not finite raises ValueError.
    """
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"x0 must be finite, got {x0}")
    g = oracle.gradient(x)
    seq = IterateSequence(points=[x], grad_norms=[_vector_norm(g)])
    if not math.isfinite(seq.grad_norms[0]):
        seq.diverged = True
        return seq
    x_prev, g_prev = x, g
    for k in range(steps):
        x_new = step(k, x, x_prev, g, g_prev)
        if not _vector_norm(x_new) <= DIVERGENCE_LIMIT:
            seq.diverged = True
            break
        g_new = oracle.gradient(x_new)
        g_norm = _vector_norm(g_new)
        if not math.isfinite(g_norm):
            seq.diverged = True
            break
        x_prev, g_prev, x, g = x, g, x_new, g_new
        seq.points.append(x)
        seq.grad_norms.append(g_norm)
        if tol_g is not None and g_norm <= tol_g:
            break
    return seq


def heavy_ball_iterate(oracle: ObjectiveOracle, x0: Array, steps: int,
                       alpha: Schedule, beta: Schedule,
                       tol_g: Optional[float] = None) -> IterateSequence:
    """Heavy-ball momentum from x_{-1} = x0 (no initial momentum):

        x_{k+1} = x_k - alpha_k grad E(x_k) + beta_k (x_k - x_{k-1}).
    """
    def step(k: int, x: Array, x_prev: Array, g: Array, g_prev: Array) -> Array:
        return x - alpha(k) * g + beta(k) * (x - x_prev)

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

    def step(k: int, x: Array, x_prev: Array, g: Array, g_prev: Array) -> Array:
        nonlocal v
        b = 0.0 if k == 0 else float(beta_cg_rule(oracle, k, g, g_prev))
        if b < 0.0:
            raise ValueError(f"beta_cg_rule returned {b} < 0 at step {k}")
        v = -g + b * v
        a = float(alpha_rule(oracle, k, x, g, v))
        if a < 0.0:
            raise ValueError(f"alpha_rule returned {a} < 0 at step {k}")
        return x + a * v

    return _iterate(oracle, x0, steps, tol_g, step)


def exact_line_search_alpha(oracle: ObjectiveOracle, k: int, x: Array,
                            g: Array, v: Array) -> float:
    """Exact minimizer along v for locally quadratic objectives."""
    Hv = oracle.hessian_at(x) @ v
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
    """Momentum with a gradient correction, from x_{-1} = x0 and
    g_{-1} = grad E(x0):

        x_{k+1} = x_k - alpha_k g_k + beta_k (x_k - x_{k-1})
                      - gamma_k (g_k - g_{k-1}),

    the discretization of the flow whose damping includes a Hessian term.
    gamma defaults to the product alpha(k) * beta(k), the choice under
    which this sequence coincides with the lookahead sequence of the
    two-step form.
    """
    def step(k: int, x: Array, x_prev: Array, g: Array, g_prev: Array) -> Array:
        a, b = alpha(k), beta(k)
        c = a * b if gamma is None else gamma(k)
        return x - a * g + b * (x - x_prev) - c * (g - g_prev)

    return _iterate(oracle, x0, steps, tol_g, step)


def nesterov_two_step_iterate(oracle: ObjectiveOracle, x0: Array, steps: int,
                              alpha: Schedule, beta: Schedule,
                              tol_g: Optional[float] = None) -> IterateSequence:
    """Lookahead form from y_0 = x0: descend at y_k, then extrapolate
    past the new point,

        x_k = y_k - alpha_k grad E(y_k),
        y_{k+1} = x_k + beta_k (x_k - x_{k-1}).

    points holds the lookahead sequence y_0, y_1, ..., where the gradient
    is actually evaluated; the descent iterates x_k are not kept.
    The first extrapolation uses x_{-1} = x_0 (the first descent point),
    so it starts momentum-free, matching the one-step driver's seeding.
    """
    x_prev: Optional[Array] = None  # the descent point x_{k-1}

    def step(k: int, y: Array, y_prev: Array, g: Array, g_prev: Array) -> Array:
        nonlocal x_prev
        x = y - alpha(k) * g
        y_new = x + beta(k) * (x - (x if x_prev is None else x_prev))
        x_prev = x
        return y_new

    return _iterate(oracle, x0, steps, tol_g, step)


def accelerated_newton_iterate(oracle: ObjectiveOracle, metric: MetricSpec,
                               x0: Array, gains: Sequence[float], h: float,
                               steps: int,
                               tol_g: Optional[float] = None) -> IterateSequence:
    """Semi-implicit Euler steps of the metric-weighted momentum flow,
    from v_0 = 0:

        v_{k+1} = v_k - h W^{-1}(gamma_a grad E(x_k) + gamma_b v_k)
        x_{k+1} = x_k + h v_{k+1}

    The metric must be curvature-carrying (hessian or quasi_newton); with
    the identity there is nothing Newton-like about the step. W^{-1} is
    applied as a bound law applies it (control._inverse, +0.0 for the
    identity), so a constant Hessian is floored once, at the first
    step. The driver owns the quasi-Newton updates: the one for the
    pair (x_k - x_{k-1}, g_k - g_{k-1}) runs at the start of step k >= 1,
    and W^{-1} is rebuilt for it.
    """
    if metric.kind is MetricKind.EUCLIDEAN:
        raise ValueError("accelerated_newton_iterate needs a hessian or "
                         "quasi_newton metric")
    if not (h > 0.0):
        raise ValueError(f"h must be positive, got {h}")
    gamma_a, gamma_b = (float(c) for c in gains)
    v = np.zeros_like(np.asarray(x0, dtype=float))
    inverse = _inverse(metric, oracle)

    def step(k: int, x: Array, x_prev: Array, g: Array, g_prev: Array) -> Array:
        nonlocal metric, inverse, v
        if k and metric.kind is MetricKind.QUASI_NEWTON:
            metric = quasi_newton_update(metric, x - x_prev, g - g_prev)
            inverse = _inverse(metric, oracle)
        rhs = gamma_a * g + gamma_b * v
        z = rhs + 0.0 if inverse is None else inverse(x, rhs)
        v = v - h * z
        return x + h * v

    return _iterate(oracle, x0, steps, tol_g, step)
