"""Closed-loop integration of the double-integrator search dynamic.

The state is the augmented tuple (x, v, y, lambda_x, lambda_v, lambda_y):
position, velocity, swept cost, and the costates of the underlying optimal
search problem. Controllers never see an integrated costate; they are
singular feedbacks evaluated on the arc identity lambda_x = -grad E(x),
which is what makes them implementable. Two integration modes differ in
what is carried along:

* reduced: integrate (x, v, y) and record the costates definitionally,
  lambda_x = -grad E(x) and lambda_v = 0.
* full_primal_dual: propagate lambda_x and lambda_v from their own
  differential equations along the computed primal trajectory, the way
  adjoint ODE solvers do: each primal step is followed by an adjoint step
  whose stage states come from cubic Hermite dense output of the primal.
  In exact arithmetic the costates reproduce the arc identities
  lambda_x = -grad E(x) and lambda_v = 0; numerically they drift at the
  integrator's order, and that drift is a measurable diagnostic. Coupling
  the adjoint stages directly into the primal Runge-Kutta stages would
  instead reproduce the identities exactly whenever grad E is linear,
  which silences the diagnostic rather than earning it. lambda_y is a
  conserved normalization and stays pinned at 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .clf import clf_grad_v, clf_value, lie_derivative
from .control import ControllerSpec, ControlResult, evaluate_control
from .metric import MetricKind, quasi_newton_update
from .objective import ObjectiveOracle

Array = np.ndarray

#: state norm beyond which the run is declared divergent
DIVERGENCE_LIMIT = 1e12


class FlowMode(str, Enum):
    REDUCED = "reduced"
    FULL_PRIMAL_DUAL = "full_primal_dual"


class Integrator(str, Enum):
    RK4 = "rk4"
    SEMI_IMPLICIT_EULER = "semi_implicit_euler"


@dataclass(frozen=True, eq=False)
class AugmentedState:
    t: float
    x: Array
    v: Array
    y: float
    lambda_x: Array
    lambda_v: Array
    lambda_y: float = 1.0


@dataclass(frozen=True, eq=False)
class StateDerivative:
    dx: Array
    dv: Array
    dy: float
    dlambda_x: Array
    dlambda_v: Array
    dlambda_y: float = 0.0


@dataclass(frozen=True)
class StoppingRule:
    """Declare convergence when both the gradient and the velocity are small."""

    tol_g: float = 1e-6
    tol_v: float = 1e-6


@dataclass(frozen=True, eq=False)
class TrajectorySample:
    state: AugmentedState
    u: Array
    E: float
    grad_norm: float
    V: float
    lieV: float


@dataclass(eq=False)
class TrajectoryRecord:
    samples: list[TrajectorySample]
    converged: bool
    diverged: bool
    meta: dict = field(default_factory=dict)

    @property
    def final(self) -> TrajectorySample:
        return self.samples[-1]

    def as_arrays(self) -> dict[str, Array]:
        """Stack the per-sample fields into arrays keyed by name."""
        s = self.samples
        return {
            "t": np.array([q.state.t for q in s]),
            "x": np.array([q.state.x for q in s]),
            "v": np.array([q.state.v for q in s]),
            "y": np.array([q.state.y for q in s]),
            "lambda_x": np.array([q.state.lambda_x for q in s]),
            "lambda_v": np.array([q.state.lambda_v for q in s]),
            "u": np.array([q.u for q in s]),
            "E": np.array([q.E for q in s]),
            "grad_norm": np.array([q.grad_norm for q in s]),
            "V": np.array([q.V for q in s]),
            "lieV": np.array([q.lieV for q in s]),
        }


@dataclass(frozen=True)
class ResidualReport:
    """Distances from the final-time targets grad E = 0, v = 0, lambda = 0."""

    r_grad: float
    r_v: float
    r_lambda_x: float
    r_lambda_v: float


def initial_state(oracle: ObjectiveOracle, x0: Array,
                  v0: Optional[Array] = None) -> AugmentedState:
    """Augmented initial condition consistent with the arc identities."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (oracle.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({oracle.dim},)")
    v0 = np.zeros(oracle.dim) if v0 is None else np.asarray(v0, dtype=float)
    if v0.shape != (oracle.dim,):
        raise ValueError(f"v0 has shape {v0.shape}, expected ({oracle.dim},)")
    g0 = oracle.gradient(x0)
    return AugmentedState(t=0.0, x=x0.copy(), v=v0.copy(),
                          y=oracle.value(x0), lambda_x=-g0,
                          lambda_v=np.zeros(oracle.dim), lambda_y=1.0)


def closed_loop_rhs(spec: ControllerSpec, oracle: ObjectiveOracle,
                    state: AugmentedState,
                    mode: FlowMode = FlowMode.REDUCED) -> StateDerivative:
    """Right-hand side of the closed loop at one augmented state.

    The control is evaluated on the substituted costate -grad E(x), not on
    state.lambda_x; in full_primal_dual mode the carried costates evolve by
    their own equations and their agreement with the substitution is a
    diagnostic, not an input. In reduced mode lambda_v and lambda_y are
    frozen, so their slots read zero.
    """
    g = oracle.gradient(state.x)
    u = evaluate_control(spec, oracle, state.x, -g, state.v).u
    Hv = oracle.hessian(state.x) @ state.v
    if mode is FlowMode.FULL_PRIMAL_DUAL:
        dlambda_v = -state.lambda_x - state.lambda_y * g
    else:
        dlambda_v = np.zeros(oracle.dim)
    return StateDerivative(dx=state.v.copy(), dv=u, dy=float(g @ state.v),
                           dlambda_x=-Hv, dlambda_v=dlambda_v, dlambda_y=0.0)


def terminal_residuals(state: AugmentedState,
                       oracle: ObjectiveOracle) -> ResidualReport:
    """Norm of each final-time target at one state.

    Under the arc identity lambda_x = -grad E(x), r_lambda_x and r_grad
    coincide: driving the costate to zero is the same thing as reaching a
    stationary point.
    """
    g = oracle.gradient(state.x)
    return ResidualReport(
        r_grad=float(np.linalg.norm(g)),
        r_v=float(np.linalg.norm(state.v)),
        r_lambda_x=float(np.linalg.norm(state.lambda_x)),
        r_lambda_v=float(np.linalg.norm(state.lambda_v)),
    )


def integrate(spec: ControllerSpec, oracle: ObjectiveOracle,
              state0: AugmentedState, h: float, t_max: float, *,
              method: Integrator = Integrator.RK4,
              mode: FlowMode = FlowMode.REDUCED,
              stop: StoppingRule = StoppingRule(),
              record_stride: int = 1) -> TrajectoryRecord:
    """March the closed loop on a fixed grid until convergence or t_max.

    record_stride thins what is stored, never what is computed: stopping
    and divergence are checked every step, and the final state is always
    recorded. Quasi-Newton metrics are updated once per completed step
    from the observed (step, gradient change) pair; stage evaluations
    within a step all see the matrix from the step's start.

    The control at each accepted state is evaluated once, after that
    state's metric update, and shared: its sample records it, and the
    next step uses it as the first RK4 stage or the semi-implicit Euler
    velocity update. An RK4 step therefore costs four control
    evaluations. When the law computed the drift term of lie V
    (min_p_star does), the sample adds grad_v V . u to it instead of
    taking a Hessian of its own. In full_primal_dual RK4 mode the
    adjoint step's endpoint control is that same value, except with a
    quasi-Newton metric, where the adjoint sees the control under the
    matrix the primal step used.

    An InfeasibleStateError from the controller propagates to the caller
    untouched: it is a statement about the problem/rate pairing, not
    something the integrator can step over.
    """
    if not (h > 0.0):
        raise ValueError(f"step size must be positive, got {h}")
    if not (t_max >= h):
        raise ValueError(f"t_max must be at least one step, got {t_max} < {h}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")

    n = oracle.dim
    full = mode is FlowMode.FULL_PRIMAL_DUAL
    live_spec = spec

    # primal packed layout: [x, v, y]; costates ride separately
    z = np.concatenate([state0.x, state0.v, [state0.y]])
    lamx = state0.lambda_x.copy()
    lamv = state0.lambda_v.copy()

    def control_at(x: Array, g: Array, v: Array) -> ControlResult:
        return evaluate_control(live_spec, oracle, x, -g, v)

    def rhs(zz: Array, g: Array, u: Array) -> Array:
        v = zz[n:2 * n]
        out = np.empty_like(zz)
        out[:n] = v
        out[n:2 * n] = u
        out[2 * n] = g @ v
        return out

    def stage(zz: Array) -> Array:
        x = zz[:n]
        g = oracle.gradient(x)
        return rhs(zz, g, control_at(x, g, zz[n:2 * n]).u)

    def rk4_step(zz: Array, g: Array, u: Array) -> Array:
        k1 = rhs(zz, g, u)
        k2 = stage(zz + 0.5 * h * k1)
        k3 = stage(zz + 0.5 * h * k2)
        k4 = stage(zz + h * k3)
        return zz + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def sie_step(zz: Array, g: Array, u: Array) -> Array:
        # symplectic-flavoured first order: v first, then x rides v_new
        x = zz[:n]
        v1 = zz[n:2 * n] + h * u
        out = zz.copy()
        out[:n] = x + h * v1
        out[n:2 * n] = v1
        out[2 * n] = zz[2 * n] + h * float(g @ v1)
        return out

    step = rk4_step if method is Integrator.RK4 else sie_step

    def adjoint_rk4_step(z0: Array, g0: Array, u0: Array,
                         z1: Array, g1: Array, u1: Array) -> None:
        """Advance (lamx, lamv) across one completed primal step.

        Stage states come from cubic Hermite dense output of the primal:
        position interpolated from (x, v) at the endpoints, velocity from
        (v, u). Both interpolants are fourth-order accurate at the
        midpoint, so the adjoint pass inherits the primal's global order.
        """
        nonlocal lamx, lamv
        x0, v0 = z0[:n], z0[n:2 * n]
        x1, v1 = z1[:n], z1[n:2 * n]
        xm = 0.5 * (x0 + x1) + 0.125 * h * (v0 - v1)
        vm = 0.5 * (v0 + v1) + 0.125 * h * (u0 - u1)
        H0v = oracle.hessian(x0) @ v0
        Hmvm = oracle.hessian(xm) @ vm
        H1v1 = oracle.hessian(x1) @ v1
        gm = oracle.gradient(xm)

        # lamx has no state feedback, so its RK4 sum is direct
        lamx_new = lamx - (h / 6.0) * (H0v + 4.0 * Hmvm + H1v1)
        # lamv' = -lamx - g, with lamx reconstructed stage by stage
        k1 = -lamx - g0
        l2 = lamx - 0.5 * h * H0v
        k2 = -l2 - gm
        l3 = lamx - 0.5 * h * Hmvm
        k3 = -l3 - gm
        l4 = lamx - h * Hmvm
        k4 = -l4 - g1
        lamv = lamv + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        lamx = lamx_new

    def adjoint_euler_step(z0: Array, g0: Array, z1: Array) -> None:
        nonlocal lamx, lamv
        lamv = lamv + h * (-lamx - g0)
        lamx = lamx - h * (oracle.hessian(z0[:n]) @ z1[n:2 * n])

    def make_sample(t: float, zz: Array, g: Array,
                    res: ControlResult) -> TrajectorySample:
        x = zz[:n].copy()
        v = zz[n:2 * n].copy()
        y = float(zz[2 * n])
        u = res.u
        # diagnostics always use the substituted costate, so reduced and
        # full runs of the same flow report the same certificate values
        V = clf_value(live_spec.clf, -g, v)
        if res.drift is None:
            lie = lie_derivative(live_spec.clf, oracle, x, -g, v, u)
        else:
            # the law already paid a Hessian for the drift term; the sum
            # is lie_derivative's, bit for bit
            lie = float(res.drift + clf_grad_v(live_spec.clf, -g, v) @ u)
        state = AugmentedState(
            t=t, x=x, v=v, y=y,
            lambda_x=lamx.copy() if full else -g.copy(),
            lambda_v=lamv.copy() if full else np.zeros(n),
            lambda_y=1.0)
        return TrajectorySample(state=state, u=u, E=oracle.value(x),
                                grad_norm=float(np.linalg.norm(g)), V=V,
                                lieV=lie)

    def stopped(g: Array, zz: Array) -> bool:
        return (np.linalg.norm(g) <= stop.tol_g
                and np.linalg.norm(zz[n:2 * n]) <= stop.tol_v)

    def blown_up(zz: Array) -> bool:
        if not np.all(np.isfinite(zz)):
            return True
        return (np.linalg.norm(zz[:n]) > DIVERGENCE_LIMIT
                or np.linalg.norm(zz[n:2 * n]) > DIVERGENCE_LIMIT)

    g = oracle.gradient(z[:n])
    res = control_at(z[:n], g, z[n:2 * n])
    samples = [make_sample(0.0, z, g, res)]
    converged = stopped(g, z)
    diverged = False
    n_steps = int(np.ceil(t_max / h - 1e-12))
    k = 0

    if not converged:
        qn = live_spec.metric.kind is MetricKind.QUASI_NEWTON
        adjoint_rk4 = full and method is Integrator.RK4
        u_adj = res.u  # the adjoint step's control at the primal step's start
        last_recorded = 0
        for k in range(1, n_steps + 1):
            z_new = step(z, g, res.u)
            if blown_up(z_new):
                diverged = True
                k -= 1
                break
            g_new = oracle.gradient(z_new[:n])
            if full:
                if adjoint_rk4:
                    res_new = control_at(z_new[:n], g_new, z_new[n:2 * n])
                    adjoint_rk4_step(z, g, u_adj, z_new, g_new, res_new.u)
                    u_adj = res_new.u
                else:
                    adjoint_euler_step(z, g, z_new)
                if not (np.all(np.isfinite(lamx)) and np.all(np.isfinite(lamv))):
                    diverged = True
                    k -= 1
                    break
            if qn:
                new_metric = quasi_newton_update(
                    live_spec.metric, z_new[:n] - z[:n], g_new - g)
                live_spec = dataclasses.replace(live_spec, metric=new_metric)
            z, g = z_new, g_new
            if adjoint_rk4 and not qn:
                res = res_new
            else:
                res = control_at(z[:n], g, z[n:2 * n])
            t = k * h
            if stopped(g, z):
                converged = True
                samples.append(make_sample(t, z, g, res))
                last_recorded = k
                break
            if k % record_stride == 0:
                samples.append(make_sample(t, z, g, res))
                last_recorded = k
        if not converged and k > last_recorded:
            samples.append(make_sample(k * h, z, g, res))

    meta = {
        "mode": mode.value,
        "method": method.value,
        "h": h,
        "t_max": t_max,
        "record_stride": record_stride,
        "controller": spec.family.value,
        "metric": spec.metric.kind.value,
        "clf": [spec.clf.a, spec.clf.b, spec.clf.c],
        "problem": oracle.name,
        "dim": n,
        "tol_g": stop.tol_g,
        "tol_v": stop.tol_v,
        "steps_taken": k,
        "t_final": samples[-1].state.t,
    }
    return TrajectoryRecord(samples=samples, converged=converged,
                            diverged=diverged, meta=meta)
