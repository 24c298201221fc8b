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
import math
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
    """A run's start at t = 0; lambda_y, pinned at 1, is not stored."""

    x: Array
    v: Array
    y: float
    lambda_x: Array
    lambda_v: Array


@dataclass(frozen=True)
class StoppingRule:
    """Declare convergence when both the gradient and the velocity are small."""

    tol_g: float = 1e-6
    tol_v: float = 1e-6


#: the trajectory table's columns, in CSV file order. x, v, lambda_x and
#: lambda_v hold one entry per coordinate; every other column one number.
COLUMNS = ("t", "x", "v", "y", "E", "grad_norm", "V", "lieV", "lambda_x",
           "lambda_v")


@dataclass(eq=False)
class TrajectoryRecord:
    """A run as one table: row k of every column is the k-th sample.

    columns maps each name in COLUMNS, plus the control u, to an array
    whose first axis is the sample.
    """

    columns: dict[str, Array]
    converged: bool
    diverged: bool
    meta: dict = field(default_factory=dict)


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
    return AugmentedState(x=x0.copy(), v=v0.copy(), y=oracle.value(x0),
                          lambda_x=-g0, lambda_v=np.zeros(oracle.dim))


def _norm(a: Array) -> float:
    """np.linalg.norm's formula for a vector, sqrt(a . a), as a float.

    It gives np.linalg.norm's bits, and at the integrator's three norms
    per step it is cheaper than np.linalg.norm or clf.state_norm.
    """
    return math.sqrt(a.dot(a))


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
    state's metric update, and shared: its row records it, and the next
    step uses it as the first RK4 stage or the semi-implicit Euler
    velocity update. An RK4 step therefore costs four control
    evaluations. In full_primal_dual RK4 mode the adjoint step's endpoint
    control is that same value, except with a quasi-Newton metric, where
    the adjoint sees the control under the matrix the primal step used.
    Each accepted state takes the norms of x, v and the gradient once;
    they serve the divergence test, the stopping rule and the grad_norm
    column.

    The run comes back as one table. The loop keeps only the raw columns
    of each recorded state: t, x, v, y, the gradient, grad_norm, u, the
    law's drift term when it returns one, and in full_primal_dual mode
    the costates. The diagnostic columns are
    computed once, after the loop, over the whole table, with one stacked
    call each, and every row holds the bits the one-state call gives it:
    E is oracle.value, V is clf_value and lie V is lie_derivative. When
    the law computed the drift term of lie V (min_p_star does), lie V is
    that drift plus grad_v V . u instead, and takes no Hessian. The
    diagnostics always use the substituted costate -grad E, so reduced
    and full runs of the same flow report the same certificate values.
    In reduced mode the costate columns hold their definitions,
    lambda_x = -grad E and lambda_v = 0.

    An InfeasibleStateError from the controller propagates to the caller
    untouched: it is a statement about the problem/rate pairing, not
    something the integrator can step over.
    """
    if not (h > 0.0):
        raise ValueError(f"step size must be positive, got {h}")
    if not (t_max >= h):
        raise ValueError(f"t_max must be at least one step, got {t_max} < {h}")
    if not math.isfinite(t_max / h):
        raise ValueError(f"the step count t_max / h must be finite, got "
                         f"{t_max} / {h}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")

    n = oracle.dim
    full = mode is FlowMode.FULL_PRIMAL_DUAL
    live_spec = spec

    # primal packed layout: [x, v, y]; costates ride separately
    z = np.concatenate([state0.x, state0.v, [state0.y]])
    lamx = state0.lambda_x.copy()
    lamv = state0.lambda_v.copy()

    def control_at(zz: Array, g: Array) -> ControlResult:
        return evaluate_control(live_spec, oracle, zz[:n], -g, zz[n:2 * n])

    def rhs(zz: Array, g: Array, u: Array, out: Array) -> None:
        """The closed loop's vector field at zz, written to out."""
        v = zz[n:2 * n]
        out[:n] = v
        out[n:2 * n] = u
        out[2 * n] = g.dot(v)

    # the RK4 stage state and slopes are made once per run; an accepted
    # state is always a fresh array, since the rows keep views of it
    zs, k1, k2, k3, k4 = np.empty((5, 2 * n + 1))

    def stage(zz: Array, coeff: float, k: Array, out: Array) -> None:
        """The slope at zz + coeff * k, written to out."""
        np.multiply(k, coeff, out=zs)
        np.add(zz, zs, out=zs)
        g = oracle.gradient(zs[:n])
        rhs(zs, g, control_at(zs, g).u, out)

    def rk4_step(zz: Array, g: Array, u: Array) -> Array:
        rhs(zz, g, u, k1)
        stage(zz, 0.5 * h, k1, k2)
        stage(zz, 0.5 * h, k2, k3)
        stage(zz, h, k3, k4)
        # zz + (h / 6) (k1 + 2 k2 + 2 k3 + k4), summed in that order
        np.add(k1, np.multiply(k2, 2.0, out=k2), out=k1)
        np.add(k1, np.multiply(k3, 2.0, out=k3), out=k1)
        np.add(k1, k4, out=k1)
        return zz + np.multiply(k1, h / 6.0, out=k1)

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

    def adjoint_rk4_step(z0: Array, g0: Array, u0: Array, z1: Array,
                         g1: Array, u1: Array) -> tuple[Array, Array]:
        """(lamx, lamv) advanced across one completed primal step.

        Stage states come from cubic Hermite dense output of the primal:
        position interpolated from (x, v) at the endpoints, velocity from
        (v, u). Both interpolants are fourth-order accurate at the
        midpoint, so the adjoint pass inherits the primal's global order.
        """
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
        return lamx_new, lamv + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def adjoint_euler_step(z0: Array, g0: Array,
                           z1: Array) -> tuple[Array, Array]:
        return (lamx - h * (oracle.hessian(z0[:n]) @ z1[n:2 * n]),
                lamv + h * (-lamx - g0))

    # the raw columns of the recorded states, by reference: the loop never
    # changes an array in place once it is kept, and the stacking copies
    rows: list[tuple] = []

    def keep(t: float, zz: Array, g: Array, g_norm: float,
             res: ControlResult) -> None:
        rows.append((t, zz, g, g_norm, res.u, res.drift, lamx, lamv))

    g = oracle.gradient(z[:n])
    g_norm = _norm(g)
    res = control_at(z, g)
    keep(0.0, z, g, g_norm, res)
    converged = g_norm <= stop.tol_g and _norm(z[n:2 * n]) <= stop.tol_v
    diverged = False
    n_steps = int(np.ceil(t_max / h - 1e-12))
    k = 0

    if not converged:
        qn = live_spec.metric.kind is MetricKind.QUASI_NEWTON
        adjoint_rk4 = full and method is Integrator.RK4
        u_adj = res.u  # the adjoint step's control at the primal step's start
        for k in range(1, n_steps + 1):
            z_new = step(z, g, res.u)
            # a non-finite x or v has a non-finite norm
            v_norm = _norm(z_new[n:2 * n])
            if not (_norm(z_new[:n]) <= DIVERGENCE_LIMIT
                    and v_norm <= DIVERGENCE_LIMIT
                    and math.isfinite(z_new[2 * n])):
                diverged = True
                k -= 1
                break
            g_new = oracle.gradient(z_new[:n])
            if full:
                if adjoint_rk4:
                    res_new = control_at(z_new, g_new)
                    lam_new = adjoint_rk4_step(z, g, u_adj, z_new, g_new,
                                               res_new.u)
                    u_adj = res_new.u
                else:
                    lam_new = adjoint_euler_step(z, g, z_new)
                # a rejected step's costates are never kept
                if not all(np.isfinite(lam).all() for lam in lam_new):
                    diverged = True
                    k -= 1
                    break
                lamx, lamv = lam_new
            if qn:
                new_metric = quasi_newton_update(
                    live_spec.metric, z_new[:n] - z[:n], g_new - g)
                live_spec = dataclasses.replace(live_spec, metric=new_metric)
            z, g = z_new, g_new
            g_norm = _norm(g)
            if adjoint_rk4 and not qn:
                res = res_new
            else:
                res = control_at(z, g)
            converged = g_norm <= stop.tol_g and v_norm <= stop.tol_v
            if converged or k % record_stride == 0 or k == n_steps:
                keep(k * h, z, g, g_norm, res)
            if converged:
                break
        # a divergence break leaves the last accepted state at step k
        if diverged and k % record_stride:
            keep(k * h, z, g, g_norm, res)

    # the diagnostics, one stacked call per column
    t, states, gs, g_norms, us, drifts, lamxs, lamvs = zip(*rows)
    Z = np.array(states)
    X, Vel = Z[:, :n].copy(), Z[:, n:2 * n].copy()
    U = np.array(us)
    lam = -np.array(gs)
    clf = spec.clf
    if drifts[0] is None:
        lie = lie_derivative(clf, oracle, X, lam, Vel, U)
    else:
        # the law already paid a Hessian for the drift term; the sum is
        # lie_derivative's, bit for bit
        lie = np.array(drifts) + np.vecdot(clf_grad_v(clf, lam, Vel), U)
    columns = {
        "t": np.array(t), "x": X, "v": Vel, "y": Z[:, 2 * n].copy(),
        "E": oracle.value(X), "grad_norm": np.array(g_norms),
        "V": clf_value(clf, lam, Vel), "lieV": lie,
        "lambda_x": np.array(lamxs) if full else lam,
        "lambda_v": np.array(lamvs) if full else np.zeros_like(Vel),
        "u": U,
    }
    meta = {
        "mode": mode.value,
        "method": method.value,
        "h": h,
        "t_max": t_max,
        "controller": spec.family.value,
        "metric": spec.metric.kind.value,
        "dim": n,
        "tol_g": stop.tol_g,
        "tol_v": stop.tol_v,
        "steps_taken": k,
        "t_final": t[-1],
    }
    return TrajectoryRecord(columns=columns, converged=converged,
                            diverged=diverged, meta=meta)
