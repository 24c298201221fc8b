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

from .clf import _norm, clf_grad_v, clf_value, lie_derivative
from .control import ControllerSpec, ControlResult, evaluate_control
from .metric import MetricKind, quasi_newton_update
from .objective import ObjectiveOracle

Array = np.ndarray

#: state norm beyond which the run is declared divergent
DIVERGENCE_LIMIT = 1e12

#: rows a run's column tables start at (integrate): a bound on what a run
#: reserves before it records, whatever its t_max / h
_TABLE_ROWS = 64


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


def _is_reduced(record: TrajectoryRecord) -> bool:
    """Whether record has no costate columns of its own: every record but
    a full_primal_dual one, a meta without a mode among them."""
    return record.meta.get("mode") != FlowMode.FULL_PRIMAL_DUAL.value


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


def integrate(spec: ControllerSpec, oracle: ObjectiveOracle,
              state0: AugmentedState, h: float, t_max: float, *,
              method: Integrator = Integrator.RK4,
              mode: FlowMode = FlowMode.REDUCED,
              stop: StoppingRule = StoppingRule(),
              record_stride: int = 1) -> TrajectoryRecord:
    """March the closed loop on a fixed grid until convergence or t_max.

    method and mode take their members or the members' values ("rk4",
    ...). record_stride thins what is stored, never what is computed:
    stopping and divergence are checked every step, and the final state
    is always recorded. state0's x and v, and in full_primal_dual mode its
    costates, must have shape (n,). The law is bound (spec.bind) before
    the first step and again after each quasi-Newton update, and at no
    other point, so a Hessian metric over a constant Hessian is floored
    once per run, at the law's first solve. Quasi-Newton metrics are
    updated once per completed step from the observed (step, gradient
    change) pair; stage evaluations within a step all see the matrix from
    the step's start. Only state0 goes through the checked
    evaluate_control, with the law the run then steps with.

    One slope writer holds the vector field (x, v, y)' = (v, u, g . v):
    it fills every RK4 stage, and a semi-implicit Euler step adds h times
    its slope at the updated velocity. The control at each accepted state
    is evaluated once, after that state's metric update, and shared: its
    row records it, and the next step's first slope uses it. An RK4 step
    therefore costs four control evaluations. In full_primal_dual RK4
    mode the adjoint step sees the controls of the law the primal step
    used: at its start the accepted state's one control, the primal's
    first slope, and at its end the law before any quasi-Newton update.
    Without a quasi-Newton metric that end control is the next accepted
    state's one control. The adjoint step takes hess E(x) v once per
    accepted state: the product at a step's end starts the next step.
    Each accepted state takes the norms of x, v and the gradient once;
    they serve the divergence test, the stopping rule and the grad_norm
    column.

    A run diverges at a state that is not finite, whose x or v norm
    passes DIVERGENCE_LIMIT, or whose gradient norm is not finite (a
    finite gradient's can overflow). It ends at the last accepted state,
    which a diverging start state is.

    The run comes back as one table. The loop writes each recorded
    state's raw columns straight into one column table each: t, x, v, y,
    the gradient, grad_norm, u, the law's drift term when it returns one,
    and in full_primal_dual mode the costates. A table starts at
    _TABLE_ROWS rows, or at the most rows the run can record when that is
    fewer. When they fill, each grows in place (ndarray.resize, without its
    reference check) by half again, never past that most, and after the
    loop each is cut in place to the rows it holds: those are the
    record's columns. No array made for a step outlives that step, and a
    run that converges early holds about its own rows, whatever t_max / h
    is. The gradient table is negated in place into the costate -grad E.
    The diagnostic columns are computed once, after the loop, over the
    whole table, with one stacked call each, and every row holds the bits
    the one-state call gives it: E is oracle.value, V is clf_value and
    lie V is lie_derivative. When the law computed the drift term of
    lie V (min_p_star does), lie V is that drift plus grad_v V . u
    instead, and takes no Hessian. The diagnostics always use the
    substituted costate -grad E, so reduced and full runs of the same flow
    report the same certificate values. In reduced mode the costate
    columns hold their definitions, lambda_x = -grad E and lambda_v = 0.

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
    method, mode = Integrator(method), FlowMode(mode)

    n = oracle.dim
    full = mode is FlowMode.FULL_PRIMAL_DUAL
    for name in ("x", "v") + (("lambda_x", "lambda_v") if full else ()):
        shape = np.shape(getattr(state0, name))
        if shape != (n,):
            raise ValueError(f"state0.{name} has shape {shape}, expected "
                             f"({n},)")
    live_spec = spec  # a quasi-Newton update replaces its metric
    law = spec.bind(oracle)

    # primal packed layout: [x, v, y]; costates ride separately
    z = np.concatenate([state0.x, state0.v, [state0.y]])
    lamx = state0.lambda_x.copy()
    lamv = state0.lambda_v.copy()

    def control_at(zz: Array, g: Array) -> ControlResult:
        return law(zz[:n], -g, zz[n:2 * n])

    # the RK4 stage state, its x and v views and the slopes are made once
    # per run
    zs, k1, k2, k3, k4 = np.empty((5, 2 * n + 1))
    xs, vs = zs[:n], zs[n:2 * n]
    gradient = oracle.gradient

    def slope(v: Array, g: Array, u: Array, out: Array) -> None:
        """The closed loop's vector field, (x, v, y)' = (v, u, g . v) for
        velocity v, gradient g and control u, written to out."""
        out[:n] = v
        out[n:2 * n] = u
        out[2 * n] = g.dot(v)

    def stage(zz: Array, coeff: Array, k: Array, out: Array) -> None:
        """The slope at zz + coeff * k, written to out, with the law as it
        is bound now (a quasi-Newton update rebinds it)."""
        np.multiply(k, coeff, out=zs)
        np.add(zz, zs, out=zs)
        g = gradient(xs)
        slope(vs, g, law(xs, -g, vs).u, out)

    # the RK4 coefficients as 0-d arrays, which numpy takes without the
    # conversion it gives a Python float at every call
    half_h, full_h, two, sixth_h = map(np.array, (0.5 * h, h, 2.0, h / 6.0))

    def rk4_step(zz: Array, g: Array, u: Array) -> Array:
        slope(zz[n:2 * n], g, u, k1)
        stage(zz, half_h, k1, k2)
        stage(zz, half_h, k2, k3)
        stage(zz, full_h, k3, k4)
        # zz + (h / 6) (k1 + 2 k2 + 2 k3 + k4), summed in that order
        np.add(k1, np.multiply(k2, two, out=k2), out=k1)
        np.add(k1, np.multiply(k3, two, out=k3), out=k1)
        np.add(k1, k4, out=k1)
        return zz + np.multiply(k1, sixth_h, out=k1)

    def sie_step(zz: Array, g: Array, u: Array) -> Array:
        # symplectic-flavoured first order: v first, then x and y ride
        # v_new (zz's v + h u is v_new again, bit for bit)
        slope(zz[n:2 * n] + h * u, g, u, k1)
        return zz + np.multiply(k1, full_h, out=k1)

    step = rk4_step if method is Integrator.RK4 else sie_step

    def adjoint_rk4_step(z0: Array, g0: Array, u0: Array, H0v: Array,
                         z1: Array, g1: Array,
                         u1: Array) -> tuple[Array, Array, Array]:
        """(lamx, lamv) advanced across one completed primal step, and
        hess E(x1) v1, which the next step takes as its H0v: the product
        hess E(x0) v0 at the step's start state.

        Stage states come from cubic Hermite dense output of the primal:
        position interpolated from (x, v) at the endpoints, velocity from
        (v, u). Both interpolants are fourth-order accurate at the
        midpoint, so the adjoint pass inherits the primal's global order.
        """
        x0, v0 = z0[:n], z0[n:2 * n]
        x1, v1 = z1[:n], z1[n:2 * n]
        xm = 0.5 * (x0 + x1) + 0.125 * h * (v0 - v1)
        vm = 0.5 * (v0 + v1) + 0.125 * h * (u0 - u1)
        Hmvm = oracle.hessian_at(xm) @ vm
        H1v1 = oracle.hessian_at(x1) @ v1
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
        return (lamx_new, lamv + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                H1v1)

    def adjoint_euler_step(z0: Array, g0: Array,
                           z1: Array) -> tuple[Array, Array]:
        return (lamx - h * (oracle.hessian_at(z0[:n]) @ z1[n:2 * n]),
                lamv + h * (-lamx - g0))

    g = oracle.gradient(z[:n])
    g_norm = _norm(g)
    res = evaluate_control(law, oracle, z[:n], -g, z[n:2 * n])
    n_steps = int(np.ceil(t_max / h - 1e-12))
    # the start, every record_stride-th step, and the last step or the one
    # a run stops at
    most = n_steps // record_stride + 2
    drift = res.drift is not None
    shapes = {"t": (), "x": (n,), "v": (n,), "y": (), "g": (n,),
              "grad_norm": (), "u": (n,)}
    if drift:
        shapes["drift"] = ()
    if full:
        shapes.update(lambda_x=(n,), lambda_v=(n,))
    tables = {name: np.empty((min(_TABLE_ROWS, most),) + shape)
              for name, shape in shapes.items()}
    rows = 0

    def resize(size: int) -> None:
        """Resize every table to size rows in place, a realloc, without
        numpy's reference check, which under a sys.setprofile or
        sys.settrace hook counts one reference too many and raises. No
        view of a table is alive at a resize: keep writes rows and keeps
        no view, and the columns are read only after the last resize."""
        for name in tables:
            tables[name].resize((size,) + shapes[name], refcheck=False)

    def keep(t: float, zz: Array, g: Array, g_norm: float,
             res: ControlResult) -> None:
        """Write one recorded state into row rows of the tables."""
        nonlocal rows
        if rows == len(tables["t"]):
            resize(min(most, rows + rows // 2))
        tables["t"][rows] = t
        tables["x"][rows] = zz[:n]
        tables["v"][rows] = zz[n:2 * n]
        tables["y"][rows] = zz[2 * n]
        tables["g"][rows] = g
        tables["grad_norm"][rows] = g_norm
        tables["u"][rows] = res.u
        if drift:
            tables["drift"][rows] = res.drift
        if full:
            tables["lambda_x"][rows] = lamx
            tables["lambda_v"][rows] = lamv
        rows += 1

    keep(0.0, z, g, g_norm, res)
    converged = g_norm <= stop.tol_g and _norm(z[n:2 * n]) <= stop.tol_v
    # a law cannot steer by a gradient norm that is not finite
    diverged = not math.isfinite(g_norm)
    k = 0

    if not (converged or diverged):
        qn = live_spec.metric.kind is MetricKind.QUASI_NEWTON
        adjoint_rk4 = full and method is Integrator.RK4
        if adjoint_rk4:
            Hv = oracle.hessian_at(z[:n]) @ z[n:2 * n]
        for k in range(1, n_steps + 1):
            z_new = step(z, g, res.u)
            # a non-finite x or v has a non-finite norm
            v_norm = _norm(z_new[n:2 * n])
            if not (_norm(z_new[:n]) <= DIVERGENCE_LIMIT
                    and v_norm <= DIVERGENCE_LIMIT
                    and math.isfinite(z_new[2 * n])):
                diverged = True
                break
            g_new = oracle.gradient(z_new[:n])
            g_norm_new = _norm(g_new)
            if not math.isfinite(g_norm_new):
                diverged = True
                break
            if full:
                if adjoint_rk4:
                    res_new = control_at(z_new, g_new)
                    # a rejected step ends the loop: its Hv is never used
                    *lam_new, Hv = adjoint_rk4_step(
                        z, g, res.u, Hv, z_new, g_new, res_new.u)
                else:
                    lam_new = adjoint_euler_step(z, g, z_new)
                # a rejected step's costates are never kept
                if not all(np.isfinite(lam).all() for lam in lam_new):
                    diverged = True
                    break
                lamx, lamv = lam_new
            if qn:
                new_metric = quasi_newton_update(
                    live_spec.metric, z_new[:n] - z[:n], g_new - g)
                live_spec = dataclasses.replace(live_spec, metric=new_metric)
                law = live_spec.bind(oracle)
            z, g, g_norm = z_new, g_new, g_norm_new
            if adjoint_rk4 and not qn:
                res = res_new
            else:
                res = control_at(z, g)
            converged = g_norm <= stop.tol_g and v_norm <= stop.tol_v
            if converged or k % record_stride == 0 or k == n_steps:
                keep(k * h, z, g, g_norm, res)
            if converged:
                break
        if diverged:
            k -= 1  # the step of z, the last accepted state
            if k % record_stride:
                keep(k * h, z, g, g_norm, res)

    resize(rows)
    x_col, v_col, u_col = tables["x"], tables["v"], tables["u"]
    # the diagnostics, one stacked call per column
    lam = np.negative(tables["g"], out=tables["g"])
    clf = spec.clf
    if drift:
        # the law already paid a Hessian for the drift term; the sum is
        # lie_derivative's, bit for bit
        lie = tables["drift"] + np.vecdot(clf_grad_v(clf, lam, v_col), u_col)
    else:
        lie = lie_derivative(clf, oracle, x_col, lam, v_col, u_col)
    columns = {
        "t": tables["t"], "x": x_col, "v": v_col, "y": tables["y"],
        "E": oracle.value(x_col), "grad_norm": tables["grad_norm"],
        "V": clf_value(clf, lam, v_col), "lieV": lie,
        "lambda_x": tables["lambda_x"] if full else lam,
        "lambda_v": tables["lambda_v"] if full else np.zeros_like(v_col),
        "u": u_col,
    }
    meta = {
        "mode": mode.value,
        "method": method.value,
        "h": h,
        "t_max": t_max,
        "metric": spec.metric.kind.value,
        "dim": n,
        "tol_g": stop.tol_g,
        "tol_v": stop.tol_v,
        "steps_taken": k,
        "t_final": float(tables["t"][-1]),
    }
    return TrajectoryRecord(columns=columns, converged=converged,
                            diverged=diverged, meta=meta)
