import dataclasses
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from accelflow import flow
from accelflow.clf import clf_value, lie_derivative
from accelflow.export import flow_summary
from accelflow.control import (
    DeltaMode,
    Direct,
    InfeasibleStateError,
    MinP,
    MinPStar,
    accelerated_newton_controller,
    nesterov_flow_controller,
    polyak_controller,
    quasi_newton_flow_controller,
)
from accelflow.flow import (
    AugmentedState,
    FlowMode,
    Integrator,
    StoppingRule,
    initial_state,
    integrate,
)
from accelflow.metric import MetricKind, MetricSpec
from accelflow.objective import (
    quadratic_problem,
    random_log_sum_exp,
    random_quadratic,
)
from traced import PEAK_PER_COLUMN_BYTE, column_bytes, traced_peak

Q2 = quadratic_problem(np.array([[2.0]]))
RUN_FOREVER = StoppingRule(tol_g=0.0, tol_v=0.0)


def test_initial_state_consistency():
    s = initial_state(Q2.oracle, np.array([3.0]))
    assert s.y == pytest.approx(9.0)
    np.testing.assert_allclose(s.lambda_x, [-6.0])
    np.testing.assert_array_equal(s.lambda_v, [0.0])
    with pytest.raises(ValueError, match="x0 has shape"):
        initial_state(Q2.oracle, np.zeros(2))
    with pytest.raises(ValueError, match="v0 has shape"):
        initial_state(Q2.oracle, np.zeros(1), v0=np.zeros(2))


def one_step(spec, state, h, method=Integrator.SEMI_IMPLICIT_EULER,
             mode=FlowMode.FULL_PRIMAL_DUAL):
    """The start sample and the state after one integrate step.

    Negative tolerances are never met, so even an equilibrium start takes
    the step. A full_primal_dual semi-implicit Euler step reads the vector
    field off directly: v1 = v + h u, x1 = x + h v1, y1 = y + h g.v1,
    lambda_v1 = lambda_v + h (-lambda_x - g), lambda_x1 = lambda_x - h H v1.
    """
    rec = integrate(spec, Q2.oracle, state, h=h, t_max=h, method=method,
                    mode=mode, stop=StoppingRule(tol_g=-1.0, tol_v=-1.0))
    assert rec.meta["steps_taken"] == 1 and len(rec.columns["t"]) == 2
    return row(rec, 0), row(rec, 1)


def row(rec, k):
    """Row k of the record's table, one attribute per column."""
    return SimpleNamespace(**{name: col[k]
                              for name, col in rec.columns.items()})


def test_rhs_hand_case():
    # E = x^2 at x = 3, v = 1: g = 6, H = 2; the direct law gives
    # u = -6 - 1 - 2 * 2 = -11, and h = 0.5 keeps every product exact
    s = initial_state(Q2.oracle, np.array([3.0]), v0=np.array([1.0]))
    start, s1 = one_step(Direct(1.0, 1.0, 2.0), s, 0.5)
    np.testing.assert_array_equal(start.u, [-11.0])
    np.testing.assert_array_equal(s1.v, [1.0 - 0.5 * 11.0])          # dv = u
    np.testing.assert_array_equal(s1.x, [3.0 + 0.5 * s1.v[0]])       # dx = v
    assert s1.y == 9.0 + 0.5 * 6.0 * s1.v[0]                         # dy = g.v
    np.testing.assert_array_equal(s1.lambda_x,
                                  [-6.0 - 0.5 * 2.0 * s1.v[0]])      # -H v
    np.testing.assert_array_equal(s1.lambda_v, [0.0])


def test_rhs_equilibrium_is_stationary():
    s = initial_state(Q2.oracle, np.zeros(1))
    for method in Integrator:
        for spec in (Direct(1.0, 1.0, 2.0), MinP(), MinPStar()):
            start, s1 = one_step(spec, s, 0.1, method=method)
            for part in (start.u, s1.x, s1.v, s1.lambda_x, s1.lambda_v):
                np.testing.assert_array_equal(part, [0.0])
            assert s1.y == 0.0


def test_rhs_full_mode_lambda_v_identity():
    # with lambda_x = -grad E exactly, the lambda_v equation reads zero
    s = initial_state(Q2.oracle, np.array([3.0]), v0=np.array([1.0]))
    _, s1 = one_step(MinP(), s, 0.5)
    np.testing.assert_allclose(s1.lambda_v, [0.0], atol=1e-15)


def test_terminal_residuals_hand_case():
    # one exact step of the hand case above: x1 = 0.75, v1 = -4.5, and
    # lambda_x1 = -1.5 = -grad E(x1)
    s = initial_state(Q2.oracle, np.array([3.0]), v0=np.array([1.0]))
    rec = integrate(Direct(1.0, 1.0, 2.0), Q2.oracle, s, h=0.5,
                    t_max=0.5, method=Integrator.SEMI_IMPLICIT_EULER,
                    mode=FlowMode.FULL_PRIMAL_DUAL, stop=RUN_FOREVER)
    final = flow_summary(rec, "hand")["final"]
    assert final["grad_norm"] == pytest.approx(1.5)
    assert final["lambda_x_norm"] == pytest.approx(1.5)
    assert final["v_norm"] == pytest.approx(4.5)
    assert final["lambda_v_norm"] == 0.0
    at_target = initial_state(Q2.oracle, np.zeros(1))
    rec = integrate(MinP(), Q2.oracle, at_target, h=0.5,
                    t_max=0.5)
    final = flow_summary(rec, "target")["final"]
    assert (final["grad_norm"], final["v_norm"], final["lambda_x_norm"],
            final["lambda_v_norm"]) == (0.0, 0.0, 0.0, 0.0)


def test_integrate_equilibrium_stops_immediately():
    s = initial_state(Q2.oracle, np.zeros(1))
    rec = integrate(MinP(), Q2.oracle, s, h=1e-2, t_max=1.0)
    assert rec.converged and not rec.diverged
    assert len(rec.columns["t"]) == 1
    assert rec.columns["t"][0] == 0.0


def _direct_closed_form(t):
    # x'' + 5 x' + 2 x = 0 from x(0) = 3, x'(0) = 0
    s1 = (-5.0 + np.sqrt(17.0)) / 2.0
    s2 = (-5.0 - np.sqrt(17.0)) / 2.0
    return 3.0 * (s2 * np.exp(s1 * t) - s1 * np.exp(s2 * t)) / (s2 - s1)


def test_direct_flow_matches_closed_form():
    spec = Direct(1.0, 1.0, 2.0)
    s0 = initial_state(Q2.oracle, np.array([3.0]))
    rec = integrate(spec, Q2.oracle, s0, h=1e-3, t_max=1e3)
    assert rec.converged and not rec.diverged
    assert rec.meta["t_final"] < 40.0
    arr = rec.columns
    exact = _direct_closed_form(arr["t"])
    assert np.max(np.abs(arr["x"][:, 0] - exact)) <= 1e-9
    final = flow_summary(rec, "direct")["final"]
    assert final["grad_norm"] <= 1e-6 and final["v_norm"] <= 1e-6


def test_rk4_is_fourth_order():
    # terminal error against a much finer reference drops ~16x per halving;
    # the underdamped gains keep truncation error well above roundoff
    spec = polyak_controller(25.0, 2.0)
    s0 = initial_state(Q2.oracle, np.array([3.0]))

    def terminal_x(h):
        rec = integrate(spec, Q2.oracle, s0, h=h, t_max=1.0, stop=RUN_FOREVER,
                        record_stride=10 ** 9)
        assert rec.meta["t_final"] == pytest.approx(1.0)
        return rec.columns["x"][-1, 0]

    ref = terminal_x(1e-5)
    err2 = abs(terminal_x(2e-3) - ref)
    err1 = abs(terminal_x(1e-3) - ref)
    assert 8.0 <= err2 / err1 <= 32.0


def test_semi_implicit_euler_is_first_order():
    spec = polyak_controller(2.0, 2.0)
    s0 = initial_state(Q2.oracle, np.array([3.0]))

    def terminal_x(h):
        rec = integrate(spec, Q2.oracle, s0, h=h, t_max=1.0, stop=RUN_FOREVER,
                        method=Integrator.SEMI_IMPLICIT_EULER,
                        record_stride=10 ** 9)
        return rec.columns["x"][-1, 0]

    ref = terminal_x(1e-5)
    err2 = abs(terminal_x(2e-3) - ref)
    err1 = abs(terminal_x(1e-3) - ref)
    assert 1.5 <= err2 / err1 <= 3.0


@pytest.mark.parametrize("mode", list(FlowMode), ids=lambda m: m.value)
@pytest.mark.parametrize("dim", [1, 7])
@pytest.mark.parametrize("spec", [polyak_controller(2.0, 3.0),
                                  nesterov_flow_controller(2.0)],
                         ids=["polyak", "nesterov"])
def test_semi_implicit_euler_is_its_step_formula(spec, dim, mode):
    # no benchmark workload runs semi-implicit Euler, so its bytes are
    # pinned here to its step written out: v first, then x and y ride
    # the new v, and in full mode the costates' explicit Euler step
    prob = random_quadratic(dim, kappa=10.0, seed=dim)
    oracle, h, steps = prob.oracle, 0.05, 40
    s0 = initial_state(oracle, prob.x0)
    rec = integrate(spec, oracle, s0, h=h, t_max=steps * h, stop=RUN_FOREVER,
                    method=Integrator.SEMI_IMPLICIT_EULER, mode=mode)
    law = spec.bind(oracle)
    x, v, y, lamx, lamv = s0.x, s0.v, np.float64(s0.y), s0.lambda_x, \
        s0.lambda_v
    want = {"x": [x], "v": [v], "y": [y], "lambda_x": [lamx],
            "lambda_v": [lamv]}
    for _ in range(steps):
        g = oracle.gradient(x)
        v1 = v + h * law(x, -g, v).u
        lamx, lamv = (lamx - h * (oracle.hessian_at(x) @ v1),
                      lamv + h * (-lamx - g))
        x, v, y = x + h * v1, v1, y + h * float(g @ v1)
        for name, value in zip(want, (x, v, y, lamx, lamv)):
            want[name].append(value)
    names = want if mode is FlowMode.FULL_PRIMAL_DUAL else ["x", "v", "y"]
    assert rec.meta["steps_taken"] == steps
    for name in names:
        assert rec.columns[name].tobytes() == np.array(want[name]).tobytes(), \
            name


@pytest.mark.parametrize("mode", list(FlowMode), ids=lambda m: m.value)
@pytest.mark.parametrize("method", list(Integrator), ids=lambda m: m.value)
def test_integrate_takes_enum_string_values(method, mode):
    prob = random_quadratic(3, kappa=10.0, seed=2)
    s0 = initial_state(prob.oracle, prob.x0)
    spec = polyak_controller(2.0, 2.0)
    kw = dict(h=0.05, t_max=1.0)
    want = integrate(spec, prob.oracle, s0, method=method, mode=mode, **kw)
    got = integrate(spec, prob.oracle, s0, method=method.value,
                    mode=mode.value, **kw)
    assert got.meta == want.meta
    for name, col in want.columns.items():
        assert got.columns[name].tobytes() == col.tobytes(), name


def test_integrate_rejects_unknown_enum_strings():
    s0 = initial_state(Q2.oracle, np.array([3.0]))
    spec = polyak_controller(2.0, 2.0)
    with pytest.raises(ValueError, match="is not a valid Integrator"):
        integrate(spec, Q2.oracle, s0, h=0.1, t_max=1.0, method="euler")
    with pytest.raises(ValueError, match="is not a valid FlowMode"):
        integrate(spec, Q2.oracle, s0, h=0.1, t_max=1.0, mode="full")


def test_swept_cost_tracks_objective():
    prob = random_quadratic(6, kappa=20.0, seed=1)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(polyak_controller(2.0, 2.0), prob.oracle, s0, h=1e-3,
                    t_max=5.0, stop=RUN_FOREVER, record_stride=50)
    arr = rec.columns
    assert np.max(np.abs(arr["y"] - arr["E"])) <= 1e-9


def test_record_stride_thins_but_keeps_final():
    prob = random_quadratic(4, kappa=5.0, seed=2)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(polyak_controller(2.0, 2.0), prob.oracle, s0, h=1e-2,
                    t_max=1.0, stop=RUN_FOREVER, record_stride=10)
    t = rec.columns["t"]
    assert len(t) == 11  # t=0, ten strides of 0.1
    assert np.all(np.diff(t) > 0.0)
    assert t[-1] == pytest.approx(1.0)
    # a stride that does not divide the step count still records the end
    rec = integrate(polyak_controller(2.0, 2.0), prob.oracle, s0, h=1e-2,
                    t_max=1.0, stop=RUN_FOREVER, record_stride=7)
    t = rec.columns["t"]
    assert t[-1] == pytest.approx(1.0)
    assert np.all(np.diff(t) > 0.0)


@pytest.mark.parametrize("method", list(Integrator))
@pytest.mark.parametrize("ending", ["t_max", "converged", "diverged"])
def test_record_stride_keeps_every_stride_th_row_and_the_last(method,
                                                              ending):
    # metamorphic: thinning is a pure selection of the stride-1 rows
    prob = random_quadratic(4, kappa=5.0, seed=2)
    s0 = initial_state(prob.oracle, prob.x0)
    spec, kw = {
        "t_max": (polyak_controller(2.0, 2.0),
                  dict(h=1e-2, t_max=1.0, stop=RUN_FOREVER)),
        "converged": (polyak_controller(2.0, 2.0),
                      dict(h=5e-2, t_max=100.0,
                           stop=StoppingRule(tol_g=1e-3, tol_v=1e-3))),
        "diverged": (polyak_controller(1e8, 1e4), dict(h=1e-2, t_max=10.0)),
    }[ending]
    dense = integrate(spec, prob.oracle, s0, method=method, **kw)
    assert {"t_max": not (dense.converged or dense.diverged),
            "converged": dense.converged,
            "diverged": dense.diverged}[ending]
    last = len(dense.columns["t"]) - 1
    for stride in (2, 7):
        thin = integrate(spec, prob.oracle, s0, method=method,
                         record_stride=stride, **kw)
        rows = sorted(set(range(0, last + 1, stride)) | {last})
        for name, col in dense.columns.items():
            assert thin.columns[name].tobytes() == col[rows].tobytes(), name
        assert (thin.converged, thin.diverged, thin.meta["steps_taken"]) \
            == (dense.converged, dense.diverged, dense.meta["steps_taken"])


def test_divergence_flagged_and_truncated():
    # gains far beyond the RK4 stability limit at this step size
    spec = polyak_controller(1e8, 1e4)
    s0 = initial_state(Q2.oracle, np.array([3.0]))
    rec = integrate(spec, Q2.oracle, s0, h=1e-2, t_max=10.0)
    assert rec.diverged and not rec.converged
    arr = rec.columns
    assert np.all(np.isfinite(arr["x"]))
    assert rec.meta["t_final"] < 10.0


def test_integrate_validates_arguments():
    s0 = initial_state(Q2.oracle, np.array([3.0]))
    with pytest.raises(ValueError, match="step size"):
        integrate(MinP(), Q2.oracle, s0, h=0.0, t_max=1.0)
    with pytest.raises(ValueError, match="t_max"):
        integrate(MinP(), Q2.oracle, s0, h=0.1, t_max=0.01)
    with pytest.raises(ValueError, match="record_stride"):
        integrate(MinP(), Q2.oracle, s0, h=0.1, t_max=1.0,
                  record_stride=0)


@pytest.mark.parametrize("field, shape, mode", [
    ("x", (5,), FlowMode.REDUCED),
    ("v", (3,), FlowMode.REDUCED),
    ("lambda_x", (1,), FlowMode.FULL_PRIMAL_DUAL),
    ("lambda_v", (1,), FlowMode.FULL_PRIMAL_DUAL),
])
def test_integrate_rejects_a_start_state_of_another_shape(field, shape,
                                                          mode):
    # each would otherwise run: x's extra entry spills into v, a short v
    # takes y, and a (1,) costate broadcasts into every row
    prob = random_quadratic(4, kappa=10.0, seed=1)
    s0 = dataclasses.replace(initial_state(prob.oracle, prob.x0),
                             **{field: np.ones(shape)})
    with pytest.raises(ValueError,
                       match=rf"state0\.{field} has shape \({shape[0]},\), "
                             r"expected \(4,\)"):
        integrate(polyak_controller(2.0, 2.0), prob.oracle, s0, h=1e-2,
                  t_max=0.1, mode=mode)


def test_integrate_rejects_an_overflowing_step_count():
    # t_max / h overflows to inf, which has no integer step count
    s0 = initial_state(Q2.oracle, np.array([3.0]))
    with pytest.raises(ValueError, match="t_max / h must be finite"):
        integrate(polyak_controller(2.0, 2.0), Q2.oracle, s0, h=1e-300,
                  t_max=1e300)


def _turning(oracle, field, turn, edge=1.0):
    """oracle, with its field's value f replaced by turn(f) where any
    x_i < edge. A turned Hessian depends on the point, so the oracle
    then has no constant Hessian."""
    call = getattr(oracle, field)

    def turned(x):
        out = call(x)
        return turn(out) if np.min(x) < edge else out
    constant = {"constant_hessian": None} if field == "hessian" else {}
    return dataclasses.replace(oracle, **{field: turned}, **constant)


def _infinite_y(state):
    return dataclasses.replace(state, y=np.inf)


POLYAK = polyak_controller(2.0, 2.0)
#: cause -> (controller, oracle, start-state change, steps taken under rk4
#: and under semi-implicit Euler). Heading from x = 3 towards 0, RK4
#: meets x < 1 at a stage inside step 81; semi-implicit Euler's state
#: after step 80 is already below 1, so its gradient norm is not finite
#: and the run stops at step 79. The nesterov flow's edge, 0.997,
#: is first met by the last RK4 stage of step 165, whose nan control
#: makes v nan alone, with x and y finite. Under a constant gradient of
#: -2e11, v settles at 2e11 and x passes the limit alone, with y finite.
#: A gradient scaled by 1e154 below x = 1 stays finite, but its norm
#: overflows: it stops the run where a nan gradient does, and from the
#: start when it is scaled everywhere.
#: In full mode, a Hessian that turns nan below x = 1 leaves the primal
#: state finite and makes the costates of step 81 nan under both
#: integrators; 80 is not a multiple of the stride 3, so the last kept
#: row is the tail row.
DIVERGENCES = {
    "nan_gradient": (POLYAK,
                     _turning(Q2.oracle, "gradient", lambda g: g * np.nan),
                     None, (80, 79)),
    "infinite_velocity": (POLYAK,
                          _turning(Q2.oracle, "gradient",
                                   lambda g: g * 1e308),
                          None, (80, 79)),
    "nan_velocity": (nesterov_flow_controller(2.0),
                     _turning(Q2.oracle, "hessian", lambda H: H * np.nan,
                              edge=0.997),
                     None, (164, 165)),
    "infinite_y": (POLYAK, Q2.oracle, _infinite_y, (0, 0)),
    "overflowing_gradient_norm": (POLYAK,
                                  _turning(Q2.oracle, "gradient",
                                           lambda g: g * 1e154),
                                  None, (80, 79)),
    "overflowing_gradient_norm_at_start": (
        POLYAK, _turning(Q2.oracle, "gradient", lambda g: g * 1e154,
                         edge=np.inf),
        None, (0, 0)),
    "velocity_past_limit": (polyak_controller(1e8, 1e4), Q2.oracle, None,
                            (1, 2)),
    "position_past_limit": (POLYAK,
                            _turning(Q2.oracle, "gradient",
                                     lambda g: np.full_like(g, -2e11),
                                     edge=np.inf),
                            None, (549, 548)),
    "nan_costate": (POLYAK,
                    _turning(Q2.oracle, "hessian", lambda H: H * np.nan),
                    None, (80, 80)),
}
#: the causes that need the costates integrated
MODES = {"nan_costate": FlowMode.FULL_PRIMAL_DUAL}


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("method", list(Integrator))
@pytest.mark.parametrize("cause", sorted(DIVERGENCES))
def test_each_divergence_cause_stops_at_the_last_finite_state(cause, method,
                                                              stride):
    # the step count is the one the per-element isfinite test gave; the
    # rows are those of the same run told to stop at that step
    spec, oracle, change, steps = DIVERGENCES[cause]
    steps = steps[method is Integrator.SEMI_IMPLICIT_EULER]
    mode = MODES.get(cause, FlowMode.REDUCED)
    s0 = initial_state(oracle, np.array([3.0]))
    if change is not None:
        s0 = change(s0)
    with np.errstate(all="ignore"):
        rec = integrate(spec, oracle, s0, h=1e-2, t_max=10.0, method=method,
                        mode=mode, record_stride=stride)
        assert (rec.diverged, rec.converged, rec.meta["steps_taken"]) \
            == (True, False, steps)
        rows = sorted(set(range(0, steps + 1, stride)) | {steps})
        assert len(rec.columns["t"]) == len(rows)
        if steps == 0:
            assert (rec.columns["x"][0], rec.columns["v"][0],
                    rec.columns["y"][0]) == (3.0, 0.0, s0.y)
            return
        cut = integrate(spec, oracle, s0, h=1e-2, t_max=steps * 1e-2,
                        method=method, mode=mode, record_stride=stride)
    assert not cut.diverged and cut.meta["steps_taken"] == steps
    for name, col in cut.columns.items():
        assert rec.columns[name].tobytes() == col.tobytes(), name


def test_infeasible_rate_propagates():
    # start on the zero-authority set of a problem whose drift cannot meet
    # the requested rate; the controller error must surface, not be stepped
    # over
    prob = quadratic_problem(np.array([[1.0]]))
    s0 = initial_state(prob.oracle, np.array([1.0]), v0=np.array([-1.0]))
    spec = MinPStar(rate_eta=3.0)
    with pytest.raises(InfeasibleStateError):
        integrate(spec, prob.oracle, s0, h=1e-3, t_max=1.0)


def test_min_p_star_certificate_decays_at_rate():
    prob = random_quadratic(6, kappa=10.0, seed=3)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(MinPStar(rate_eta=1.0), prob.oracle, s0,
                    h=1e-3, t_max=5.0, stop=RUN_FOREVER, record_stride=20)
    arr = rec.columns
    bound = arr["V"][0] * np.exp(-arr["t"]) * (1.0 + 1e-6)
    assert np.all(arr["V"] <= bound)
    assert np.all(arr["lieV"] <= 1e-12)


def test_full_mode_costates_track_arc_identities():
    # the co-propagated costates drift from the arc identities at the
    # integrator's order: fourth-order in lambda_x under step halving, and
    # lambda_v stays tiny because its driver is that same drift
    prob = random_quadratic(10, kappa=10.0, seed=42)
    oracle = prob.oracle
    s0 = initial_state(oracle, prob.x0)
    spec = polyak_controller(2.0, 2.0)

    def run(h):
        rec = integrate(spec, oracle, s0, h=h, t_max=5.0,
                        mode=FlowMode.FULL_PRIMAL_DUAL, stop=RUN_FOREVER,
                        record_stride=5)
        cols = rec.columns
        res = max(np.linalg.norm(lam + oracle.gradient(x))
                  for x, lam in zip(cols["x"], cols["lambda_x"]))
        lv = max(np.linalg.norm(lam) for lam in cols["lambda_v"])
        return res, lv

    res4, _ = run(4e-3)
    res2, lv2 = run(2e-3)
    assert 8.0 <= res4 / res2 <= 32.0
    assert lv2 <= 1e-8


@pytest.mark.parametrize("spec", [
    polyak_controller(2.0, 2.0), nesterov_flow_controller(2.0),
    accelerated_newton_controller(2.0, 2.0),
    quasi_newton_flow_controller(2.0, 2.0),
    MinPStar(metric=MetricSpec(MetricKind.HESSIAN), rate_eta=0.5)],
    ids=["polyak", "nesterov", "accel_newton", "quasi_newton",
         "min_p_star-hessian"])
def test_full_mode_costates_reach_the_integrators_order_under_every_metric(
        spec):
    # the adjoint step sees the controls the primal step used, so a
    # quasi-Newton matrix updated after the step leaves the order alone
    prob = random_quadratic(8, kappa=10.0, seed=7)
    oracle = prob.oracle
    s0 = initial_state(oracle, prob.x0)

    def drift(h):
        cols = integrate(spec, oracle, s0, h=h, t_max=3.0,
                         mode=FlowMode.FULL_PRIMAL_DUAL,
                         stop=RUN_FOREVER).columns
        return np.linalg.norm(cols["lambda_x"] + oracle.gradient(cols["x"]),
                              axis=1).max()

    assert 8.0 <= drift(2e-3) / drift(1e-3) <= 32.0


def test_full_mode_reduced_mode_same_primal():
    # costate propagation must not feed back into the primal trajectory,
    # nor into the recorded control, for any metric or integrator
    prob = random_quadratic(5, kappa=10.0, seed=4)
    s0 = initial_state(prob.oracle, prob.x0)
    specs = [polyak_controller(2.0, 2.0), nesterov_flow_controller(2.0),
             accelerated_newton_controller(2.0, 2.0),
             quasi_newton_flow_controller(2.0, 2.0),
             MinPStar(rate_eta=0.5)]
    for spec in specs:
        for method in Integrator:
            kw = dict(h=1e-2, t_max=2.0, method=method, stop=RUN_FOREVER,
                      record_stride=20)
            red = integrate(spec, prob.oracle, s0, **kw).columns
            ful = integrate(spec, prob.oracle, s0,
                            mode=FlowMode.FULL_PRIMAL_DUAL, **kw).columns
            for key in ("x", "v", "y", "u"):
                np.testing.assert_array_equal(red[key], ful[key])


@pytest.mark.parametrize("mode", list(FlowMode))
def test_rk4_evaluates_the_control_four_times_per_step(mode, monkeypatch):
    # the control at each accepted state feeds its sample and the next
    # step's first stage, so a step adds only its three inner stages;
    # every evaluation, the checked one at the start included, is a call
    # of a law that MinP.bind made (polyak is min_p at a fixed sigma)
    calls = []
    bind = MinP.bind

    def counting_bind(spec, oracle):
        law = bind(spec, oracle)

        def counting(*args):
            calls.append(args)
            return law(*args)
        return counting

    monkeypatch.setattr(MinP, "bind", counting_bind)
    prob = random_quadratic(4, kappa=5.0, seed=2)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(polyak_controller(2.0, 2.0), prob.oracle, s0, h=1e-2,
                    t_max=0.5, mode=mode, stop=RUN_FOREVER, record_stride=1)
    assert rec.meta["steps_taken"] == 50
    assert len(calls) == 4 * 50 + 1


HESSIAN_MIN_P_STAR = MinPStar(
    metric=MetricSpec(MetricKind.HESSIAN), rate_eta=1.0)


def test_rk4_takes_four_hessians_per_step_with_the_hessian_metric():
    # each control evaluation takes one Hessian, and a sample takes none:
    # it reads lie V off the drift term of its state's control
    prob = random_quadratic(4, kappa=5.0, seed=2)
    calls = []

    def hessian(x):
        calls.append(1)
        return prob.oracle.hessian(x)

    oracle = dataclasses.replace(prob.oracle, hessian=hessian,
                                 constant_hessian=None)
    s0 = initial_state(oracle, prob.x0)
    rec = integrate(HESSIAN_MIN_P_STAR, oracle, s0, h=1e-2, t_max=0.5,
                    stop=RUN_FOREVER, record_stride=1)
    assert rec.meta["steps_taken"] == 50
    assert len(rec.columns["t"]) == 51
    assert len(calls) == 4 * 50 + 1


def test_rk4_takes_four_hessians_per_step_in_the_newton_flow():
    # each control evaluation takes one Hessian for its metric, and the
    # lie V column takes one stacked call for the whole table instead of
    # one per row: one at the start, four per step, and that one
    prob = random_quadratic(4, kappa=5.0, seed=2)
    calls = []

    def hessian(x):
        calls.append(1)
        return prob.oracle.hessian(x)

    oracle = dataclasses.replace(prob.oracle, hessian=hessian,
                                 constant_hessian=None)
    s0 = initial_state(oracle, prob.x0)
    rec = integrate(accelerated_newton_controller(2.0, 2.0), oracle, s0,
                    h=1e-2, t_max=0.5, stop=RUN_FOREVER, record_stride=1)
    assert rec.meta["steps_taken"] == 50
    assert len(rec.columns["t"]) == 51
    assert len(calls) == 4 * 50 + 2


def test_the_full_mode_adjoint_takes_two_hessians_per_step():
    # polyak reads no Hessian; the adjoint takes hess E(x) v at each step's
    # midpoint and end, the end's serving as the next step's start, plus
    # one at the first state and the lie V column's stacked row blocks
    prob = random_log_sum_exp(50, 200, seed=11)
    calls = []

    def hessian(x):
        calls.append(1)
        return prob.oracle.hessian(x)

    oracle = dataclasses.replace(prob.oracle, hessian=hessian)
    rec = integrate(polyak_controller(2.0, 2.0), oracle,
                    initial_state(oracle, prob.x0), h=1e-2, t_max=2.0,
                    mode=FlowMode.FULL_PRIMAL_DUAL, stop=RUN_FOREVER)
    assert rec.meta["steps_taken"] == 200
    blocks = -(-201 // (2 ** 16 // 50 ** 2))
    assert len(calls) == 2 * 200 + 1 + blocks == 409


def test_rk4_certifies_each_quasi_newton_matrix_once(monkeypatch):
    # a matrix is certified where it is made, by the update's floor test,
    # and not again by the four solves of a step
    calls = []
    cholesky = np.linalg.cholesky

    def counting(M):
        calls.append(1)
        return cholesky(M)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    prob = random_quadratic(6, kappa=100.0, seed=2)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(quasi_newton_flow_controller(25.0, 100.0), prob.oracle,
                    s0, h=1e-2, t_max=0.5, stop=RUN_FOREVER)
    assert rec.meta["steps_taken"] == 50
    assert 0 < len(calls) <= 2 * 50


@pytest.mark.parametrize("mode", list(FlowMode))
@pytest.mark.parametrize("spec", [
    polyak_controller(2.0, 2.0), MinPStar(rate_eta=1.0)],
    ids=["polyak", "min_p_star"])
def test_a_runs_certificate_and_value_calls_do_not_grow_with_its_length(
        spec, mode, monkeypatch):
    # V, lie V and E are computed once over the table: one stacked call
    # each, whatever the step count; min_p_star's lie V takes none
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("clf_value", "lie_derivative"):
        monkeypatch.setattr(flow, name, counted(name, getattr(flow, name)))
    prob = random_quadratic(4, kappa=5.0, seed=2)
    oracle = dataclasses.replace(prob.oracle,
                                 value=counted("value", prob.oracle.value))
    s0 = initial_state(prob.oracle, prob.x0)
    seen = []
    for t_max in (0.5, 2.0):
        counts.clear()
        integrate(spec, oracle, s0, h=1e-2, t_max=t_max, mode=mode,
                  stop=RUN_FOREVER)
        seen.append(dict(counts))
    drift = not isinstance(spec, MinP)
    assert seen[0] == seen[1] == {"clf_value": 1, "value": 1,
                                  **({} if drift else {"lie_derivative": 1})}


@pytest.mark.parametrize("spec", [
    MinPStar(rate_eta=1.0), HESSIAN_MIN_P_STAR,
    nesterov_flow_controller(2.0)],
    ids=["min_p_star", "min_p_star_hessian", "nesterov"])
def test_sample_lie_derivative_is_lie_derivative_bit_for_bit(spec):
    prob = random_quadratic(5, kappa=10.0, seed=4)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(spec, prob.oracle, s0, h=1e-2, t_max=3.0,
                    stop=RUN_FOREVER, record_stride=1)
    for k in range(len(rec.columns["t"])):
        s = row(rec, k)
        x, v = s.x, s.v
        lie = lie_derivative(spec.clf, prob.oracle, x,
                             -prob.oracle.gradient(x), v, s.u)
        assert s.lieV == lie


DIAGNOSED = {
    "polyak": polyak_controller(2.0, 2.0),
    "accel_newton": accelerated_newton_controller(2.0, 2.0, eig_floor=1e-2),
    "quasi_newton": quasi_newton_flow_controller(2.0, 2.0, eig_floor=1e-2),
    "nesterov": nesterov_flow_controller(2.0),
    "min_p_taper": MinP(delta=1.0, delta_mode=DeltaMode.TAPER),
    "min_p_star": MinPStar(rate_eta=0.5),
    "min_p_star_hessian": MinPStar(
        metric=MetricSpec(MetricKind.HESSIAN, eig_floor=1e-2), rate_eta=0.5),
}
DIAGNOSED_PROBLEMS = {
    "quadratic": random_quadratic(5, kappa=10.0, seed=4),
    "log_sum_exp": random_log_sum_exp(3, terms=6, seed=6),
}


@pytest.mark.parametrize("method", list(Integrator))
@pytest.mark.parametrize("mode", list(FlowMode))
@pytest.mark.parametrize("problem", sorted(DIAGNOSED_PROBLEMS))
@pytest.mark.parametrize("family", sorted(DIAGNOSED))
def test_diagnostics_equal_one_state_calls_bit_for_bit(family, problem, mode,
                                                       method):
    # the table's diagnostic columns come from one stacked call each; every
    # row must hold what the one-state call gives at that row's state
    spec, oracle = DIAGNOSED[family], DIAGNOSED_PROBLEMS[problem].oracle
    s0 = initial_state(oracle, DIAGNOSED_PROBLEMS[problem].x0)
    rec = integrate(spec, oracle, s0, h=1e-2, t_max=1.0, method=method,
                    mode=mode, stop=RUN_FOREVER)
    assert not rec.diverged and rec.meta["steps_taken"] == 100
    for k in range(len(rec.columns["t"])):
        s = row(rec, k)
        g = oracle.gradient(s.x)
        assert s.V == clf_value(spec.clf, -g, s.v)
        assert s.lieV == lie_derivative(spec.clf, oracle, s.x, -g, s.v, s.u)
        assert s.E == oracle.value(s.x)
        assert s.grad_norm == np.linalg.norm(g)


def test_quasi_newton_flow_converges():
    prob = random_quadratic(6, kappa=30.0, seed=5)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(quasi_newton_flow_controller(10.0, 10.0), prob.oracle, s0,
                    h=1e-2, t_max=100.0, record_stride=50)
    assert rec.converged
    assert flow_summary(rec, "quasi_newton")["final"]["grad_norm"] <= 1e-6


def test_trajectory_meta_records_setup():
    s0 = initial_state(Q2.oracle, np.array([3.0]))
    rec = integrate(MinP(), Q2.oracle, s0, h=1e-2, t_max=0.1)
    assert "controller" not in rec.meta
    assert rec.meta["metric"] == "euclidean"
    assert rec.meta["mode"] == "reduced"
    assert rec.meta["method"] == "rk4"
    assert rec.meta["h"] == 1e-2


@pytest.fixture(scope="module")
def traced_dim100_run():
    """A dim-100 polyak run of 2501 rows, and integrate's traced peak."""
    problem = random_quadratic(100, 100.0, seed=1)
    state0 = initial_state(problem.oracle, problem.x0)
    return traced_peak(lambda: integrate(polyak_controller(10.0, 10.0),
                                         problem.oracle, state0, 1e-3, 2.5,
                                         stop=RUN_FOREVER))


def test_a_run_holds_about_its_own_table(traced_dim100_run):
    record, peak = traced_dim100_run
    assert len(record.columns["t"]) == 2501
    assert peak < PEAK_PER_COLUMN_BYTE * column_bytes(record)


def test_the_trajectory_writer_holds_a_block_not_the_table(
        traced_dim100_run, tmp_path):
    from accelflow.export import trajectory_header, write_trajectory_csv
    record, _ = traced_dim100_run
    _, peak = traced_peak(lambda: write_trajectory_csv(
        record, str(tmp_path / "trajectory.csv")))
    table = len(record.columns["t"]) * len(trajectory_header(100, False)) * 8
    assert peak < 0.1 * table


def test_the_dissipation_check_holds_row_blocks_not_the_record(
        traced_dim100_run):
    from accelflow.verify import check_dissipation
    record, _ = traced_dim100_run
    spec = polyak_controller(10.0, 10.0)
    oracle = random_quadratic(100, 100.0, seed=1).oracle
    _, peak = traced_peak(lambda: check_dissipation(record, spec.clf,
                                                    oracle))
    assert peak < 0.25 * column_bytes(record)


#: a log_sum_exp Hessian depends on the point: one (40, 40) matrix per
#: row, nearly eight times a row's 206 column values
LSE40 = random_log_sum_exp(40, 80, seed=1)
HESSIAN_MIN_P_STAR_LSE = MinPStar(
    metric=MetricSpec(MetricKind.HESSIAN, eig_floor=1e-2), rate_eta=0.5)


@pytest.fixture(scope="module")
def traced_log_sum_exp_runs():
    """Runs of 2001 rows on LSE40, by name: (spec, record, traced peak)."""
    state0 = initial_state(LSE40.oracle, LSE40.x0)
    runs = {}
    for name, spec in (("nesterov", nesterov_flow_controller(2.0)),
                       ("min_p_star", HESSIAN_MIN_P_STAR_LSE)):
        record, peak = traced_peak(lambda: integrate(
            spec, LSE40.oracle, state0, 0.01, 20.0, stop=RUN_FOREVER))
        assert len(record.columns["t"]) == 2001
        runs[name] = spec, record, peak
    return runs


def test_a_run_holds_no_hessian_per_row_at_once(traced_log_sum_exp_runs):
    # the nesterov run's lie V column takes H v over the whole table
    _, record, peak = traced_log_sum_exp_runs["nesterov"]
    assert peak < PEAK_PER_COLUMN_BYTE * column_bytes(record)


@pytest.mark.parametrize("name", ["nesterov", "min_p_star"])
def test_a_replay_holds_no_hessian_per_row_at_once(traced_log_sum_exp_runs,
                                                   name):
    # the rebuilt control takes a Hessian per row (the min_p_star one
    # for its drift and its W), and so does the dissipation check's lie V
    from accelflow.config import VerifyConfig
    from accelflow.export import trajectory_from_arrays
    from accelflow.verify import run_checks
    spec, record, _ = traced_log_sum_exp_runs[name]
    columns = {key: col for key, col in record.columns.items() if key != "u"}

    def replay():
        rebuilt = trajectory_from_arrays(columns, LSE40.oracle, spec,
                                         record.meta)
        return rebuilt, run_checks(rebuilt, LSE40.oracle, spec.clf,
                                   ("dissipation",), VerifyConfig())

    (rebuilt, report), peak = traced_peak(replay)
    assert report.ok, report.lines()
    assert rebuilt.columns["u"].tobytes() == record.columns["u"].tobytes()
    assert peak < PEAK_PER_COLUMN_BYTE * column_bytes(record)


def test_a_run_that_grows_its_tables_keeps_every_row():
    # 64 rows, then 96, 144, 216 and 302, cut to 301: the first 51 rows
    # are those of a run short enough to fit the first tables
    problem = random_quadratic(20, 10.0, seed=2)
    state0 = initial_state(problem.oracle, problem.x0)
    spec = nesterov_flow_controller(5.0)
    short, long = (integrate(spec, problem.oracle, state0, 0.01, t_max,
                             stop=RUN_FOREVER).columns
                   for t_max in (0.5, 3.0))
    assert len(short["t"]) == 51 and len(long["t"]) == 301
    for name, column in short.items():
        assert long[name][:51].tobytes() == column.tobytes(), name
        assert long[name].flags.c_contiguous, name


@pytest.mark.parametrize("hook", ["setprofile", "settrace"])
@pytest.mark.parametrize("mode", list(FlowMode))
@pytest.mark.parametrize("t_max", [0.5, 3.0], ids=["fits", "grows"])
def test_a_run_under_a_profiler_or_tracer_keeps_its_bits(hook, mode, t_max):
    # a no-op hook, as a profiler or debugger sets one: the run's tables
    # are resized in place under it, at the cut and (3.0) as they grow
    problem = random_quadratic(20, 10.0, seed=2)
    state0 = initial_state(problem.oracle, problem.x0)
    spec = nesterov_flow_controller(5.0)

    def run():
        return integrate(spec, problem.oracle, state0, 0.01, t_max,
                         mode=mode, stop=RUN_FOREVER).columns

    want = run()
    set_hook = getattr(sys, hook)
    previous = getattr(sys, hook.replace("set", "get"))()
    set_hook(lambda *args: None)
    try:
        got = run()
    finally:
        set_hook(previous)
    assert len(got["t"]) == round(t_max / 0.01) + 1
    assert got.keys() == want.keys()
    for name, column in want.items():
        assert got[name].tobytes() == column.tobytes(), name
