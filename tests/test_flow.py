import dataclasses

import numpy as np
import pytest

from accelflow import flow
from accelflow.clf import lie_derivative
from accelflow.control import (
    InfeasibleStateError,
    accelerated_newton_controller,
    direct_controller,
    evaluate_control,
    min_p_controller,
    min_p_star_controller,
    nesterov_flow_controller,
    polyak_controller,
    quasi_newton_flow_controller,
)
from accelflow.flow import (
    AugmentedState,
    FlowMode,
    Integrator,
    StoppingRule,
    closed_loop_rhs,
    initial_state,
    integrate,
    terminal_residuals,
)
from accelflow.metric import MetricKind, MetricSpec
from accelflow.objective import quadratic_problem, random_quadratic

Q2 = quadratic_problem(np.array([[2.0]]))
RUN_FOREVER = StoppingRule(tol_g=0.0, tol_v=0.0)


def test_initial_state_consistency():
    s = initial_state(Q2.oracle, np.array([3.0]))
    assert s.y == pytest.approx(9.0)
    np.testing.assert_allclose(s.lambda_x, [-6.0])
    np.testing.assert_array_equal(s.lambda_v, [0.0])
    assert s.lambda_y == 1.0
    with pytest.raises(ValueError, match="x0 has shape"):
        initial_state(Q2.oracle, np.zeros(2))
    with pytest.raises(ValueError, match="v0 has shape"):
        initial_state(Q2.oracle, np.zeros(1), v0=np.zeros(2))


def test_rhs_hand_case():
    s = initial_state(Q2.oracle, np.array([3.0]), v0=np.array([1.0]))
    d = closed_loop_rhs(direct_controller(1.0, 1.0, 2.0), Q2.oracle, s)
    assert d.dy == pytest.approx(6.0)
    np.testing.assert_allclose(d.dlambda_x, [-2.0])
    np.testing.assert_allclose(d.dx, [1.0])
    np.testing.assert_array_equal(d.dlambda_v, [0.0])
    assert d.dlambda_y == 0.0


def test_rhs_equilibrium_is_stationary():
    s = initial_state(Q2.oracle, np.zeros(1))
    for spec in (direct_controller(1.0, 1.0, 2.0), min_p_controller(),
                 min_p_star_controller()):
        d = closed_loop_rhs(spec, Q2.oracle, s)
        for part in (d.dx, d.dv, d.dlambda_x, d.dlambda_v):
            np.testing.assert_array_equal(part, [0.0])
        assert d.dy == 0.0


def test_rhs_full_mode_lambda_v_identity():
    # with lambda_x = -grad E exactly, the lambda_v equation reads zero
    s = initial_state(Q2.oracle, np.array([3.0]), v0=np.array([1.0]))
    d = closed_loop_rhs(min_p_controller(), Q2.oracle, s,
                        mode=FlowMode.FULL_PRIMAL_DUAL)
    np.testing.assert_allclose(d.dlambda_v, [0.0], atol=1e-15)


def test_terminal_residuals_hand_case():
    s = initial_state(Q2.oracle, np.array([3.0]), v0=np.array([1.0]))
    r = terminal_residuals(s, Q2.oracle)
    assert r.r_grad == pytest.approx(6.0)
    assert r.r_lambda_x == pytest.approx(6.0)
    assert r.r_v == pytest.approx(1.0)
    assert r.r_lambda_v == 0.0
    at_target = initial_state(Q2.oracle, np.zeros(1))
    r = terminal_residuals(at_target, Q2.oracle)
    assert (r.r_grad, r.r_v, r.r_lambda_x, r.r_lambda_v) == (0.0, 0.0, 0.0, 0.0)


def test_integrate_equilibrium_stops_immediately():
    s = initial_state(Q2.oracle, np.zeros(1))
    rec = integrate(min_p_controller(), Q2.oracle, s, h=1e-2, t_max=1.0)
    assert rec.converged and not rec.diverged
    assert len(rec.samples) == 1
    assert rec.samples[0].state.t == 0.0


def _direct_closed_form(t):
    # x'' + 5 x' + 2 x = 0 from x(0) = 3, x'(0) = 0
    s1 = (-5.0 + np.sqrt(17.0)) / 2.0
    s2 = (-5.0 - np.sqrt(17.0)) / 2.0
    return 3.0 * (s2 * np.exp(s1 * t) - s1 * np.exp(s2 * t)) / (s2 - s1)


def test_direct_flow_matches_closed_form():
    spec = direct_controller(1.0, 1.0, 2.0)
    s0 = initial_state(Q2.oracle, np.array([3.0]))
    rec = integrate(spec, Q2.oracle, s0, h=1e-3, t_max=1e3)
    assert rec.converged and not rec.diverged
    assert rec.meta["t_final"] < 40.0
    arr = rec.as_arrays()
    exact = _direct_closed_form(arr["t"])
    assert np.max(np.abs(arr["x"][:, 0] - exact)) <= 1e-9
    r = terminal_residuals(rec.final.state, Q2.oracle)
    assert r.r_grad <= 1e-6 and r.r_v <= 1e-6


def test_rk4_is_fourth_order():
    # terminal error against a much finer reference drops ~16x per halving;
    # the underdamped gains keep truncation error well above roundoff
    spec = polyak_controller(25.0, 2.0)
    s0 = initial_state(Q2.oracle, np.array([3.0]))

    def terminal_x(h):
        rec = integrate(spec, Q2.oracle, s0, h=h, t_max=1.0, stop=RUN_FOREVER,
                        record_stride=10 ** 9)
        assert rec.meta["t_final"] == pytest.approx(1.0)
        return rec.final.state.x[0]

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
        return rec.final.state.x[0]

    ref = terminal_x(1e-5)
    err2 = abs(terminal_x(2e-3) - ref)
    err1 = abs(terminal_x(1e-3) - ref)
    assert 1.5 <= err2 / err1 <= 3.0


def test_swept_cost_tracks_objective():
    prob = random_quadratic(6, kappa=20.0, seed=1)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(polyak_controller(2.0, 2.0), prob.oracle, s0, h=1e-3,
                    t_max=5.0, stop=RUN_FOREVER, record_stride=50)
    arr = rec.as_arrays()
    assert np.max(np.abs(arr["y"] - arr["E"])) <= 1e-9


def test_record_stride_thins_but_keeps_final():
    prob = random_quadratic(4, kappa=5.0, seed=2)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(polyak_controller(2.0, 2.0), prob.oracle, s0, h=1e-2,
                    t_max=1.0, stop=RUN_FOREVER, record_stride=10)
    t = rec.as_arrays()["t"]
    assert len(t) == 11  # t=0, ten strides of 0.1
    assert np.all(np.diff(t) > 0.0)
    assert t[-1] == pytest.approx(1.0)
    # a stride that does not divide the step count still records the end
    rec = integrate(polyak_controller(2.0, 2.0), prob.oracle, s0, h=1e-2,
                    t_max=1.0, stop=RUN_FOREVER, record_stride=7)
    t = rec.as_arrays()["t"]
    assert t[-1] == pytest.approx(1.0)
    assert np.all(np.diff(t) > 0.0)


def test_divergence_flagged_and_truncated():
    # gains far beyond the RK4 stability limit at this step size
    spec = polyak_controller(1e8, 1e4)
    s0 = initial_state(Q2.oracle, np.array([3.0]))
    rec = integrate(spec, Q2.oracle, s0, h=1e-2, t_max=10.0)
    assert rec.diverged and not rec.converged
    arr = rec.as_arrays()
    assert np.all(np.isfinite(arr["x"]))
    assert rec.meta["t_final"] < 10.0


def test_integrate_validates_arguments():
    s0 = initial_state(Q2.oracle, np.array([3.0]))
    with pytest.raises(ValueError, match="step size"):
        integrate(min_p_controller(), Q2.oracle, s0, h=0.0, t_max=1.0)
    with pytest.raises(ValueError, match="t_max"):
        integrate(min_p_controller(), Q2.oracle, s0, h=0.1, t_max=0.01)
    with pytest.raises(ValueError, match="record_stride"):
        integrate(min_p_controller(), Q2.oracle, s0, h=0.1, t_max=1.0,
                  record_stride=0)


def test_infeasible_rate_propagates():
    # start on the zero-authority set of a problem whose drift cannot meet
    # the requested rate; the controller error must surface, not be stepped
    # over
    prob = quadratic_problem(np.array([[1.0]]))
    s0 = initial_state(prob.oracle, np.array([1.0]), v0=np.array([-1.0]))
    spec = min_p_star_controller(rate_eta=3.0)
    with pytest.raises(InfeasibleStateError):
        integrate(spec, prob.oracle, s0, h=1e-3, t_max=1.0)


def test_min_p_star_certificate_decays_at_rate():
    prob = random_quadratic(6, kappa=10.0, seed=3)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(min_p_star_controller(rate_eta=1.0), prob.oracle, s0,
                    h=1e-3, t_max=5.0, stop=RUN_FOREVER, record_stride=20)
    arr = rec.as_arrays()
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
        res = max(np.linalg.norm(q.state.lambda_x + oracle.gradient(q.state.x))
                  for q in rec.samples)
        lv = max(np.linalg.norm(q.state.lambda_v) for q in rec.samples)
        return res, lv

    res4, _ = run(4e-3)
    res2, lv2 = run(2e-3)
    assert 8.0 <= res4 / res2 <= 32.0
    assert lv2 <= 1e-8


def test_full_mode_reduced_mode_same_primal():
    # costate propagation must not feed back into the primal trajectory,
    # nor into the recorded control, for any metric or integrator
    prob = random_quadratic(5, kappa=10.0, seed=4)
    s0 = initial_state(prob.oracle, prob.x0)
    specs = [polyak_controller(2.0, 2.0), nesterov_flow_controller(2.0),
             accelerated_newton_controller(2.0, 2.0),
             quasi_newton_flow_controller(2.0, 2.0),
             min_p_star_controller(rate_eta=0.5)]
    for spec in specs:
        for method in Integrator:
            kw = dict(h=1e-2, t_max=2.0, method=method, stop=RUN_FOREVER,
                      record_stride=20)
            red = integrate(spec, prob.oracle, s0, **kw).as_arrays()
            ful = integrate(spec, prob.oracle, s0,
                            mode=FlowMode.FULL_PRIMAL_DUAL, **kw).as_arrays()
            for key in ("x", "v", "y", "u"):
                np.testing.assert_array_equal(red[key], ful[key])


@pytest.mark.parametrize("mode", list(FlowMode))
def test_rk4_evaluates_the_control_four_times_per_step(mode, monkeypatch):
    # the control at each accepted state feeds its sample and the next
    # step's first stage, so a step adds only its three inner stages
    calls = []

    def counting(*args):
        calls.append(args)
        return evaluate_control(*args)

    monkeypatch.setattr(flow, "evaluate_control", counting)
    prob = random_quadratic(4, kappa=5.0, seed=2)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(polyak_controller(2.0, 2.0), prob.oracle, s0, h=1e-2,
                    t_max=0.5, mode=mode, stop=RUN_FOREVER, record_stride=1)
    assert rec.meta["steps_taken"] == 50
    assert len(calls) == 4 * 50 + 1


HESSIAN_MIN_P_STAR = min_p_star_controller(
    metric=MetricSpec(MetricKind.HESSIAN), rate_eta=1.0)


def test_rk4_takes_four_hessians_per_step_with_the_hessian_metric():
    # each control evaluation takes one Hessian, and a sample takes none:
    # it reads lie V off the drift term of its state's control
    prob = random_quadratic(4, kappa=5.0, seed=2)
    calls = []

    def hessian(x):
        calls.append(1)
        return prob.oracle.hessian(x)

    oracle = dataclasses.replace(prob.oracle, hessian=hessian)
    s0 = initial_state(oracle, prob.x0)
    rec = integrate(HESSIAN_MIN_P_STAR, oracle, s0, h=1e-2, t_max=0.5,
                    stop=RUN_FOREVER, record_stride=1)
    assert rec.meta["steps_taken"] == 50
    assert len(rec.samples) == 51
    assert len(calls) == 4 * 50 + 1


@pytest.mark.parametrize("spec", [
    min_p_star_controller(rate_eta=1.0), HESSIAN_MIN_P_STAR,
    nesterov_flow_controller(2.0)],
    ids=["min_p_star", "min_p_star_hessian", "nesterov"])
def test_sample_lie_derivative_is_lie_derivative_bit_for_bit(spec):
    prob = random_quadratic(5, kappa=10.0, seed=4)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(spec, prob.oracle, s0, h=1e-2, t_max=3.0,
                    stop=RUN_FOREVER, record_stride=1)
    for s in rec.samples:
        x, v = s.state.x, s.state.v
        lie = lie_derivative(spec.clf, prob.oracle, x,
                             -prob.oracle.gradient(x), v, s.u)
        assert s.lieV == lie


def test_quasi_newton_flow_converges():
    prob = random_quadratic(6, kappa=30.0, seed=5)
    s0 = initial_state(prob.oracle, prob.x0)
    rec = integrate(quasi_newton_flow_controller(10.0, 10.0), prob.oracle, s0,
                    h=1e-2, t_max=100.0, record_stride=50)
    assert rec.converged
    r = terminal_residuals(rec.final.state, prob.oracle)
    assert r.r_grad <= 1e-6


def test_trajectory_meta_records_setup():
    s0 = initial_state(Q2.oracle, np.array([3.0]))
    rec = integrate(min_p_controller(), Q2.oracle, s0, h=1e-2, t_max=0.1)
    assert rec.meta["controller"] == "min_p"
    assert rec.meta["metric"] == "euclidean"
    assert rec.meta["mode"] == "reduced"
    assert rec.meta["method"] == "rk4"
    assert rec.meta["h"] == 1e-2
