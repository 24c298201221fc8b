"""A constant Hessian is floored once per run and read without a call.

A quadratic's oracle carries its Hessian as constant_hessian. The runs,
the replay and the discrete Newton drive floor it once, where their one
bound law (or inverse) first solves (control._inverse), and every
product with it gives the bits of the product with hessian(x) it
replaces.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelflow import metric
from accelflow.clf import DEFAULT_CLF, drift_condition_check, lie_derivative
from accelflow.control import (
    MinPStar,
    accelerated_newton_controller,
    evaluate_control,
    nesterov_flow_controller,
    polyak_controller,
    quasi_newton_flow_controller,
)
from accelflow.discrete import accelerated_newton_iterate, \
    exact_line_search_alpha
from accelflow.export import trajectory_from_arrays
from accelflow.flow import (
    FlowMode,
    Integrator,
    StoppingRule,
    initial_state,
    integrate,
)
from accelflow.metric import MetricKind, MetricSpec
from accelflow.objective import quadratic_problem, random_quadratic

RUN_FOREVER = StoppingRule(tol_g=0.0, tol_v=0.0)


def _point_dependent(oracle):
    """The same oracle, with its Hessian only reachable by calling it."""
    return dataclasses.replace(oracle, constant_hessian=None)


@st.composite
def quadratics(draw):
    """A random quadratic, a floor above or below its smallest
    eigenvalue, and a point, a velocity and stacked velocities."""
    n = draw(st.integers(1, 60))
    kappa = draw(st.floats(1.0, 1e4))
    scale = draw(st.floats(1e-3, 1e3))
    seed = draw(st.integers(0, 2**32 - 1))
    prob = random_quadratic(n, kappa, seed=seed, scale=scale)
    Q = prob.oracle.hessian(prob.x0)
    if draw(st.booleans()):
        # a Fortran-ordered Q must still give the C-ordered bits
        prob = quadratic_problem(np.asfortranarray(Q), x_star=prob.x_star,
                                 x0=prob.x0)
    lam_min = float(np.linalg.eigvalsh(Q)[0])
    ratio = draw(st.one_of(st.floats(1e-3, 0.999), st.floats(1.001, 1e3)))
    rng = np.random.default_rng(seed)
    return (prob, lam_min * ratio, rng.standard_normal(n),
            rng.standard_normal((3, n)))


@settings(max_examples=60, deadline=None)
@given(quadratics())
def test_the_constant_hessian_gives_the_bits_of_the_hessian_call(case):
    prob, floor, v, vs = case
    oracle = prob.oracle
    x = prob.x0
    H = oracle.hessian(x)
    Q = oracle.constant_hessian
    assert not Q.flags.writeable
    # the products, in both forms, one state and stacked
    assert np.matvec(Q, v).tobytes() == np.matvec(H, v).tobytes()
    assert np.matvec(Q, vs).tobytes() == np.matvec(H, vs).tobytes()
    assert (Q @ v).tobytes() == (H @ v).tobytes()
    # and at each call site, against the oracle that calls for it
    called = _point_dependent(oracle)
    lam = -oracle.gradient(x)
    u = -v
    assert lie_derivative(DEFAULT_CLF, oracle, x, lam, v, u) == \
        lie_derivative(DEFAULT_CLF, called, x, lam, v, u)
    X = x + vs
    assert lie_derivative(DEFAULT_CLF, oracle, X, -oracle.gradient(X), vs,
                          -vs).tobytes() == \
        lie_derivative(DEFAULT_CLF, called, X, -oracle.gradient(X), vs,
                       -vs).tobytes()
    assert drift_condition_check(DEFAULT_CLF, oracle, x, lam, v) == \
        drift_condition_check(DEFAULT_CLF, called, x, lam, v)
    assert exact_line_search_alpha(oracle, 0, x, -lam, lam) == \
        exact_line_search_alpha(called, 0, x, -lam, lam)
    # a law over the constant Hessian, floored once, against the floor at
    # each call
    for spec in (nesterov_flow_controller(2.0),
                 MinPStar(rate_eta=1.0),
                 MinPStar(
                     metric=MetricSpec(MetricKind.HESSIAN, eig_floor=floor),
                     rate_eta=1.0),
                 accelerated_newton_controller(2.0, 2.0, eig_floor=floor)):
        for xx, ll, vv in ((x, lam, v), (X, -oracle.gradient(X), vs)):
            mine = evaluate_control(spec, oracle, xx, ll, vv)
            theirs = evaluate_control(spec, called, xx, ll, vv)
            assert mine.u.tobytes() == theirs.u.tobytes()


@pytest.mark.parametrize("method", list(Integrator))
def test_the_adjoint_steps_keep_their_bits(method):
    # the full mode's adjoint steps multiply the constant Hessian by v
    prob = random_quadratic(7, kappa=30.0, seed=5)
    recs = [integrate(polyak_controller(2.0, 2.0), oracle,
                      initial_state(oracle, prob.x0), h=1e-2, t_max=0.3,
                      method=method, mode=FlowMode.FULL_PRIMAL_DUAL,
                      stop=RUN_FOREVER)
            for oracle in (prob.oracle, _point_dependent(prob.oracle))]
    for name in ("lambda_x", "lambda_v", "lieV"):
        assert recs[0].columns[name].tobytes() == \
            recs[1].columns[name].tobytes()


@pytest.fixture
def counts(monkeypatch):
    """Calls to metric.shift_to_floor and to the quadratic's hessian."""
    seen = {"floor": 0, "hessian": 0}
    floor = metric.shift_to_floor

    def counting_floor(M, f):
        seen["floor"] += 1
        return floor(M, f)

    monkeypatch.setattr(metric, "shift_to_floor", counting_floor)
    prob = random_quadratic(5, kappa=20.0, seed=3)
    hessian = prob.oracle.hessian

    def counting_hessian(x):
        seen["hessian"] += 1
        return hessian(x)

    # the constant Hessian stays: the oracle still has one
    oracle = dataclasses.replace(prob.oracle, hessian=counting_hessian)
    return seen, oracle, prob.x0


HESSIAN_FLOWS = {
    "accel_newton": accelerated_newton_controller(2.0, 2.0),
    "min_p_star": MinPStar(
        metric=MetricSpec(MetricKind.HESSIAN), rate_eta=1.0),
}


@pytest.mark.parametrize("spec", HESSIAN_FLOWS.values(), ids=HESSIAN_FLOWS)
def test_a_hessian_metric_run_floors_once_and_calls_no_hessian(spec, counts):
    seen, oracle, x0 = counts
    rec = integrate(spec, oracle, initial_state(oracle, x0), h=1e-2,
                    t_max=0.5, stop=RUN_FOREVER)
    assert rec.meta["steps_taken"] == 50
    assert seen == {"floor": 1, "hessian": 0}


@pytest.mark.parametrize("spec", HESSIAN_FLOWS.values(), ids=HESSIAN_FLOWS)
def test_a_replay_floors_once_and_calls_no_hessian(spec, counts):
    seen, oracle, x0 = counts
    rec = integrate(spec, oracle, initial_state(oracle, x0), h=1e-2,
                    t_max=0.5, stop=RUN_FOREVER)
    seen.update(floor=0, hessian=0)
    cols = {k: v for k, v in rec.columns.items()
            if k not in ("u", "lambda_x", "lambda_v")}
    rebuilt = trajectory_from_arrays(cols, oracle, spec, rec.meta)
    assert rebuilt.columns["u"].tobytes() == rec.columns["u"].tobytes()
    assert seen == {"floor": 1, "hessian": 0}


def test_the_discrete_newton_drive_floors_once_and_calls_no_hessian(counts):
    seen, oracle, x0 = counts
    seq = accelerated_newton_iterate(oracle, MetricSpec(MetricKind.HESSIAN),
                                     x0, (1.0, 1.0), 0.5, 20)
    assert len(seq.points) == 21
    assert seen == {"floor": 1, "hessian": 0}


def test_rk4_factors_each_quasi_newton_matrix_once_per_step(monkeypatch):
    # the update's floor test is the matrix's only Cholesky factor
    calls = []
    cholesky = np.linalg.cholesky

    def counting(M):
        calls.append(1)
        return cholesky(M)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    prob = random_quadratic(6, kappa=100.0, seed=2)
    rec = integrate(quasi_newton_flow_controller(25.0, 100.0), prob.oracle,
                    initial_state(prob.oracle, prob.x0), h=1e-2, t_max=0.5,
                    stop=RUN_FOREVER)
    assert rec.meta["steps_taken"] == 50
    assert len(calls) == 50


def test_a_supplied_qn_state_is_still_checked():
    with pytest.raises(ValueError, match="not positive definite"):
        MetricSpec(MetricKind.QUASI_NEWTON, qn_state=np.diag([1.0, -1.0]))
