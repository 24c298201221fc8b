"""Metamorphic tests: the flows commute with rotations and translations,
and with a scaling of the objective.

Moving a problem by y = R x + s, with R orthogonal, moves every flow's
trajectory the same way: each law reads the state only through dots,
norms, solves and the metric W, and each W moves as R W R^T (a floored
Hessian too, since the floor reads only eigenvalues). So a run on the
moved problem, mapped back, is the run on the problem, up to rounding.
A law that read a coordinate directly, a solve with a transposed factor
or a floor applied in the wrong basis would break that.

Scaling E to cE scales grad E and the Hessian by c. The heavy-ball flow
with gamma_a / c, and the Newton-type flow with gamma_b c and its
eigenvalue floor times c (W is then c times the floored Hessian), are
the same ODE as before, so x agrees and E / c gives the old E.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelflow.control import (
    MinP,
    MinPStar,
    accelerated_newton_controller,
    nesterov_flow_controller,
    polyak_controller,
    quasi_newton_flow_controller,
)
from accelflow.flow import StoppingRule, initial_state, integrate
from accelflow.metric import MetricKind, MetricSpec
from accelflow.objective import (
    log_sum_exp_problem,
    quadratic_problem,
    random_quadratic,
)

DIM, H, T_MAX = 12, 0.01, 3.0  # 300 RK4 steps
RUN_FOREVER = StoppingRule(tol_g=-1.0, tol_v=-1.0)
#: max |x back - x| over the larger of the runs' max |x|, and the same for
#: E; measured up to 2.3e-14 (min_p_star) over 100 moves with |s| <= 10
TOLERANCE = 2e-13


def _quadratic(R=np.eye(DIM), s=np.zeros(DIM)):
    problem = random_quadratic(DIM, 50.0, seed=5)
    Q = problem.oracle.constant_hessian
    return quadratic_problem(R @ Q @ R.T, x_star=R @ problem.x_star + s,
                             x0=R @ problem.x0 + s)


def _log_sum_exp(R=np.eye(DIM), s=np.zeros(DIM)):
    # sum_i exp(a_i . x + b_i) at x = R^T (y - s)
    rng = np.random.default_rng(5)
    A, b, x0 = (rng.standard_normal((40, DIM)), rng.standard_normal(40),
                rng.standard_normal(DIM))
    return log_sum_exp_problem(A @ R.T, b - A @ (R.T @ s), x0=R @ x0 + s)


#: flow -> (problem maker, controller): all three families and metrics,
#: the Hessian one also floored at each point (log_sum_exp at 1e-2)
FLOWS = {
    "polyak": (_quadratic, polyak_controller(10.0, 10.0)),
    "nesterov": (_quadratic, nesterov_flow_controller(10.0)),
    "min_p_taper": (_quadratic, MinP(delta=1.0, delta_mode="taper")),
    "accel_newton": (_quadratic, accelerated_newton_controller(25.0, 100.0)),
    "quasi_newton": (_quadratic, quasi_newton_flow_controller(25.0, 100.0)),
    "min_p_star": (_quadratic, MinPStar(rate_eta=1.0)),
    "min_p_star_pointwise_floor": (_log_sum_exp, MinPStar(
        rate_eta=1.0, metric=MetricSpec(MetricKind.HESSIAN, eig_floor=1e-2))),
    "polyak_log_sum_exp": (_log_sum_exp, polyak_controller(2.0, 2.0)),
}


def _run(spec, problem):
    oracle = problem.oracle
    record = integrate(spec, oracle, initial_state(oracle, problem.x0), H,
                       T_MAX, stop=RUN_FOREVER)
    assert not record.diverged and len(record.columns["t"]) == 301
    return record.columns


@functools.cache
def _unmoved(flow):
    make, spec = FLOWS[flow]
    return _run(spec, make())


@pytest.mark.parametrize("flow", list(FLOWS))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), decade=st.floats(-3.0, 1.0))
def test_a_rotated_and_translated_run_maps_back_to_the_run(flow, seed,
                                                           decade):
    rng = np.random.default_rng(seed)
    R, _ = np.linalg.qr(rng.standard_normal((DIM, DIM)))
    s = 10.0 ** decade * rng.standard_normal(DIM)
    make, spec = FLOWS[flow]
    want = _unmoved(flow)
    got = _run(spec, make(R, s))
    x, y = want["x"], got["x"]
    scale = max(np.max(np.abs(x)), np.max(np.abs(y)))
    assert np.max(np.abs((y - s) @ R - x)) <= TOLERANCE * scale
    E = want["E"]
    assert np.max(np.abs(got["E"] - E)) <= TOLERANCE * np.max(np.abs(E))


#: x as above, and E / c against E over max |E|; measured up to 5.0e-16
#: over 63 scalings c in [1e-3, 1e4]
SCALING_TOLERANCE = 5e-15

#: flow -> controller for E scaled by c. The floor 2.0 lifts the
#: quadratic's smallest eigenvalue, 1.0.
SCALED = {
    "polyak": lambda c: polyak_controller(10.0 / c, 10.0),
    "accel_newton": lambda c: accelerated_newton_controller(
        25.0, 100.0 * c, eig_floor=2.0 * c),
}


def _scaled_quadratic(c):
    problem = random_quadratic(DIM, 50.0, seed=5)
    return quadratic_problem(c * problem.oracle.constant_hessian,
                             x_star=problem.x_star, x0=problem.x0)


@functools.cache
def _unscaled(flow):
    return _run(SCALED[flow](1.0), _scaled_quadratic(1.0))


@pytest.mark.parametrize("flow", list(SCALED))
@settings(max_examples=8, deadline=None)
@given(decade=st.floats(-3.0, 4.0))
def test_a_run_on_a_scaled_objective_is_the_run(flow, decade):
    c = 10.0 ** decade
    want = _unscaled(flow)
    got = _run(SCALED[flow](c), _scaled_quadratic(c))
    x, y = want["x"], got["x"]
    scale = max(np.max(np.abs(x)), np.max(np.abs(y)))
    assert np.max(np.abs(y - x)) <= SCALING_TOLERANCE * scale
    E = want["E"]
    assert np.max(np.abs(got["E"] / c - E)) <= \
        SCALING_TOLERANCE * np.max(np.abs(E))
