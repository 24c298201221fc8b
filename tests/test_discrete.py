"""Discrete drivers: hand values, algebraic equivalences, convergence checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelflow.discrete import (
    IterateSequence,
    accelerated_newton_iterate,
    cg_iterate,
    cg_to_momentum,
    constant,
    exact_line_search_alpha,
    fletcher_reeves_beta,
    flow_to_discrete,
    heavy_ball_iterate,
    nesterov_one_step_iterate,
    nesterov_two_step_iterate,
)
from accelflow import clf, discrete, metric
from accelflow.control import (
    accelerated_newton_controller,
    polyak_controller,
    quasi_newton_flow_controller,
)
from accelflow.flow import (
    DIVERGENCE_LIMIT,
    Integrator,
    StoppingRule,
    initial_state,
    integrate,
)
from accelflow.metric import MetricKind, MetricSpec, metric_matrix, \
    metric_solve, quasi_newton_update
from accelflow.objective import (
    quadratic_problem,
    random_log_sum_exp,
    random_quadratic,
)
from blas import blas_threads


def x_squared_problem():
    # E(x) = x^2 as the quadratic (1/2) x Q x with Q = [[2]]
    return quadratic_problem(Q=np.array([[2.0]]), x0=np.array([1.0]))


def soft_spectrum_problem():
    # 10-D quadratic with condition number 100 but eigenvalues below 2,
    # so a unit step on the raw gradient stays stable.
    rng = np.random.default_rng(11)
    eigs = np.logspace(np.log10(0.019), np.log10(1.9), 10)
    R, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    Q = R @ np.diag(eigs) @ R.T
    return quadratic_problem(Q=(Q + Q.T) / 2)


def schedule(*values):
    """The schedule whose k-th coefficient is values[k]."""
    return lambda k: values[k]


class TestHeavyBall:
    def test_hand_value(self):
        # from x_{-1} = x_0 = 0.5, a first step with alpha_0 = -0.5 lands
        # on x_1 = 0.5 + 0.5 * 2 * 0.5 = 1, so step 1 starts from the pair
        # (x_0, x_1) = (0.5, 1)
        prob = x_squared_problem()
        seq = heavy_ball_iterate(prob.oracle, np.array([0.5]), 2,
                                 alpha=schedule(-0.5, 0.1),
                                 beta=constant(0.5))
        assert seq.points[1] == pytest.approx([1.0], abs=1e-15)
        # 1 - 0.1*2 + 0.5*(1 - 0.5) = 1.05
        assert seq.points[2] == pytest.approx([1.05], abs=1e-15)

    def test_zero_coefficients_no_op(self):
        # step 0 moves 9.9 to 4.95; step 1, with zero coefficients, stays
        # there although x_{k-1} = 9.9
        prob = x_squared_problem()
        seq = heavy_ball_iterate(prob.oracle, np.array([9.9]), 2,
                                 schedule(0.25, 0.0), schedule(0.0, 0.0))
        assert seq.points[1] != seq.points[0]
        assert seq.points[2] == seq.points[1]

    def test_fixed_point_at_minimizer(self):
        prob = quadratic_problem(Q=np.diag([1.0, 3.0]))
        xs = prob.x_star
        seq = heavy_ball_iterate(prob.oracle, xs, 2, constant(0.2),
                                 constant(0.7))
        assert np.allclose(seq.points, xs, atol=1e-15)


class TestCgToMomentum:
    def test_hand_value(self):
        assert cg_to_momentum(0.5, 0.25, 0.2) == pytest.approx(0.4, abs=1e-15)

    def test_zero_beta_cg(self):
        assert cg_to_momentum(0.7, 0.3, 0.0) == 0.0

    def test_equal_steps_identity(self):
        assert cg_to_momentum(0.37, 0.37, 0.21) == pytest.approx(0.21,
                                                                 rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -0.1])
    def test_rejects_nonpositive_previous_step(self, bad):
        with pytest.raises(ValueError, match="alpha_km1"):
            cg_to_momentum(0.5, bad, 0.2)


class TestCgIterate:
    def test_zero_beta_is_gradient_descent(self):
        prob = random_quadratic(dim=4, kappa=5.0, seed=0)
        alpha = lambda o, k, x, g, v: 0.05
        beta = lambda o, k, g, gp: 0.0
        seq = cg_iterate(prob.oracle, prob.x0, 20, alpha, beta)
        x = prob.x0.copy()
        for k in range(20):
            x = x - 0.05 * prob.oracle.gradient(x)
            assert np.allclose(seq.points[k + 1], x, atol=1e-14)

    def test_matches_heavy_ball_with_converted_momentum(self):
        # CG with any positive schedules rewrites exactly as a momentum
        # iteration; the two groupings differ only in rounding.
        prob = random_quadratic(dim=10, kappa=100.0, seed=3)
        alpha_k = lambda k: 0.01 * (1.0 + 0.1 * np.sin(k))
        beta_cg_k = lambda k: 0.3 + 0.2 * np.cos(k)
        alpha = lambda o, k, x, g, v: alpha_k(k)
        beta_cg = lambda o, k, g, gp: beta_cg_k(k)
        cg = cg_iterate(prob.oracle, prob.x0, 100, alpha, beta_cg)

        def hb_beta(k):
            if k == 0:
                return 0.0
            return cg_to_momentum(alpha_k(k), alpha_k(k - 1), beta_cg_k(k))

        hb = heavy_ball_iterate(prob.oracle, prob.x0, 100, alpha_k, hb_beta)
        dev = max(np.max(np.abs(a - b))
                  for a, b in zip(cg.points, hb.points))
        assert dev <= 1e-12

    def test_exact_line_search_fletcher_reeves_terminates(self):
        prob = quadratic_problem(Q=np.array([[3.0, 0.5], [0.5, 1.0]]))
        seq = cg_iterate(prob.oracle, prob.x0, 5, exact_line_search_alpha,
                         fletcher_reeves_beta, tol_g=1e-10)
        assert len(seq.points) - 1 <= 2
        gnorm = np.linalg.norm(prob.oracle.gradient(seq.points[-1]))
        assert gnorm <= 1e-10

    def test_rejects_negative_rule_outputs(self):
        prob = x_squared_problem()
        with pytest.raises(ValueError, match="alpha_rule"):
            cg_iterate(prob.oracle, prob.x0, 3,
                       lambda o, k, x, g, v: -0.1,
                       lambda o, k, g, gp: 0.0)
        with pytest.raises(ValueError, match="beta_cg_rule"):
            cg_iterate(prob.oracle, prob.x0, 3,
                       lambda o, k, x, g, v: 0.1,
                       lambda o, k, g, gp: -0.5)

    def test_aux_records_directions(self):
        # the rules see each direction and each beta^CG step they serve
        prob = random_quadratic(dim=3, kappa=2.0, seed=1)
        directions, beta_steps = [], []
        seq = cg_iterate(prob.oracle, prob.x0, 4,
                         lambda o, k, x, g, v: directions.append(v) or 0.1,
                         lambda o, k, g, gp: beta_steps.append(k) or 0.2)
        assert len(seq.points) == 5 and len(directions) == 4
        # beta^CG_0 is 0 without consulting the rule
        assert beta_steps == [1, 2, 3]
        g0 = prob.oracle.gradient(prob.x0)
        assert np.allclose(directions[0], -g0, atol=1e-15)
        assert np.allclose(seq.points[1], prob.x0 + 0.1 * directions[0],
                           atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.002, 0.02), st.floats(0.0, 0.5)),
                    min_size=5, max_size=30))
    def test_momentum_rewrite_property(self, schedule):
        prob = quadratic_problem(Q=np.diag([1.0, 4.0]))
        steps = len(schedule)
        alpha = lambda o, k, x, g, v: schedule[k][0]
        beta_cg = lambda o, k, g, gp: schedule[k][1]
        cg = cg_iterate(prob.oracle, prob.x0, steps, alpha, beta_cg)

        def hb_beta(k):
            if k == 0:
                return 0.0
            return cg_to_momentum(schedule[k][0], schedule[k - 1][0],
                                  schedule[k][1])

        hb = heavy_ball_iterate(prob.oracle, prob.x0, steps,
                                lambda k: schedule[k][0], hb_beta)
        dev = max(np.max(np.abs(a - b))
                  for a, b in zip(cg.points, hb.points))
        assert dev <= 1e-12


class TestNesterovForms:
    def test_two_step_hand_value(self):
        # step 0, with alpha_0 = 0, descends nowhere: x_0 = y_1 = 1. Step
        # 1 descends to x_1 = 1 - 0.1*2 = 0.8 and extrapolates to
        # y_2 = 0.8 + 0.5*(0.8 - 1) = 0.7; with beta_1 = 0, y_2 is x_1
        prob = x_squared_problem()
        for beta_1, y_2 in ((0.5, 0.7), (0.0, 0.8)):
            seq = nesterov_two_step_iterate(prob.oracle, np.array([1.0]), 2,
                                            schedule(0.0, 0.1),
                                            schedule(0.5, beta_1))
            assert seq.points[1] == pytest.approx([1.0], abs=1e-15)
            assert seq.points[2] == pytest.approx([y_2], abs=1e-15)

    def test_two_step_zero_coefficients(self):
        # steps 0 and 1 leave x_1 = 0.16 apart from y_2 = 0.14; step 2,
        # with zero coefficients, descends to x_2 = y_2 and stays there
        prob = x_squared_problem()
        seq = nesterov_two_step_iterate(prob.oracle, np.array([0.4]), 3,
                                        schedule(0.25, 0.1, 0.0),
                                        schedule(0.0, 0.5, 0.0))
        assert seq.points[2] == pytest.approx([0.14], abs=1e-15)
        assert np.array_equal(seq.points[3], seq.points[2])

    def test_two_step_fixed_point(self):
        prob = quadratic_problem(Q=np.diag([2.0, 5.0]))
        xs = prob.x_star
        seq = nesterov_two_step_iterate(prob.oracle, xs, 2, constant(0.1),
                                        constant(0.9))
        assert np.allclose(seq.points, xs, atol=1e-15)

    def test_one_step_hand_value(self):
        # the first step reads x_{-1} = x_0 = 1 and g_{-1} = g_0 = 2
        prob = x_squared_problem()
        seq = nesterov_one_step_iterate(prob.oracle, np.array([1.0]), 1,
                                        constant(0.1), constant(0.5),
                                        constant(0.05))
        assert seq.points[1] == pytest.approx([0.8], abs=1e-15)

    def test_one_step_zero_gamma_is_heavy_ball(self):
        prob = random_quadratic(dim=3, kappa=4.0, seed=2)
        got = nesterov_one_step_iterate(prob.oracle, prob.x0, 20,
                                        constant(0.05), constant(0.3),
                                        constant(0.0))
        want = heavy_ball_iterate(prob.oracle, prob.x0, 20, constant(0.05),
                                  constant(0.3))
        assert np.allclose(got.points, want.points, atol=1e-15)

    def test_forms_generate_identical_sequences(self):
        # With gamma_k = alpha_k beta_k and momentum-free seeding the
        # one-step iterates reproduce the two-step lookahead sequence.
        prob = random_quadratic(dim=10, kappa=100.0, seed=3)
        one = nesterov_one_step_iterate(prob.oracle, prob.x0, 200,
                                        constant(0.01), constant(0.9))
        two = nesterov_two_step_iterate(prob.oracle, prob.x0, 200,
                                        constant(0.01), constant(0.9))
        dev = max(np.max(np.abs(a - b))
                  for a, b in zip(one.points, two.points))
        assert dev <= 1e-12


class TestFlowToDiscrete:
    def test_hand_value(self):
        alpha, beta, gamma = flow_to_discrete((1.0, 1.0, 2.0), 0.1)
        assert alpha == pytest.approx(0.01, abs=1e-15)
        assert beta == pytest.approx(0.9, abs=1e-15)
        assert gamma == pytest.approx(0.2, abs=1e-15)

    def test_continuous_limit(self):
        alpha, beta, gamma = flow_to_discrete((2.0, 3.0, 1.0), 1e-9)
        assert beta == pytest.approx(1.0, abs=1e-8)
        assert alpha <= 1e-17 and gamma <= 1e-8

    def test_zero_gamma_c_gives_heavy_ball_coefficients(self):
        _, _, gamma = flow_to_discrete((1.0, 2.0, 0.0), 0.1)
        assert gamma == 0.0

    def test_rejects_momentum_sign_flip(self):
        with pytest.raises(ValueError, match="unstable momentum"):
            flow_to_discrete((1.0, 5.0, 0.0), 0.3)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError, match="h must be positive"):
            flow_to_discrete((1.0, 1.0, 0.0), 0.0)

    def test_discretization_is_first_order(self):
        # Gains (1, 1, 2) on E = x^2 give the flow xdd + 5 xd + 2 x = 0;
        # the mapped one-step iteration should track its solution with
        # error shrinking linearly in h.
        prob = x_squared_problem()
        r1 = (-5.0 + np.sqrt(17.0)) / 2.0
        r2 = (-5.0 - np.sqrt(17.0)) / 2.0
        c1, c2 = -r2 / (r1 - r2), r1 / (r1 - r2)
        T = 2.0
        exact = c1 * np.exp(r1 * T) + c2 * np.exp(r2 * T)

        errs = []
        for h in (0.01, 0.005):
            n = int(round(T / h))
            a, b, g = flow_to_discrete((1.0, 1.0, 2.0), h)
            seq = nesterov_one_step_iterate(prob.oracle, prob.x0, n,
                                            constant(a), constant(b),
                                            constant(g))
            errs.append(abs(seq.points[-1][0] - exact))
        ratio = errs[0] / errs[1]
        assert 1.6 <= ratio <= 2.5


class TestAcceleratedNewton:
    def test_hand_value(self):
        # from v_0 = 0: v_1 = -0.1 * (1*6 + 1*0) / 2 = -0.3 and
        # x_1 = 3 + 0.1 * v_1 = 2.97. Then g_1 = 5.94 and
        # v_2 = -0.3 - 0.1 * (5.94 - 0.3) / 2 = -0.582, so a wrong v_1
        # shows in x_2 = 2.97 + 0.1 * v_2 = 2.9118
        prob = quadratic_problem(Q=np.array([[2.0]]), x0=np.array([3.0]))
        spec = MetricSpec(kind=MetricKind.HESSIAN)
        seq = accelerated_newton_iterate(prob.oracle, spec, np.array([3.0]),
                                         (1.0, 1.0), 0.1, 2)
        assert seq.points[1] == pytest.approx([2.97], abs=1e-15)
        assert seq.points[2] == pytest.approx([2.9118], abs=1e-15)

    def test_equilibrium_unchanged(self):
        # x_2 = x_1 + h v_2 holds v_1 = 0 too
        prob = quadratic_problem(Q=np.diag([1.0, 2.0]))
        spec = MetricSpec(kind=MetricKind.HESSIAN)
        xs = prob.x_star
        seq = accelerated_newton_iterate(prob.oracle, spec, xs, (1.0, 1.0),
                                         0.5, 2)
        assert np.allclose(seq.points, xs, atol=1e-15)

    def test_rejects_euclidean_metric(self):
        prob = x_squared_problem()
        spec = MetricSpec(kind=MetricKind.EUCLIDEAN)
        with pytest.raises(ValueError,
                           match="accelerated_newton_iterate needs a hessian "
                                 "or"):
            accelerated_newton_iterate(prob.oracle, spec, np.array([1.0]),
                                       (1.0, 1.0), 0.1, 1)

    def test_rejects_nonpositive_step(self):
        prob = x_squared_problem()
        spec = MetricSpec(kind=MetricKind.HESSIAN)
        with pytest.raises(ValueError, match="h must be positive"):
            accelerated_newton_iterate(prob.oracle, spec, np.array([1.0]),
                                       (1.0, 1.0), -0.1, 1)

    def test_hessian_metric_beats_euclidean(self):
        # Identical gains and step size; the curvature metric collapses
        # the conditioning, the raw metric pays for it step by step.
        prob = soft_spectrum_problem()
        oracle, x0 = prob.oracle, prob.x0
        gains, h, tol = (1.0, 1.0), 1.0, 1e-6

        spec = MetricSpec(kind=MetricKind.HESSIAN)
        seq = accelerated_newton_iterate(oracle, spec, x0, gains, h, 2000,
                                         tol_g=tol)
        steps_hessian = len(seq.points) - 1
        assert np.linalg.norm(oracle.gradient(seq.points[-1])) <= tol

        x = x0.copy()
        v = np.zeros_like(x)
        steps_euclid = None
        for k in range(2000):
            g = oracle.gradient(x)
            if np.linalg.norm(g) <= tol:
                steps_euclid = k
                break
            v = v - h * (gains[0] * g + gains[1] * v)
            x = x + h * v
        assert steps_euclid is not None
        assert steps_hessian < steps_euclid

    def test_quasi_newton_variant_converges(self):
        prob = quadratic_problem(Q=np.diag([1.0, 4.0]))
        spec = MetricSpec(kind=MetricKind.QUASI_NEWTON)
        seq = accelerated_newton_iterate(prob.oracle, spec, prob.x0,
                                         (1.0, 2.0), 0.5, 500, tol_g=1e-8)
        gnorm = np.linalg.norm(prob.oracle.gradient(seq.points[-1]))
        assert gnorm <= 1e-8
        assert len(seq.points) - 1 <= 200


@pytest.mark.parametrize("kind", [MetricKind.HESSIAN,
                                  MetricKind.QUASI_NEWTON])
@pytest.mark.parametrize("dim", [1, 7, 50])
def test_the_newton_driver_gives_the_bytes_of_a_solve_per_iterate(
        kind, dim, monkeypatch):
    oracle = random_quadratic(dim, 100.0, seed=dim).oracle
    x0 = np.linspace(-1.0, 2.0, dim)
    gains, h, steps = (1.0, 2.0), 0.25, 40
    solves = []

    def counted(W, rhs):
        solves.append(rhs)
        return metric_solve(W, rhs)

    monkeypatch.setattr(metric, "metric_solve", counted)
    with blas_threads(1):
        seq = accelerated_newton_iterate(oracle, MetricSpec(kind), x0,
                                         gains, h, steps)
        # the reference: W resolved and solved afresh at every iterate
        spec, x, v, last = MetricSpec(kind), x0, np.zeros(dim), None
        want = [x]
        for _ in range(steps):
            g = oracle.gradient(x)
            if last is not None and kind is MetricKind.QUASI_NEWTON:
                spec = quasi_newton_update(spec, x - last[0], g - last[1])
            W = metric_matrix(spec, oracle, x)
            v = v - h * metric_solve(W, gains[0] * g + gains[1] * v)
            last, x = (x, g), x + h * v
            want.append(x)
    # the floored constant Hessian and each quasi-Newton W are factored
    assert len(solves) == 0
    assert len(seq.points) == steps + 1
    for got, expected in zip(seq.points, want):
        assert got.tobytes() == expected.tobytes()


#: max |x_flow - x_driver| over max |x_driver| per method: the flow's law
#: computes -sigma W^{-1}(c lambda + b v) with its certificate's (b, c),
#: the driver W^{-1}(gamma_a g + gamma_b v), so they agree to rounding,
#: not bit for bit (measured up to 1e-12, 6.6e-16 and 3.7e-14)
SIE_TOLERANCE = {"polyak": 1e-11, "accel_newton": 1e-14,
                 "quasi_newton": 5e-13}


@pytest.mark.parametrize("method", list(SIE_TOLERANCE))
@pytest.mark.parametrize("kind", ["quadratic", "log_sum_exp"])
@pytest.mark.parametrize("dim", [1, 7, 50])
def test_each_discrete_method_is_its_flows_semi_implicit_euler_step(
        method, kind, dim):
    # from v0 = 0, v_{k+1} = v_k - h W^{-1}(gamma_a g_k + gamma_b v_k) and
    # x_{k+1} = x_k + h v_{k+1}; with W = I that is heavy ball with
    # alpha = gamma_a h^2 and beta = 1 - gamma_b h
    gains, h, steps, floor = (4.0, 3.0), 0.05, 150, 0.2
    problem = (random_quadratic(dim, 10.0, seed=3) if kind == "quadratic"
               else random_log_sum_exp(dim, 3 * dim + 2, seed=3))
    oracle, x0 = problem.oracle, problem.x0
    if method == "polyak":
        spec = polyak_controller(*gains)
        seq = heavy_ball_iterate(oracle, x0, steps,
                                 constant(gains[0] * h * h),
                                 constant(1.0 - gains[1] * h))
    else:
        make = (accelerated_newton_controller if method == "accel_newton"
                else quasi_newton_flow_controller)
        spec = make(*gains, eig_floor=floor)
        seq = accelerated_newton_iterate(oracle, spec.metric, x0, gains, h,
                                         steps)
    record = integrate(spec, oracle, initial_state(oracle, x0), h,
                       steps * h, method=Integrator.SEMI_IMPLICIT_EULER,
                       stop=StoppingRule(tol_g=-1.0, tol_v=-1.0))
    want = np.array(seq.points)
    assert not record.diverged and len(record.columns["x"]) == steps + 1
    # the runs descend, and the law never takes its origin branch, whose
    # dead zone (u = 0) the driver does not have
    assert seq.grad_norms[-1] < seq.grad_norms[0]
    assert (np.abs(record.columns["u"]).max(axis=1) > 0.0).all()
    err = np.max(np.abs(record.columns["x"] - want)) / np.max(np.abs(want))
    assert err <= SIE_TOLERANCE[method]


def test_a_diverging_driver_stops_where_its_flow_stops():
    # one divergence rule for both layers: an x or v norm past
    # DIVERGENCE_LIMIT is rejected. The flow tests |v| too, and its v_5 =
    # (x_5 - x_4) / h passes the limit while the driver's x_5 does not, so
    # the flow stops one step earlier
    problem = random_log_sum_exp(20, 60, seed=3)
    oracle, x0 = problem.oracle, problem.x0
    gains, h = (4.0, 3.0), 0.05
    spec = accelerated_newton_controller(*gains)
    seq = accelerated_newton_iterate(oracle, spec.metric, x0, gains, h, 1000)
    record = integrate(spec, oracle, initial_state(oracle, x0), h, 1000 * h,
                       method=Integrator.SEMI_IMPLICIT_EULER,
                       stop=StoppingRule(tol_g=-1.0, tol_v=-1.0))
    assert seq.diverged and len(seq.points) - 1 == 5
    assert record.diverged and record.meta["steps_taken"] == 4
    want = np.array(seq.points[:5])
    err = np.max(np.abs(record.columns["x"] - want)) / np.max(np.abs(want))
    assert err <= 1.2e-13


class TestIterateSequence:
    def test_bookkeeping(self):
        prob = random_quadratic(dim=3, kappa=3.0, seed=4)
        seq = heavy_ball_iterate(prob.oracle, prob.x0, 7, constant(0.05),
                                 constant(0.2))
        assert isinstance(seq, IterateSequence)
        assert len(seq.points) == 8
        assert np.array(seq.points).shape == (8, 3)
        norms = seq.grad_norms
        assert len(norms) == 8
        assert norms[-1] < norms[0]

    def test_early_stop_on_tolerance(self):
        prob = quadratic_problem(Q=np.diag([1.0, 2.0]))
        seq = cg_iterate(prob.oracle, prob.x0, 50, exact_line_search_alpha,
                         fletcher_reeves_beta, tol_g=1e-10)
        assert len(seq.points) - 1 <= 2


def counting(oracle):
    """The oracle with a gradient that counts its calls, and the count."""
    calls = [0]

    def gradient(x):
        calls[0] += 1
        return oracle.gradient(x)

    return dataclasses.replace(oracle, gradient=gradient), calls


HESSIAN = MetricSpec(kind=MetricKind.HESSIAN)
QUASI_NEWTON = MetricSpec(kind=MetricKind.QUASI_NEWTON)

DRIVERS = {
    "heavy_ball": lambda o, x0, n, tol: heavy_ball_iterate(
        o, x0, n, constant(0.05), constant(0.5), tol_g=tol),
    "cg": lambda o, x0, n, tol: cg_iterate(
        o, x0, n, exact_line_search_alpha, fletcher_reeves_beta, tol_g=tol),
    "nesterov1": lambda o, x0, n, tol: nesterov_one_step_iterate(
        o, x0, n, constant(0.05), constant(0.5), tol_g=tol),
    "nesterov2": lambda o, x0, n, tol: nesterov_two_step_iterate(
        o, x0, n, constant(0.05), constant(0.5), tol_g=tol),
    "accel_newton": lambda o, x0, n, tol: accelerated_newton_iterate(
        o, HESSIAN, x0, (1.0, 2.0), 0.5, n, tol_g=tol),
    "accel_qn": lambda o, x0, n, tol: accelerated_newton_iterate(
        o, QUASI_NEWTON, x0, (1.0, 2.0), 0.2, n, tol_g=tol),
}


class TestOneLoop:
    @pytest.mark.parametrize("tol", [None, 1e-8], ids=["fixed", "to-tol"])
    @pytest.mark.parametrize("name", list(DRIVERS))
    def test_one_gradient_per_iterate_shared_with_aux(self, name, tol):
        prob = random_quadratic(dim=6, kappa=10.0, seed=5)
        oracle, calls = counting(prob.oracle)
        seq = DRIVERS[name](oracle, prob.x0, 40, tol)
        assert calls[0] == len(seq.points)
        np.testing.assert_array_equal(
            seq.grad_norms,
            [np.linalg.norm(prob.oracle.gradient(x)) for x in seq.points])
        assert calls[0] == len(seq.points)

    @pytest.mark.parametrize("name", list(DRIVERS))
    def test_stops_at_the_divergence_limit(self, name):
        # far too long a step: every method blows up within twenty
        # iterations and must stop by the flow's rule, at the last iterate
        # within DIVERGENCE_LIMIT, not run to max_iters
        prob = random_quadratic(dim=5, kappa=100.0, seed=1)
        blow_up = {
            "heavy_ball": lambda o, x0, n: heavy_ball_iterate(
                o, x0, n, constant(5.0), constant(0.5)),
            "cg": lambda o, x0, n: cg_iterate(
                o, x0, n, lambda *a: 5.0, lambda *a: 0.5),
            "nesterov1": lambda o, x0, n: nesterov_one_step_iterate(
                o, x0, n, constant(5.0), constant(0.5)),
            "nesterov2": lambda o, x0, n: nesterov_two_step_iterate(
                o, x0, n, constant(5.0), constant(0.5)),
            "accel_newton": lambda o, x0, n: accelerated_newton_iterate(
                o, HESSIAN, x0, (1.0, -10.0), 0.5, n),
            "accel_qn": lambda o, x0, n: accelerated_newton_iterate(
                o, QUASI_NEWTON, x0, (1.0, -10.0), 0.5, n),
        }[name]
        oracle, calls = counting(prob.oracle)
        seq = blow_up(oracle, prob.x0, 2000)
        assert seq.diverged and len(seq.points) < 2001
        assert all(np.linalg.norm(x) <= DIVERGENCE_LIMIT
                   for x in seq.points)
        # the rejected iterate's gradient is not asked of the oracle: one
        # gradient per kept point
        assert calls[0] == len(seq.points)
        np.testing.assert_array_equal(
            seq.grad_norms,
            [np.linalg.norm(prob.oracle.gradient(x)) for x in seq.points])
        # the step after the last kept point is the one rejected
        kept = blow_up(prob.oracle, prob.x0, len(seq.points) - 1)
        assert not kept.diverged
        assert np.array_equal(kept.points, seq.points)


#: doubles whose squares underflow, overflow or sit anywhere between
NORM_ENTRIES = st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from([0.0, -0.0, 5e-324, 1e-160, 1.3e154, 1e300,
                       1.7976931348623157e308, np.inf, np.nan])


@settings(max_examples=500, deadline=None)
@given(st.lists(NORM_ENTRIES, min_size=1, max_size=60))
def test_the_lean_norm_is_numpys_bit_for_bit(entries):
    # the loop's norm is the flow's clf._norm: np.linalg.norm's bits, inf
    # where the square overflows for a finite g, which a run rejects
    g = np.array(entries)
    with np.errstate(over="ignore", invalid="ignore"):
        want = float(np.linalg.norm(g))
        got = clf._norm(g)
    assert discrete._vector_norm is clf._norm
    assert type(got) is float
    assert np.array(got).tobytes() == np.array(want).tobytes()
    if np.isfinite(g).all() and np.max(np.abs(g)) > 1.4e154:
        assert got == np.inf
