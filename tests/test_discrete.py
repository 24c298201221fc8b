"""Discrete steps: hand values, algebraic equivalences, convergence checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelflow.discrete import (
    IterateSequence,
    accelerated_newton_iterate,
    accelerated_newton_step,
    cg_iterate,
    cg_to_momentum,
    constant,
    exact_line_search_alpha,
    fletcher_reeves_beta,
    flow_to_discrete,
    heavy_ball_iterate,
    heavy_ball_step,
    nesterov_one_step,
    nesterov_one_step_iterate,
    nesterov_two_step,
    nesterov_two_step_iterate,
)
from accelflow.metric import MetricKind, MetricSpec, quasi_newton_update
from accelflow.objective import quadratic_problem, random_quadratic


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


class TestHeavyBall:
    def test_hand_value(self):
        prob = x_squared_problem()
        x1 = heavy_ball_step(prob.oracle, np.array([1.0]), np.array([0.5]),
                             alpha_k=0.1, beta_k=0.5)
        # 1 - 0.1*2 + 0.5*(1 - 0.5) = 1.05
        assert x1 == pytest.approx([1.05], abs=1e-15)

    def test_zero_coefficients_no_op(self):
        prob = x_squared_problem()
        x = np.array([0.3])
        assert heavy_ball_step(prob.oracle, x, np.array([9.9]), 0.0, 0.0) == x

    def test_fixed_point_at_minimizer(self):
        prob = quadratic_problem(Q=np.diag([1.0, 3.0]))
        xs = prob.x_star
        out = heavy_ball_step(prob.oracle, xs, xs, 0.2, 0.7)
        assert np.allclose(out, xs, atol=1e-15)


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
        prob = x_squared_problem()
        x_k, y_kp1 = nesterov_two_step(prob.oracle, np.array([1.0]),
                                       np.array([1.0]), 0.1, 0.5)
        assert x_k == pytest.approx([0.8], abs=1e-15)
        assert y_kp1 == pytest.approx([0.7], abs=1e-15)

    def test_two_step_zero_coefficients(self):
        prob = x_squared_problem()
        y = np.array([0.4])
        x_k, y_kp1 = nesterov_two_step(prob.oracle, y, np.array([2.0]),
                                       0.0, 0.0)
        assert np.array_equal(x_k, y)
        assert np.array_equal(y_kp1, x_k)

    def test_two_step_fixed_point(self):
        prob = quadratic_problem(Q=np.diag([2.0, 5.0]))
        xs = prob.x_star
        x_k, y_kp1 = nesterov_two_step(prob.oracle, xs, xs, 0.1, 0.9)
        assert np.allclose(x_k, xs, atol=1e-15)
        assert np.allclose(y_kp1, xs, atol=1e-15)

    def test_one_step_hand_value(self):
        prob = x_squared_problem()
        x = nesterov_one_step(prob.oracle, np.array([1.0]), np.array([1.0]),
                              np.array([2.0]), 0.1, 0.5, 0.05)
        assert x == pytest.approx([0.8], abs=1e-15)

    def test_one_step_zero_gamma_is_heavy_ball(self):
        prob = random_quadratic(dim=3, kappa=4.0, seed=2)
        x_k = prob.x0
        x_km1 = prob.x0 + 0.1
        got = nesterov_one_step(prob.oracle, x_k, x_km1,
                                prob.oracle.gradient(x_km1), 0.05, 0.3, 0.0)
        want = heavy_ball_step(prob.oracle, x_k, x_km1, 0.05, 0.3)
        assert np.allclose(got, want, atol=1e-15)

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
        prob = quadratic_problem(Q=np.array([[2.0]]), x0=np.array([3.0]))
        spec = MetricSpec(kind=MetricKind.HESSIAN)
        x1, v1 = accelerated_newton_step(prob.oracle, spec, np.array([3.0]),
                                         np.array([0.0]), (1.0, 1.0), 0.1)
        assert v1 == pytest.approx([-0.3], abs=1e-15)
        assert x1 == pytest.approx([2.97], abs=1e-15)

    def test_equilibrium_unchanged(self):
        prob = quadratic_problem(Q=np.diag([1.0, 2.0]))
        spec = MetricSpec(kind=MetricKind.HESSIAN)
        xs = prob.x_star
        x1, v1 = accelerated_newton_step(prob.oracle, spec, xs,
                                         np.zeros(2), (1.0, 1.0), 0.5)
        assert np.allclose(x1, xs, atol=1e-15)
        assert np.allclose(v1, 0.0, atol=1e-15)

    def test_rejects_euclidean_metric(self):
        prob = x_squared_problem()
        spec = MetricSpec(kind=MetricKind.EUCLIDEAN)
        with pytest.raises(ValueError, match="hessian or"):
            accelerated_newton_step(prob.oracle, spec, np.array([1.0]),
                                    np.array([0.0]), (1.0, 1.0), 0.1)

    def test_rejects_nonpositive_step(self):
        prob = x_squared_problem()
        spec = MetricSpec(kind=MetricKind.HESSIAN)
        with pytest.raises(ValueError, match="h must be positive"):
            accelerated_newton_step(prob.oracle, spec, np.array([1.0]),
                                    np.array([0.0]), (1.0, 1.0), -0.1)

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
    def test_stops_at_the_first_non_finite_iterate(self, name):
        # far too long a step: every method blows up within a few hundred
        # iterations and must stop there, not run to max_iters
        prob = random_quadratic(dim=5, kappa=100.0, seed=1)
        blow_up = {
            "heavy_ball": lambda o, x0: heavy_ball_iterate(
                o, x0, 2000, constant(5.0), constant(0.5)),
            "cg": lambda o, x0: cg_iterate(
                o, x0, 2000, lambda *a: 5.0, lambda *a: 0.5),
            "nesterov1": lambda o, x0: nesterov_one_step_iterate(
                o, x0, 2000, constant(5.0), constant(0.5)),
            "nesterov2": lambda o, x0: nesterov_two_step_iterate(
                o, x0, 2000, constant(5.0), constant(0.5)),
            "accel_newton": lambda o, x0: accelerated_newton_iterate(
                o, HESSIAN, x0, (1.0, -10.0), 0.5, 2000),
            "accel_qn": lambda o, x0: accelerated_newton_iterate(
                o, QUASI_NEWTON, x0, (1.0, -10.0), 0.5, 2000),
        }[name]
        oracle, calls = counting(prob.oracle)
        with np.errstate(over="ignore", invalid="ignore"):
            seq = blow_up(oracle, prob.x0)
        assert len(seq.points) < 2001
        assert not np.all(np.isfinite(seq.points[-1]))
        assert all(np.all(np.isfinite(x)) for x in seq.points[:-1])
        # the non-finite point's gradient is not asked of the oracle
        assert calls[0] == len(seq.points) - 1
        assert np.isnan(seq.grad_norms[-1])


def iterate_step(step, x0, n):
    """Drive a public single step by hand: the reference for its driver."""
    points = [np.asarray(x0, dtype=float)]
    state = None
    for k in range(n):
        x, state = step(k, points[-1], state)
        points.append(x)
    return points


class TestDriversAreTheirSteps:
    """Each driver shares its update with the public step, bit for bit."""

    def setup_method(self):
        self.prob = random_quadratic(dim=6, kappa=20.0, seed=8)
        self.o = self.prob.oracle

    def test_heavy_ball(self):
        def step(k, x, x_prev):
            x_prev = x if x_prev is None else x_prev
            return heavy_ball_step(self.o, x, x_prev, 0.04, 0.6), x

        want = iterate_step(step, self.prob.x0, 60)
        got = heavy_ball_iterate(self.o, self.prob.x0, 60, constant(0.04),
                                 constant(0.6)).points
        np.testing.assert_array_equal(got, want)

    def test_nesterov_one_step(self):
        def step(k, x, prev):
            x_prev, g_prev = (x, self.o.gradient(x)) if prev is None else prev
            x_new = nesterov_one_step(self.o, x, x_prev, g_prev, 0.04, 0.6,
                                      0.01)
            return x_new, (x, self.o.gradient(x))

        want = iterate_step(step, self.prob.x0, 60)
        got = nesterov_one_step_iterate(self.o, self.prob.x0, 60,
                                        constant(0.04), constant(0.6),
                                        constant(0.01)).points
        np.testing.assert_array_equal(got, want)

    def test_nesterov_two_step(self):
        def step(k, y, x_prev):
            # the first extrapolation is momentum-free: x_{-1} = x_0
            if x_prev is None:
                x_prev = y - 0.04 * self.o.gradient(y)
            x_k, y_new = nesterov_two_step(self.o, y, x_prev, 0.04, 0.6)
            return y_new, x_k

        want = iterate_step(step, self.prob.x0, 60)
        seq = nesterov_two_step_iterate(self.o, self.prob.x0, 60,
                                        constant(0.04), constant(0.6))
        np.testing.assert_array_equal(seq.points, want)

    @pytest.mark.parametrize("metric", [HESSIAN, QUASI_NEWTON],
                             ids=["hessian", "quasi_newton"])
    def test_accelerated_newton(self, metric):
        gains, h = (1.0, 2.0), 0.3

        def step(k, x, state):
            spec, v = (metric, np.zeros_like(x)) if state is None else state
            x_new, v_new = accelerated_newton_step(self.o, spec, x, v,
                                                   gains, h)
            if spec.kind is MetricKind.QUASI_NEWTON:
                # the pre-refactor order: update right after each step
                spec = quasi_newton_update(
                    spec, x_new - x, self.o.gradient(x_new)
                    - self.o.gradient(x))
            return x_new, (spec, v_new)

        want = iterate_step(step, self.prob.x0, 30)
        seq = accelerated_newton_iterate(self.o, metric, self.prob.x0, gains,
                                         h, 30)
        np.testing.assert_array_equal(seq.points, want)
