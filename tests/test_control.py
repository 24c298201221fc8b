import dataclasses

import numpy as np
import pytest

from accelflow.clf import (
    DEFAULT_CLF,
    ClfParams,
    clf_grad_v,
    clf_value,
    lie_derivative,
)
from accelflow.control import (
    ControllerFamily,
    ControllerSpec,
    DeltaMode,
    DirectGains,
    InfeasibleStateError,
    accelerated_newton_controller,
    direct_controller,
    evaluate_control,
    gains_from_sigma,
    min_p_controller,
    min_p_star_controller,
    momentum_flow_controller,
    nesterov_flow_controller,
    polyak_controller,
    validate_direct_gains,
)
from accelflow.metric import MetricKind, MetricSpec, metric_matrix, metric_solve
from accelflow.objective import (
    quadratic_problem,
    random_quadratic,
    rosenbrock_problem,
)

EUCLID = MetricSpec(MetricKind.EUCLIDEAN)
Q2 = quadratic_problem(np.array([[2.0]])).oracle


# ---------------------------------------------------------------------------
# spec construction
# ---------------------------------------------------------------------------


def test_family_parameter_blocks_are_exclusive():
    with pytest.raises(ValueError, match="delta > 0"):
        min_p_controller(delta=0.0)
    with pytest.raises(ValueError, match="sigma_q > 0"):
        min_p_controller(delta_mode=DeltaMode.FIXED_SIGMA)
    with pytest.raises(ValueError, match="sigma_q only applies"):
        min_p_controller(delta=1.0, sigma_q=2.0)
    with pytest.raises(ValueError, match="rate_eta > 0"):
        min_p_star_controller(rate_eta=-1.0)
    with pytest.raises(ValueError, match="does not belong"):
        ControllerSpec(ControllerFamily.MIN_P, DEFAULT_CLF, EUCLID,
                       delta=1.0, rate_eta=1.0)
    with pytest.raises(ValueError, match="needs gains"):
        ControllerSpec(ControllerFamily.DIRECT, DEFAULT_CLF, EUCLID)


def test_state_shapes_are_checked():
    spec = min_p_controller()
    with pytest.raises(ValueError, match="x has shape"):
        evaluate_control(spec, Q2, np.zeros(2), np.ones(1), np.ones(1))
    with pytest.raises(ValueError, match="v has shape"):
        evaluate_control(spec, Q2, np.zeros(1), np.ones(2), np.ones(2))


# ---------------------------------------------------------------------------
# min_p
# ---------------------------------------------------------------------------


def test_min_p_euclidean_hand_case():
    # grad_v V = v = (3, 4) at lambda = 0, so u is the unit-budget pullback
    oracle = quadratic_problem(np.eye(2)).oracle
    spec = min_p_controller(delta=1.0)
    res = evaluate_control(spec, oracle, np.zeros(2), np.zeros(2),
                           np.array([3.0, 4.0]))
    np.testing.assert_allclose(res.u, [-0.6, -0.8])
    assert res.sigma == pytest.approx(0.2)
    assert res.branch == "boundary"


def test_min_p_weighted_hand_case():
    # W = [[4]] via the Hessian metric of E = 2 x^2
    oracle = quadratic_problem(np.array([[4.0]])).oracle
    spec = min_p_controller(metric=MetricSpec(MetricKind.HESSIAN), delta=1.0)
    res = evaluate_control(spec, oracle, np.zeros(1), np.zeros(1), np.array([2.0]))
    np.testing.assert_allclose(res.u, [-0.5])
    u = res.u
    assert u @ np.array([[4.0]]) @ u == pytest.approx(1.0)


def test_min_p_zero_gradient_branch():
    spec = min_p_controller()
    res = evaluate_control(spec, Q2, np.zeros(1), np.zeros(1), np.zeros(1))
    np.testing.assert_array_equal(res.u, [0.0])
    assert res.branch == "origin"
    # grad_v V = c lam + b v vanishes on lam = v too (b=1, c=-1)
    res = evaluate_control(spec, Q2, np.zeros(1), np.array([2.0]), np.array([2.0]))
    assert res.branch == "origin"


def test_min_p_boundary_activity_random_states():
    rng = np.random.default_rng(2)
    oracle = random_quadratic(4, kappa=30.0, seed=3).oracle
    B = np.linalg.inv(oracle.hessian(np.zeros(4))) + 0.5 * np.eye(4)
    specs = [
        min_p_controller(delta=0.7),
        min_p_controller(metric=MetricSpec(MetricKind.HESSIAN), delta=0.7),
        min_p_controller(metric=MetricSpec(MetricKind.QUASI_NEWTON, qn_state=B),
                         delta=0.7),
    ]
    for spec in specs:
        for _ in range(100):
            x = rng.standard_normal(4)
            lam = rng.standard_normal(4)
            v = rng.standard_normal(4)
            res = evaluate_control(spec, oracle, x, lam, v)
            if res.branch == "origin":
                continue
            W = metric_matrix(spec.metric, oracle, x)
            assert res.u @ W @ res.u == pytest.approx(0.7, rel=1e-10)


def test_min_p_taper_winds_down_near_target():
    oracle = quadratic_problem(np.eye(2)).oracle
    spec = min_p_controller(delta=1.0, delta_mode=DeltaMode.TAPER)
    v = np.array([0.1, 0.0])  # |grad_v V|^2 = 0.01 < delta
    res = evaluate_control(spec, oracle, np.zeros(2), np.zeros(2), v)
    assert res.u @ res.u == pytest.approx(0.01, rel=1e-10)
    # far from the target the budget is the binding constraint again
    v = np.array([5.0, 0.0])
    res = evaluate_control(spec, oracle, np.zeros(2), np.zeros(2), v)
    assert res.u @ res.u == pytest.approx(1.0, rel=1e-10)


def test_identity_metric_control_matches_the_solve():
    # the identity metric skips the solve; u must still be the solve's u.
    # Zero entries come out +0.0 in W^{-1} d. The LAPACK solve maps a -0.0
    # in grad_v V to +0.0 too, but not at every position (it depends on
    # the signs of the other entries), so where the solve keeps a -0.0
    # the two are compared by value only.
    n = 4
    oracle = random_quadratic(n, kappa=30.0, seed=3).oracle
    qn_fresh = MetricSpec(MetricKind.QUASI_NEWTON)
    specs = [
        min_p_controller(delta=0.7),
        min_p_controller(delta=0.7, delta_mode=DeltaMode.TAPER),
        min_p_controller(delta_mode=DeltaMode.FIXED_SIGMA, sigma_q=1.3),
        min_p_star_controller(rate_eta=50.0),
        min_p_controller(metric=qn_fresh, delta=0.7),
        min_p_star_controller(metric=qn_fresh, rate_eta=50.0),
    ]
    rng = np.random.default_rng(11)
    generic = [tuple(rng.standard_normal((3, n))) for _ in range(20)]
    # grad_v V = c lam + b v is -0.0 where lam = +0.0 and v = -0.0 (c < 0);
    # first at an entry LAPACK keeps as -0.0, then after a negative entry,
    # where it maps it to +0.0
    signed_zero = [
        (np.ones(n), np.array([0.0, 1.0, 2.0, 3.0]),
         np.array([-0.0, 2.0, 3.0, 5.0])),
        (np.ones(n), np.array([1.0, 0.0, 2.0, 3.0]),
         np.array([-2.0, -0.0, 1.0, 5.0])),
    ]
    bitwise_signed_zero = 0
    for spec in specs:
        for x, lam, v in generic + signed_zero:
            res = evaluate_control(spec, oracle, x, lam, v)
            assert res.branch in ("boundary", "active")
            d = clf_grad_v(spec.clf, lam, v)
            z = metric_solve(np.eye(n), d)
            solved = -res.sigma * z
            np.testing.assert_array_equal(res.u, solved)
            assert res.u.tobytes() == (-res.sigma * (d + 0.0)).tobytes()
            if not np.any(np.signbit(z[z == 0.0])):
                assert res.u.tobytes() == solved.tobytes()
                bitwise_signed_zero += bool(np.any(np.signbit(d[d == 0.0])))
    # the second signed-zero state is bit-identical to the solve
    assert bitwise_signed_zero == len(specs)


# ---------------------------------------------------------------------------
# min_p_star
# ---------------------------------------------------------------------------


def test_min_p_star_active_hand_case():
    # at lambda = -1, v = 1 on E = x^2: V = 2.5, drift = 6, grad_v V = 2;
    # with eta = 0.4 the rate rho = 1 binds and sigma = (1 + 6)/4
    spec = min_p_star_controller(rate_eta=0.4)
    res = evaluate_control(spec, Q2, np.zeros(1), np.array([-1.0]), np.array([1.0]))
    assert res.branch == "active"
    assert res.sigma == pytest.approx(1.75)
    np.testing.assert_allclose(res.u, [-3.5])
    lie = lie_derivative(DEFAULT_CLF, Q2, np.zeros(1), np.array([-1.0]),
                         np.array([1.0]), res.u)
    assert lie == pytest.approx(-1.0)
    assert res.rho == pytest.approx(1.0)


def test_min_p_star_inactive_branch():
    # lambda = v = 1 makes the drift strictly dissipative: no control needed
    spec = min_p_star_controller(rate_eta=0.4)
    res = evaluate_control(spec, Q2, np.zeros(1), np.array([1.0]), np.array([1.0]))
    assert res.branch == "inactive"
    np.testing.assert_array_equal(res.u, [0.0])
    assert res.drift == pytest.approx(-2.0)
    lie = lie_derivative(DEFAULT_CLF, Q2, np.zeros(1), np.array([1.0]),
                         np.array([1.0]), res.u)
    assert lie <= -res.rho


def test_min_p_star_exactness_random_states():
    rng = np.random.default_rng(4)
    oracle = random_quadratic(3, kappa=10.0, seed=5).oracle
    spec = min_p_star_controller(rate_eta=1.0)
    saw_active = saw_inactive = False
    for _ in range(200):
        x = rng.standard_normal(3)
        lam = rng.standard_normal(3)
        v = rng.standard_normal(3)
        res = evaluate_control(spec, oracle, x, lam, v)
        lie = lie_derivative(DEFAULT_CLF, oracle, x, lam, v, res.u)
        rho = spec.rate_eta * clf_value(DEFAULT_CLF, lam, v)
        if res.branch == "active":
            saw_active = True
            assert lie == pytest.approx(-rho, rel=1e-10, abs=1e-10)
        else:
            saw_inactive = True
            assert lie <= -rho + 1e-12
    assert saw_active and saw_inactive


def test_hessian_metric_min_p_star_takes_one_hessian_per_evaluation():
    # the drift's H v and the Hessian metric share one oracle call
    prob = random_quadratic(4, kappa=10.0, seed=6)
    calls = []

    def hessian(x):
        calls.append(1)
        return prob.oracle.hessian(x)

    oracle = dataclasses.replace(prob.oracle, hessian=hessian)
    spec = min_p_star_controller(metric=MetricSpec(MetricKind.HESSIAN),
                                 rate_eta=1.0)
    x = prob.x0
    res = evaluate_control(spec, oracle, x, -oracle.gradient(x), np.zeros(4))
    assert res.branch == "active"
    assert len(calls) == 1
    np.testing.assert_array_equal(
        res.u, evaluate_control(spec, prob.oracle, x, -oracle.gradient(x),
                                np.zeros(4)).u)


def test_a_nan_quasi_newton_state_is_rejected():
    oracle = rosenbrock_problem().oracle
    with pytest.raises(ValueError, match="not positive definite"):
        metric = MetricSpec(MetricKind.QUASI_NEWTON,
                            qn_state=np.diag([1.0, np.nan]))
        evaluate_control(momentum_flow_controller(1.0, 1.0, metric), oracle,
                         np.zeros(2), np.ones(2), np.zeros(2))


def test_min_p_star_equilibrium_is_inactive():
    spec = min_p_star_controller(rate_eta=1.0)
    res = evaluate_control(spec, Q2, np.zeros(1), np.zeros(1), np.zeros(1))
    assert res.branch == "inactive"
    np.testing.assert_array_equal(res.u, [0.0])


def test_min_p_star_infeasible_rate_raises():
    # on grad_v V = 0 the drift decays like -v.Hv; with eta above twice the
    # smallest Hessian eigenvalue the requested rate cannot be met there
    oracle = quadratic_problem(np.array([[1.0]])).oracle
    spec = min_p_star_controller(rate_eta=3.0)
    with pytest.raises(InfeasibleStateError, match="slower than the requested"):
        evaluate_control(spec, oracle, np.zeros(1), np.array([1.0]), np.array([1.0]))


def test_min_p_star_infeasible_drift_raises():
    # negative curvature direction on the zero-authority set: the drift
    # condition itself fails, and the report says so
    oracle = rosenbrock_problem().oracle
    spec = min_p_star_controller(rate_eta=1.0)
    x = np.array([0.0, 1.0])  # hessian diag(-398, 200)
    v = np.array([1.0, 0.0])
    with pytest.raises(InfeasibleStateError, match="drift condition fails") as ei:
        evaluate_control(spec, oracle, x, v, v)
    assert ei.value.report.applicable
    assert not ei.value.report.holds


# ---------------------------------------------------------------------------
# shared functional form
# ---------------------------------------------------------------------------


def _metrics_for(oracle):
    rng = np.random.default_rng(6)
    A = rng.standard_normal((oracle.dim, oracle.dim))
    B = A @ A.T + oracle.dim * np.eye(oracle.dim)
    return [
        MetricSpec(MetricKind.EUCLIDEAN),
        MetricSpec(MetricKind.HESSIAN),
        MetricSpec(MetricKind.QUASI_NEWTON, qn_state=B),
    ]


def test_min_p_fixed_sigma_matches_momentum_form():
    # with lambda = -grad E the control is -W^{-1}(gamma_a grad E + gamma_b v)
    oracle = random_quadratic(5, kappa=40.0, seed=7).oracle
    rng = np.random.default_rng(8)
    for metric in _metrics_for(oracle):
        spec = min_p_controller(metric=metric,
                                delta_mode=DeltaMode.FIXED_SIGMA, sigma_q=1.3)
        ga, gb = gains_from_sigma(spec.clf, 1.3)
        for _ in range(50):
            x = rng.standard_normal(5)
            v = rng.standard_normal(5)
            g = oracle.gradient(x)
            res = evaluate_control(spec, oracle, x, -g, v)
            W = metric_matrix(metric, oracle, x)
            expect = -np.linalg.solve(W, ga * g + gb * v)
            scale = 1.0 + np.max(np.abs(expect))
            assert np.max(np.abs(res.u - expect)) <= 1e-12 * scale


def test_min_p_star_active_matches_momentum_form():
    oracle = random_quadratic(5, kappa=40.0, seed=9).oracle
    rng = np.random.default_rng(10)
    for metric in _metrics_for(oracle):
        spec = min_p_star_controller(metric=metric, rate_eta=1.0)
        for _ in range(50):
            x = rng.standard_normal(5)
            v = rng.standard_normal(5)
            g = oracle.gradient(x)
            res = evaluate_control(spec, oracle, x, -g, v)
            if res.branch != "active":
                continue
            ga, gb = gains_from_sigma(spec.clf, res.sigma)
            W = metric_matrix(metric, oracle, x)
            expect = -np.linalg.solve(W, ga * g + gb * v)
            scale = 1.0 + np.max(np.abs(expect))
            assert np.max(np.abs(res.u - expect)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# gain algebra
# ---------------------------------------------------------------------------


def test_gains_from_sigma_hand_case():
    assert gains_from_sigma(DEFAULT_CLF, 1.0) == pytest.approx((1.0, 1.0))
    assert gains_from_sigma(DEFAULT_CLF, 2.5) == pytest.approx((2.5, 2.5))


def test_gains_from_sigma_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        gains_from_sigma(DEFAULT_CLF, 0.0)


def test_gains_from_sigma_warns_on_positive_c():
    p = ClfParams(2.0, 1.0, 1.0)
    with pytest.warns(UserWarning, match="gamma_a negative"):
        ga, gb = gains_from_sigma(p, 1.0)
    assert ga == pytest.approx(-1.0)
    assert gb == pytest.approx(1.0)


def test_validate_direct_gains_hand_case():
    report = validate_direct_gains(DEFAULT_CLF, 1.0, 1.0, 2.0)
    assert report.holds
    assert report.violations == ()


@pytest.mark.parametrize("gains,needle", [
    ((-1.0, 1.0, 2.0), "K_a"),
    ((1.0, -1.0, 2.0), "K_b"),
    ((1.0, 2.0, 2.0), "coupling"),
    ((1.0, 1.0, 3.0), "K_c"),
])
def test_validate_direct_gains_violations(gains, needle):
    report = validate_direct_gains(DEFAULT_CLF, *gains)
    assert not report.holds
    assert any(needle in viol for viol in report.violations)


def test_validate_direct_gains_needs_negative_c():
    with pytest.raises(ValueError, match="c < 0"):
        validate_direct_gains(ClfParams(2.0, 1.0, 1.0), 1.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# direct family
# ---------------------------------------------------------------------------


def test_direct_hand_cases():
    spec = direct_controller(1.0, 1.0, 2.0)
    u = evaluate_control(spec, Q2, np.zeros(1), np.array([-1.0]),
                         np.zeros(1)).u
    np.testing.assert_allclose(u, [-1.0])
    u = evaluate_control(spec, Q2, np.zeros(1), np.zeros(1),
                         np.array([1.0])).u
    np.testing.assert_allclose(u, [-5.0])


def test_direct_rejects_bad_gains():
    with pytest.raises(ValueError, match="stability conditions"):
        direct_controller(1.0, 1.0, 7.0)


def test_direct_spec_requires_gains_object():
    spec = ControllerSpec(ControllerFamily.DIRECT, DEFAULT_CLF, EUCLID,
                          gains=DirectGains(2.0, 2.0, 2.0))
    assert spec.gains.gamma_a == 2.0


# ---------------------------------------------------------------------------
# named-flow factories
# ---------------------------------------------------------------------------


def test_momentum_flow_controller_realizes_gains():
    oracle = random_quadratic(4, kappa=20.0, seed=11).oracle
    spec = momentum_flow_controller(3.0, 2.0, EUCLID)
    ga, gb = gains_from_sigma(spec.clf, spec.sigma_q)
    assert (ga, gb) == pytest.approx((3.0, 2.0))
    rng = np.random.default_rng(12)
    x = rng.standard_normal(4)
    v = rng.standard_normal(4)
    g = oracle.gradient(x)
    res = evaluate_control(spec, oracle, x, -g, v)
    np.testing.assert_allclose(res.u, -(3.0 * g + 2.0 * v), rtol=1e-12, atol=1e-12)


def test_momentum_flow_controller_rejects_nonpositive_gains():
    with pytest.raises(ValueError, match="gamma_a, gamma_b > 0"):
        momentum_flow_controller(0.0, 1.0, EUCLID)


def test_named_flow_factories_pick_metrics():
    assert polyak_controller(1.0, 1.0).metric.kind is MetricKind.EUCLIDEAN
    assert accelerated_newton_controller(1.0, 1.0).metric.kind is MetricKind.HESSIAN
    spec = nesterov_flow_controller(1.0)
    assert spec.family is ControllerFamily.DIRECT
    assert (spec.gains.gamma_a, spec.gains.gamma_b, spec.gains.gamma_c) == \
        pytest.approx((1.0, 1.0, 2.0))
