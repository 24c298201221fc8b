import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelflow.config import ProblemConfig
from accelflow.objective import (
    log_sum_exp_problem,
    quadratic_problem,
    random_log_sum_exp,
    random_quadratic,
    rosenbrock_problem,
)
from finite_diff import finite_diff_gradient, finite_diff_hessian


def test_quadratic_hand_values():
    prob = quadratic_problem(np.array([[2.0]]))
    x = np.array([3.0])
    assert prob.oracle.value(x) == pytest.approx(9.0)
    np.testing.assert_allclose(prob.oracle.gradient(x), [6.0])
    np.testing.assert_allclose(prob.oracle.hessian(x), [[2.0]])


def test_quadratic_shifted_minimizer():
    Q = np.diag([1.0, 4.0])
    xs = np.array([2.0, -1.0])
    prob = quadratic_problem(Q, x_star=xs)
    assert prob.oracle.value(xs) == 0.0
    np.testing.assert_allclose(prob.oracle.gradient(xs), [0.0, 0.0])
    assert prob.oracle.value(xs + [1.0, 0.0]) == pytest.approx(0.5)


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        quadratic_problem(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_quadratic_rejects_indefinite():
    with pytest.raises(ValueError, match="positive definite"):
        quadratic_problem(np.diag([1.0, -1.0]))


def test_quadratic_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="x0"):
        quadratic_problem(np.eye(2), x0=np.zeros(3))


def test_random_quadratic_condition_number():
    prob = random_quadratic(10, kappa=100.0, seed=0)
    eigs = np.linalg.eigvalsh(prob.oracle.hessian(prob.x0))
    assert eigs[-1] / eigs[0] == pytest.approx(100.0, rel=1e-10)


def test_random_quadratic_scale_shifts_spectrum():
    prob = random_quadratic(10, kappa=100.0, seed=0, scale=0.019)
    eigs = np.linalg.eigvalsh(prob.oracle.hessian(prob.x0))
    assert eigs[-1] / eigs[0] == pytest.approx(100.0, rel=1e-10)
    assert eigs[0] == pytest.approx(0.019, rel=1e-10)
    with pytest.raises(ValueError, match="scale"):
        random_quadratic(4, kappa=10.0, seed=0, scale=0.0)


def test_rosenbrock_hand_values():
    prob = rosenbrock_problem()
    assert prob.oracle.value(np.zeros(2)) == pytest.approx(1.0)
    np.testing.assert_allclose(prob.oracle.gradient(np.zeros(2)), [-2.0, 0.0])
    np.testing.assert_allclose(prob.oracle.hessian(np.zeros(2)),
                               [[2.0, 0.0], [0.0, 200.0]])
    assert prob.oracle.value(np.array([-1.0, 1.0])) == pytest.approx(4.0)
    # the valley floor is the global minimizer
    assert prob.oracle.value(prob.x_star) == 0.0
    np.testing.assert_allclose(prob.oracle.gradient(prob.x_star), [0.0, 0.0])


def test_rosenbrock_hessian_indefinite_off_valley():
    prob = rosenbrock_problem()
    eigs = np.linalg.eigvalsh(prob.oracle.hessian(np.array([0.0, 1.0])))
    assert eigs[0] < 0.0


def test_rosenbrock_rejects_wrong_dim():
    prob = rosenbrock_problem()
    with pytest.raises(ValueError, match="2-D"):
        prob.oracle.value(np.zeros(3))


def test_log_sum_exp_overflow_safe():
    # without the max shift exp(1000) would overflow
    prob = log_sum_exp_problem(np.array([[1.0], [-1.0]]), np.array([1000.0, 0.0]))
    val = prob.oracle.value(np.zeros(1))
    assert np.isfinite(val)
    assert val == pytest.approx(1000.0)
    np.testing.assert_allclose(prob.oracle.gradient(np.zeros(1)), [1.0], atol=1e-12)


def test_log_sum_exp_hand_gradient():
    # two symmetric terms at x = 0: softmax weights are (1/2, 1/2)
    prob = log_sum_exp_problem(np.array([[1.0], [-1.0]]), np.zeros(2))
    assert prob.oracle.value(np.zeros(1)) == pytest.approx(np.log(2.0))
    np.testing.assert_allclose(prob.oracle.gradient(np.zeros(1)), [0.0], atol=1e-15)
    np.testing.assert_allclose(prob.oracle.hessian(np.zeros(1)), [[1.0]])


def test_log_sum_exp_hessian_matches_the_middle_matrix_form():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((40, 8))
    b = rng.standard_normal(40)
    prob = log_sum_exp_problem(A, b)
    for _ in range(20):
        x = rng.standard_normal(8)
        z = A @ x + b
        p = np.exp(z - z.max())
        p /= p.sum()
        ref = A.T @ (np.diag(p) - np.outer(p, p)) @ A
        H = prob.oracle.hessian(x)
        assert np.linalg.norm(H - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("gap", [5.0, 20.0, 35.0])
def test_log_sum_exp_hessian_keeps_its_digits_where_one_term_dominates(gap):
    # two terms: hess E = s (1 - s) d d^T with d = a_1 - a_2 and s the
    # logistic of the gap, both weights computed without cancellation
    a1, a2 = np.array([1.0, 2.0, -1.0]), np.array([0.5, -1.0, 3.0])
    prob = log_sum_exp_problem(np.stack([a1, a2]), np.array([gap, 0.0]))
    d = a1 - a2
    s, s_c = 1.0 / (1.0 + np.exp(-gap)), 1.0 / (1.0 + np.exp(gap))
    ref = s * s_c * np.outer(d, d)
    H = prob.oracle.hessian(np.zeros(3))
    assert np.linalg.norm(H - ref) <= 1e-12 * np.linalg.norm(ref)


def test_build_problem_dispatch():
    assert ProblemConfig("rosenbrock").build().oracle.name == "rosenbrock"
    assert ProblemConfig("quadratic", dim=3, kappa=10.0,
                         seed=1).build().oracle.dim == 3
    assert ProblemConfig("log_sum_exp", dim=2, terms=5,
                         seed=1).build().oracle.dim == 2
    with pytest.raises(ValueError, match="unknown problem"):
        ProblemConfig("himmelblau").build()


def _catalog_instances():
    return [
        random_quadratic(6, kappa=50.0, seed=11),
        rosenbrock_problem(),
        random_log_sum_exp(4, terms=9, seed=12),
    ]


@pytest.mark.parametrize("prob", _catalog_instances(), ids=lambda p: p.oracle.name)
def test_gradient_matches_finite_differences(prob):
    # sample inside the unit box: with h = 1e-6 the cancellation noise floor
    # of a central difference is eps * |E| / (2h), so the 1e-6 tolerance is
    # only honest where the objective stays of moderate size
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.uniform(-1.0, 1.0, prob.oracle.dim)
        fd = finite_diff_gradient(prob.oracle, x)
        assert np.max(np.abs(fd - prob.oracle.gradient(x))) <= 1e-6


@pytest.mark.parametrize("prob", _catalog_instances(), ids=lambda p: p.oracle.name)
def test_hessian_matches_differenced_gradient(prob):
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.standard_normal(prob.oracle.dim)
        H = prob.oracle.hessian(x)
        fd = finite_diff_hessian(prob.oracle, x)
        scale = 1.0 + np.max(np.abs(H))
        assert np.max(np.abs(fd - H)) <= 1e-5 * scale


@pytest.mark.parametrize("prob", _catalog_instances(), ids=lambda p: p.oracle.name)
def test_hessian_symmetric(prob):
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.standard_normal(prob.oracle.dim)
        H = prob.oracle.hessian(x)
        assert np.max(np.abs(H - H.T)) <= 1e-12 * (1.0 + np.max(np.abs(H)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
def test_quadratic_value_nonnegative(xs):
    prob = random_quadratic(3, kappa=20.0, seed=7)
    x = np.array(xs)
    val = prob.oracle.value(x)
    assert val >= 0.0
    if np.allclose(x, prob.x_star):
        assert val == pytest.approx(0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2))
def test_log_sum_exp_hessian_psd(xs):
    prob = random_log_sum_exp(2, terms=6, seed=8)
    eigs = np.linalg.eigvalsh(prob.oracle.hessian(np.array(xs)))
    assert eigs[0] >= -1e-8
