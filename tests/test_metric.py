import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelflow.metric import (
    MetricKind,
    MetricSpec,
    metric_matrix,
    metric_solve,
    quasi_newton_update,
    shift_to_floor,
)
from accelflow.objective import quadratic_problem, rosenbrock_problem

ROSEN = rosenbrock_problem().oracle


def test_euclidean_is_identity():
    spec = MetricSpec(MetricKind.EUCLIDEAN)
    np.testing.assert_array_equal(metric_matrix(spec, ROSEN, np.zeros(2)), np.eye(2))


def test_hessian_metric_unshifted_when_pd():
    spec = MetricSpec(MetricKind.HESSIAN)
    W = metric_matrix(spec, ROSEN, np.zeros(2))
    np.testing.assert_allclose(W, [[2.0, 0.0], [0.0, 200.0]])


def test_hessian_metric_floor_at_indefinite_point():
    # at (0, 1) the Rosenbrock Hessian has a negative eigenvalue
    spec = MetricSpec(MetricKind.HESSIAN, eig_floor=1e-6)
    W = metric_matrix(spec, ROSEN, np.array([0.0, 1.0]))
    eigs = np.linalg.eigvalsh(W)
    assert eigs[0] == pytest.approx(1e-6, rel=1e-6)


def test_shift_to_floor_noop_above_floor():
    M = np.diag([2.0, 3.0])
    np.testing.assert_array_equal(shift_to_floor(M, 1e-6), M)


def test_eig_floor_must_be_positive():
    with pytest.raises(ValueError, match="eig_floor"):
        MetricSpec(MetricKind.HESSIAN, eig_floor=0.0)


def test_metric_solve_hand_case():
    np.testing.assert_allclose(metric_solve(np.array([[4.0]]), np.array([2.0])),
                               [0.5])


def test_metric_solve_residual():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.standard_normal((5, 5))
        W = A @ A.T + np.eye(5)
        rhs = rng.standard_normal(5)
        z = metric_solve(W, rhs)
        assert np.linalg.norm(W @ z - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_metric_solve_rejects_indefinite():
    # the certificate is taken where the matrix is made, before any solve
    with pytest.raises(ValueError, match="not positive definite"):
        spec = MetricSpec(MetricKind.QUASI_NEWTON,
                          qn_state=np.diag([1.0, -1.0]))
        metric_solve(metric_matrix(spec, ROSEN, np.zeros(2)), np.ones(2))


def test_metric_solve_rejects_a_nan_quasi_newton_state():
    # numpy's Cholesky returns NaN instead of raising on a NaN diagonal
    with pytest.raises(ValueError, match="not positive definite"):
        spec = MetricSpec(MetricKind.QUASI_NEWTON,
                          qn_state=np.diag([1.0, np.nan]))
        W = metric_matrix(spec, ROSEN, np.zeros(2))
        metric_solve(W, np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_shift_to_floor_rejects_a_non_finite_matrix(bad):
    for M in (np.diag([1.0, bad]), np.array([[1.0, bad], [bad, 1.0]]),
              np.where(np.eye(3) > 0, bad, 0.0)):
        with pytest.raises(ValueError):
            shift_to_floor(M, 1e-6)


def _eigvalsh_floor(M, floor):
    """shift_to_floor by eigenvalues alone, with no Cholesky test."""
    M = 0.5 * (M + M.T)
    min_eig = float(np.linalg.eigvalsh(M)[0])
    if min_eig < floor:
        M = M + (floor - min_eig) * np.eye(M.shape[0])
    return M


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.data(), st.floats(1e-6, 1.0),
       st.floats(-2.0, 2.0))
def test_cholesky_first_floor_matches_the_eigenvalue_floor(n, data, floor,
                                                           lowest):
    entries = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n * n,
                                 max_size=n * n))
    M = np.array(entries).reshape(n, n)
    # move the spectrum so that draws land on both sides of the floor
    M = M + (lowest - np.linalg.eigvalsh(0.5 * (M + M.T))[0]) * np.eye(n)
    min_eig = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    margin = 1e-9 * (1.0 + np.max(np.abs(M)))

    W = shift_to_floor(M, floor)
    np.testing.assert_array_equal(W, W.T)
    if min_eig >= floor + margin:
        np.testing.assert_array_equal(W, _eigvalsh_floor(M, floor))
    elif min_eig < floor - margin:
        assert np.linalg.eigvalsh(W)[0] == pytest.approx(floor, abs=1e-12)
    else:
        # within rounding of the floor either branch may answer
        assert abs(np.linalg.eigvalsh(W)[0] - floor) <= margin + 1e-12


def test_qn_default_state_is_identity():
    spec = MetricSpec(MetricKind.QUASI_NEWTON)
    np.testing.assert_array_equal(metric_matrix(spec, ROSEN, np.zeros(2)), np.eye(2))


def test_qn_update_1d_secant():
    spec = MetricSpec(MetricKind.QUASI_NEWTON, qn_state=np.eye(1))
    new = quasi_newton_update(spec, np.array([1.0]), np.array([2.0]))
    np.testing.assert_allclose(new.qn_state, [[2.0]])


def test_qn_update_2d_hand_case():
    spec = MetricSpec(MetricKind.QUASI_NEWTON, qn_state=np.eye(2))
    new = quasi_newton_update(spec, np.array([1.0, 0.0]), np.array([3.0, 0.0]))
    np.testing.assert_allclose(new.qn_state, [[3.0, 0.0], [0.0, 1.0]])
    # secant condition: B s = g_delta on the accepted pair
    np.testing.assert_allclose(new.qn_state @ [1.0, 0.0], [3.0, 0.0])


def test_qn_update_skips_nonpositive_curvature():
    B0 = np.diag([2.0, 5.0])
    spec = MetricSpec(MetricKind.QUASI_NEWTON, qn_state=B0)
    new = quasi_newton_update(spec, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    np.testing.assert_array_equal(new.qn_state, B0)
    new = quasi_newton_update(spec, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    np.testing.assert_array_equal(new.qn_state, B0)


def test_qn_update_powell_damping_keeps_pd():
    # curvature positive but far below the model curvature s.Bs, which
    # without damping would send the updated matrix near singularity
    spec = MetricSpec(MetricKind.QUASI_NEWTON, qn_state=np.eye(1))
    new = quasi_newton_update(spec, np.array([1.0]), np.array([0.05]))
    B = new.qn_state
    assert B[0, 0] > 0.0
    # damping clamps the effective curvature at 0.2 * s.Bs
    assert B[0, 0] == pytest.approx(0.2, rel=1e-12)


def test_qn_update_random_pairs_stay_pd():
    rng = np.random.default_rng(1)
    spec = MetricSpec(MetricKind.QUASI_NEWTON, qn_state=np.eye(4))
    for _ in range(200):
        s = rng.standard_normal(4)
        y = rng.standard_normal(4)
        spec = quasi_newton_update(spec, s, y)
        eigs = np.linalg.eigvalsh(spec.qn_state)
        assert eigs[0] >= spec.eig_floor * (1.0 - 1e-9)


def test_qn_update_rejects_shape_mismatch():
    spec = MetricSpec(MetricKind.QUASI_NEWTON)
    with pytest.raises(ValueError, match="equal shapes"):
        quasi_newton_update(spec, np.ones(2), np.ones(3))
    with pytest.raises(ValueError, match="only applies"):
        quasi_newton_update(MetricSpec(MetricKind.EUCLIDEAN), np.ones(2), np.ones(2))


def test_qn_metric_descent_on_quadratic():
    # exact line search in the B metric on a fixed quadratic: each accepted
    # pair satisfies the secant equation to rounding, and the iteration
    # reaches the minimizer
    prob = quadratic_problem(np.diag([1.0, 1.5, 2.0, 3.0]))
    oracle = prob.oracle
    Q = oracle.hessian(prob.x0)
    spec = MetricSpec(MetricKind.QUASI_NEWTON)
    x = prob.x0.copy()
    g = oracle.gradient(x)
    g0 = np.linalg.norm(g)
    for _ in range(8):
        B = metric_matrix(spec, oracle, x)
        d = -metric_solve(B, g)
        alpha = -(g @ d) / (d @ Q @ d)
        x_new = x + alpha * d
        g_new = oracle.gradient(x_new)
        s = x_new - x
        y = g_new - g
        spec_new = quasi_newton_update(spec, s, y)
        if spec_new.qn_state is not spec.qn_state:
            resid = np.linalg.norm(spec_new.qn_state @ s - y)
            assert resid <= 1e-10 * (1.0 + np.linalg.norm(y))
        spec, x, g = spec_new, x_new, g_new
        if np.linalg.norm(g) <= 1e-10 * g0:
            break
    assert np.linalg.norm(g) <= 1e-6 * g0
