import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelflow import metric
from accelflow.metric import (
    MetricKind,
    MetricSpec,
    _LU,
    metric_matrix,
    metric_solve,
    quasi_newton_update,
    shift_to_floor,
)
from accelflow.objective import (
    quadratic_problem,
    random_log_sum_exp,
    rosenbrock_problem,
)
from blas import blas_threads

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


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
def test_metric_kind_takes_its_string_value(kind):
    # the Hessian's eigenvalue 1e-9 sits below the floor, which a Hessian
    # metric applies
    oracle = quadratic_problem(Q=np.diag([1e-9, 2.0])).oracle
    by_value = MetricSpec(kind.value, eig_floor=1e-3)
    want = MetricSpec(kind, eig_floor=1e-3)
    assert by_value.kind is kind
    x = np.array([0.5, -1.0])
    assert metric_matrix(by_value, oracle, x).tobytes() \
        == metric_matrix(want, oracle, x).tobytes()


def test_metric_kind_rejects_an_unknown_string():
    with pytest.raises(ValueError, match="is not a valid MetricKind"):
        MetricSpec("newton")


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shift_to_floor_rejects_a_non_finite_matrix(bad):
    for M in (np.diag([1.0, bad]), np.array([[1.0, bad], [bad, 1.0]]),
              np.array([[1.0, bad], [0.0, 1.0]]),
              np.where(np.eye(3) > 0, bad, 0.0)):
        with pytest.raises(ValueError, match="not finite"):
            shift_to_floor(M, 1e-6)


def test_a_hessian_at_a_point_is_floored_by_shift_to_floor():
    # its Hessian's smallest eigenvalue sits far below a 1e-2 floor
    problem = random_log_sum_exp(20, terms=40, seed=1)
    spec = MetricSpec(MetricKind.HESSIAN, eig_floor=1e-2)
    W = metric_matrix(spec, problem.oracle, problem.x0)
    want = shift_to_floor(problem.oracle.hessian(problem.x0), 1e-2)
    assert W.tobytes() == want.tobytes()
    assert np.linalg.eigvalsh(W)[0] == pytest.approx(1e-2, rel=1e-9)


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


# ---------------------------------------------------------------------------
# factored solves (metric._LU)
# ---------------------------------------------------------------------------


def _fixed_w(kind, n, rng):
    """A W of the kind the laws and the Newton driver factor, or any
    non-symmetric one."""
    if kind == "floored":
        M = rng.standard_normal((n, n)) + rng.uniform(-3.0, 3.0) * np.eye(n)
        return shift_to_floor(M, 10.0 ** rng.integers(-6, 0))
    if kind == "quasi_newton":
        # curvature pairs from an indefinite A: some are taken as they
        # are, some damped and some skipped
        A = rng.standard_normal((n, n)) + rng.uniform(-1.0, 3.0) * np.eye(n)
        spec = MetricSpec(MetricKind.QUASI_NEWTON)
        for _ in range(4):
            s = rng.standard_normal(n)
            spec = quasi_newton_update(spec, s, A @ s)
        return spec.qn_state
    return rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _solves(W, R):
    """np.linalg.solve on R's first row and on its stacked rows."""
    return (np.linalg.solve(W, R[0]),
            np.linalg.solve(W, R[..., None])[..., 0])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["floored", "quasi_newton", "general"]),
       st.integers(1, 128), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_a_factored_solve_gives_the_bytes_of_np_linalg_solve(kind, n, rows,
                                                             seed):
    rng = np.random.default_rng(seed)
    W = _fixed_w(kind, n, rng)
    R = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(
        -8, 9, size=(rows, 1))
    with blas_threads(1):
        lu = _LU(W)
        assert lu._call is not None  # factored, not fallen back
        got = lu.solve(R[0]), lu.solve(R)
        want = _solves(W, R)
    for g, w in zip(got, want):
        _same_bytes(g, w)


def test_without_the_library_the_holder_solves_with_metric_solve(
        monkeypatch):
    monkeypatch.setattr(metric, "_lapack", lambda: None)
    rng = np.random.default_rng(3)
    W, R = _fixed_w("floored", 9, rng), rng.standard_normal((3, 9))
    with blas_threads(1):
        lu = _LU(W)
        assert lu._call is None
        got = lu.solve(R[0]), lu.solve(R)
        want = _solves(W, R)
    for g, w in zip(got, want):
        _same_bytes(g, w)


def test_on_two_blas_threads_the_holder_solves_with_metric_solve():
    # at n = 100 a two-thread dgesv takes another path than a one-thread
    # dgetrf, so only the fallback gives np.linalg.solve's bytes there
    rng = np.random.default_rng(4)
    W, R = _fixed_w("floored", 100, rng), rng.standard_normal((3, 100))
    with blas_threads(2) as count:
        if count != 2:
            pytest.skip("the library would not run two threads")
        lu = _LU(W)
        assert lu._call is None
        got = lu.solve(R[0]), lu.solve(R)
        want = _solves(W, R)
    for g, w in zip(got, want):
        _same_bytes(g, w)


@pytest.mark.parametrize("rhs", [np.ones(3), np.ones((2, 3))],
                         ids=["one row", "stacked rows"])
def test_a_singular_w_raises_what_np_linalg_solve_raises(rhs):
    W = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.solve(W, rhs if rhs.ndim == 1 else rhs[..., None])
    with blas_threads(1):
        lu = _LU(W)
        assert lu._call is None  # dgetrf reported a zero pivot
        with pytest.raises(np.linalg.LinAlgError) as got:
            lu.solve(rhs)
    assert str(got.value) == str(want.value)


def test_a_right_hand_side_of_another_size_raises_as_metric_solve_does():
    with blas_threads(1):
        lu = _LU(np.eye(3))
        assert lu._call is not None
        for rhs in (np.ones(2), np.ones((2, 4)), np.ones((1, 2, 3))):
            with pytest.raises(ValueError, match="shape mismatch"):
                lu.solve(rhs)
        _same_bytes(lu.solve(np.ones((0, 3))), np.zeros((0, 3)))
