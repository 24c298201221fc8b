"""Stacked calls equal one-state calls bit for bit, and verify evaluates
whole columns.

The oracle, the certificate functions and the control laws take N stacked
states (N, n) as well as one state (n,). Each stacked row must hold the
bits the one-state call gives it, because the artifacts and the verify
fingerprints hold last-bit residuals. The row loops that the checks and
the record rebuild used before they took whole columns stay here as the
reference they are compared against.
"""

import dataclasses

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accelflow import cli, export, objective, verify
from accelflow.clf import (
    ClfParams,
    clf_value,
    eps_v,
    lie_derivative,
    state_norm,
)
from accelflow.config import ProblemConfig
from accelflow.control import (
    DeltaMode,
    MinP,
    MinPStar,
    accelerated_newton_controller,
    evaluate_control,
    nesterov_flow_controller,
    polyak_controller,
)
from accelflow.export import read_trajectory_csv, trajectory_from_arrays
from accelflow.flow import (
    FlowMode,
    Integrator,
    StoppingRule,
    initial_state,
    integrate,
)
from accelflow.metric import MetricKind, MetricSpec
from accelflow.objective import (
    random_log_sum_exp,
    random_quadratic,
    rosenbrock_problem,
)
from accelflow.verify import (
    CheckResult,
    CheckStatus,
    DissipationMode,
    VerificationReport,
    _is_reduced,
    _worst,
    check_adjoint_consistency,
    check_dissipation,
    check_singular_arc,
    order_tolerance,
)

PROBLEMS = {
    "quadratic": random_quadratic(3, kappa=20.0, seed=5),
    "rosenbrock": rosenbrock_problem(),
    "log_sum_exp": random_log_sum_exp(3, terms=5, seed=6),
}

EUCLID = MetricSpec(MetricKind.EUCLIDEAN)
HESSIAN = MetricSpec(MetricKind.HESSIAN, eig_floor=1e-2)
LAWS = {}
for _name, _metric in (("euclidean", EUCLID), ("hessian", HESSIAN)):
    LAWS[f"min_p_constant_{_name}"] = MinP(
        metric=_metric, delta=0.7)
    LAWS[f"min_p_taper_{_name}"] = MinP(
        metric=_metric, delta=0.7, delta_mode=DeltaMode.TAPER)
    LAWS[f"min_p_fixed_sigma_{_name}"] = MinP(
        metric=_metric, delta_mode=DeltaMode.FIXED_SIGMA, sigma_q=2.0)
    LAWS[f"min_p_star_{_name}"] = MinPStar(
        metric=_metric, rate_eta=0.5)
LAWS["direct"] = nesterov_flow_controller(3.0)


def same_bits(a, b) -> bool:
    """Equal bit for bit, signed zeros included; any two NaNs match."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(
        (a.view(np.int64) == b.view(np.int64))
        | (np.isnan(a) & np.isnan(b))))


# zero, signed zero, NaN, and magnitudes from 1e-300 to 1e200 of either sign
CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0]),
    st.builds(lambda sign, exp, m: sign * m * 10.0 ** exp,
              st.sampled_from([1.0, -1.0]), st.integers(-300, 200),
              st.floats(1.0, 9.999)))


@st.composite
def stacked_rows(draw, dim):
    """Three (N, dim) arrays x, lambda, v; some rows are all zeros."""
    n_rows = draw(st.integers(1, 6))

    def block():
        rows = []
        for _ in range(n_rows):
            if draw(st.integers(0, 4)) == 0:
                rows.append([0.0] * dim)
            else:
                rows.append(draw(st.lists(CELLS, min_size=dim,
                                          max_size=dim)))
        return np.array(rows, dtype=float)

    return block(), block(), block()


def one_by_one(call, n_rows):
    """The per-row results of call(k), or the first error it raises."""
    out = []
    for k in range(n_rows):
        try:
            out.append(call(k))
        except Exception as e:  # compared against the stacked call's
            return out, e
    return out, None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@given(data=st.data())
def test_stacked_control_equals_one_state_calls(problem, law, data):
    spec, oracle = LAWS[law], PROBLEMS[problem].oracle
    x, lam, v = data.draw(stacked_rows(oracle.dim))
    if data.draw(st.booleans()):
        with np.errstate(all="ignore"):
            lam = -oracle.gradient(x)  # the costate the flows use
    assert_stacked_control_is_one_state_calls(spec, oracle, x, lam, v)


def assert_stacked_control_is_one_state_calls(spec, oracle, x, lam, v):
    """The stacked call gives each row's one-state result, or raises the
    first error the one-state calls raise."""
    with np.errstate(all="ignore"):
        rows, error = one_by_one(
            lambda k: evaluate_control(spec, oracle, x[k], lam[k], v[k]),
            len(x))
        if error is not None:
            with pytest.raises(type(error)) as raised:
                evaluate_control(spec, oracle, x, lam, v)
            assert str(raised.value) == str(error)
            return
        stacked = evaluate_control(spec, oracle, x, lam, v)
    assert same_bits(stacked.u, np.array([r.u for r in rows]))
    assert list(stacked.branch) == [r.branch for r in rows]
    for field in ("sigma", "drift", "rho"):
        values = [getattr(r, field) for r in rows]
        if values[0] is None:
            assert getattr(stacked, field) is None
        else:
            assert same_bits(getattr(stacked, field), values)


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@given(data=st.data())
def test_stacked_certificate_and_oracle_equal_one_state_calls(problem, data):
    oracle = PROBLEMS[problem].oracle
    x, lam, v = data.draw(stacked_rows(oracle.dim))
    u = v[::-1].copy()
    p = ClfParams(2.0, 1.5, -0.8)
    with np.errstate(all="ignore"):
        pairs = [
            (oracle.value(x), [oracle.value(r) for r in x]),
            (oracle.gradient(x), [oracle.gradient(r) for r in x]),
            (np.matvec(oracle.hessian(x), v),
             [oracle.hessian(x[k]) @ v[k] for k in range(len(x))]),
            (clf_value(p, lam, v),
             [clf_value(p, lam[k], v[k]) for k in range(len(x))]),
            (eps_v(lam, v), [eps_v(lam[k], v[k]) for k in range(len(x))]),
            (lie_derivative(p, oracle, x, lam, v, u),
             [lie_derivative(p, oracle, x[k], lam[k], v[k], u[k])
              for k in range(len(x))]),
            (state_norm(v), [np.linalg.norm(r) for r in v]),
        ]
    for stacked, per_row in pairs:
        assert same_bits(stacked, np.array(per_row))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("problem", ["rosenbrock", "log_sum_exp"])
@given(data=st.data())
def test_hessian_row_blocks_keep_each_rows_bits(problem, data, monkeypatch):
    # blocks of two rows: up to six stacked rows span up to three blocks
    oracle = PROBLEMS[problem].oracle
    monkeypatch.setattr(objective, "_HESSIAN_BLOCK_ENTRIES",
                        2 * oracle.dim ** 2)
    x, lam, v = data.draw(stacked_rows(oracle.dim))
    u = v[::-1].copy()
    p = ClfParams(2.0, 1.5, -0.8)
    with np.errstate(all="ignore"):
        assert same_bits(lie_derivative(p, oracle, x, lam, v, u), [
            lie_derivative(p, oracle, x[k], lam[k], v[k], u[k])
            for k in range(len(x))])
        if data.draw(st.booleans()):
            lam = -oracle.gradient(x)  # the costate the flows use
    for law in sorted(LAWS):
        assert_stacked_control_is_one_state_calls(LAWS[law], oracle, x, lam,
                                                  v)


@pytest.mark.parametrize("law", ["min_p_star_hessian",
                                 "min_p_constant_hessian", "direct", "lie"])
def test_a_stacked_call_takes_each_rows_hessian_once(law, monkeypatch):
    # seven rows in blocks of three; min_p_star's drift and W share one
    # Hessian per row
    problem = PROBLEMS["log_sum_exp"]
    taken = []

    def hessian(x):
        taken.append(len(x))
        return problem.oracle.hessian(x)

    oracle = dataclasses.replace(problem.oracle, hessian=hessian)
    monkeypatch.setattr(objective, "_HESSIAN_BLOCK_ENTRIES", 3 * 3 ** 2)
    rng = np.random.default_rng(4)
    x, v = rng.standard_normal((2, 7, 3))
    lam = -oracle.gradient(x)
    if law == "lie":
        lie_derivative(ClfParams(2.0, 1.5, -0.8), oracle, x, lam, v, v)
    else:
        res = evaluate_control(LAWS[law], oracle, x, lam, v)
        assert set(res.branch) <= {"active", "boundary", "linear"}
    assert taken == [3, 3, 1]


def test_a_stacked_point_is_never_read_as_one():
    # with N = n rows, A @ X would be a well-formed product of the wrong
    # thing; every oracle must treat the rows as points
    for problem in PROBLEMS.values():
        oracle = problem.oracle
        X = np.arange(oracle.dim ** 2, dtype=float).reshape(
            oracle.dim, oracle.dim) / 10.0
        G, H = oracle.gradient(X), oracle.hessian(X)
        for k, x in enumerate(X):
            assert same_bits(G[k], oracle.gradient(x))
            Hk = H if H.ndim == 2 else H[k]
            assert same_bits(Hk, oracle.hessian(x))


def test_the_first_infeasible_row_raises_its_own_error():
    # rows 1 and 2 sit on grad_v V = 0 (lambda = v). Along the flattest
    # curvature at the minimum, row 1's drift decays slower than the rate;
    # row 2 would fail the drift condition itself, but row 1 comes first
    oracle = rosenbrock_problem().oracle
    spec = MinPStar(rate_eta=1.0)
    flat = 1e-3 * np.linalg.eigh(oracle.hessian(np.ones(2)))[1][:, 0]
    x = np.array([[0.5, 0.5], [1.0, 1.0], [0.0, 1.0]])
    lam = np.array([[1.0, 0.0], flat, [1.0, 0.0]])
    v = np.array([[0.0, 1.0], flat, [1.0, 0.0]])
    with pytest.raises(Exception) as one:
        evaluate_control(spec, oracle, x[1], lam[1], v[1])
    with pytest.raises(type(one.value)) as stacked:
        evaluate_control(spec, oracle, x, lam, v)
    assert str(stacked.value) == str(one.value)
    assert "slower than the requested rate" in str(stacked.value)


def test_inactive_and_origin_rows_hold_positive_zero():
    # rows 0 and 2 are the origin, where min_p takes its origin branch
    # and min_p_star its inactive one; row 1 takes control
    oracle = PROBLEMS["quadratic"].oracle
    x, lam = np.zeros((3, 3)), np.zeros((3, 3))
    v = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [-0.0, 0.0, -0.0]])
    for spec in (MinP(delta=1.0), MinPStar(rate_eta=1e-6)):
        res = evaluate_control(spec, oracle, x, lam, v)
        idle = res.branch != ("boundary" if isinstance(spec, MinP)
                              else "active")
        assert list(idle) == [True, False, True]
        assert not np.signbit(res.u[idle]).any()


# ---------------------------------------------------------------------------
# the row loops the checks and the rebuild replaced
# ---------------------------------------------------------------------------


def row_loop_dissipation(record, clf, oracle, mode, eta, tol):
    cols = record.columns
    times = cols["t"]
    vals, lies, active = [], [], []
    for x, v, u in zip(cols["x"], cols["v"], cols["u"]):
        lam = -oracle.gradient(x)
        vals.append(clf_value(clf, lam, v))
        lies.append(lie_derivative(clf, oracle, x, lam, v, u))
        active.append(np.linalg.norm(lam) + np.linalg.norm(v) != 0.0)
    vals, lies, active = np.array(vals), np.array(lies), np.array(active)
    cached_V, cached_lie = cols["V"], cols["lieV"]
    cached_dev = np.maximum(
        np.abs(vals - cached_V) / (1.0 + np.abs(cached_V)),
        np.abs(lies - cached_lie) / (1.0 + np.abs(cached_lie)))
    checks = [_worst("cached_diagnostics", cached_dev, times, 1e-12)]
    if mode is DissipationMode.STRICT:
        if not active.any():
            checks.append(CheckResult(
                name="dissipation_strict", status=CheckStatus.PASSED,
                worst_value=0.0, tolerance=tol,
                detail="no samples away from the target"))
        else:
            checks.append(_worst("dissipation_strict", lies[active],
                                 times[active], tol))
    else:
        checks.append(_worst("dissipation_rate", lies + eta * vals, times,
                             tol))
        V0, t0 = vals[0], times[0]
        if V0 != 0.0:
            excess = np.array([V / (V0 * np.exp(-eta * (t - t0))) - 1.0
                               for V, t in zip(vals, times)])
            checks.append(_worst("dissipation_envelope", excess, times, tol))
        else:
            checks.append(CheckResult(
                name="dissipation_envelope", status=CheckStatus.PASSED,
                worst_value=0.0, tolerance=tol,
                detail="V(t0) = 0, envelope vacuous"))
    return VerificationReport(checks=tuple(checks))


def row_loop_adjoint(record, oracle):
    if _is_reduced(record):
        return check_adjoint_consistency(record, oracle)
    cols = record.columns
    resid = np.array([np.linalg.norm(lam + oracle.gradient(x))
                      for x, lam in zip(cols["x"], cols["lambda_x"])])
    return VerificationReport(checks=(
        _worst("adjoint_consistency", resid, cols["t"],
               order_tolerance(record, 1e3)),))


def row_loop_singular_arc(record):
    if _is_reduced(record):
        return check_singular_arc(record)
    cols = record.columns
    norms = np.array([np.linalg.norm(lam) for lam in cols["lambda_v"]])
    return VerificationReport(checks=(
        _worst("singular_arc", norms, cols["t"],
               order_tolerance(record, 1e3)),))


def row_loop_rebuild_u(columns, oracle, spec):
    u = np.empty_like(columns["x"])
    for k, (x, v) in enumerate(zip(columns["x"], columns["v"])):
        u[k] = evaluate_control(spec, oracle, x, -oracle.gradient(x), v).u
    return u


def same_report(a, b) -> bool:
    return len(a.checks) == len(b.checks) and all(
        (c.name, c.status, c.tolerance, c.location, c.detail)
        == (d.name, d.status, d.tolerance, d.location, d.detail)
        and same_bits(c.worst_value, d.worst_value)
        for c, d in zip(a.checks, b.checks))


QUAD4 = random_quadratic(dim=4, kappa=5.0, seed=2)


def _run(spec, mode=FlowMode.REDUCED, problem=QUAD4, t_max=1.0):
    return integrate(spec, problem.oracle,
                     initial_state(problem.oracle, problem.x0), h=1e-2,
                     t_max=t_max, method=Integrator.RK4, mode=mode,
                     stop=StoppingRule(tol_g=1e-12, tol_v=1e-12))


RECORDS = {
    "min_p_star": (MinPStar(rate_eta=1.0), FlowMode.REDUCED),
    "polyak_full": (polyak_controller(2.0, 2.0), FlowMode.FULL_PRIMAL_DUAL),
    "nesterov": (nesterov_flow_controller(2.0), FlowMode.REDUCED),
    "accel_newton": (accelerated_newton_controller(2.0, 4.0),
                     FlowMode.FULL_PRIMAL_DUAL),
}


@pytest.fixture(scope="module")
def records():
    return {name: (spec, _run(spec, mode))
            for name, (spec, mode) in RECORDS.items()}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(RECORDS)),
       column=st.sampled_from(["x", "v", "u", "V", "lieV", "lambda_x",
                               "lambda_v"]),
       row=st.integers(0, 100), value=CELLS,
       mode=st.sampled_from(list(DissipationMode)))
def test_checks_equal_their_row_loops(records, name, column, row, value,
                                      mode):
    spec, record = records[name]
    cols = {k: c.copy() for k, c in record.columns.items()}
    cols[column][row % len(cols["t"])] = value
    record = dataclasses.replace(record, columns=cols)
    oracle = QUAD4.oracle
    with np.errstate(all="ignore"):
        for new, old in [
            (check_dissipation(record, spec.clf, oracle, mode=mode, eta=0.5,
                               tol=1e-6),
             row_loop_dissipation(record, spec.clf, oracle, mode, 0.5,
                                  1e-6)),
            (check_adjoint_consistency(record, oracle),
             row_loop_adjoint(record, oracle)),
            (check_singular_arc(record), row_loop_singular_arc(record)),
        ]:
            assert same_report(new, old), (new.lines(), old.lines())


@pytest.mark.parametrize("mode", list(DissipationMode))
def test_dissipation_in_row_blocks_is_the_one_block_check(records,
                                                         monkeypatch, mode):
    # every record here fits one block; blocks of 7 rows leave a tail
    for spec, record in records.values():
        assert 7 < len(record.columns["t"]) <= verify._DISSIPATION_ROWS
        assert len(record.columns["t"]) % 7
        whole = check_dissipation(record, spec.clf, QUAD4.oracle, mode=mode,
                                  eta=0.5, tol=1e-6)
        monkeypatch.setattr(verify, "_DISSIPATION_ROWS", 7)
        blocks = check_dissipation(record, spec.clf, QUAD4.oracle,
                                   mode=mode, eta=0.5, tol=1e-6)
        monkeypatch.undo()
        assert same_report(blocks, whole), (blocks.lines(), whole.lines())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_rebuild_equals_its_row_loop(records, name, tmp_path):
    spec, record = records[name]
    path = str(tmp_path / "traj.csv")
    export.write_trajectory_csv(record, path)
    columns = read_trajectory_csv(path)
    rebuilt = trajectory_from_arrays(columns, QUAD4.oracle, spec,
                                     dict(record.meta))
    assert same_bits(rebuilt.columns["u"],
                     row_loop_rebuild_u(columns, QUAD4.oracle, spec))
    assert same_bits(rebuilt.columns["u"], record.columns["u"])


# ---------------------------------------------------------------------------
# a verify op's call counts do not grow with its rows
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch):
    counts = {}

    def counted(name, fn):
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    build = ProblemConfig.build

    def counting_build(problem_config):
        instance = build(problem_config)
        oracle = dataclasses.replace(instance.oracle, **{
            f: counted(f, getattr(instance.oracle, f))
            for f in ("value", "gradient", "hessian")})
        return dataclasses.replace(instance, oracle=oracle)

    monkeypatch.setattr(ProblemConfig, "build", counting_build)
    for module, name in ((export, "evaluate_control"), (verify, "clf_value"),
                         (verify, "lie_derivative")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


@pytest.mark.parametrize("method", [
    {"controller": "min_p_star", "eta": 1.0, "h": 0.01},
    {"controller": "polyak", "gamma_a": 2.0, "gamma_b": 2.0, "h": 0.01,
     "mode": "full_primal_dual"},
], ids=["min_p_star", "polyak_full"])
def test_a_verify_op_makes_the_same_calls_at_any_length(tmp_path,
                                                        monkeypatch, capsys,
                                                        method):
    seen = []
    for t_max in (0.5, 2.0):
        out = tmp_path / f"run-{t_max}"
        doc = {"problem": {"name": "quadratic", "dim": 4, "kappa": 10.0,
                           "seed": 3},
               "method": {"kind": "flow", "t_max": t_max, **method},
               "output": {"out_dir": str(out)},
               "verify": {"dissipation_mode": "rate", "eta": 0.5}}
        cfg = tmp_path / f"run-{t_max}.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert cli.main(["run", str(cfg)]) in (0, 1)
        with monkeypatch.context() as patch:
            counts = _count_calls(patch)
            cli.main(["verify", str(out / "trajectory.csv"), str(cfg)])
        seen.append(counts)
    capsys.readouterr()
    short, long_ = seen
    assert short == long_
    assert short["evaluate_control"] == 1
    assert short["clf_value"] == short["lie_derivative"] == 1
    # the rebuild, dissipation, adjoint consistency and stationarity
    assert short["gradient"] <= 4
