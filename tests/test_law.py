"""The bound control law is the paper's closed form, bit for bit.

The bind of each family type (MinP, MinPStar, Direct) builds a run's law
once. Each law here is compared with its closed form, written out below
from the formulas in the control module's docstring, one state at a
time: u by its bytes, and branch, sigma, drift and rho exactly. A
stacked call must give the same rows, and raise what the first
infeasible row raises. The one-state path every RK4 stage takes is also
pinned to the stacked row by bytes, for dimensions 1 to 64. A run binds
once, and again after each quasi-Newton update, and a law it drops is
freed at once.
"""

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accelflow import flow
from accelflow.clf import ClfParams, _value, clf_value, drift_condition_check
from accelflow.control import (
    ControlResult,
    DeltaMode,
    Direct,
    InfeasibleStateError,
    MinP,
    MinPStar,
    nesterov_flow_controller,
    polyak_controller,
    quasi_newton_flow_controller,
)
from accelflow.flow import FlowMode, StoppingRule, initial_state, integrate
from accelflow.metric import (
    MetricKind,
    MetricSpec,
    metric_solve,
    shift_to_floor,
)
from accelflow.objective import random_log_sum_exp, random_quadratic

DIM = 3
QUADRATIC = random_quadratic(DIM, kappa=20.0, seed=5).oracle
LOG_SUM_EXP = random_log_sum_exp(DIM, terms=5, seed=6).oracle
CLF = ClfParams(a=2.0, b=1.5, c=-0.8)
QN_STATE = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])

#: a Hessian metric whose floor was changed after it was made
REFLOORED = dataclasses.replace(MetricSpec(MetricKind.HESSIAN, eig_floor=50.0),
                                eig_floor=2.0)

#: metric -> (spec, oracle): identity, constant-Hessian, pointwise-Hessian
#: and quasi-Newton metrics, and the Euclidean metric over a Hessian that
#: depends on the point (the drift term, the direct law)
METRICS = {
    "euclidean": (MetricSpec(MetricKind.EUCLIDEAN), QUADRATIC),
    "euclidean_log_sum_exp": (MetricSpec(MetricKind.EUCLIDEAN), LOG_SUM_EXP),
    "constant_hessian": (MetricSpec(MetricKind.HESSIAN, eig_floor=1e-2),
                         QUADRATIC),
    "log_sum_exp_hessian": (MetricSpec(MetricKind.HESSIAN, eig_floor=1e-2),
                            LOG_SUM_EXP),
    "refloored_constant_hessian": (REFLOORED, QUADRATIC),
    "refloored_log_sum_exp_hessian": (REFLOORED, LOG_SUM_EXP),
    "quasi_newton_empty": (MetricSpec(MetricKind.QUASI_NEWTON), QUADRATIC),
    "quasi_newton": (MetricSpec(MetricKind.QUASI_NEWTON, qn_state=QN_STATE),
                     QUADRATIC),
}
FAMILIES = {
    "min_p_constant": lambda m: MinP(CLF, m, delta=0.7),
    "min_p_taper": lambda m: MinP(
        CLF, m, delta=0.7, delta_mode=DeltaMode.TAPER),
    "min_p_fixed_sigma": lambda m: MinP(
        CLF, m, delta_mode=DeltaMode.FIXED_SIGMA, sigma_q=2.0),
    "min_p_star": lambda m: MinPStar(CLF, m, rate_eta=0.5),
    "min_p_star_slow": lambda m: MinPStar(CLF, m, rate_eta=0.01),
}
CASES = [(f, m) for f in FAMILIES for m in METRICS]
# a direct law weights no effort: its metric is always Euclidean
CASES += [("direct", "euclidean"), ("direct", "euclidean_log_sum_exp")]


def build(family, metric):
    """The spec and the oracle its law is bound for."""
    spec_metric, oracle = METRICS[metric]
    spec = (nesterov_flow_controller(3.0, CLF) if family == "direct"
            else FAMILIES[family](spec_metric))
    return spec, oracle


def closed_form(spec, oracle, x, lam, v):
    """(u, branch, sigma, drift, rho) at one state, from the formulas."""
    a, b, c = spec.clf.a, spec.clf.b, spec.clf.c
    d = c * lam + b * v  # grad_v V
    zero = np.zeros_like(v)
    eps = 1e-10 * (1.0 + np.linalg.norm(lam) + np.linalg.norm(v))
    metric = spec.metric
    if metric.kind is MetricKind.EUCLIDEAN or (
            metric.kind is MetricKind.QUASI_NEWTON and metric.qn_state is None):
        z = d + 0.0
    else:
        # a Hessian W is the Hessian at x floored at the spec's eig_floor
        W = (shift_to_floor(oracle.hessian(x), metric.eig_floor)
             if metric.kind is MetricKind.HESSIAN else metric.qn_state)
        with np.errstate(all="ignore"):
            z = metric_solve(W, d)
    if isinstance(spec, Direct):
        u = (spec.gamma_a * lam - spec.gamma_b * v
             - spec.gamma_c * np.matvec(oracle.hessian(x), v))
        return u, "linear", None, None, None
    if isinstance(spec, MinP):
        if np.linalg.norm(d) <= eps:
            return zero, "origin", 0.0, None, None
        if spec.delta_mode is DeltaMode.FIXED_SIGMA:
            sigma = spec.sigma_q
        else:
            budget = spec.delta
            if spec.delta_mode is DeltaMode.TAPER:
                budget = min(budget, np.vecdot(d, d))
            sigma = np.sqrt(budget / np.vecdot(d, z))
        return -sigma * z, "boundary", float(sigma), None, None
    drift = float(np.vecdot(-(a * lam + c * v),
                            np.matvec(oracle.hessian(x), v)))
    rho = spec.rate_eta * float(np.vecdot(0.5 * a * lam, lam)
                                + np.vecdot(0.5 * b * v, v)
                                + np.vecdot(c * lam, v))
    gap = drift + rho
    if gap <= 0.0:
        return zero, "inactive", 0.0, drift, rho
    if not np.linalg.norm(d) > eps:
        report = drift_condition_check(spec.clf, oracle, x, lam, v)
        if report.applicable and not report.holds:
            detail = (f"the drift condition fails there (drift_term = "
                      f"{report.drift_term:.6g} <= 0)")
        else:
            detail = (f"the drift decays but slower than the requested "
                      f"rate (drift = {drift:.6g}, rho = {rho:.6g}); lower "
                      f"rate_eta")
        raise InfeasibleStateError("min_p_star has no control authority on "
                                   "grad_v V = 0 and " + detail, report)
    sigma = gap / np.vecdot(d, z)
    return -sigma * z, "active", float(sigma), drift, rho


def bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


CELLS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(-50.0, 50.0, allow_nan=False))


@st.composite
def states(draw, n_rows):
    """n_rows states (x, lambda, v), some at the origin and some on the
    zero-authority set grad_v V = 0."""
    rows = []
    for _ in range(n_rows):
        x, lam, v = (np.array(draw(st.lists(CELLS, min_size=DIM,
                                            max_size=DIM)))
                     for _ in range(3))
        kind = draw(st.sampled_from(["any", "any", "origin", "no_authority"]))
        if kind == "origin":
            lam, v = np.zeros(DIM), -np.zeros(DIM)
        elif kind == "no_authority":
            v = -(CLF.c / CLF.b) * lam
        rows.append((x, lam, v))
    return tuple(np.array(col) for col in zip(*rows))


def expected_rows(spec, oracle, X, L, V):
    """The closed form row by row, and the first error it raises."""
    out = []
    for k in range(len(X)):
        try:
            out.append(closed_form(spec, oracle, X[k], L[k], V[k]))
        except InfeasibleStateError as e:
            return out, e
    return out, None


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("family, metric", CASES,
                         ids=[f"{f}-{m}" for f, m in CASES])
@given(data=st.data())
def test_the_bound_law_is_the_closed_form(family, metric, data):
    spec, oracle = build(family, metric)
    law = spec.bind(oracle)
    X, L, V = data.draw(states(data.draw(st.integers(1, 5))))
    if data.draw(st.booleans()):
        L = -oracle.gradient(X)  # the costate the flows use
    rows, error = expected_rows(spec, oracle, X, L, V)
    with np.errstate(all="ignore"):
        for k, want in enumerate(rows):
            got = law(X[k], L[k], V[k])
            assert got.u.tobytes() == want[0].tobytes()
            assert got.branch == want[1]
            for field, value in zip(("sigma", "drift", "rho"), want[2:]):
                have = getattr(got, field)
                assert (have is None) == (value is None), field
                if value is not None:
                    assert type(have) is float and bits(have) == bits(value)
        if error is not None:
            k = len(rows)
            with pytest.raises(InfeasibleStateError) as one:
                law(X[k], L[k], V[k])
            with pytest.raises(InfeasibleStateError) as stacked:
                law(X, L, V)
            assert str(one.value) == str(stacked.value) == str(error)
            return
        got = law(X, L, V)
    assert got.u.tobytes() == np.array([r[0] for r in rows]).tobytes()
    assert list(got.branch) == [r[1] for r in rows]
    for i, field in enumerate(("sigma", "drift", "rho"), start=2):
        values = [r[i] for r in rows]
        if values[0] is None:
            assert getattr(got, field) is None
        else:
            assert bits(getattr(got, field)) == bits(values)


#: the one-state fast paths over n in [1, 64]: identity and
#: constant-Hessian metrics, on a quadratic of that dimension
FAST_CASES = [(f, m) for f in FAMILIES
              for m in ("euclidean", "constant_hessian")]
FAST_CASES += [("direct", "euclidean")]


@st.composite
def signed_states(draw, n):
    """1 to 4 states (x, lambda, v) of n entries, with -0.0 entries: some
    at the origin, on or near the boundary of the origin test |grad_v V|
    <= eps_v, and in each min_p_star branch."""
    vector = st.lists(CELLS, min_size=n, max_size=n).map(np.array)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        x, lam, v = draw(vector), draw(vector), draw(vector)
        kind = draw(st.sampled_from(["any", "origin", "no_authority",
                                     "origin_test_boundary", "inactive",
                                     "active"]))
        if kind == "origin":
            lam, v = np.zeros(n), -np.zeros(n)
        elif kind == "no_authority":
            v = -(CLF.c / CLF.b) * lam
        elif kind == "origin_test_boundary":
            # grad_v V = offset, whose norm is eps_v scaled by a factor
            # just under or over 1
            v = -(CLF.c / CLF.b) * lam
            eps = 1e-10 * (1.0 + np.linalg.norm(lam) + np.linalg.norm(v))
            offset = np.zeros(n)
            offset[draw(st.integers(0, n - 1))] = eps * draw(
                st.sampled_from([0.5, 0.999999, 1.000001, 2.0]))
            v = v + offset / CLF.b
        elif kind == "inactive":
            # (a lambda + c v) . Hv outgrows the certificate: no control
            lam = draw(st.floats(1.0, 5.0)) * v
        elif kind == "active":
            v = -np.zeros(n)  # no drift, a positive certificate
        rows.append((x, lam, v))
    return tuple(np.array(col) for col in zip(*rows))


def fields(result):
    return (result.u.tobytes(), bits(result.sigma), bits(result.drift),
            bits(result.rho))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("family, metric", FAST_CASES,
                         ids=[f"{f}-{m}" for f, m in FAST_CASES])
@given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 16), data=st.data())
def test_the_one_state_law_is_the_stacked_row(family, metric, n, seed, data):
    oracle = random_quadratic(n, kappa=20.0, seed=seed).oracle
    spec_metric = METRICS[metric][0]
    spec = (nesterov_flow_controller(3.0, CLF) if family == "direct"
            else FAMILIES[family](spec_metric))
    law = spec.bind(oracle)
    X, L, V = data.draw(signed_states(n))
    if data.draw(st.booleans()):
        L = -oracle.gradient(X)  # the costate the flows use
    with np.errstate(all="ignore"):
        rows = []
        for k in range(len(X)):
            try:
                rows.append(law(X[k], L[k], V[k]))
            except InfeasibleStateError as e:
                with pytest.raises(InfeasibleStateError) as stacked:
                    law(X, L, V)
                assert str(stacked.value) == str(e)
                return
        got = law(X, L, V)
    for k, one in enumerate(rows):
        assert one.branch == got.branch[k]
        assert fields(one) == (got.u[k].tobytes(),) + tuple(
            None if col is None else bits(col[k])
            for col in (got.sigma, got.drift, got.rho))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), data=st.data())
def test_the_unchecked_certificate_value_is_clf_value(n, data):
    vector = st.lists(CELLS, min_size=n, max_size=n).map(np.array)
    L, V = (np.array(data.draw(st.lists(vector, min_size=1, max_size=4)))
            for _ in range(2))
    if len(L) != len(V):
        L = L[:1].repeat(len(V), axis=0)
    # as min_p_star's law holds them: 0-d arrays, 0.5 a and 0.5 b folded
    half_a, half_b, c = (np.array(k) for k in (0.5 * CLF.a, 0.5 * CLF.b,
                                              CLF.c))
    stacked = clf_value(CLF, L, V)
    assert _value(half_a, half_b, c * L, L, V).tobytes() == stacked.tobytes()
    for k in range(len(L)):
        one = _value(half_a, half_b, c * L[k], L[k], V[k])
        assert bits(one) == bits(clf_value(CLF, L[k], V[k])) \
            == bits(stacked[k])


def test_a_control_result_refuses_an_undeclared_field():
    result = ControlResult(np.zeros(2), "origin", 0.0)
    with pytest.raises(AttributeError):
        result.branches = "origin"
    assert not hasattr(result, "__dict__")


@pytest.mark.parametrize("family, metric", CASES,
                         ids=[f"{f}-{m}" for f, m in CASES])
def test_a_law_leaves_no_reference_cycle(family, metric):
    # a quasi-Newton run drops one law, with its matrix, per step: a law
    # in a cycle would hold them until the cycle collector runs
    spec, oracle = build(family, metric)
    X = np.arange(2.0 * DIM).reshape(2, DIM) / 7.0
    gc.collect()
    gc.disable()
    try:
        law = spec.bind(oracle)
        law(X[0], -oracle.gradient(X[0]), X[1])
        law(X, -oracle.gradient(X), X[::-1].copy())
        del law
        assert gc.collect() == 0
    finally:
        gc.enable()


RUN_FOREVER = StoppingRule(tol_g=0.0, tol_v=0.0)


@pytest.mark.parametrize("mode", list(FlowMode))
@pytest.mark.parametrize("spec", [
    polyak_controller(2.0, 2.0),
    nesterov_flow_controller(2.0),
    MinPStar(metric=MetricSpec(MetricKind.HESSIAN)),
    quasi_newton_flow_controller(2.0, 2.0),
], ids=["polyak", "nesterov", "min_p_star_hessian", "quasi_newton"])
def test_a_run_binds_once_and_again_after_each_quasi_newton_update(
        spec, mode, monkeypatch):
    calls = {"bind": 0, "checked": 0, "update": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    family = type(spec)
    monkeypatch.setattr(family, "bind", counted("bind", family.bind))
    for key, name in (("checked", "evaluate_control"),
                      ("update", "quasi_newton_update")):
        monkeypatch.setattr(flow, name, counted(key, getattr(flow, name)))
    prob = random_quadratic(4, kappa=5.0, seed=2)
    rec = integrate(spec, prob.oracle, initial_state(prob.oracle, prob.x0),
                    h=1e-2, t_max=0.5, mode=mode, stop=RUN_FOREVER)
    assert rec.meta["steps_taken"] == 50
    qn = spec.metric.kind is MetricKind.QUASI_NEWTON
    assert calls["update"] == (50 if qn else 0)
    # the run's one law, which the checked start evaluation is given
    assert calls["checked"] == 1
    assert calls["bind"] == 1 + calls["update"]
