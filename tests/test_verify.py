"""Diagnostic checks: recomputation honesty, pass/fail logic, edge cases."""

import dataclasses

import numpy as np
import pytest

from accelflow.clf import DEFAULT_CLF, ClfParams
from accelflow.config import VerifyConfig
from accelflow.control import (
    Direct,
    MinPStar,
    polyak_controller,
)
from accelflow.discrete import (
    cg_iterate,
    constant,
    exact_line_search_alpha,
    fletcher_reeves_beta,
    heavy_ball_iterate,
)
from accelflow.export import read_trajectory_csv, write_trajectory_csv
from accelflow.flow import (
    FlowMode,
    Integrator,
    StoppingRule,
    initial_state,
    integrate,
)
from accelflow.objective import quadratic_problem, random_quadratic
from accelflow.verify import (
    CHECKS,
    CheckStatus,
    DissipationMode,
    check_adjoint_consistency,
    check_dissipation,
    check_singular_arc,
    check_stationarity,
    order_tolerance,
    run_checks,
)


@pytest.fixture(scope="module")
def quad4():
    return random_quadratic(dim=4, kappa=5.0, seed=2)


@pytest.fixture(scope="module")
def min_p_star_record(quad4):
    spec = MinPStar(rate_eta=1.0)
    return integrate(spec, quad4.oracle, initial_state(quad4.oracle, quad4.x0),
                     h=1e-3, t_max=5.0, method=Integrator.RK4,
                     mode=FlowMode.REDUCED,
                     stop=StoppingRule(tol_g=1e-12, tol_v=1e-12))


@pytest.fixture(scope="module")
def full_mode_record(quad4):
    spec = polyak_controller(gamma_a=2.0, gamma_b=2.0)
    return integrate(spec, quad4.oracle, initial_state(quad4.oracle, quad4.x0),
                     h=1e-3, t_max=5.0, method=Integrator.RK4,
                     mode=FlowMode.FULL_PRIMAL_DUAL,
                     stop=StoppingRule(tol_g=1e-14, tol_v=1e-14))


@pytest.fixture(scope="module")
def perturbed_full_record(quad4):
    # Offset the costate from -grad E at launch; the offset is conserved
    # by the adjoint dynamics, so downstream checks must catch it.
    spec = polyak_controller(gamma_a=2.0, gamma_b=2.0)
    s0 = initial_state(quad4.oracle, quad4.x0)
    bump = np.zeros(4)
    bump[0] = 1e-3
    s0 = dataclasses.replace(s0, lambda_x=s0.lambda_x + bump)
    return integrate(spec, quad4.oracle, s0, h=1e-3, t_max=5.0,
                     method=Integrator.RK4, mode=FlowMode.FULL_PRIMAL_DUAL,
                     stop=StoppingRule(tol_g=1e-14, tol_v=1e-14))


def equilibrium_record(mode=FlowMode.REDUCED):
    prob = quadratic_problem(Q=np.diag([1.0, 2.0]))
    spec = polyak_controller(gamma_a=1.0, gamma_b=1.0)
    return prob, integrate(spec, prob.oracle,
                           initial_state(prob.oracle, prob.x_star),
                           h=1e-2, t_max=1.0, method=Integrator.RK4,
                           mode=mode, stop=StoppingRule())


class TestDissipation:
    def test_strict_passes_for_matching_certificate(self, quad4):
        ctrl = Direct(1.0, 1.0, 2.0)
        rng = np.random.default_rng(0)
        for _ in range(4):
            x0 = quad4.x_star + rng.uniform(-2, 2, size=4)
            v0 = rng.uniform(-2, 2, size=4)
            rec = integrate(ctrl, quad4.oracle,
                            initial_state(quad4.oracle, x0, v0), h=1e-2,
                            t_max=2.0, method=Integrator.RK4,
                            mode=FlowMode.REDUCED, stop=StoppingRule())
            rep = check_dissipation(rec, DEFAULT_CLF, quad4.oracle,
                                    mode=DissipationMode.STRICT)
            assert rep.ok

    def test_strict_flags_mismatched_certificate(self, quad4):
        # Gains tuned for the stock certificate violate one demanding
        # K_c = a/c = -8; some start state must expose positive lieV.
        ctrl = Direct(1.0, 1.0, 2.0)
        mismatched = ClfParams(a=8.0, b=1.0, c=-1.0)
        rng = np.random.default_rng(0)
        failures = 0
        for _ in range(8):
            x0 = quad4.x_star + rng.uniform(-2, 2, size=4)
            v0 = rng.uniform(-2, 2, size=4)
            rec = integrate(ctrl, quad4.oracle,
                            initial_state(quad4.oracle, x0, v0), h=1e-2,
                            t_max=2.0, method=Integrator.RK4,
                            mode=FlowMode.REDUCED, stop=StoppingRule())
            rep = check_dissipation(rec, mismatched, quad4.oracle,
                                    mode=DissipationMode.STRICT)
            strict = [c for c in rep.checks
                      if c.name == "dissipation_strict"][0]
            if strict.status is CheckStatus.FAILED:
                failures += 1
                assert strict.worst_value > 0.0
        assert failures >= 1

    def test_strict_vacuous_at_equilibrium(self):
        prob, rec = equilibrium_record()
        assert len(rec.columns["t"]) == 1
        rep = check_dissipation(rec, DEFAULT_CLF, prob.oracle,
                                mode=DissipationMode.STRICT)
        strict = [c for c in rep.checks if c.name == "dissipation_strict"][0]
        assert strict.status is CheckStatus.PASSED
        assert "no samples" in strict.detail

    def test_rate_passes_at_design_rate(self, quad4, min_p_star_record):
        rep = check_dissipation(min_p_star_record, DEFAULT_CLF, quad4.oracle,
                                mode=DissipationMode.RATE, eta=1.0, tol=1e-6)
        assert rep.ok
        names = [c.name for c in rep.checks]
        assert "dissipation_rate" in names
        assert "dissipation_envelope" in names

    @pytest.mark.parametrize("mode,tol", [(DissipationMode.RATE, 1e-6),
                                          (DissipationMode.STRICT, 1e-12)])
    def test_default_tolerance_follows_the_mode(self, quad4,
                                                min_p_star_record, mode,
                                                tol):
        # a library call and a verify block without tol read the same
        # default; cached_diagnostics keeps its own 1e-12
        rep = check_dissipation(min_p_star_record, DEFAULT_CLF, quad4.oracle,
                                mode=mode)
        assert [c.tolerance for c in rep.checks[1:]] == \
            [tol] * (len(rep.checks) - 1)
        assert run_checks(min_p_star_record, quad4.oracle, DEFAULT_CLF,
                          ["dissipation"],
                          VerifyConfig(dissipation_mode=mode)) == rep

    def test_rate_fails_above_design_rate(self, quad4, min_p_star_record):
        rep = check_dissipation(min_p_star_record, DEFAULT_CLF, quad4.oracle,
                                mode=DissipationMode.RATE, eta=2.0, tol=1e-6)
        rate = [c for c in rep.checks if c.name == "dissipation_rate"][0]
        assert rate.status is CheckStatus.FAILED
        assert rate.worst_value > 1.0

    def test_cached_diagnostics_catch_tampering(self, quad4,
                                                min_p_star_record):
        rec = min_p_star_record
        V = rec.columns["V"].copy()
        V[3] = V[3] + 1.0
        tampered = dataclasses.replace(rec, columns={**rec.columns, "V": V})
        rep = check_dissipation(tampered, DEFAULT_CLF, quad4.oracle,
                                mode=DissipationMode.STRICT)
        cached = [c for c in rep.checks if c.name == "cached_diagnostics"][0]
        assert cached.status is CheckStatus.FAILED

    def test_cached_diagnostics_clean_on_real_run(self, quad4,
                                                  min_p_star_record):
        rep = check_dissipation(min_p_star_record, DEFAULT_CLF, quad4.oracle,
                                mode=DissipationMode.STRICT)
        cached = [c for c in rep.checks if c.name == "cached_diagnostics"][0]
        assert cached.status is CheckStatus.PASSED
        assert cached.worst_value <= 1e-12


def with_nan_row(record, column, k):
    """The record with row k of one column set to nan."""
    values = record.columns[column].copy()
    values[k] = np.nan
    return dataclasses.replace(record,
                               columns={**record.columns, column: values})


class TestNonFiniteValuesFail:
    # a comparison with nan is false, so a plain maximum skips it; every
    # check must fail at the first sample holding one
    @pytest.mark.parametrize("check,column,mode", [
        ("cached_diagnostics", "lieV", DissipationMode.RATE),
        ("dissipation_strict", "u", DissipationMode.STRICT),
        ("dissipation_strict", "v", DissipationMode.STRICT),
        ("dissipation_rate", "u", DissipationMode.RATE),
        ("dissipation_envelope", "x", DissipationMode.RATE),
    ])
    def test_dissipation(self, quad4, min_p_star_record, check, column,
                         mode):
        rec = with_nan_row(min_p_star_record, column, 7)
        rep = check_dissipation(rec, DEFAULT_CLF, quad4.oracle, mode=mode,
                                tol=1e-6)
        result = next(c for c in rep.checks if c.name == check)
        assert result.status is CheckStatus.FAILED
        assert result.location == rec.columns["t"][7]
        assert result.detail == "non-finite value"

    def test_a_nan_initial_certificate_fails_the_envelope(self, quad4,
                                                          min_p_star_record):
        # lambda = v = 1e200 (1, 1, 1, 1) at t0: each term of V overflows,
        # inf + inf - inf is nan, and a nan V(t0) is not a vacuous envelope
        cols = {k: c.copy() for k, c in min_p_star_record.columns.items()}
        grad = -1e200 * np.ones(4)
        H = quad4.oracle.hessian(quad4.x0)
        cols["x"][0] = quad4.x_star + np.linalg.solve(H, grad)
        cols["v"][0] = 1e200
        rec = dataclasses.replace(min_p_star_record, columns=cols)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check_dissipation(rec, DEFAULT_CLF, quad4.oracle,
                                    mode=DissipationMode.RATE, tol=1e-6)
        result = next(c for c in rep.checks
                      if c.name == "dissipation_envelope")
        assert result.status is CheckStatus.FAILED
        assert result.location == rec.columns["t"][0]
        assert result.detail == "non-finite value"

    @pytest.mark.parametrize("column,check", [
        ("lambda_x", lambda rec, oracle: check_adjoint_consistency(rec,
                                                                   oracle)),
        ("lambda_v", lambda rec, oracle: check_singular_arc(rec)),
    ], ids=["adjoint_consistency", "singular_arc"])
    def test_costate_checks(self, quad4, full_mode_record, column, check):
        rec = with_nan_row(full_mode_record, column, 7)
        (result,) = check(rec, quad4.oracle).checks
        assert result.status is CheckStatus.FAILED
        assert result.location == rec.columns["t"][7]
        assert result.detail == "non-finite value"


class TestAdjointConsistency:
    def test_reduced_mode_not_applicable(self, quad4, min_p_star_record):
        rep = check_adjoint_consistency(min_p_star_record, quad4.oracle)
        assert rep.checks[0].status is CheckStatus.NOT_APPLICABLE

    def test_clean_full_run_passes(self, quad4, full_mode_record):
        rep = check_adjoint_consistency(full_mode_record, quad4.oracle)
        c = rep.checks[0]
        assert c.status is CheckStatus.PASSED
        assert c.worst_value <= 1e-10
        assert c.tolerance == pytest.approx(1e3 * (1e-3) ** 4)

    def test_perturbation_persists(self, quad4, perturbed_full_record):
        # The identity residual obeys d/dt (lambda_x + grad E) = 0, so an
        # initial offset of 1e-3 must survive the whole run.
        rep = check_adjoint_consistency(perturbed_full_record, quad4.oracle)
        c = rep.checks[0]
        assert c.status is CheckStatus.FAILED
        assert 0.5e-3 <= c.worst_value <= 2e-3


class TestSingularArc:
    def test_reduced_mode_not_applicable(self, quad4, min_p_star_record):
        rep = check_singular_arc(min_p_star_record)
        assert rep.checks[0].status is CheckStatus.NOT_APPLICABLE

    def test_clean_full_run_passes(self, full_mode_record):
        c = check_singular_arc(full_mode_record).checks[0]
        assert c.status is CheckStatus.PASSED
        assert c.worst_value <= 1e-8

    def test_perturbation_grows_linearly(self, perturbed_full_record):
        # lambda_v integrates the conserved residual, so by t = 5 the
        # worst value sits near delta * t = 5e-3.
        c = check_singular_arc(perturbed_full_record).checks[0]
        assert c.status is CheckStatus.FAILED
        assert 2.5e-3 <= c.worst_value <= 1e-2
        assert c.location == pytest.approx(5.0, abs=0.1)

    def test_equilibrium_trajectory_zero(self):
        _, rec = equilibrium_record(mode=FlowMode.FULL_PRIMAL_DUAL)
        c = check_singular_arc(rec).checks[0]
        assert c.status is CheckStatus.PASSED
        assert c.worst_value == 0.0

    @pytest.mark.parametrize("h", [0.02, 0.01, 0.005])
    def test_tolerance_follows_the_integrators_order(self, h):
        # lambda_v misses zero by RK4's error, 3.7e-5, 2.0e-6 and 1.1e-7
        # here: both costate checks take coeff * h**4 for it
        prob = random_quadratic(4, 10.0, seed=3)
        rec = integrate(MinPStar(rate_eta=1.0), prob.oracle,
                        initial_state(prob.oracle, prob.x0), h=h, t_max=1.0,
                        method=Integrator.RK4, mode=FlowMode.FULL_PRIMAL_DUAL)
        (arc,) = check_singular_arc(rec).checks
        (adjoint,) = check_adjoint_consistency(rec, prob.oracle).checks
        assert arc.status is CheckStatus.PASSED
        assert arc.tolerance == adjoint.tolerance
        assert arc.tolerance == pytest.approx(1e3 * h ** 4)


def test_a_record_without_a_mode_is_checked_as_it_is_written(
        quad4, min_p_star_record, tmp_path):
    # the writer leaves the costates out of a record whose meta names no
    # mode, and the costate checks find none to check
    rec = dataclasses.replace(min_p_star_record, meta={"dim": 4})
    write_trajectory_csv(rec, str(tmp_path / "t.csv"))
    assert "lambda_x" not in read_trajectory_csv(str(tmp_path / "t.csv"))
    for rep in (check_adjoint_consistency(rec, quad4.oracle),
                check_singular_arc(rec)):
        assert rep.checks[0].status is CheckStatus.NOT_APPLICABLE


class TestStationarity:
    def test_converged_run_passes(self):
        prob = quadratic_problem(Q=np.diag([1.0, 3.0]))
        spec = polyak_controller(gamma_a=4.0, gamma_b=4.0)
        rec = integrate(spec, prob.oracle, initial_state(prob.oracle, prob.x0),
                        h=1e-2, t_max=100.0, method=Integrator.RK4,
                        mode=FlowMode.REDUCED, stop=StoppingRule())
        assert rec.converged
        rep = check_stationarity(rec, prob.oracle)
        assert rep.ok
        assert {c.name for c in rep.checks} == {"stationarity_grad",
                                                "stationarity_velocity"}

    def test_truncated_run_fails_with_residual(self):
        prob = quadratic_problem(Q=np.diag([1.0, 3.0]))
        spec = polyak_controller(gamma_a=4.0, gamma_b=4.0)
        rec = integrate(spec, prob.oracle, initial_state(prob.oracle, prob.x0),
                        h=1e-2, t_max=0.1, method=Integrator.RK4,
                        mode=FlowMode.REDUCED, stop=StoppingRule())
        assert not rec.converged
        rep = check_stationarity(rec, prob.oracle)
        grad = [c for c in rep.checks if c.name == "stationarity_grad"][0]
        assert grad.status is CheckStatus.FAILED
        assert grad.worst_value > grad.tolerance

    def test_equilibrium_start_passes_immediately(self):
        prob, rec = equilibrium_record()
        assert check_stationarity(rec, prob.oracle).ok

    def test_divergence_flag_fails_the_check(self):
        prob = quadratic_problem(Q=np.diag([1.0, 2.0]))
        spec = polyak_controller(gamma_a=1e8, gamma_b=1e4)
        rec = integrate(spec, prob.oracle, initial_state(prob.oracle, prob.x0),
                        h=1e-2, t_max=1.0, method=Integrator.RK4,
                        mode=FlowMode.REDUCED, stop=StoppingRule())
        assert rec.diverged
        rep = check_stationarity(rec, prob.oracle)
        assert not rep.ok
        assert all("divergence flag set" in c.detail for c in rep.checks)

    def test_iterate_sequence_passes(self):
        prob = quadratic_problem(Q=np.array([[3.0, 0.5], [0.5, 1.0]]))
        seq = cg_iterate(prob.oracle, prob.x0, 5, exact_line_search_alpha,
                         fletcher_reeves_beta, tol_g=1e-10)
        rep = check_stationarity(seq, prob.oracle, tol_g=1e-10)
        assert rep.ok

    def test_a_diverged_iterate_sequence_fails(self):
        # the run stops at its last iterate within the divergence limit:
        # the check fails on the flag, at that iterate's gradient norm
        prob = quadratic_problem(Q=np.array([[1.0]]))
        seq = heavy_ball_iterate(prob.oracle, np.array([1.0]), 500,
                                 constant(5.0), constant(0.5))
        assert seq.diverged and np.isfinite(seq.points[-1]).all()
        rep = check_stationarity(seq, prob.oracle)
        c = rep.checks[0]
        assert c.status is CheckStatus.FAILED
        assert c.detail == "divergence flag set"
        assert c.worst_value == seq.grad_norms[-1]


class TestReportMechanics:
    def test_order_tolerance(self, quad4, full_mode_record):
        assert order_tolerance(full_mode_record, 1e3) == pytest.approx(1e-9)
        spec = polyak_controller(gamma_a=1.0, gamma_b=1.0)
        rec = integrate(spec, quad4.oracle,
                        initial_state(quad4.oracle, quad4.x0), h=1e-2,
                        t_max=0.1, method=Integrator.SEMI_IMPLICIT_EULER,
                        mode=FlowMode.REDUCED, stop=StoppingRule())
        assert order_tolerance(rec, 1e3) == pytest.approx(10.0)

    def test_run_checks_merges_everything(self, quad4, full_mode_record):
        rep = run_checks(full_mode_record, quad4.oracle, DEFAULT_CLF,
                         ["dissipation", "adjoint_consistency",
                          "singular_arc", "stationarity"], VerifyConfig())
        names = {c.name for c in rep.checks}
        assert {"cached_diagnostics", "dissipation_strict",
                "adjoint_consistency", "singular_arc",
                "stationarity_grad"} <= names
        assert rep.n_passed + rep.n_failed + rep.n_not_applicable == \
            len(rep.checks)

    def test_the_checks_read_every_verify_setting(self, quad4,
                                                  full_mode_record):
        # a verify block value that no check reads would be a dead knob
        read = set()

        class Recording:
            def __getattr__(self, name):
                read.add(name)
                return getattr(VerifyConfig(), name)

        for check in CHECKS.values():
            check(full_mode_record, quad4.oracle, DEFAULT_CLF, Recording())
        assert read == {f.name for f in dataclasses.fields(VerifyConfig)
                        if f.name != "checks"}

    def test_run_checks_rejects_unknown_name(self, quad4, full_mode_record):
        with pytest.raises(ValueError, match="unknown check"):
            run_checks(full_mode_record, quad4.oracle, DEFAULT_CLF,
                       ["dissipation", "spectral_gap"], VerifyConfig())

    def test_lines_and_dict_round_trip(self, quad4, min_p_star_record):
        rep = check_dissipation(min_p_star_record, DEFAULT_CLF, quad4.oracle,
                                mode=DissipationMode.RATE, eta=1.0, tol=1e-6)
        lines = rep.lines()
        assert any(line.startswith("PASS dissipation_rate") for line in lines)
        assert lines[-1].endswith("not applicable")
        d = rep.to_dict()
        assert d["summary"]["failed"] == 0
        assert len(d["checks"]) == len(rep.checks)
