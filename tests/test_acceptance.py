"""End-to-end checks tying the controllers, flows, and discretizations together.

Each test prints a single PASS/FAIL line with the worst measured value,
so running this file with pytest -s doubles as a numeric report. Every
tolerance here is load-bearing; loosening one to make a failure go away
defeats the point of the file.
"""

import numpy as np

from accelflow.clf import DEFAULT_CLF, ClfParams, drift_condition_check, lie_derivative
from accelflow.control import (
    MinP,
    MinPStar,
    accelerated_newton_controller,
    evaluate_control,
    gains_from_sigma,
    nesterov_flow_controller,
    polyak_controller,
    quasi_newton_flow_controller,
)
from accelflow.discrete import (
    cg_iterate,
    cg_to_momentum,
    exact_line_search_alpha,
    fletcher_reeves_beta,
    heavy_ball_iterate,
    nesterov_one_step_iterate,
    nesterov_two_step_iterate,
)
from accelflow.flow import FlowMode, StoppingRule, initial_state, integrate
from accelflow.metric import (
    MetricKind,
    MetricSpec,
    metric_matrix,
    metric_solve,
    quasi_newton_update,
)
from accelflow.objective import (
    random_log_sum_exp,
    random_quadratic,
    rosenbrock_problem,
)
from finite_diff import finite_diff_gradient, finite_diff_hessian


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def seeded_qn_metric(oracle, rng, n_pairs: int = 4) -> MetricSpec:
    """A nontrivial but deterministic quasi-Newton metric state."""
    spec = MetricSpec(MetricKind.QUASI_NEWTON, eig_floor=1e-6)
    H = oracle.hessian(np.zeros(oracle.dim))
    for _ in range(n_pairs):
        s = rng.standard_normal(oracle.dim)
        spec = quasi_newton_update(spec, s, H @ s)
    return spec


def all_metrics(oracle, rng) -> dict[str, MetricSpec]:
    return {
        "euclidean": MetricSpec(MetricKind.EUCLIDEAN),
        "hessian": MetricSpec(MetricKind.HESSIAN, eig_floor=1e-6),
        "quasi_newton": seeded_qn_metric(oracle, rng),
    }


def test_nesterov_one_and_two_step_forms_coincide():
    quad = random_quadratic(10, 100.0, seed=3)
    alpha = 1.0 / float(np.linalg.eigvalsh(
        quad.oracle.hessian(quad.x0))[-1])
    one = nesterov_one_step_iterate(quad.oracle, quad.x0, 200,
                                    lambda k: alpha, lambda k: 0.9)
    two = nesterov_two_step_iterate(quad.oracle, quad.x0, 200,
                                    lambda k: alpha, lambda k: 0.9)
    worst = max(float(np.max(np.abs(a - b)))
                for a, b in zip(one.points, two.points))
    report("nesterov-form-equivalence", worst <= 1e-12,
           f"max deviation {worst:.2e} over {len(one.points)} iterates "
           f"(tol 1e-12)")


def test_cg_is_momentum_with_mapped_coefficients():
    quad = random_quadratic(10, 100.0, seed=3)

    def alpha_of(k):
        return 0.01 * (1.0 + 0.1 * np.sin(float(k)))

    def beta_cg_of(k):
        return 0.3 + 0.2 * np.cos(float(k))

    cg = cg_iterate(quad.oracle, quad.x0, 100,
                    lambda o, k, x, g, v: alpha_of(k),
                    lambda o, k, g, gp: beta_cg_of(k))

    def hb_beta(k):
        if k == 0:
            return 0.0
        return cg_to_momentum(alpha_of(k), alpha_of(k - 1), beta_cg_of(k))

    hb = heavy_ball_iterate(quad.oracle, quad.x0, 100,
                            lambda k: alpha_of(k), hb_beta)
    worst = max(float(np.max(np.abs(a - b)))
                for a, b in zip(cg.points, hb.points))

    mild = random_quadratic(10, 10.0, seed=3)
    finite = cg_iterate(mild.oracle, mild.x0, 10, exact_line_search_alpha,
                        fletcher_reeves_beta, tol_g=1e-10)
    steps = len(finite.points) - 1
    g_final = float(np.linalg.norm(mild.oracle.gradient(finite.points[-1])))
    term_ok = steps <= 10 and g_final <= 1e-10

    report("cg-momentum-identity", worst <= 1e-12 and term_ok,
           f"max deviation {worst:.2e} over 100 steps (tol 1e-12); "
           f"exact line search finished in {steps} steps with "
           f"|g| = {g_final:.2e} (needs <= 10 steps, 1e-10)")


def test_budget_constraint_is_active_for_every_metric():
    quad = random_quadratic(6, 10.0, seed=5)
    rng = np.random.default_rng(2)
    delta = 1.0
    worst_by_metric = {}
    for name, metric in all_metrics(quad.oracle, rng).items():
        spec = MinP(metric=metric, delta=delta)
        worst = 0.0
        n_boundary = 0
        for _ in range(10_000):
            x = rng.uniform(-2.0, 2.0, 6)
            v = rng.uniform(-2.0, 2.0, 6)
            res = evaluate_control(spec, quad.oracle, x,
                                   -quad.oracle.gradient(x), v)
            if res.branch == "boundary":
                n_boundary += 1
                W = metric_matrix(metric, quad.oracle, x)
                worst = max(worst,
                            abs(float(res.u @ W @ res.u) - delta) / delta)
        worst_by_metric[name] = (worst, n_boundary)
    ok = all(w <= 1e-10 and n == 10_000
             for w, n in worst_by_metric.values())
    detail = ", ".join(f"{name} {w:.2e} ({n}/10000 active)"
                       for name, (w, n) in worst_by_metric.items())
    report("budget-activity", ok, f"worst relative error {detail} "
                                  f"(tol 1e-10)")


def test_rate_controller_puts_decay_exactly_at_target():
    quad = random_quadratic(6, 10.0, seed=5)
    rng = np.random.default_rng(4)
    spec = MinPStar(rate_eta=1.0)
    worst_active = 0.0
    worst_inactive = -np.inf
    n_active = n_inactive = 0
    for _ in range(10_000):
        x = rng.uniform(-1.0, 1.0, 6)
        v = rng.uniform(-1.0, 1.0, 6)
        lam = -quad.oracle.gradient(x)
        res = evaluate_control(spec, quad.oracle, x, lam, v)
        lie = lie_derivative(DEFAULT_CLF, quad.oracle, x, lam, v, res.u)
        if res.branch == "active":
            n_active += 1
            worst_active = max(worst_active, abs(lie + res.rho))
        else:
            n_inactive += 1
            assert np.all(res.u == 0.0)
            worst_inactive = max(worst_inactive, lie + res.rho)
    ok = (n_active > 0 and n_inactive > 0
          and worst_active <= 1e-10 and worst_inactive <= 1e-12)
    report("rate-exactness", ok,
           f"active: worst |lieV + rho| {worst_active:.2e} over {n_active} "
           f"states (tol 1e-10); inactive: worst lieV + rho "
           f"{worst_inactive:.2e} over {n_inactive} states (needs <= 0)")


def test_min_principle_controls_reduce_to_linear_feedback():
    quad = random_quadratic(6, 10.0, seed=5)
    rng = np.random.default_rng(6)
    worst = 0.0
    worst_at = ""
    for name, metric in all_metrics(quad.oracle, rng).items():
        controllers = (("min_p", MinP(metric=metric, delta=1.0)),
                       ("min_p_star",
                        MinPStar(metric=metric, rate_eta=1.0)))
        for label, spec in controllers:
            for _ in range(1_000):
                x = rng.uniform(-1.0, 1.0, 6)
                v = rng.uniform(-1.0, 1.0, 6)
                g = quad.oracle.gradient(x)
                res = evaluate_control(spec, quad.oracle, x, -g, v)
                if res.sigma is None or res.sigma == 0.0:
                    expected = np.zeros(6)
                else:
                    ga, gb = gains_from_sigma(DEFAULT_CLF, res.sigma)
                    W = metric_matrix(metric, quad.oracle, x)
                    expected = -metric_solve(W, ga * g + gb * v)
                dev = float(np.max(np.abs(res.u - expected)))
                if dev > worst:
                    worst, worst_at = dev, f"{label}/{name}"
    report("feedback-form", worst <= 1e-12,
           f"worst componentwise gap {worst:.2e} at {worst_at} "
           f"(tol 1e-12, 1000 states x 3 metrics x 2 controllers)")


def test_rate_certificate_holds_along_the_flow():
    quad = random_quadratic(10, 100.0, seed=3)
    spec = MinPStar(rate_eta=1.0)
    record = integrate(spec, quad.oracle,
                       initial_state(quad.oracle, quad.x0), 1e-3, 20.0,
                       stop=StoppingRule(tol_g=1e-12, tol_v=1e-12))
    cols = record.columns
    v0 = cols["V"][0]
    worst = max(V / (v0 * np.exp(-t)) for V, t in zip(cols["V"], cols["t"]))
    report("exponential-envelope", worst <= 1.0 + 1e-6,
           f"max V(t) / (V(0) e^-t) = 1 + {worst - 1.0:.2e} over "
           f"{len(cols['t'])} samples (tol 1e-6)")


def test_named_flows_converge_on_benchmarks():
    quad = random_quadratic(10, 100.0, seed=3)
    rosen = rosenbrock_problem(x0=np.array([-1.2, 1.0]))
    runs = [
        ("quad/momentum", quad, polyak_controller(10.0, 10.0), 0.01, 1e-6),
        ("quad/newton", quad,
         accelerated_newton_controller(25.0, 100.0), 0.01, 1e-6),
        ("quad/quasi-newton", quad,
         quasi_newton_flow_controller(25.0, 100.0), 0.01, 1e-6),
        ("quad/nesterov", quad, nesterov_flow_controller(10.0), 0.01, 1e-6),
        ("rosen/momentum", rosen,
         polyak_controller(10.0, 10.0), 5e-3, 1e-4),
        ("rosen/newton", rosen,
         accelerated_newton_controller(25.0, 100.0, eig_floor=1.0),
         5e-3, 1e-4),
        ("rosen/quasi-newton", rosen,
         quasi_newton_flow_controller(25.0, 100.0, eig_floor=1.0),
         5e-3, 1e-4),
        ("rosen/nesterov", rosen, nesterov_flow_controller(10.0),
         5e-4, 1e-4),
    ]
    failures = []
    slowest = ("", 0.0)
    for label, prob, spec, h, tol in runs:
        record = integrate(spec, prob.oracle,
                           initial_state(prob.oracle, prob.x0), h, 1e3,
                           stop=StoppingRule(tol_g=tol, tol_v=tol),
                           record_stride=1000)
        g = float(np.linalg.norm(prob.oracle.gradient(record.columns["x"][-1])))
        t_final = float(record.meta["t_final"])
        if not (record.converged and g <= tol and t_final < 1e3):
            failures.append(f"{label} (|g|={g:.2e}, t={t_final:.0f})")
        if t_final > slowest[1]:
            slowest = (label, t_final)
    report("flow-convergence", not failures,
           f"all 8 flows reached tolerance before t=1e3 "
           f"(slowest {slowest[0]} at t={slowest[1]:.0f})"
           if not failures else "failed: " + ", ".join(failures))


def test_costate_residuals_vanish_at_integrator_order():
    quad = random_quadratic(10, 10.0, seed=7)
    spec = polyak_controller(2.0, 2.0)
    stop = StoppingRule(tol_g=1e-12, tol_v=1e-12)
    results = {}
    for h in (2e-3, 1e-3):
        record = integrate(spec, quad.oracle,
                           initial_state(quad.oracle, quad.x0), h, 20.0,
                           mode=FlowMode.FULL_PRIMAL_DUAL, stop=stop)
        cols = record.columns
        max_lv = max(float(np.linalg.norm(lam)) for lam in cols["lambda_v"])
        max_res = max(
            float(np.linalg.norm(lam + quad.oracle.gradient(x)))
            for x, lam in zip(cols["x"], cols["lambda_x"]))
        results[h] = (max_lv, max_res)
    ratio = results[2e-3][1] / results[1e-3][1]
    worst_lv = max(lv for lv, _ in results.values())
    ok = worst_lv <= 1e-8 and 8.0 <= ratio <= 32.0
    report("costate-residuals", ok,
           f"max |lambda_v| {worst_lv:.2e} (tol 1e-8); residual halving "
           f"ratio {ratio:.2f} (needs [8, 32])")


def test_drift_sign_matches_certificate_orientation():
    problems = [random_quadratic(4, 5.0, seed=1),
                random_quadratic(6, 10.0, seed=2),
                random_quadratic(10, 50.0, seed=3)]
    rng = np.random.default_rng(8)
    worst = np.inf
    n_checked = 0
    for prob in problems:
        clf = DEFAULT_CLF
        for _ in range(1_000):
            x = rng.uniform(-1.0, 1.0, prob.oracle.dim)
            lam = -prob.oracle.gradient(x)
            if np.linalg.norm(lam) == 0.0:
                continue
            v = -(clf.c / clf.b) * lam
            rep = drift_condition_check(clf, prob.oracle, x, lam, v)
            assert rep.applicable
            n_checked += 1
            worst = min(worst, rep.drift_term)
    neg_ok = worst > 0.0

    flipped = ClfParams(a=2.0, b=1.0, c=1.0, pd_hessian_mode=False)
    prob = problems[0]
    x = np.array([0.3, -0.2, 0.5, 0.1])
    lam = -prob.oracle.gradient(x)
    v = -(flipped.c / flipped.b) * lam
    counter = drift_condition_check(flipped, prob.oracle, x, lam, v)
    pos_ok = counter.applicable and not counter.holds \
        and counter.drift_term < 0.0
    report("drift-sign", neg_ok and pos_ok,
           f"c<0: min drift term {worst:.2e} > 0 over {n_checked} on-set "
           f"states; c>0 counterexample at x={x.tolist()} has drift term "
           f"{counter.drift_term:.2e} < 0")


def test_oracles_agree_with_finite_differences():
    catalog = [random_quadratic(6, 50.0, seed=11),
               rosenbrock_problem(),
               random_log_sum_exp(4, terms=9, seed=12)]
    rng = np.random.default_rng(13)
    worst_g, worst_h = 0.0, 0.0
    for prob in catalog:
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, prob.oracle.dim)
            fd_g = finite_diff_gradient(prob.oracle, x)
            worst_g = max(worst_g, float(np.max(np.abs(
                fd_g - prob.oracle.gradient(x)))))
            H = prob.oracle.hessian(x)
            fd_h = finite_diff_hessian(prob.oracle, x)
            scale = 1.0 + float(np.max(np.abs(H)))
            worst_h = max(worst_h,
                          float(np.max(np.abs(fd_h - H))) / scale)
    ok = worst_g <= 1e-6 and worst_h <= 1e-5
    report("oracle-integrity", ok,
           f"worst gradient gap {worst_g:.2e} (tol 1e-6), worst relative "
           f"hessian gap {worst_h:.2e} (tol 1e-5), 100 points per problem")
