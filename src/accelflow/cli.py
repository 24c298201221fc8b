"""Command line entry points: run, compare, verify.

Exit codes: 0 success, 1 failed verification checks, 2 invalid
configuration, 3 runtime failure (divergence, an infeasible-rate abort,
or a ValueError the library raises while a method runs). Artifacts land
in the config's output directory: trajectory or iterate CSV, summary
JSON, and an echo of the resolved config.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Optional

import numpy as np

from .config import (
    ConfigError,
    DiscreteMethodConfig,
    FlowMethodConfig,
    RunConfig,
    load_config,
)
from .control import ControllerSpec, InfeasibleStateError
from .discrete import (
    IterateSequence,
    accelerated_newton_iterate,
    cg_iterate,
    constant,
    exact_line_search_alpha,
    fletcher_reeves_beta,
    heavy_ball_iterate,
    nesterov_one_step_iterate,
    nesterov_two_step_iterate,
)
from .export import (
    atomic_write,
    discrete_summary,
    flow_summary,
    read_trajectory_csv,
    trajectory_from_arrays,
    write_compare_csv,
    write_iterates_csv,
    write_summary_json,
    write_trajectory_csv,
)
from .flow import TrajectoryRecord, initial_state, integrate
from .metric import MetricKind, MetricSpec
from .objective import ProblemInstance
from .verify import (
    CHECK_NAMES,
    VerificationReport,
    check_stationarity,
    run_checks,
)

EXIT_OK = 0
EXIT_CHECKS = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

#: raised while a method runs; ConfigError, itself a ValueError, is caught
#: before these
RUNTIME_ERRORS = (InfeasibleStateError, ValueError)


def _runtime_failure(e: Exception) -> str:
    kind = "infeasible state" if isinstance(e, InfeasibleStateError) \
        else "runtime failure"
    return f"{kind}: {e}"


def _run_flow(config: RunConfig, problem: ProblemInstance,
              spec: ControllerSpec) -> TrajectoryRecord:
    method = config.method
    v0 = None if method.v0 is None else np.array(method.v0, dtype=float)
    state0 = initial_state(problem.oracle, problem.x0, v0)
    return integrate(spec, problem.oracle, state0, method.h, method.t_max,
                     method=method.integrator, mode=method.mode,
                     stop=method.stopping_rule(),
                     record_stride=config.output.stride)


def _run_discrete(config: RunConfig,
                  problem: ProblemInstance) -> IterateSequence:
    m = config.method
    oracle, x0 = problem.oracle, problem.x0
    if m.name == "heavy_ball":
        return heavy_ball_iterate(oracle, x0, m.max_iters, constant(m.alpha),
                                  constant(m.beta), tol_g=m.tol_g)
    if m.name == "nesterov1":
        gamma = None if m.gamma is None else constant(m.gamma)
        return nesterov_one_step_iterate(oracle, x0, m.max_iters,
                                         constant(m.alpha), constant(m.beta),
                                         gamma, tol_g=m.tol_g)
    if m.name == "nesterov2":
        return nesterov_two_step_iterate(oracle, x0, m.max_iters,
                                         constant(m.alpha), constant(m.beta),
                                         tol_g=m.tol_g)
    if m.name == "cg":
        if m.alpha == "exact_line_search":
            alpha_rule = exact_line_search_alpha
        else:
            step = float(m.alpha)
            alpha_rule = lambda o, k, x, g, v: step
        if m.beta_cg == "fletcher_reeves":
            beta_rule = fletcher_reeves_beta
        else:
            coeff = float(m.beta_cg)
            beta_rule = lambda o, k, g, gp: coeff
        return cg_iterate(oracle, x0, m.max_iters, alpha_rule, beta_rule,
                          tol_g=m.tol_g)
    kind = MetricKind.HESSIAN if m.name == "accel_newton" \
        else MetricKind.QUASI_NEWTON
    metric = MetricSpec(kind, eig_floor=m.eig_floor)
    return accelerated_newton_iterate(oracle, metric, x0,
                                      (m.gamma_a, m.gamma_b), m.h,
                                      m.max_iters, tol_g=m.tol_g)


def _verify_flow_record(config: RunConfig, problem: ProblemInstance,
                        spec: ControllerSpec, record: TrajectoryRecord,
                        checks: tuple[str, ...]) -> VerificationReport:
    """Run checks with the config's verify settings, under the
    controller's own certificate."""
    v = config.verify
    return run_checks(record, problem.oracle, spec.clf,
                      checks, dissipation_mode=v.dissipation_mode, eta=v.eta,
                      tol=v.effective_tol(), adjoint_coeff=v.adjoint_coeff,
                      singular_tol=v.singular_tol)


def _check_discrete_verify(config: RunConfig) -> None:
    extra = [c for c in config.verify.checks if c != "stationarity"]
    if extra:
        raise ConfigError(f"verify.checks: only 'stationarity' applies to "
                          f"discrete methods, got {extra}")


def _emit(config: RunConfig, payload: dict[str, Any],
          report: Optional[VerificationReport]) -> None:
    out_dir = config.output.out_dir
    if report is not None:
        payload["checks"] = report.to_dict()
    write_summary_json(payload, os.path.join(out_dir, "summary.json"))
    atomic_write(os.path.join(out_dir, "config_echo.yaml"),
                 [config.to_yaml()])
    print(f"wrote {os.path.join(out_dir, 'summary.json')}")
    if report is not None:
        for line in report.lines():
            print(line)


def _execute_run(config: RunConfig) -> tuple[int, dict[str, Any]]:
    """Run one config to artifacts; returns (exit code, summary payload)."""
    problem = config.problem.build()
    out_dir = config.output.out_dir
    label = config.run_label()

    flow = isinstance(config.method, FlowMethodConfig)
    if not flow:
        _check_discrete_verify(config)
    # a diverging method overflows on its way to the non-finite state
    # that stops it; the summary reports that as divergence, not numpy
    report = None
    with np.errstate(over="ignore", invalid="ignore"):
        if flow:
            spec = config.method.build_controller()
            record = _run_flow(config, problem, spec)
            csv_path = os.path.join(out_dir, "trajectory.csv")
            write_trajectory_csv(record, csv_path)
            print(f"wrote {csv_path}")
            payload = flow_summary(record, label)
            if config.verify.checks:
                report = _verify_flow_record(config, problem, spec, record,
                                             config.verify.checks)
        else:
            seq = _run_discrete(config, problem)
            csv_path = os.path.join(out_dir, "iterates.csv")
            write_iterates_csv(seq, problem.oracle, csv_path)
            print(f"wrote {csv_path}")
            payload = discrete_summary(seq, problem.oracle, label,
                                       config.method.tol_g)
            if "stationarity" in config.verify.checks:
                report = check_stationarity(seq, problem.oracle,
                                            tol_g=config.method.tol_g)
    _emit(config, payload, report)
    if payload["diverged"]:
        print("run diverged", file=sys.stderr)
        return EXIT_RUNTIME, payload
    if report is not None and not report.ok:
        return EXIT_CHECKS, payload
    return EXIT_OK, payload


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.out_dir is not None:
        config = config.with_out_dir(args.out_dir, "--out-dir")
    if args.stride is not None:
        config = config.with_stride(args.stride, "--stride")
    if args.seed_override is not None:
        config = config.with_seed(args.seed_override, "--seed-override")
    return config


def cmd_run(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    code, _ = _execute_run(config)
    return code


def cmd_compare(args: argparse.Namespace) -> int:
    configs = [load_config(path) for path in args.configs]
    if len(configs) < 2:
        raise ConfigError("compare needs at least two configs")
    base = configs[0].problem
    for path, cfg in zip(args.configs[1:], configs[1:]):
        if cfg.problem != base:
            raise ConfigError(f"{path}: problem block differs from "
                              f"{args.configs[0]}; compare needs one shared "
                              f"problem")
    labels = [c.run_label() for c in configs]
    if len(set(labels)) != len(labels):
        raise ConfigError("duplicate run labels; set distinct label: fields")

    configs = [_apply_overrides(cfg, args) for cfg in configs]
    out_dir = configs[0].output.out_dir
    worst = EXIT_OK
    rows = []
    for cfg, label in zip(configs, labels):
        cfg = cfg.with_out_dir(os.path.join(out_dir, label))
        try:
            code, payload = _execute_run(cfg)
        except ConfigError:
            raise
        except RUNTIME_ERRORS as e:
            # a failed member is a row of nan cells; the others still run
            print(f"{label}: {_runtime_failure(e)}", file=sys.stderr)
            worst = max(worst, EXIT_RUNTIME)
            rows.append({"label": label, "cells": {}, "final_E": None})
            continue
        worst = max(worst, code)
        if payload["kind"] == "flow":
            cells = payload["time_to_grad"]
        else:
            cells = payload["iterations_to_grad"]
        rows.append({"label": label, "cells": cells,
                     "final_E": payload["final"]["E"]})

    table_path = os.path.join(out_dir, "compare.csv")
    write_compare_csv(rows, table_path)
    print(f"wrote {table_path}")
    _print_table(rows)
    return worst


def _print_table(rows: list[dict[str, Any]]) -> None:
    from .export import GRAD_DECADES, decade_label
    labels = [decade_label(t) for t in GRAD_DECADES]
    width = max(12, max(len(r["label"]) for r in rows) + 2)
    print("".join(["method".ljust(width)]
                  + [lab.rjust(10) for lab in labels] + ["final_E".rjust(14)]))
    for r in rows:
        cells = []
        for lab in labels:
            value = r["cells"].get(lab)
            cells.append(("-" if value is None else f"{value:g}").rjust(10))
        final_e = r["final_E"]
        tail = ("-" if final_e is None else f"{final_e:.3e}").rjust(14)
        print("".join([r["label"].ljust(width)] + cells + [tail]))


def cmd_verify(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    method = config.method
    if not isinstance(method, FlowMethodConfig):
        raise ConfigError("verify works on flow trajectories; the config's "
                          "method block is discrete")
    spec = method.build_controller()
    if spec.metric.kind is MetricKind.QUASI_NEWTON:
        raise ConfigError(
            "method: quasi_newton metric state is path-dependent and cannot "
            "be rebuilt from a CSV; rerun with a verify block instead")

    problem = config.problem.build()
    try:
        columns = read_trajectory_csv(args.trajectory)
    except (OSError, ValueError) as e:
        reason = getattr(e, "strerror", None) or e  # OSError text has the path
        raise ConfigError(f"{args.trajectory}: {reason}") from e
    if columns["x"].shape[1] != problem.oracle.dim:
        raise ConfigError(f"{args.trajectory}: trajectory dimension "
                          f"{columns['x'].shape[1]} does not match the "
                          f"config problem ({problem.oracle.dim})")

    meta = {"mode": method.mode.value, "method": method.integrator.value,
            "h": method.h, "t_max": method.t_max, "dim": problem.oracle.dim,
            "tol_g": method.tol_g, "tol_v": method.tol_v,
            "controller": method.controller}
    # a finite state can overflow the certificate; the checks report that
    # as a non-finite value, not numpy
    with np.errstate(over="ignore", invalid="ignore"):
        record = trajectory_from_arrays(columns, problem.oracle, spec, meta)
        report = _verify_flow_record(config, problem, spec, record,
                                     config.verify.checks or CHECK_NAMES)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_CHECKS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelflow",
        description="Run, compare, and verify optimization flows and their "
                    "discrete counterparts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out-dir", help="override output.out_dir")
        p.add_argument("--stride", type=int,
                       help="override output.stride (flow sampling)")
        p.add_argument("--seed-override", type=int,
                       help="override problem.seed")

    p_run = sub.add_parser("run", help="run one config to artifacts")
    p_run.add_argument("config")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run several configs on one problem and "
                                "tabulate progress")
    p_cmp.add_argument("configs", nargs="+")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify",
                           help="re-check an exported trajectory against "
                                "its config")
    p_ver.add_argument("trajectory")
    p_ver.add_argument("config")
    add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except RUNTIME_ERRORS as e:
        print(_runtime_failure(e), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
