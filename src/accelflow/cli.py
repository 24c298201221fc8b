"""Command line entry points: run, compare, verify.

Exit codes: 0 success, 1 failed verification checks, 2 invalid
configuration, 3 runtime failure (divergence, an infeasible-rate abort,
a ValueError the library raises while a method runs, running out of
memory, or an artifact that cannot be written). Artifacts land in the
config's output directory, made before any method runs: trajectory or
iterate CSV, summary JSON, and an echo of the resolved config.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Any, Iterator, NoReturn, Optional

# One BLAS thread unless the caller chose a count: more threads sum in
# another order, so a rerun's bytes would depend on the machine. BLAS reads
# these when numpy is first imported, and only then.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np

from .config import (
    ConfigError,
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
    DivergedRowError,
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
from .flow import FlowMode, TrajectoryRecord, initial_state, integrate
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

#: raised while a method runs: a compare member that raises one fails
#: alone. ConfigError, itself a ValueError, is caught before these
RUNTIME_ERRORS = (InfeasibleStateError, ValueError)


class _WriteError(Exception):
    """An artifact could not be written. It stops the whole command, as a
    runtime failure: no member of a compare can write either."""


@contextlib.contextmanager
def _artifact(path: str) -> Iterator[str]:
    """path, for the artifact written in the block; an OSError there is a
    _WriteError naming path."""
    try:
        yield path
    except OSError as e:
        raise _WriteError(f"cannot write {path}: {e.strerror or e}") from e


def _make_out_dir(path: str, name: str) -> None:
    """Make the output directory path, which name (a config field or a
    flag) set; one that cannot be made is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"{name}: cannot make directory {path!r}: "
                          f"{e.strerror or e}") from e


def _out_dir_name(args: argparse.Namespace) -> str:
    return "output.out_dir" if args.out_dir is None else "--out-dir"


def _failure(e: Exception) -> tuple[int, str]:
    """The exit code and the one stderr line for a failure: every run of
    whitespace in the line, newlines included, reads as one space."""
    if isinstance(e, ConfigError):  # a ValueError: tested first
        code, kind = EXIT_CONFIG, "config error"
    elif isinstance(e, DivergedRowError):
        code, kind = EXIT_RUNTIME, "run diverged"
    elif isinstance(e, InfeasibleStateError):
        code, kind = EXIT_RUNTIME, "infeasible state"
    else:
        code, kind = EXIT_RUNTIME, "runtime failure"
    text = str(e)
    if isinstance(e, MemoryError):
        text = f"out of memory: {text}" if text else "out of memory"
    return code, " ".join(f"{kind}: {text}".split())


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


def _emit(config: RunConfig, payload: dict[str, Any],
          report: Optional[VerificationReport]) -> None:
    out_dir = config.output.out_dir
    if report is not None:
        payload["checks"] = report.to_dict()
    with _artifact(os.path.join(out_dir, "summary.json")) as path:
        write_summary_json(payload, path)
    with _artifact(os.path.join(out_dir, "config_echo.yaml")) as echo:
        atomic_write(echo, [config.to_yaml().encode()])
    print(f"wrote {path}")
    if report is not None:
        for line in report.lines():
            print(line)


def _execute_run(config: RunConfig, problem: Optional[ProblemInstance] = None,
                 out_dir_name: str = "output.out_dir"
                 ) -> tuple[int, dict[str, Any]]:
    """Run one config to artifacts; returns (exit code, summary payload).

    problem is config.problem built, when the caller holds it already: no
    method writes to a problem or its x0. The output directory is made
    once the problem is built, before the method runs; out_dir_name names
    what set it (_make_out_dir).
    """
    if problem is None:
        problem = config.problem.build()
    out_dir = config.output.out_dir
    _make_out_dir(out_dir, out_dir_name)
    label = config.run_label()

    flow = isinstance(config.method, FlowMethodConfig)
    # a diverging method may overflow first: its summary says so, not numpy
    report = None
    with np.errstate(over="ignore", invalid="ignore"):
        if flow:
            spec = config.method.build_controller()
            record = _run_flow(config, problem, spec)
            with _artifact(os.path.join(out_dir, "trajectory.csv")) \
                    as csv_path:
                write_trajectory_csv(record, csv_path)
            print(f"wrote {csv_path}")
            payload = flow_summary(record, label)
            if config.verify.checks:
                report = run_checks(record, problem.oracle, spec.clf,
                                    config.verify.checks, config.verify)
        else:
            seq = _run_discrete(config, problem)
            with _artifact(os.path.join(out_dir, "iterates.csv")) \
                    as csv_path:
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
    if getattr(args, "out_dir", None) is not None:  # verify has neither
        config = config.with_out_dir(args.out_dir, "--out-dir")
    if getattr(args, "stride", None) is not None:
        config = config.with_stride(args.stride, "--stride")
    if args.seed_override is not None:
        config = config.with_seed(args.seed_override, "--seed-override")
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    code, _ = _execute_run(config, out_dir_name=_out_dir_name(args))
    return code


def _cmd_compare(args: argparse.Namespace) -> int:
    configs = [_apply_overrides(load_config(p), args) for p in args.configs]
    if len(configs) < 2:
        raise ConfigError("compare needs at least two configs")
    base = configs[0].problem
    for path, cfg in zip(args.configs[1:], configs[1:]):
        if cfg.problem != base:
            raise ConfigError(f"{path}: problem block differs from "
                              f"{args.configs[0]}; compare needs one shared "
                              f"problem")
    labels = [c.run_label() for c in configs]
    for path, label in zip(args.configs, labels):
        # each member writes to the directory label under the out dir,
        # beside compare.csv, and its label is one unquoted field of a
        # compare.csv row
        if (label in (".", "..", "compare.csv") or os.path.isabs(label)
                or {"/", os.sep, "\0", ",", '"', "\r", "\n"} & set(label)):
            raise ConfigError(f"{path}: label: {label!r} does not name one "
                              f"member directory and one CSV field: it has "
                              f"a '/', a NUL, a ',', a '\"', a CR or an LF, "
                              f"or is '.', '..' or 'compare.csv'")
    if len(set(labels)) != len(labels):
        raise ConfigError("duplicate run labels; set distinct label: fields")

    out_dir = configs[0].output.out_dir
    worst = EXIT_OK
    rows = []
    problem = None  # the members' one problem, built by the first to run
    for cfg, label in zip(configs, labels):
        cfg = cfg.with_out_dir(os.path.join(out_dir, label))
        try:
            if problem is None:
                problem = cfg.problem.build()
            code, payload = _execute_run(cfg, problem, _out_dir_name(args))
        except ConfigError:
            raise
        except RUNTIME_ERRORS as e:
            # a failed member is a row of nan cells; the others still run
            print(f"{label}: {_failure(e)[1]}", file=sys.stderr)
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

    with _artifact(os.path.join(out_dir, "compare.csv")) as table_path:
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


def _cmd_verify(args: argparse.Namespace) -> int:
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
    except DivergedRowError as e:
        raise DivergedRowError(f"{args.trajectory}: {e}") from e
    except (OSError, ValueError) as e:
        reason = getattr(e, "strerror", None) or e  # OSError text has the path
        raise ConfigError(f"{args.trajectory}: {reason}") from e
    if columns["x"].shape[1] != problem.oracle.dim:
        raise ConfigError(f"{args.trajectory}: trajectory dimension "
                          f"{columns['x'].shape[1]} does not match the "
                          f"config problem ({problem.oracle.dim})")
    full = method.mode is FlowMode.FULL_PRIMAL_DUAL
    if ("lambda_x" in columns) != full:
        raise ConfigError(f"{args.trajectory}: the file "
                          f"{'lacks' if full else 'has'} costate columns, "
                          f"but method.mode is {method.mode.value}")

    meta = {"mode": method.mode.value, "method": method.integrator.value,
            "h": method.h, "t_max": method.t_max, "dim": problem.oracle.dim,
            "tol_g": method.tol_g, "tol_v": method.tol_v}
    # a finite state can overflow the certificate; the checks report that
    # as a non-finite value, not numpy
    with np.errstate(over="ignore", invalid="ignore"):
        record = trajectory_from_arrays(columns, problem.oracle, spec, meta)
        report = run_checks(record, problem.oracle, spec.clf,
                            config.verify.checks or CHECK_NAMES,
                            config.verify)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_CHECKS


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """A usage error is a config error, one stderr line in main."""
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="accelflow",
        description="Run, compare, and verify optimization flows and their "
                    "discrete counterparts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, writes: bool = True) -> None:
        if writes:  # verify writes nothing
            p.add_argument("--out-dir", help="override output.out_dir")
            p.add_argument("--stride", type=int,
                           help="override output.stride (flow sampling)")
        p.add_argument("--seed-override", type=int,
                       help="override problem.seed")

    p_run = sub.add_parser("run", help="run one config to artifacts")
    p_run.add_argument("config")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run several configs on one problem and "
                                "tabulate progress")
    p_cmp.add_argument("configs", nargs="+")
    add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify",
                           help="re-check an exported trajectory against "
                                "its config")
    p_ver.add_argument("trajectory")
    p_ver.add_argument("config")
    add_common(p_ver, writes=False)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (*RUNTIME_ERRORS, MemoryError, _WriteError) as e:
        code, line = _failure(e)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
