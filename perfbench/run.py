"""accelflow benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace T

Runs from the root of a checkout and measures the accelflow code under
src/. Each workload runs in a fresh interpreter with the BLAS and OpenMP
thread counts pinned to 1 before numpy is imported. Set-up time is taken
from several fresh interpreters that stop once the first op could start,
and reported as their median. Times are scaled to a fixed machine speed
by a calibration kernel; bench.py says why. The last line of standard
output is one JSON object: with --trace 0 it carries the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run. The exit
code is nonzero when any op failed, and when the checkout holds no
accelflow sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from bench import scaled
from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END = ("setup_s", "wall_s", "op_s_p50", "work_per_s", "peak_rss_mb")
#: per-layer metrics of the traced run's JSON line. Self times appear here
#: only for layers that every workload reaches; the traced run prints the
#: rest and writes them to .perfbench/<workload>-seed<n>-layers.json.
PER_LAYER = (
    "cli.ops",
    "objective.value.calls", "objective.gradient.calls",
    "objective.hessian.calls", "objective.gradient.per_step",
    "objective.hessian.per_step", "objective.gradient.per_iter",
    "control.evaluate_control.calls", "control.evaluate_control.per_step",
    "metric.metric_matrix.calls", "metric.metric_solve.calls",
    "metric.shift_to_floor.calls", "metric.quasi_newton_update.calls",
    "clf.clf_value.calls", "clf.lie_derivative.calls",
    "flow.integrate.calls", "flow.steps",
    "export.write_trajectory_csv.calls", "export.trajectory_csv_bytes",
    "export.read_trajectory_csv.calls", "export.trajectory_from_arrays.calls",
    "export.write_iterates_csv.calls", "export.discrete_summary.calls",
    "export.write_summary_json.calls", "export.write_compare_csv.calls",
    "verify.check_dissipation.calls", "verify.check_adjoint_consistency.calls",
    "verify.check_singular_arc.calls", "verify.check_stationarity.calls",
    "verify.samples",
    "discrete.heavy_ball_iterate.calls",
    "discrete.nesterov_one_step_iterate.calls",
    "discrete.nesterov_two_step_iterate.calls", "discrete.cg_iterate.calls",
    "discrete.iterations",
    "config.load_config.calls", "config.ProblemConfig.build.calls",
    "objective.self_s", "objective.gradient.self_s",
    "objective.hessian.self_s", "export.self_s", "config.self_s",
    "config.load_config.self_s", "cli.self_s", "trace.overhead_s",
)
#: prefix of the worker's result line
RESULT = "RESULT "
#: fresh interpreters timed for setup_s
SETUP_PROBES = 11
#: the worker is killed after this long; the benchmark must end in 180 s
TIMEOUT_S = 170.0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".per_step"):
        return "1/step"
    if name.endswith(".per_iter"):
        return "1/iter"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["TMPDIR"] = os.path.join(ROOT, ".perfbench")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def bench_argv(mode: str, args: argparse.Namespace) -> list[str]:
    argv = [sys.executable, os.path.join(HERE, "bench.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed)]
    if mode == "measure":
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv


def probe_setup(args: argparse.Namespace,
                env: dict[str, str]) -> tuple[float, float]:
    """Seconds from interpreter start until the first op could start, and
    the calibration kernel's seconds right after."""
    start = time.perf_counter()
    proc = subprocess.Popen(bench_argv("setup", args), cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    ready, cal = None, None
    for line in proc.stdout:
        if line.strip() == "READY":
            ready = time.perf_counter() - start
        elif line.startswith("CAL "):
            cal = float(line.split()[1])
    proc.wait()
    if proc.returncode != 0 or ready is None or cal is None:
        raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}")
    return ready, cal


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="accelflow benchmark")
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "accelflow", "cli.py")):
        print(f"perfbench: no accelflow sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    t_run = time.perf_counter()
    env = child_env()
    probes = [probe_setup(args, env) for _ in range(SETUP_PROBES)]
    proc = subprocess.Popen(bench_argv("measure", args), cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(TIMEOUT_S - (time.perf_counter() - t_run),
                               proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line)
            if not line.startswith(RESULT):
                sys.stdout.write(line)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    try:
        result = json.loads(lines[-1].removeprefix(RESULT))
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: worker exited {proc.returncode} without a result",
              file=sys.stderr)
        return 3

    setup_s = statistics.median(scaled(ready, cal) for ready, cal in probes)
    print(f"setup_s {setup_s:.6f} s (median of {len(probes)} fresh "
          f"interpreters, scaled; raw "
          f"{', '.join(f'{ready:.3f}' for ready, _ in probes)})")
    raw = dict(result["raw"],
               setup_s=statistics.median(ready for ready, _ in probes))
    print("raw (unscaled) " + " ".join(f"{k} {v:.6g}"
                                        for k, v in sorted(raw.items())))
    if args.trace:
        metrics = {k: {"value": result["metrics"][k], "unit": layer_unit(k)}
                   for k in PER_LAYER}
    else:
        metrics = dict(result["metrics"], setup_s={"value": setup_s,
                                                   "unit": "s"})
        metrics = {k: metrics[k] for k in END_TO_END}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
