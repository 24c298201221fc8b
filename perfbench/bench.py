"""Benchmark worker: sets up one workload and runs its ops in a closed loop.

Started by run.py in a fresh interpreter with the BLAS thread count pinned.
One client runs the workload's op list again and again, one op at a time,
each op an in-process ``accelflow`` CLI call, until the time is up. Every
op is checked: a nonzero exit code or a FAIL line fails it, and at the
default seed so does a fingerprint that misses reference.json.

    python3 perfbench/bench.py setup   --workload W --seed S
    python3 perfbench/bench.py measure --workload W --seed S --seconds N
        --trace T

``setup`` stops once the first op could start, prints READY, then times
the calibration kernel. ``measure`` prints human-readable lines, then one
RESULT line of JSON. ``--write-reference`` (with the default seed) records
the fingerprints instead of checking them.

Times are scaled to a fixed machine speed. The same code runs up to twice
as slow on a shared machine, in phases that last from seconds to minutes,
so raw seconds from two runs minutes apart differ by 20-30% whatever the
estimator. Each op is bracketed by a calibration kernel that does not use
accelflow (about 10 ms of the same kinds of work the ops do), and its time
is reported as ``raw * CAL_REF_S / calibration``: the seconds it would take
where the kernel takes CAL_REF_S. Raw times are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 0
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: relative tolerance of fingerprint floats (ROADMAP aim 2)
REL_TOL = 1e-12
#: calibration kernel seconds that scaled times refer to
CAL_REF_S = 0.01
#: exit code given to an op whose CLI call raised
RAISED = 70


def import_accelflow():
    """Import accelflow from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "accelflow", "__init__.py")):
        raise SystemExit(f"perfbench: no accelflow package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import accelflow
    import accelflow.cli
    where = os.path.dirname(os.path.abspath(accelflow.__file__))
    if where != os.path.join(SRC, "accelflow"):
        raise SystemExit(f"perfbench: imported accelflow from {where}")
    return accelflow.cli


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def environment() -> dict[str, Any]:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


class Calibration:
    """A fixed kernel, independent of accelflow, in three parts like the ops'
    own mix: small numpy calls, float formatting as in the CSV writers, and
    mid-size BLAS as in a log-sum-exp Hessian. A mixed kernel tracks the
    machine's slow phases closer than any one part does."""

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        m = rng.standard_normal((50, 50))
        self.np = np
        self.M = m @ m.T + 50.0 * np.eye(50)
        self.x0 = rng.standard_normal(50)
        self.A = rng.standard_normal((200, 50))
        self.p = rng.random(200) / 100.0
        self.samples: list[float] = []

    def __call__(self) -> float:
        """Run the kernel once; returns (and keeps) its seconds."""
        np, M, A, p = self.np, self.M, self.A, self.p
        t0 = time.perf_counter()
        x = self.x0.copy()
        for _ in range(500):
            v = M @ x
            x = x - 1e-3 * v / (1.0 + float(np.linalg.norm(v)) + float(v @ x))
        row = list(x) * 2
        for _ in range(50):
            ",".join("%.17g" % value for value in row)
        for _ in range(6):
            np.linalg.eigvalsh(A.T @ (np.diag(p) - np.outer(p, p)) @ A)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt


def scaled(raw_s: float, cal_s: float) -> float:
    return raw_s * CAL_REF_S / cal_s


# ---------------------------------------------------------------------------
# set-up and ops
# ---------------------------------------------------------------------------


def setup(name: str, seed: int, work_dir: str, smoke: bool):
    """Write and parse the workload's configs and build its problems."""
    import yaml
    from accelflow.config import load_config
    shutil.rmtree(work_dir, ignore_errors=True)
    wl = workloads.build(name, seed, work_dir, smoke)
    for path, doc in wl.configs.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
    problems = {}
    for path in wl.configs:
        problem = load_config(path).problem
        if problem not in problems:
            problems[problem] = problem.build()
    return wl


def call(cli, op: workloads.Op) -> tuple[int, str]:
    """One in-process CLI call; returns its exit code and stdout.

    An exception that escapes ``cli.main`` becomes exit code RAISED with the
    traceback after the stdout, so the op is counted as failed and the run
    goes on to report every other op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            return RAISED, out.getvalue() + traceback.format_exc()
    return code, out.getvalue()


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _run_fingerprint(summary: dict) -> dict[str, Any]:
    final = summary["final"]
    fp = {"converged": summary["converged"], "E": final["E"],
          "grad_norm": final["grad_norm"]}
    if summary["kind"] == "flow":
        fp["steps_taken"] = summary["steps_taken"]
    else:
        fp["iterations"] = summary["iterations"]
    return fp


def _verify_lines(stdout: str) -> list[list]:
    rows = []
    for line in stdout.splitlines():
        head, _, rest = line.partition(":")
        tag, _, check = head.partition(" ")
        if tag in ("PASS", "FAIL", "N/A") and rest.startswith(" worst="):
            worst = rest.split()[0].split("=", 1)[1]
            rows.append([check.strip(), tag, float(worst)])
    return rows


def fingerprint(op: workloads.Op, stdout: str,
                rows: dict[str, int]) -> tuple[dict[str, Any], int]:
    """The op's fingerprint and its work count (steps, samples or iters)."""
    if op.kind == "run":
        summary = _load_json(os.path.join(op.out_dir, "summary.json"))
        fp = _run_fingerprint(summary)
        fp["checks"] = _verify_lines(stdout)
        return fp, int(summary["steps_taken"])
    if op.kind == "compare":
        members = {label: _run_fingerprint(_load_json(
            os.path.join(op.out_dir, label, "summary.json")))
            for label in op.labels}
        with open(os.path.join(op.out_dir, "compare.csv")) as fh:
            cells = [row[:-1] for row in csv.reader(fh)]
        fp = {"members": members, "compare_cells": cells,
              "checks": _verify_lines(stdout)}
        return fp, sum(m["iterations"] for m in members.values())
    return {"checks": _verify_lines(stdout)}, rows[op.trajectory]


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return a == b


def failure(op: workloads.Op, code: int, stdout: str,
            fp: Optional[dict], reference: Optional[dict]) -> Optional[str]:
    """Why the op failed, or None."""
    if code == RAISED:
        return f"raised {stdout.strip().splitlines()[-1]}"
    if code != 0:
        return f"exit code {code}"
    if any(line.startswith("FAIL") for line in stdout.splitlines()):
        return "a verify line reads FAIL"
    if reference is not None:
        want = reference.get(op.op_id)
        if want is None:
            return "no reference fingerprint"
        if not _close(json.loads(json.dumps(fp)), want):
            return f"fingerprint {fp} misses reference {want}"
    return None


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Client:
    """One closed-loop client: runs passes over the op list and checks them."""

    def __init__(self, cli, wl: workloads.Workload,
                 reference: Optional[dict], record: Optional[dict]):
        self.cli = cli
        self.wl = wl
        self.reference = reference
        self.record = record
        self.rows: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.work_per_pass: Optional[int] = None
        self.pass_stats: list[dict] = []
        self.calibration = Calibration()

    def check(self, op: workloads.Op, code: int, stdout: str) -> int:
        self.attempted += 1
        fp, work = None, 0
        if code == 0:
            try:
                fp, work = fingerprint(op, stdout, self.rows)
            except (OSError, ValueError, KeyError) as e:
                self.failures.append(f"{op.op_id}: unreadable output: {e}")
                return 0
        if self.record is not None and fp is not None:
            self.record[op.op_id] = json.loads(json.dumps(fp))
        why = failure(op, code, stdout, fp, self.reference)
        if why:
            self.failures.append(f"{op.op_id}: {why}")
        return work

    def prepare(self) -> None:
        """Untimed ops whose artifacts the timed ops read."""
        for op in self.wl.prepare:
            code, stdout = call(self.cli, op)
            self.check(op, code, stdout)
            traj = os.path.join(op.out_dir, "trajectory.csv")
            if os.path.exists(traj):
                with open(traj) as fh:
                    self.rows[traj] = sum(1 for _ in fh) - 1

    def one_pass(self, tracer=None) -> "Pass":
        """Run the op list once, each op bracketed by the calibration."""
        results = []
        cal = [self.calibration()]
        for k, op in enumerate(self.wl.ops):
            t0 = time.perf_counter()
            if tracer is None:
                code, stdout = call(self.cli, op)
            else:
                code, stdout = tracer.run_op(k, lambda: call(self.cli, op))
            results.append((op, code, stdout, time.perf_counter() - t0))
            cal.append(self.calibration())
        work = sum(self.check(op, code, stdout)
                   for op, code, stdout, _ in results)
        if self.work_per_pass is None:
            self.work_per_pass = work
        elif work != self.work_per_pass:
            self.failures.append(f"pass work {work} differs from the first "
                                 f"pass's {self.work_per_pass}")
        raw = [dt for *_, dt in results]
        return Pass(raw, [scaled(dt, 0.5 * (cal[k] + cal[k + 1]))
                          for k, dt in enumerate(raw)],
                    scaled(1.0, statistics.mean(cal)))

    def passes(self, seconds: float, tracer=None) -> list["Pass"]:
        """Whole passes while the next one is expected to end in time."""
        done: list[Pass] = []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.new_pass()
                tracer.record_spans(not done)
            done.append(self.one_pass(tracer))
            if tracer is not None:
                stats = tracer.pass_stats()
                for v in stats.values():
                    v["self_s"] *= done[-1].factor
                self.pass_stats.append(stats)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(sum(p.raw) for p in done) > seconds:
                return done


@dataclass
class Pass:
    """One pass's op seconds, raw and scaled, and its scale factor."""

    raw: list[float]
    scaled: list[float]
    factor: float


def op_medians(passes: list[Pass], field: str) -> list[float]:
    """Each op's median seconds over the passes."""
    return [statistics.median(col)
            for col in zip(*(getattr(p, field) for p in passes))]


def layer_metrics(name: str, stats: list[dict], work: int) -> dict[str, float]:
    """Per-layer metrics from the traced passes (counts from the first)."""
    first = stats[0]
    out: dict[str, float] = {}
    for layer in first:
        out[f"{layer}.calls"] = first[layer]["calls"]
        out[f"{layer}.self_s"] = statistics.median(
            s[layer]["self_s"] for s in stats)
    for module in ("objective", "control", "metric", "clf", "flow", "export",
                   "verify", "discrete", "config"):
        out[f"{module}.self_s"] = sum(
            out[f"{layer}.self_s"] for layer in first
            if layer.startswith(module + "."))
    out["cli.ops"] = out.pop("cli.calls")
    unit = workloads.WORK_UNIT[name]
    steps = work if unit == "steps" else 0
    iters = work if unit == "iters" else 0
    out["flow.steps"] = steps
    out["discrete.iterations"] = iters
    out["verify.samples"] = work if unit == "samples" else 0

    def ratio(count: str, base: int) -> float:
        return out[count] / base if base else 0.0

    for layer in ("objective.gradient", "objective.hessian",
                  "control.evaluate_control"):
        out[f"{layer}.per_step"] = ratio(f"{layer}.calls", steps)
    out["objective.gradient.per_iter"] = ratio("objective.gradient.calls",
                                               iters)
    return out


def _csv_bytes(wl: workloads.Workload) -> int:
    total = 0
    for op in wl.ops:
        path = os.path.join(op.out_dir, "trajectory.csv")
        if op.kind == "run" and os.path.exists(path):
            total += os.path.getsize(path)
    return total


def measure(args: argparse.Namespace) -> int:
    cli = import_accelflow()
    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        wl = setup(args.workload, args.seed, work_dir, args.smoke)
        return _measure(cli, wl, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(cli, wl: workloads.Workload, args: argparse.Namespace) -> int:
    env = environment()
    record: Optional[dict] = {} if args.write_reference else None
    reference = None
    if args.seed == DEFAULT_SEED and not args.smoke and record is None:
        with open(REFERENCE) as fh:
            reference = json.load(fh).get(wl.name, {})
    client = Client(cli, wl, reference, record)
    client.prepare()

    untraced = client.passes(args.seconds / 2 if args.trace else args.seconds)
    traced: list[Pass] = []
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = client.passes(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    if record is not None:
        _write_reference(wl.name, record)

    say = print
    say(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds}{' smoke' if args.smoke else ''}")
    say("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    say(f"client: closed loop, 1 client, {len(wl.ops)} ops per pass, "
        f"{len(untraced)} untraced pass(es), {len(traced)} traced")
    for why in client.failures:
        say(f"FAILED {why}")
    say(f"ops_failed_frac {len(client.failures) / max(client.attempted, 1):g} "
        f"({len(client.failures)}/{client.attempted} ops, reference "
        f"{'checked' if reference is not None else 'not checked'})")

    unit = workloads.WORK_UNIT[wl.name]
    work = client.work_per_pass or 0
    op_s = op_medians(untraced, "scaled")
    raw_s = op_medians(untraced, "raw")
    wall_s = sum(op_s)
    e2e = {
        "wall_s": (wall_s, "s"),
        "op_s_p50": (statistics.median(op_s), "s"),
        "work_per_s": (work / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    cal = client.calibration.samples
    say(f"calibration: median {statistics.median(cal) * 1e3:.3f} ms over "
        f"{len(cal)} runs (min {min(cal) * 1e3:.3f}, max "
        f"{max(cal) * 1e3:.3f}); times below are scaled to "
        f"{CAL_REF_S * 1e3:g} ms")
    say(f"wall_s {wall_s:.6f} s (sum over {len(op_s)} ops of each op's "
        f"median of {len(untraced)} passes; raw {sum(raw_s):.6f} s)")
    say(f"op_s_p50 {e2e['op_s_p50'][0]:.6f} s (median of {len(op_s)} ops; "
        f"raw {statistics.median(raw_s):.6f} s)")
    say(f"{unit}_per_s {e2e['work_per_s'][0]:.3f} 1/s "
        f"({work} {unit} per pass; raw {work / sum(raw_s):.3f} 1/s)")
    say(f"peak_rss_mb {e2e['peak_rss_mb'][0]:.1f} MB")

    result: dict[str, Any] = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "raw": {"wall_s": sum(raw_s), "op_s_p50": statistics.median(raw_s),
                "work_per_s": work / sum(raw_s),
                "calibration_s": statistics.median(cal)},
    }
    if tracer is None:
        result["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in e2e.items()}
    else:
        layers = layer_metrics(wl.name, client.pass_stats, work)
        layers["export.trajectory_csv_bytes"] = _csv_bytes(wl)
        layers["trace.wall_s"] = sum(op_medians(traced, "scaled"))
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall_s
        first = client.pass_stats[0]
        repeat = all(s[k]["calls"] == first[k]["calls"]
                     for s in client.pass_stats for k in first)
        say(f"trace: overhead {layers['trace.overhead_s']:.6f} s per pass "
            f"(traced wall_s {layers['trace.wall_s']:.6f} - untraced "
            f"{wall_s:.6f}); counts repeat across traced passes: {repeat}")
        if tracer.dropped:
            say(f"trace: {tracer.dropped} spans over the cap were not kept")
        for key in sorted(layers):
            say(f"layer {key} {layers[key]:.9g}")
        result["metrics"] = layers
        result["coverage"] = dict(tracer.binding_calls)
        _write_trace_files(wl, args, tracer, layers, result["raw"], env)
    result["env"] = env
    print("RESULT " + json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _write_trace_files(wl, args, tracer, layers, raw, env) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}")
    n = tracer.write_spans(stem + "-spans.csv", [op.op_id for op in wl.ops])
    with open(stem + "-layers.json", "w") as fh:
        json.dump({"layers": layers, "raw": raw,
                   "bindings": tracer.binding_calls, "env": env, "spans_written": n,
                   "spans_dropped": tracer.dropped}, fh, indent=1,
                  sort_keys=True)
    print(f"trace: wrote {n} spans to {stem}-spans.csv")


def _write_reference(name: str, record: dict) -> None:
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    data[name] = record
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def setup_only(args: argparse.Namespace) -> int:
    import_accelflow()
    work_dir = os.path.join(OUT_DIR, f"setup-{args.workload}-{os.getpid()}")
    try:
        setup(args.workload, args.seed, work_dir, args.smoke)
        print("READY", flush=True)
        calibration = Calibration()
        print(f"CAL {statistics.median(calibration() for _ in range(5))!r}",
              flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every size (the benchmark's own tests)")
    p.add_argument("--write-reference", action="store_true",
                   help="record the default seed's fingerprints")
    args = p.parse_args(argv)
    if args.write_reference and (args.seed != DEFAULT_SEED or args.smoke):
        p.error("--write-reference needs the default seed at full size")
    return setup_only(args) if args.mode == "setup" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
