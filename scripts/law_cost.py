"""Per-call cost of the bound control laws in two checkouts, in one process.

    python3 scripts/law_cost.py --base DIR --head DIR [--dim 50] \
        [--repeat 7] [--number 2000] [--seed 1]

Loads each checkout's src/accelflow under its own module name
(accelflow_base, accelflow_head), so both run in one interpreter against
the same numpy. On random_quadratic(dim, 100, seed) it binds the
benchmark's Euclidean flows in each checkout: polyak (gains 10, 10),
nesterov (gamma_a 10) and min_p_star (eta 1), the last at one state in
its inactive branch and one in its active branch. It times each law and
the quadratic's one-point gradient: --repeat rounds, each timing the base
and then the head over --number calls, and keeps each side's best round.
Both checkouts need the bound laws (ControllerSpec.bind).

The "metric solve" row is the accel_newton law (gains 25, 100), bound
as a run binds it, so its solve is with the floored constant Hessian,
factored once. The "pointwise floor" row is metric_matrix with a
Hessian metric at floor 1e-2 and no constant Hessian, given the Hessian
of random_log_sum_exp(dim, 4 dim, seed) at its x0: the floor a Hessian
that depends on the point takes at each point.
The script pins one BLAS thread, as the CLI does, unless the caller set a
count.

A last row, "trajectory text", is the per-value cost of each checkout's
write_trajectory_csv on one benchmark-shaped record: the head's polyak
flow (gains 10, 10) from the problem's x0, h = 1e-3 to t = 1.5, which at
dim 50 is 1501 rows of 106 values. Each round writes it once per side.

A "record memory" row is each checkout's memory for that record:
tracemalloc's peak over its own integrate of the same run followed by its
write_trajectory_csv, in bytes per value of the record's columns (t, x,
v, y, E, grad_norm, V, lie V, the costates and u), the smallest of the
--repeat rounds.

A "trajectory read" row is the per-value cost of each checkout's
read_trajectory_csv of that file, once per round, and a "read memory" row
is tracemalloc's peak over that read in bytes per byte of the columns it
returns, the smallest of the rounds.

Before timing, each law's u, the floored metric, each gradient, the two
trajectory files and the columns each checkout reads back from them must
hold the same bytes in both checkouts. Prints one row per call with the
base and head cost in raw microseconds per call (per value for the
trajectory text and read, bytes per value for the record memory, per
table byte for the read memory) and their ratio. Exits 0, or 1 when a u,
the metric, a gradient, the trajectory text or the table read differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import tempfile
import timeit
import tracemalloc
from types import ModuleType
from typing import Callable

for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")

import numpy as np


def load(checkout: str, name: str) -> ModuleType:
    """checkout's src/accelflow package, imported as name."""
    root = os.path.join(checkout, "src", "accelflow")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"),
        submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("control", "objective", "flow", "export"):
        importlib.import_module(f"{name}.{sub}")
    return package


def branch_states(law: Callable, oracle, dim: int,
                  seed: int) -> dict[str, tuple]:
    """One (x, lambda, v) state per min_p_star branch: random states on the
    arc lambda = -grad E(x), searched in a fixed order."""
    rng = np.random.default_rng(seed)
    found: dict[str, tuple] = {}
    for _ in range(1000):
        x = rng.standard_normal(dim)
        v = rng.standard_normal(dim) * rng.choice([1e-2, 1.0, 1e2])
        state = (x, -oracle.gradient(x), v)
        found.setdefault(law(*state).branch, state)
        if {"inactive", "active"} <= found.keys():
            return found
    raise RuntimeError("no state found in both min_p_star branches")


def calls(package: ModuleType, dim: int, seed: int,
          states: dict[str, tuple]) -> dict[str, Callable[[], object]]:
    """name -> a no-argument call of that law or of the gradient."""
    control = package.control
    oracle = package.objective.random_quadratic(dim, 100.0, seed=seed).oracle
    polyak = control.polyak_controller(10.0, 10.0).bind(oracle)
    nesterov = control.nesterov_flow_controller(10.0).bind(oracle)
    star = control.MinPStar(rate_eta=1.0).bind(oracle)
    newton = control.accelerated_newton_controller(25.0, 100.0).bind(oracle)
    lse = package.objective.random_log_sum_exp(dim, 4 * dim, seed=seed)
    floored = package.metric.MetricSpec("hessian", eig_floor=1e-2)
    hessian = lse.oracle.hessian(lse.x0)
    any_state = states["active"]
    x = any_state[0]
    return {
        "polyak": lambda: polyak(*any_state),
        "nesterov": lambda: nesterov(*any_state),
        "min_p_star inactive": lambda: star(*states["inactive"]),
        "min_p_star active": lambda: star(*states["active"]),
        "metric solve": lambda: newton(*any_state),
        "pointwise floor": lambda: package.metric.metric_matrix(
            floored, lse.oracle, lse.x0, hessian),
        "gradient": lambda: oracle.gradient(x),
    }


def output(result: object) -> bytes:
    """The bytes a call gives: a law's u, a metric or the gradient."""
    return np.asarray(getattr(result, "u", result)).tobytes()


def trajectory(package: ModuleType, dim: int, seed: int):
    """The benchmark-shaped record the trajectory text row writes."""
    problem = package.objective.random_quadratic(dim, 100.0, seed=seed)
    spec = package.control.polyak_controller(10.0, 10.0)
    state0 = package.flow.initial_state(problem.oracle, problem.x0)
    return package.flow.integrate(spec, problem.oracle, state0, 1e-3, 1.5)


def text_writes(packages: list[ModuleType], record,
                directory: str) -> list[tuple[str, Callable[[], None]]]:
    """(path, a no-argument write of record there) per checkout."""
    paths = [os.path.join(directory, f"{k}.csv")
             for k in range(len(packages))]
    return [(path, lambda pkg=pkg, path=path:
             pkg.export.write_trajectory_csv(record, path))
            for pkg, path in zip(packages, paths)]


def record_memory(package: ModuleType, dim: int, seed: int,
                  path: str) -> int:
    """The traced peak bytes of package's run of the trajectory text record
    and its write to path."""
    tracemalloc.start()
    try:
        package.export.write_trajectory_csv(trajectory(package, dim, seed),
                                            path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_read(package: ModuleType, path: str) -> float:
    """tracemalloc's peak over package's read of the trajectory file at
    path, in bytes per byte of the columns it returns."""
    tracemalloc.start()
    try:
        columns = package.export.read_trajectory_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / sum(column.nbytes for column in columns.values())


def table_bytes(columns: dict[str, np.ndarray]) -> bytes:
    """The names, shapes and bits of the columns a read returns."""
    return repr([(name, column.shape) for name, column in columns.items()]
                ).encode() + b"".join(column.tobytes()
                                      for column in columns.values())


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the parent checkout")
    p.add_argument("--head", required=True, help="the changed checkout")
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeat", type=int, default=7)
    p.add_argument("--number", type=int, default=2000)
    args = p.parse_args(argv)

    base, head = load(args.base, "accelflow_base"), load(args.head,
                                                         "accelflow_head")
    oracle = head.objective.random_quadratic(args.dim, 100.0,
                                             seed=args.seed).oracle
    states = branch_states(
        head.control.MinPStar(rate_eta=1.0).bind(oracle), oracle, args.dim,
        args.seed)
    sides = [calls(pkg, args.dim, args.seed, states) for pkg in (base, head)]
    differ = [name for name in sides[0]
              if output(sides[0][name]()) != output(sides[1][name]())]
    record = trajectory(head, args.dim, args.seed)
    values = record.columns["t"].size * (2 * args.dim + 6)
    with tempfile.TemporaryDirectory() as directory:
        writes = text_writes([base, head], record, directory)
        for _, write in writes:
            write()
        if len({read_bytes(path) for path, _ in writes}) > 1:
            differ.append("trajectory text")
        read_path = writes[0][0]
        reads = [lambda pkg=pkg: pkg.export.read_trajectory_csv(read_path)
                 for pkg in (base, head)]
        if len({table_bytes(read()) for read in reads}) > 1:
            differ.append("trajectory read")
        for name in differ:
            print(f"{name}: the checkouts give different bytes")
        if differ:
            return 1

        best = [{name: float("inf") for name in side} for side in sides]
        text = [float("inf")] * 2
        memory = [float("inf")] * 2
        read = [float("inf")] * 2
        read_memory = [float("inf")] * 2
        for _ in range(args.repeat):
            for name in sides[0]:
                for side, fastest in zip(sides, best):
                    took = timeit.timeit(side[name], number=args.number)
                    fastest[name] = min(fastest[name], took)
            for k, (_, write) in enumerate(writes):
                text[k] = min(text[k], timeit.timeit(write, number=1))
            for k, (pkg, (path, _)) in enumerate(zip((base, head), writes)):
                memory[k] = min(memory[k], record_memory(pkg, args.dim,
                                                         args.seed, path))
            for k, (pkg, call) in enumerate(zip((base, head), reads)):
                read[k] = min(read[k], timeit.timeit(call, number=1))
                read_memory[k] = min(read_memory[k],
                                     traced_read(pkg, read_path))
    print(f"dim {args.dim}, best of {args.repeat} x {args.number} calls, "
          f"raw us per call")
    print(f"{'call':<22}{'base':>8}{'head':>8}{'head/base':>11}")
    rows = [(name, *(fastest[name] / args.number * 1e6 for fastest in best))
            for name in sides[0]]
    rows.append(("trajectory text", *(t / values * 1e6 for t in text)))
    recorded = sum(column.size for column in record.columns.values())
    rows.append(("record memory", *(m / recorded for m in memory)))
    rows.append(("trajectory read", *(t / values * 1e6 for t in read)))
    rows.append(("read memory", *read_memory))
    for name, b, h in rows:
        # three decimals, so that the ratio of the printed costs is the
        # printed ratio to within 1% down to 0.1 us
        print(f"{name:<22}{b:8.3f}{h:8.3f}{h / b:11.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
