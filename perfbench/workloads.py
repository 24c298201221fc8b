"""The benchmark's four workloads, as config documents and CLI op lists.

A workload is a fixed list of ``accelflow`` CLI invocations ("ops"). Every
``problem.seed`` is derived from the workload seed, so the same seed gives
the same inputs. ``smoke`` shrinks every size for the benchmark's own
tests; it keeps each op's verb, controller and checks.

Why these four (the same text is in BENCHMARK.json):

* flow_euclid: Euclidean-metric flows. The control law, the identity-metric
  solve, the RK4 loop, per-sample diagnostics and the trajectory CSV write
  do the work, and Hessians are cheap.
* flow_curvature: curvature-metric flows over a fixed horizon. The
  Hessian, the eigenvalue floor, the metric solve and the quasi-Newton
  update do the work.
* verify_replay: ``accelflow verify`` on trajectories produced before
  timing starts: CSV read, record rebuild and every verify check.
* discrete_compare: ``accelflow compare`` over the discrete methods, the
  only workload that reaches the discrete layer, the iterates CSV and
  compare.csv.

Sizes are chosen so that each member passes its listed checks at their
default tolerances on every seed tried: min_p_star's rate envelope needs
h = 0.005 on the quadratic (h = 0.01 misses the 1e-6 envelope tolerance on
some seeds), and 0.0025 with the Hessian metric. At h = 0.005 a min_p_star
run to tol 1e-6 takes about 7500 steps (several seconds), so min_p_star runs
over a fixed horizon with the rate check alone; polyak and nesterov run to
tol_g = tol_v = 1e-6. Ops are kept under about a second each so that a run
repeats every op several times.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Optional

NAMES = ("flow_euclid", "flow_curvature", "verify_replay", "discrete_compare")
WORK_UNIT = {"flow_euclid": "steps", "flow_curvature": "steps",
             "verify_replay": "samples", "discrete_compare": "iters"}


@dataclass
class Op:
    """One CLI invocation and what its output is checked against."""

    op_id: str
    kind: str                      # "run" | "compare" | "verify"
    argv: list[str]
    out_dir: str
    labels: tuple[str, ...] = ()   # compare members
    trajectory: Optional[str] = None


@dataclass
class Workload:
    name: str
    configs: dict[str, dict[str, Any]] = field(default_factory=dict)
    prepare: list[Op] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)


def problem_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1, 2 ** 31) for _ in range(count)]


def _quadratic(dim: int, kappa: float, seed: int) -> dict:
    return {"name": "quadratic", "dim": dim, "kappa": kappa, "seed": seed}


def _flow_doc(label: str, problem: dict, method: dict, out_dir: str,
              stride: int = 1, verify: Optional[dict] = None) -> dict:
    doc = {"label": label, "problem": problem,
           "method": {"kind": "flow", **method},
           "output": {"out_dir": out_dir, "stride": stride}}
    if verify is not None:
        doc["verify"] = verify
    return doc


STATIONARITY = {"checks": ["stationarity"]}
STRICT = {"checks": ["dissipation", "stationarity"]}
RATE_ONLY = {"checks": ["dissipation"], "dissipation_mode": "rate",
             "eta": 1.0}
ADJOINT = {"checks": ["adjoint_consistency", "singular_arc"]}


class _Builder:
    def __init__(self, name: str, work_dir: str):
        self.w = Workload(name)
        self.work_dir = work_dir

    def config(self, key: str, doc: dict) -> str:
        path = os.path.join(self.work_dir, "configs", f"{key}.yaml")
        self.w.configs[path] = doc
        return path

    def out(self, key: str) -> str:
        return os.path.join(self.work_dir, "out", key)

    def run(self, key: str, label: str, problem: dict, method: dict,
            stride: int = 1, verify: Optional[dict] = None,
            prepare: bool = False) -> Op:
        out = self.out(key)
        cfg = self.config(key, _flow_doc(label, problem, method, out,
                                         stride, verify))
        op = Op(f"run:{key}", "run", ["run", cfg], out)
        (self.w.prepare if prepare else self.w.ops).append(op)
        return op


def _flow_euclid(b: _Builder, seeds: list[int], smoke: bool) -> None:
    dim, kappa, tol = (6, 10.0, 1e-3) if smoke else (50, 100.0, 1e-6)
    stop = {"t_max": 50.0, "tol_g": tol, "tol_v": tol}
    for i, s in enumerate(seeds):
        q = _quadratic(dim, kappa, s)
        b.run(f"polyak-{i}", "polyak", q,
              {"controller": "polyak", "gamma_a": 10.0, "gamma_b": 10.0,
               "h": 0.01, **stop}, verify=STATIONARITY)
        b.run(f"nesterov-{i}", "nesterov", q,
              {"controller": "nesterov", "gamma_a": 10.0, "h": 0.01, **stop},
              verify=STRICT)
        b.run(f"min_p_star-{i}", "min_p_star", q,
              {"controller": "min_p_star", "eta": 1.0, "h": 0.005,
               "t_max": 0.2 if smoke else 3.0}, verify=RATE_ONLY)


def _flow_curvature(b: _Builder, seeds: list[int], smoke: bool) -> None:
    dim, terms, t_max = (6, 12, 0.2) if smoke else (50, 200, 2.0)
    for i, s in enumerate(seeds):
        q = _quadratic(dim, 10.0 if smoke else 100.0, s)
        lse = {"name": "log_sum_exp", "dim": dim, "terms": terms, "seed": s}
        for controller in ("accel_newton", "quasi_newton"):
            b.run(f"{controller}-{i}", controller, q,
                  {"controller": controller, "gamma_a": 25.0,
                   "gamma_b": 100.0, "h": 0.01, "t_max": t_max})
        b.run(f"min_p_star_hessian-{i}", "min_p_star_hessian", lse,
              {"controller": "min_p_star", "eta": 1.0, "metric": "hessian",
               "eig_floor": 1.0e-2, "h": 0.01, "t_max": t_max / 2})


def _verify_replay(b: _Builder, seeds: list[int], smoke: bool) -> None:
    dim, tol, scale = (6, 1e-3, 0.1) if smoke else (50, 1e-6, 1.0)
    for i, s in enumerate(seeds):
        q = _quadratic(dim, 10.0 if smoke else 100.0, s)
        members = [
            ("nesterov", q, {"controller": "nesterov", "gamma_a": 10.0,
                             "h": 0.01, "t_max": 50.0, "tol_g": tol,
                             "tol_v": tol}, 1, STRICT),
            ("min_p_star", q, {"controller": "min_p_star", "eta": 1.0,
                               "h": 0.005, "t_max": 10.0 * scale}, 2,
             RATE_ONLY),
            ("min_p_star_hessian", q,
             {"controller": "min_p_star", "eta": 1.0, "metric": "hessian",
              "h": 0.0025, "t_max": 2.0 * scale}, 2, RATE_ONLY),
            ("polyak_pd", _quadratic(min(dim, 10), 10.0, s),
             {"controller": "polyak", "gamma_a": 2.0, "gamma_b": 2.0,
              "h": 1e-3, "t_max": 3.0 * scale, "mode": "full_primal_dual"},
             1, ADJOINT),
        ]
        for label, problem, method, stride, verify in members:
            key = f"{label}-{i}"
            gen = b.run(key, label, problem, method, stride=stride,
                        verify=verify, prepare=True)
            traj = os.path.join(gen.out_dir, "trajectory.csv")
            cfg = os.path.join(b.work_dir, "configs", f"{key}.yaml")
            b.w.ops.append(Op(f"verify:{key}", "verify",
                              ["verify", traj, cfg], gen.out_dir,
                              trajectory=traj))


def _discrete_compare(b: _Builder, seeds: list[int], smoke: bool) -> None:
    dim, kappa = (6, 10.0) if smoke else (100, 1e3)
    root = kappa ** 0.5
    methods = {
        "heavy_ball": {"alpha": 4.0 / (root + 1.0) ** 2,
                       "beta": ((root - 1.0) / (root + 1.0)) ** 2},
        "nesterov1": {"alpha": 1.0 / kappa,
                      "beta": (root - 1.0) / (root + 1.0)},
        "nesterov2": {"alpha": 1.0 / kappa,
                      "beta": (root - 1.0) / (root + 1.0)},
        "cg": {"alpha": "exact_line_search", "beta_cg": "fletcher_reeves"},
    }
    for i, s in enumerate(seeds):
        q = _quadratic(dim, kappa, s)
        key = f"compare-{i}"
        out = b.out(key)
        cfgs = [b.config(f"{key}-{name}",
                         {"problem": q,
                          "method": {"kind": "discrete", "name": name,
                                     "max_iters": 5000, **coeffs},
                          "output": {"out_dir": out},
                          "verify": STATIONARITY})
                for name, coeffs in methods.items()]
        b.w.ops.append(Op(f"compare:{key}", "compare",
                          ["compare", *cfgs, "--out-dir", out], out,
                          labels=tuple(methods)))


_BUILDERS = {"flow_euclid": (_flow_euclid, 3),
             "flow_curvature": (_flow_curvature, 2),
             "verify_replay": (_verify_replay, 2),
             "discrete_compare": (_discrete_compare, 3)}


def build(name: str, seed: int, work_dir: str,
          smoke: bool = False) -> Workload:
    """The workload's configs, untimed prepare ops and timed op list."""
    builder, count = _BUILDERS[name]
    b = _Builder(name, work_dir)
    builder(b, problem_seeds(name, seed, 1 if smoke else count), smoke)
    return b.w
