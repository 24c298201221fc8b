"""Unit-step stability study: the Newton regime belongs to the metric.

Two quadratics share a random rotation and differ only in eigenvalue
range: a stiff one (eigenvalues in [1, 100]) and a soft one ([0.019,
1.9], same condition number). On each we run the two-step recursion

    v_{k+1} = v_k - h W^{-1}(gamma_a grad E + gamma_b v_k)
    x_{k+1} = x_k + h v_{k+1}

at gains (1, 1) and the deliberately aggressive step h = 1, once with
the Euclidean metric W = I and once with the Hessian metric W = hess E.
The Euclidean scheme is the classical momentum iteration with
coefficients given by flow_to_discrete; at these settings it is plain
gradient descent with unit step, which diverges whenever an eigenvalue
exceeds 2. The Hessian metric removes that ceiling: (gamma_a, gamma_b,
h) = (1, 1, 1) lands on the Newton step and finishes in one iteration
regardless of the spectrum. A reference row integrates the same gains
as a continuous flow at an accuracy step on the stiff problem, where it
converges in the Euclidean metric: the unit-step failure is a
discretization artifact, not a property of the flow.

Writes summary.csv into --out-dir and prints the same table.
"""

import argparse
import csv
import os

import numpy as np

from accelflow.control import polyak_controller
from accelflow.discrete import constant, flow_to_discrete, heavy_ball_iterate
from accelflow.discrete import accelerated_newton_iterate
from accelflow.flow import StoppingRule, initial_state, integrate
from accelflow.metric import MetricKind, MetricSpec
from accelflow.objective import random_quadratic

GAINS = (1.0, 1.0)
UNIT_STEP = 1.0
FLOW_STEP = 1e-2
TOL_G = 1e-6
MAX_ITERS = 2000
COLUMNS = ("spectrum", "scheme", "metric", "cost", "final_grad", "status")


def unit_step_row(problem, spectrum, kind):
    """One row for the h = 1 recursion in the given metric."""
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is MetricKind.EUCLIDEAN:
            alpha, beta, _ = flow_to_discrete((*GAINS, 0.0), UNIT_STEP)
            seq = heavy_ball_iterate(problem.oracle, problem.x0, MAX_ITERS,
                                     constant(alpha), constant(beta),
                                     tol_g=TOL_G)
        else:
            seq = accelerated_newton_iterate(problem.oracle, MetricSpec(kind),
                                             problem.x0, GAINS, UNIT_STEP,
                                             MAX_ITERS, tol_g=TOL_G)
        grad = seq.grad_norms[-1]
    iters = len(seq.points) - 1
    if seq.diverged:
        status = "diverged"
    else:
        status = "converged" if grad <= TOL_G else "stalled"
    return (spectrum, "unit step", kind.value, f"{iters} iters",
            f"{grad:.1e}", status)


def flow_row(problem, spectrum):
    """Reference row: the same gains as a continuous-time flow."""
    record = integrate(polyak_controller(*GAINS), problem.oracle,
                       initial_state(problem.oracle, problem.x0),
                       FLOW_STEP, 100.0, stop=StoppingRule(tol_g=TOL_G),
                       record_stride=100)
    status = "converged" if record.converged else "stalled"
    return (spectrum, f"flow h={FLOW_STEP}", "euclidean",
            f"t={record.columns['t'][-1]:.1f}",
            f"{record.columns['grad_norm'][-1]:.1e}", status)


def print_table(rows):
    widths = [max(len(str(r[i])) for r in (COLUMNS, *rows))
              for i in range(len(COLUMNS))]
    for row in (COLUMNS, *rows):
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="runs/metric_comparison")
    args = parser.parse_args(argv)

    problems = {
        "stiff": random_quadratic(10, 100.0, seed=11),
        "soft": random_quadratic(10, 100.0, seed=11, scale=0.019),
    }
    for name, prob in problems.items():
        eigs = np.linalg.eigvalsh(prob.oracle.hessian(prob.x0))
        print(f"{name}: eigenvalues in [{eigs[0]:.3g}, {eigs[-1]:.3g}]")
    print()

    rows = [flow_row(problems["stiff"], "stiff")]
    for name, prob in problems.items():
        rows.append(unit_step_row(prob, name, MetricKind.EUCLIDEAN))
        rows.append(unit_step_row(prob, name, MetricKind.HESSIAN))
    print_table(rows)

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "summary.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(rows)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
