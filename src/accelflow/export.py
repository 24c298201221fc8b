"""Trajectory CSV, summary JSON, and comparison-table export.

CSV columns carry full double precision (17 significant digits) so the
algebraic equivalences can be re-checked offline from the artifacts
alone. All files are written atomically (temp file in the target
directory, then rename), and summaries contain no timestamps, so a rerun
with the same config and seed produces byte-identical output.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Optional, Sequence

import numpy as np

from .control import ControllerSpec, evaluate_control
from .discrete import IterateSequence
from .flow import (
    DIVERGENCE_LIMIT,
    AugmentedState,
    TrajectoryRecord,
    TrajectorySample,
    terminal_residuals,
)
from .objective import ObjectiveOracle

FLOAT_FMT = "%.17g"
GRAD_DECADES = tuple(10.0 ** -k for k in range(1, 7))


def decade_label(tol: float) -> str:
    return f"1e-{round(-np.log10(tol)):02d}"


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fmt(value: float) -> str:
    return FLOAT_FMT % value


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------


def trajectory_header(dim: int, full_mode: bool) -> list[str]:
    cols = (["t"] + [f"x{i}" for i in range(dim)]
            + [f"v{i}" for i in range(dim)]
            + ["y", "E", "grad_norm", "V", "lieV"])
    if full_mode:
        cols += [f"lx{i}" for i in range(dim)]
        cols += [f"lv{i}" for i in range(dim)]
    return cols


def write_trajectory_csv(record: TrajectoryRecord, path: str) -> None:
    dim = int(record.meta["dim"])
    full_mode = record.meta.get("mode") == "full_primal_dual"
    header = trajectory_header(dim, full_mode)
    # one % per row; each field is formatted exactly as _fmt would
    row_fmt = ",".join([FLOAT_FMT] * len(header))
    lines = [",".join(header)]
    for s in record.samples:
        st = s.state
        row = ([st.t] + st.x.tolist() + st.v.tolist()
               + [st.y, s.E, s.grad_norm, s.V, s.lieV])
        if full_mode:
            row += st.lambda_x.tolist() + st.lambda_v.tolist()
        lines.append(row_fmt % tuple(row))
    atomic_write(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a trajectory CSV back into named arrays.

    Returns t, x, v, y, E, grad_norm, V, lieV and, when present,
    lambda_x / lambda_v; x and v have shape (n_samples, dim).
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    dim = sum(1 for c in header if c.startswith("x"))
    expected = trajectory_header(dim, full_mode="lx0" in header)
    if header != expected:
        raise ValueError(f"{path}: unexpected columns {header}")
    if body.shape[1] != len(header):
        raise ValueError(f"{path}: {body.shape[1]} columns of data under "
                         f"{len(header)} header fields")
    out: dict[str, np.ndarray] = {
        "t": body[:, 0],
        "x": body[:, 1:1 + dim],
        "v": body[:, 1 + dim:1 + 2 * dim],
        "y": body[:, 1 + 2 * dim],
        "E": body[:, 2 + 2 * dim],
        "grad_norm": body[:, 3 + 2 * dim],
        "V": body[:, 4 + 2 * dim],
        "lieV": body[:, 5 + 2 * dim],
    }
    if "lx0" in header:
        base = 6 + 2 * dim
        out["lambda_x"] = body[:, base:base + dim]
        out["lambda_v"] = body[:, base + dim:base + 2 * dim]
    return out


def trajectory_from_arrays(data: dict[str, np.ndarray],
                           oracle: ObjectiveOracle, spec: ControllerSpec,
                           meta: dict[str, Any]) -> TrajectoryRecord:
    """Rebuild a TrajectoryRecord from exported arrays.

    The control is re-evaluated from the controller spec at each stored
    state (it is a pure function of the state), while the diagnostic
    columns keep their exported values so the honesty check in
    check_dissipation still compares cached against recomputed. Metrics
    with path-dependent state cannot be rebuilt this way; callers reject
    those before getting here.
    """
    full = "lambda_x" in data
    samples = []
    for k in range(data["t"].shape[0]):
        x = data["x"][k]
        v = data["v"][k]
        g = oracle.gradient(x)
        lam_x = data["lambda_x"][k] if full else -g
        lam_v = data["lambda_v"][k] if full else np.zeros_like(x)
        state = AugmentedState(t=float(data["t"][k]), x=x, v=v,
                               y=float(data["y"][k]), lambda_x=lam_x,
                               lambda_v=lam_v)
        u = evaluate_control(spec, oracle, x, -g, v).u
        samples.append(TrajectorySample(
            state=state, u=u, E=float(data["E"][k]),
            grad_norm=float(data["grad_norm"][k]), V=float(data["V"][k]),
            lieV=float(data["lieV"][k])))

    final = samples[-1].state
    tol_g = float(meta.get("tol_g", 1e-6))
    tol_v = float(meta.get("tol_v", 1e-6))
    rule_met = bool(samples[-1].grad_norm <= tol_g
                    and np.linalg.norm(final.v) <= tol_v)
    beyond = bool(max(np.max(np.abs(final.x)), np.max(np.abs(final.v)))
                  > DIVERGENCE_LIMIT)
    # the integrator drops a blown-up state rather than recording it, so
    # a diverged run shows up as a truncated file: it ends before t_max
    # without meeting the stopping rule
    t_max, h = meta.get("t_max"), meta.get("h")
    truncated = (t_max is not None and h is not None
                 and final.t < float(t_max) - 0.5 * float(h))
    diverged = beyond or (truncated and not rule_met)
    converged = not diverged and rule_met
    return TrajectoryRecord(samples=samples, converged=converged,
                            diverged=diverged, meta=dict(meta))


def write_iterates_csv(seq: IterateSequence, oracle: ObjectiveOracle,
                       path: str) -> None:
    dim = seq.points[0].shape[0]
    header = ["k"] + [f"x{i}" for i in range(dim)] + ["E", "grad_norm"]
    # one % per row; each field is formatted exactly as _fmt would
    row_fmt = ",".join([FLOAT_FMT] * len(header))
    norms = seq.grad_norms(oracle).tolist()
    lines = [",".join(header)]
    for k, x in enumerate(seq.points):
        if np.isfinite(x).all():
            e, g = float(oracle.value(x)), norms[k]
        else:
            e, g = float("nan"), float("nan")
        lines.append(row_fmt % (float(k), *x.tolist(), e, g))
    atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def time_to_gradient_decades(record: TrajectoryRecord) -> dict[str, Optional[float]]:
    out: dict[str, Optional[float]] = {}
    for tol in GRAD_DECADES:
        hit = next((s.state.t for s in record.samples if s.grad_norm <= tol),
                   None)
        out[decade_label(tol)] = hit
    return out


def iterations_to_gradient_decades(seq: IterateSequence,
                                   oracle: ObjectiveOracle) -> dict[str, Optional[int]]:
    norms = seq.grad_norms(oracle)
    out: dict[str, Optional[int]] = {}
    for tol in GRAD_DECADES:
        hits = np.nonzero(norms <= tol)[0]
        out[decade_label(tol)] = int(hits[0]) if hits.size else None
    return out


def flow_summary(record: TrajectoryRecord, oracle: ObjectiveOracle,
                 label: str) -> dict[str, Any]:
    res = terminal_residuals(record.final.state, oracle)
    return {
        "label": label,
        "kind": "flow",
        "converged": record.converged,
        "diverged": record.diverged,
        "steps_taken": record.meta.get("steps_taken"),
        "t_final": record.final.state.t,
        "final": {
            "E": record.final.E,
            "grad_norm": res.r_grad,
            "v_norm": res.r_v,
            "lambda_x_norm": res.r_lambda_x,
            "lambda_v_norm": res.r_lambda_v,
        },
        "time_to_grad": time_to_gradient_decades(record),
    }


def discrete_summary(seq: IterateSequence, oracle: ObjectiveOracle,
                     label: str, tol_g: float) -> dict[str, Any]:
    x_final = seq.points[-1]
    finite = bool(np.all(np.isfinite(x_final)))
    gnorm = float(np.linalg.norm(seq.gradient(-1, oracle))) if finite \
        else float("inf")
    return {
        "label": label,
        "kind": "discrete",
        "converged": finite and gnorm <= tol_g,
        "diverged": not finite,
        "iterations": len(seq.points) - 1,
        "final": {
            "E": float(oracle.value(x_final)) if finite else None,
            "grad_norm": gnorm if finite else None,
        },
        "iterations_to_grad": iterations_to_gradient_decades(seq, oracle),
    }


def _json_default(value: Any) -> Any:
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_summary_json(payload: dict[str, Any], path: str) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2,
                      default=_json_default)
    atomic_write(path, text + "\n")


# ---------------------------------------------------------------------------
# comparison table
# ---------------------------------------------------------------------------


def write_compare_csv(rows: Sequence[dict[str, Any]], path: str) -> None:
    """One row per method: progress cells then final objective value.

    Cells hold continuous time for flows and iteration counts for
    discrete methods; a decade a method never reached is written as nan.
    """
    labels = [decade_label(tol) for tol in GRAD_DECADES]
    header = ["label"] + [f"grad_le_{lab}" for lab in labels] + ["final_E"]
    lines = [",".join(header)]
    for row in rows:
        cells = [row["label"]]
        for lab in labels:
            value = row["cells"].get(lab)
            cells.append("nan" if value is None else _fmt(float(value)))
        final_e = row.get("final_E")
        cells.append("nan" if final_e is None else _fmt(float(final_e)))
        lines.append(",".join(cells))
    atomic_write(path, "\n".join(lines) + "\n")
