"""Trajectory CSV, summary JSON, and comparison-table export.

A trajectory CSV is a TrajectoryRecord's table written out: its header
expands flow.COLUMNS, each vector column once per coordinate under its
VECTOR_PREFIX, and read_trajectory_csv returns the same columns. Only the
control u is left out; it is a function of the state and is re-evaluated
on the way back in.

CSV columns carry full double precision (17 significant digits) so the
algebraic equivalences can be re-checked offline from the artifacts
alone. All files are written atomically (temp file in the target
directory, then rename), and summaries contain no timestamps, so a rerun
with the same config and seed produces byte-identical output.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from .control import ControllerSpec, evaluate_control
from .discrete import IterateSequence
from .flow import COLUMNS, DIVERGENCE_LIMIT, TrajectoryRecord
from .objective import ObjectiveOracle

FLOAT_FMT = "%.17g"
GRAD_DECADES = tuple(10.0 ** -k for k in range(1, 7))


def decade_label(tol: float) -> str:
    return f"1e-{round(-np.log10(tol)):02d}"


def atomic_write(path: str, lines: Iterable[str]) -> None:
    """Write lines, each ending in its own newline, to path as they come."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fmt(value: float) -> str:
    return FLOAT_FMT % value


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------


#: CSV column prefix of each vector column, written once per coordinate
VECTOR_PREFIX = {"x": "x", "v": "v", "lambda_x": "lx", "lambda_v": "lv"}


def _csv_columns(full_mode: bool) -> tuple[str, ...]:
    """The record columns a file holds; a reduced-mode file stops before
    the costates, which it defines rather than records."""
    return COLUMNS if full_mode else COLUMNS[:COLUMNS.index("lambda_x")]


def trajectory_header(dim: int, full_mode: bool) -> list[str]:
    header: list[str] = []
    for name in _csv_columns(full_mode):
        prefix = VECTOR_PREFIX.get(name)
        header += ([name] if prefix is None
                   else [f"{prefix}{i}" for i in range(dim)])
    return header


def write_trajectory_csv(record: TrajectoryRecord, path: str) -> None:
    dim = int(record.meta["dim"])
    full_mode = record.meta.get("mode") == "full_primal_dual"
    header = trajectory_header(dim, full_mode)
    cols = record.columns
    body = np.column_stack([cols[name] for name in _csv_columns(full_mode)])
    # one % per row; each field is formatted exactly as _fmt would
    row_fmt = ",".join([FLOAT_FMT] * len(header)) + "\n"
    atomic_write(path, itertools.chain(
        [",".join(header) + "\n"],
        (row_fmt % tuple(row.tolist()) for row in body)))


def read_trajectory_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a trajectory CSV back into the record's columns.

    A reduced-mode file gives every column but lambda_x and lambda_v.
    Raises ValueError, without the path, on a malformed file, on one with
    no samples, and on a non-finite cell.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        first = next((line for line in fh if line.strip()), None)
        if first is None:
            raise ValueError("the file has no samples")
        body = np.loadtxt(itertools.chain([first], fh), delimiter=",",
                          ndmin=2)
    dim = sum(1 for c in header if c.startswith("x"))
    full_mode = "lx0" in header
    if header != trajectory_header(dim, full_mode):
        raise ValueError(f"unexpected columns {header}")
    if body.shape[1] != len(header):
        raise ValueError(f"{body.shape[1]} columns of data under "
                         f"{len(header)} header fields")
    bad = np.argwhere(~np.isfinite(body))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"row {r + 1}, column {header[c]}: non-finite "
                         f"value {body[r, c]}")
    names = _csv_columns(full_mode)
    widths = [dim if name in VECTOR_PREFIX else 1 for name in names]
    blocks = np.split(body, np.cumsum(widths)[:-1], axis=1)
    return {name: block if name in VECTOR_PREFIX else block[:, 0]
            for name, block in zip(names, blocks)}


def trajectory_from_arrays(columns: dict[str, np.ndarray],
                           oracle: ObjectiveOracle, spec: ControllerSpec,
                           meta: dict[str, Any]) -> TrajectoryRecord:
    """Rebuild a TrajectoryRecord from the columns of an exported file.

    The control is re-evaluated from the controller spec at the stored
    states (it is a pure function of the state), in one call over the
    stacked rows, while the diagnostic columns keep their exported values
    so the honesty check in check_dissipation still compares cached
    against recomputed. A reduced-mode file's costates are filled in from
    their definitions. Metrics with path-dependent state cannot be
    rebuilt this way; callers reject those before getting here.
    """
    cols = dict(columns)
    lam_x = -oracle.gradient(cols["x"])
    cols["u"] = evaluate_control(spec, oracle, cols["x"], lam_x, cols["v"]).u
    if "lambda_x" not in cols:
        cols["lambda_x"] = lam_x
        cols["lambda_v"] = np.zeros_like(cols["x"])

    x, v, t = cols["x"][-1], cols["v"][-1], float(cols["t"][-1])
    tol_g = float(meta.get("tol_g", 1e-6))
    tol_v = float(meta.get("tol_v", 1e-6))
    rule_met = bool(cols["grad_norm"][-1] <= tol_g
                    and np.linalg.norm(v) <= tol_v)
    beyond = bool(max(np.max(np.abs(x)), np.max(np.abs(v)))
                  > DIVERGENCE_LIMIT)
    # the integrator drops a blown-up state rather than recording it, so
    # a diverged run shows up as a truncated file: it ends before t_max
    # without meeting the stopping rule
    t_max, h = meta.get("t_max"), meta.get("h")
    truncated = (t_max is not None and h is not None
                 and t < float(t_max) - 0.5 * float(h))
    diverged = beyond or (truncated and not rule_met)
    converged = not diverged and rule_met
    return TrajectoryRecord(columns=cols, converged=converged,
                            diverged=diverged, meta=dict(meta))


def write_iterates_csv(seq: IterateSequence, oracle: ObjectiveOracle,
                       path: str) -> None:
    dim = seq.points[0].shape[0]
    header = ["k"] + [f"x{i}" for i in range(dim)] + ["E", "grad_norm"]
    # one % per row; each field is formatted exactly as _fmt would
    row_fmt = ",".join([FLOAT_FMT] * len(header)) + "\n"

    def lines():
        yield ",".join(header) + "\n"
        for k, x in enumerate(seq.points):
            if np.isfinite(x).all():
                e, g = float(oracle.value(x)), seq.grad_norms[k]
            else:
                e, g = float("nan"), float("nan")
            yield row_fmt % (float(k), *x.tolist(), e, g)
    atomic_write(path, lines())


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _first_hits(norms: Sequence[float], stamps: Sequence) -> dict[str, Any]:
    """For each gradient decade, the stamp of the first norm within it."""
    norms = np.asarray(norms)
    out: dict[str, Any] = {}
    for tol in GRAD_DECADES:
        hits = np.nonzero(norms <= tol)[0]
        out[decade_label(tol)] = stamps[hits[0]] if hits.size else None
    return out


def time_to_gradient_decades(record: TrajectoryRecord) -> dict[str, Optional[float]]:
    cols = record.columns
    return _first_hits(cols["grad_norm"], cols["t"].tolist())


def iterations_to_gradient_decades(seq: IterateSequence) -> dict[str, Optional[int]]:
    return _first_hits(seq.grad_norms, range(len(seq.grad_norms)))


def flow_summary(record: TrajectoryRecord, label: str) -> dict[str, Any]:
    """Run outcome, with the distances of the final sample from the
    final-time targets grad E = 0, v = 0, lambda = 0."""
    last = {name: col[-1] for name, col in record.columns.items()}
    return {
        "label": label,
        "kind": "flow",
        "converged": record.converged,
        "diverged": record.diverged,
        "steps_taken": record.meta.get("steps_taken"),
        "metric": record.meta["metric"],
        "t_final": float(last["t"]),
        "final": {
            "E": float(last["E"]),
            "grad_norm": float(last["grad_norm"]),
            "v_norm": float(np.linalg.norm(last["v"])),
            "lambda_x_norm": float(np.linalg.norm(last["lambda_x"])),
            "lambda_v_norm": float(np.linalg.norm(last["lambda_v"])),
        },
        "time_to_grad": time_to_gradient_decades(record),
    }


def discrete_summary(seq: IterateSequence, oracle: ObjectiveOracle,
                     label: str, tol_g: float) -> dict[str, Any]:
    x_final = seq.points[-1]
    finite = bool(np.all(np.isfinite(x_final)))
    gnorm = seq.grad_norms[-1] if finite else float("inf")
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
        "iterations_to_grad": iterations_to_gradient_decades(seq),
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
    atomic_write(path, [text + "\n"])


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

    def lines():
        yield ",".join(header) + "\n"
        for row in rows:
            cells = [row["label"]]
            for lab in labels:
                value = row["cells"].get(lab)
                cells.append("nan" if value is None else _fmt(float(value)))
            final_e = row.get("final_E")
            cells.append("nan" if final_e is None else _fmt(float(final_e)))
            yield ",".join(cells) + "\n"
    atomic_write(path, lines())
