"""Trajectory CSV, summary JSON, and comparison-table export.

A trajectory CSV is a TrajectoryRecord's table written out: its header
expands flow.COLUMNS, each vector column once per coordinate under its
VECTOR_PREFIX, and read_trajectory_csv returns the same columns. Only the
control u is left out; it is a function of the state and is re-evaluated
on the way back in.

CSV columns carry full double precision (17 significant digits) so the
algebraic equivalences can be re-checked offline from the artifacts
alone. The trajectory and iterate tables become text in blocks of
BLOCK_VALUES values, by csvtext's numpy kernel, whose every field is byte
for byte what '%.17g' % v gives; a trajectory is read back in chunks of
_READ_CHUNK bytes by its inverse, bit for bit what np.loadtxt gives. All
files are written atomically (temp file in the target directory, then
rename), and summaries contain no timestamps, so a rerun with the same
config and seed produces byte-identical output.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import tempfile
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .clf import _norm
from .control import ControllerSpec, evaluate_control
from .csvtext import _FIELD, FLOAT_FMT, _csv_text, _csv_values
from .discrete import IterateSequence
from .flow import COLUMNS, DIVERGENCE_LIMIT, TrajectoryRecord, _is_reduced
from .objective import ObjectiveOracle

GRAD_DECADES = tuple(10.0 ** -k for k in range(1, 7))


def decade_label(tol: float) -> str:
    return f"1e-{round(-np.log10(tol)):02d}"


def atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Write chunks of encoded text, the file's lines in order, to path as
    they come."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


#: values per block of CSV text, in trajectory and iterate files alike; a
#: block holds as many whole rows as fit. A block is also the unit of
#: work before the text: its rows are stacked, and an iterate block's E
#: is taken over its points, one block at a time. csvtext._csv_text
#: keeps about 100 bytes per value of its block in flight (102 traced on
#: a dim-100 trajectory block of 1854 values, its 32-byte slots among
#: them). They add to a run's memory at the moment of writing, and a
#: larger block's freed heap made the ops after a write page-fault more:
#: 4.7 times the faults per flow_curvature pass at 4096 values, none more
#: than the per-row writer at 2048
BLOCK_VALUES = 2048


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


def _write_table(path: str, header: list[str], rows: int,
                 block: Callable[[int, int], np.ndarray]) -> None:
    """Write a CSV table of rows rows under header at path, one text
    block at a time: as many whole rows as fit in BLOCK_VALUES values,
    and at least one. block(start, stop) stacks the values of rows start
    to stop (stop may pass the last row); only that block and its text
    are in flight."""
    step = max(1, BLOCK_VALUES // len(header))
    atomic_write(path, itertools.chain(
        [(",".join(header) + "\n").encode()],
        (_csv_text(block(start, start + step))
         for start in range(0, rows, step))))


def write_trajectory_csv(record: TrajectoryRecord, path: str) -> None:
    """Write record's table as a trajectory CSV at path.

    Each text block's rows are stacked from the columns' row slices, so
    writing never holds a second copy of the whole table.
    """
    dim = int(record.meta["dim"])
    full_mode = not _is_reduced(record)
    header = trajectory_header(dim, full_mode)
    columns = [record.columns[name] for name in _csv_columns(full_mode)]
    _write_table(path, header, len(columns[0]), lambda start, stop:
                 np.column_stack([column[start:stop] for column in columns]))


class DivergedRowError(ValueError):
    """A trajectory file's diagnostic cell (any column after t, x and v)
    is not finite: the run recorded the state it diverged at, as it does
    for a start state whose gradient norm overflows."""


#: bytes of trajectory text per call of csvtext._csv_values, the reader's
#: numpy kernel; a chunk holds the whole rows that fit, and the rest of
#: its last row starts the next one. Each call pays a fixed cost of
#: numpy calls, and the kernel holds up to about 92 bytes per field of
#: its chunk at once: 128 KiB read verify_replay's files about 13% faster
#: than 64 KiB, and the read of a dim-50 file of 1601 rows traced 1.50
#: times its table (1.26 at 64 KiB, 1.98 at 256 KiB)
_READ_CHUNK = 1 << 17


def _read_rows(fh, cols: int) -> np.ndarray | None:
    """The table of the rows left in fh, a binary file, read a chunk at
    a time by csvtext._csv_values; None where it declines a chunk, where
    the text does not end in a newline, and where there is none.

    A first pass counts the rows, so that the table is made once, at its
    size, before the kernel's arrays; rows that differ in the second pass
    give None. A table sized from the first chunk, grown and cut to its
    rows after the read raised verify_replay's peak_rss_mb by 0.45 MB; the
    count costs about 6% of the read.
    """
    buf = bytearray(max(_READ_CHUNK, (_FIELD + 1) * cols))  # a whole row
    view, text = memoryview(buf), np.frombuffer(buf, np.uint8)
    start, rows = fh.tell(), 0
    while got := fh.readinto(view):
        rows += buf.count(b"\n", 0, got)
    if not rows:
        return None
    fh.seek(start)
    table = np.empty((rows, cols))
    done = kept = 0
    while got := fh.readinto(view[kept:]):
        filled = kept + got
        end = buf.rfind(b"\n", 0, filled) + 1
        block = _csv_values(text[:end], cols) if end else None
        if block is None or done + len(block) > rows:
            return None
        table[done:done + len(block)] = block
        done += len(block)
        del block  # before the next chunk's arrays
        kept = filled - end
        buf[:kept] = buf[end:filled]
    return None if kept or done < rows else table


def _read_table(path: str) -> tuple[list[str], np.ndarray]:
    """A CSV file's header fields and the table of its rows.

    The rows of a seekable file go through _read_rows when its header
    line is ASCII without a carriage return. Any other file, and one that
    _read_rows declines, is read from its start as text by np.loadtxt,
    which also raises every error about the text.
    """
    with open(path, "rb") as fh:
        if fh.seekable():
            line = fh.readline()
            if line.isascii() and b"\r" not in line:
                header = line.decode().strip().split(",")
                body = _read_rows(fh, len(header))
                if body is not None:
                    return header, body
            fh.seek(0)
        text = io.TextIOWrapper(fh)
        header = text.readline().strip().split(",")
        first = next((line for line in text if line.strip()), None)
        if first is None:
            raise ValueError("the file has no samples")
        return header, np.loadtxt(itertools.chain([first], text),
                                  delimiter=",", ndmin=2)


def read_trajectory_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a trajectory CSV back into the record's columns.

    A reduced-mode file gives every column but lambda_x and lambda_v.
    Raises ValueError, without the path, on a malformed file, on one with
    no samples, and on a non-finite t, x or v cell, which no run writes;
    DivergedRowError on a non-finite cell in any other column. Either
    names the first such cell's row and column.
    """
    header, body = _read_table(path)
    dim = sum(1 for c in header if c.startswith("x"))
    full_mode = "lx0" in header
    if header != trajectory_header(dim, full_mode):
        raise ValueError(f"unexpected columns {header}")
    if body.shape[1] != len(header):
        raise ValueError(f"{body.shape[1]} columns of data under "
                         f"{len(header)} header fields")
    bad = np.argwhere(~np.isfinite(body))
    if bad.size:
        state = bad[bad[:, 1] < 1 + 2 * dim]  # t, x and v lead each row
        r, c = (state if state.size else bad)[0]
        error = ValueError if state.size else DivergedRowError
        raise error(f"row {r + 1}, column {header[c]}: non-finite "
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
    stacked rows, by one law bound for oracle, which floors a constant
    Hessian once (control._inverse), while the diagnostic columns keep
    their exported values so the honesty check in check_dissipation still
    compares cached against recomputed. A reduced-mode file's costates
    are filled in from their definitions. Metrics with path-dependent
    state cannot be rebuilt this way; callers reject those before getting
    here.
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
    beyond = max(_norm(x), _norm(v)) > DIVERGENCE_LIMIT  # integrate's test
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
    """One row per iterate: k, x, E and the gradient norm.

    Rows go one text block at a time (_write_table): E takes one stacked
    call per block, and each row holds the bits the one-point call gives
    it.
    """
    dim = seq.points[0].shape[0]
    header = ["k"] + [f"x{i}" for i in range(dim)] + ["E", "grad_norm"]

    def block(start: int, stop: int) -> np.ndarray:
        X = np.array(seq.points[start:stop])
        return np.column_stack(
            [np.arange(start, start + len(X), dtype=float), X,
             oracle.value(X), seq.grad_norms[start:stop]])
    _write_table(path, header, len(seq.points), block)


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
        "time_to_grad": _first_hits(record.columns["grad_norm"],
                                    record.columns["t"].tolist()),
    }


def discrete_summary(seq: IterateSequence, oracle: ObjectiveOracle,
                     label: str, tol_g: float) -> dict[str, Any]:
    """Run outcome at the last iterate, the last accepted one when the
    run diverged."""
    gnorm = seq.grad_norms[-1]
    return {
        "label": label,
        "kind": "discrete",
        "converged": not seq.diverged and gnorm <= tol_g,
        "diverged": seq.diverged,
        "iterations": len(seq.points) - 1,
        "final": {
            "E": float(oracle.value(seq.points[-1])),
            "grad_norm": gnorm,
        },
        "iterations_to_grad": _first_hits(seq.grad_norms,
                                          range(len(seq.grad_norms))),
    }


def _json_plain(value: Any) -> Any:
    """value as JSON spells it: numpy scalars and arrays as Python
    values, and each non-finite float, at any depth, as None."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _json_plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_plain(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_summary_json(payload: dict[str, Any], path: str) -> None:
    """payload as strict JSON: a non-finite float, which JSON cannot
    spell, is written as null."""
    text = json.dumps(_json_plain(payload), sort_keys=True, indent=2,
                      allow_nan=False)
    atomic_write(path, [(text + "\n").encode()])


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
        yield (",".join(header) + "\n").encode()
        for row in rows:
            cells = [row["label"]]
            for lab in labels:
                value = row["cells"].get(lab)
                cells.append("nan" if value is None
                             else FLOAT_FMT % float(value))
            final_e = row.get("final_E")
            cells.append("nan" if final_e is None
                         else FLOAT_FMT % float(final_e))
            yield (",".join(cells) + "\n").encode()
    atomic_write(path, lines())
