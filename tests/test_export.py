import dataclasses
import json
import os

import numpy as np
import pytest

from accelflow.control import min_p_star_controller, polyak_controller
from accelflow.discrete import (
    IterateSequence,
    cg_iterate,
    constant,
    heavy_ball_iterate,
)
from accelflow.export import (
    decade_label,
    discrete_summary,
    flow_summary,
    iterations_to_gradient_decades,
    read_trajectory_csv,
    time_to_gradient_decades,
    trajectory_from_arrays,
    trajectory_header,
    write_compare_csv,
    write_iterates_csv,
    write_summary_json,
    write_trajectory_csv,
)
from accelflow.flow import (
    COLUMNS,
    FlowMode,
    TrajectoryRecord,
    initial_state,
    integrate,
)
from accelflow.metric import MetricKind, MetricSpec
from accelflow.clf import DEFAULT_CLF
from accelflow.objective import random_quadratic
from accelflow.verify import CheckStatus, DissipationMode, check_dissipation

EUCLID = MetricSpec(MetricKind.EUCLIDEAN)


@pytest.fixture(scope="module")
def quad():
    return random_quadratic(4, 10.0, seed=3)


@pytest.fixture(scope="module")
def reduced_record(quad):
    spec = min_p_star_controller(rate_eta=1.0, metric=EUCLID)
    state0 = initial_state(quad.oracle, quad.x0)
    return integrate(spec, quad.oracle, state0, 1e-3, 12.0)


@pytest.fixture(scope="module")
def full_record(quad):
    spec = polyak_controller(2.0, 2.0)
    state0 = initial_state(quad.oracle, quad.x0)
    return integrate(spec, quad.oracle, state0, 1e-3, 5.0,
                     mode=FlowMode.FULL_PRIMAL_DUAL)


class TestTrajectoryCsv:
    def test_header_layout(self):
        cols = trajectory_header(2, full_mode=False)
        assert cols == ["t", "x0", "x1", "v0", "v1", "y", "E", "grad_norm",
                        "V", "lieV"]
        full = trajectory_header(2, full_mode=True)
        assert full == cols + ["lx0", "lx1", "lv0", "lv1"]
        assert len(cols) == 2 * 2 + 6
        assert len(full) == 4 * 2 + 6

    def test_round_trip_is_exact(self, reduced_record, tmp_path):
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(reduced_record, path)
        data = read_trajectory_csv(path)
        cols = reduced_record.columns
        n = len(cols["t"])
        assert data["x"].shape == (n, 4)
        for k in (0, n // 2, -1):
            assert np.array_equal(data["x"][k], cols["x"][k])
            assert np.array_equal(data["v"][k], cols["v"][k])
            assert data["V"][k] == cols["V"][k]
            assert data["lieV"][k] == cols["lieV"][k]
        assert "lambda_x" not in data

    def test_full_mode_round_trips_multipliers(self, full_record, tmp_path):
        path = str(tmp_path / "full.csv")
        write_trajectory_csv(full_record, path)
        data = read_trajectory_csv(path)
        assert data["lambda_x"].shape == data["x"].shape
        k = len(full_record.columns["t"]) - 1
        assert np.array_equal(data["lambda_v"][k],
                              full_record.columns["lambda_v"][k])

    def test_tampered_header_rejected(self, reduced_record, tmp_path):
        path = tmp_path / "bad.csv"
        write_trajectory_csv(reduced_record, str(path))
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("grad_norm", "gradnorm")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unexpected columns"):
            read_trajectory_csv(str(path))

    def test_ragged_row_rejected(self, reduced_record, tmp_path):
        path = tmp_path / "ragged.csv"
        write_trajectory_csv(reduced_record, str(path))
        lines = path.read_text().splitlines()
        lines[1] = lines[1] + ",0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(str(path))

    def test_rows_are_the_per_value_format(self, tmp_path):
        # signed zero, subnormal, huge and non-finite values, in every
        # column group of the full-mode layout
        odd = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf])
        samples = []
        for k in range(5):
            r = np.roll(odd, -k)  # each column sees every value once
            samples.append({"t": r[0], "x": r[1:3], "v": r[3:5], "y": r[2],
                            "E": r[1], "grad_norm": r[3], "V": r[4],
                            "lieV": -r[0], "lambda_x": r[2:4],
                            "lambda_v": -r[:2], "u": np.zeros(2)})
        columns = {name: np.array([s[name] for s in samples])
                   for name in COLUMNS + ("u",)}
        record = TrajectoryRecord(columns=columns, converged=False,
                                  diverged=False,
                                  meta={"dim": 2, "mode": "full_primal_dual"})
        path = tmp_path / "odd.csv"
        write_trajectory_csv(record, str(path))
        rows = path.read_text().splitlines()[1:]
        expected = []
        for s in samples:
            values = ([s["t"]] + list(s["x"]) + list(s["v"])
                      + [s["y"], s["E"], s["grad_norm"], s["V"], s["lieV"]]
                      + list(s["lambda_x"]) + list(s["lambda_v"]))
            expected.append(",".join("%.17g" % v for v in values))
        assert rows == expected

    def test_write_is_atomic_and_makes_dirs(self, reduced_record, tmp_path):
        nested = tmp_path / "a" / "b" / "traj.csv"
        write_trajectory_csv(reduced_record, str(nested))
        assert nested.exists()
        leftovers = [p for p in nested.parent.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []


class TestRecordReconstruction:
    def test_rebuilt_record_passes_honesty_check(self, quad, reduced_record,
                                                 tmp_path):
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(reduced_record, path)
        spec = min_p_star_controller(rate_eta=1.0, metric=EUCLID)
        rebuilt = trajectory_from_arrays(read_trajectory_csv(path),
                                         quad.oracle, spec,
                                         dict(reduced_record.meta))
        report = check_dissipation(rebuilt, DEFAULT_CLF, quad.oracle,
                                   mode=DissipationMode.RATE, tol=1e-6)
        cached = next(c for c in report.checks
                      if c.name == "cached_diagnostics")
        assert cached.status is CheckStatus.PASSED
        assert cached.worst_value == 0.0

    def test_rebuild_takes_one_gradient_per_row(self, quad, reduced_record,
                                                tmp_path):
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(reduced_record, path)
        calls = []

        def gradient(x):
            # one entry per point evaluated: a stacked call evaluates one
            # gradient for each of its rows
            calls.extend(np.atleast_2d(x))
            return quad.oracle.gradient(x)

        oracle = dataclasses.replace(quad.oracle, gradient=gradient)
        spec = min_p_star_controller(rate_eta=1.0, metric=EUCLID)
        rebuilt = trajectory_from_arrays(read_trajectory_csv(path), oracle,
                                         spec, dict(reduced_record.meta))
        assert isinstance(rebuilt.columns, dict)
        old, new = reduced_record.columns, rebuilt.columns
        assert len(calls) == len(old["t"])
        for k in range(len(old["t"])):
            assert np.array_equal(new["lambda_x"][k], old["lambda_x"][k])
            assert np.array_equal(new["u"][k], old["u"][k])

    def test_convergence_flags_recovered(self, quad, tmp_path):
        spec = min_p_star_controller(rate_eta=1.0, metric=EUCLID)
        state0 = initial_state(quad.oracle, quad.x0)
        record = integrate(spec, quad.oracle, state0, 1e-2, 40.0)
        assert record.converged
        path = str(tmp_path / "conv.csv")
        write_trajectory_csv(record, path)
        rebuilt = trajectory_from_arrays(read_trajectory_csv(path),
                                         quad.oracle, spec,
                                         dict(record.meta))
        assert rebuilt.converged
        assert not rebuilt.diverged

    def test_divergence_flag_recovered(self, quad, tmp_path):
        spec = polyak_controller(1e8, 1e4)
        state0 = initial_state(quad.oracle, quad.x0)
        record = integrate(spec, quad.oracle, state0, 1e-2, 5.0)
        assert record.diverged
        path = str(tmp_path / "div.csv")
        write_trajectory_csv(record, path)
        rebuilt = trajectory_from_arrays(read_trajectory_csv(path),
                                         quad.oracle, spec,
                                         dict(record.meta))
        assert rebuilt.diverged
        assert not rebuilt.converged


class TestTable:
    @pytest.mark.parametrize("which,spec", [
        ("reduced", min_p_star_controller(rate_eta=1.0, metric=EUCLID)),
        ("full", polyak_controller(2.0, 2.0)),
    ])
    def test_write_read_rebuild_gives_the_columns_bit_for_bit(
            self, quad, reduced_record, full_record, tmp_path, which, spec):
        record = reduced_record if which == "reduced" else full_record
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(record, path)
        rebuilt = trajectory_from_arrays(read_trajectory_csv(path),
                                         quad.oracle, spec, record.meta)
        assert set(rebuilt.columns) == set(COLUMNS + ("u",))
        for name in COLUMNS + ("u",):
            old, new = record.columns[name], rebuilt.columns[name]
            assert new.shape == old.shape, name
            assert new.tobytes() == old.tobytes(), name
        assert (rebuilt.converged, rebuilt.diverged) == (record.converged,
                                                         record.diverged)


class TestIteratesCsv:
    def test_rows_match_sequence(self, quad, tmp_path):
        seq = heavy_ball_iterate(quad.oracle, quad.x0, 20,
                                 constant(0.05), constant(0.5))
        path = tmp_path / "iter.csv"
        write_iterates_csv(seq, quad.oracle, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("k,x0,")
        assert len(lines) == len(seq.points) + 1
        last = [float(c) for c in lines[-1].split(",")]
        assert last[0] == len(seq.points) - 1
        np.testing.assert_array_equal(last[1:5], seq.points[-1])

    def test_rows_are_the_per_value_format(self, quad, tmp_path):
        # signed zero, subnormal and huge values in every column, stored
        # gradients whose norms are zero, subnormal-squared and overflowing,
        # and a non-finite last row
        odd = np.array([-0.0, 5e-324, 1e308, -1e308])
        points = [np.roll(odd, -k) for k in range(4)]
        points.append(np.array([1.0, np.nan, -np.inf, 0.0]))
        grads = [np.roll(odd, k) for k in range(5)]
        with np.errstate(over="ignore"):
            norms = [np.linalg.norm(g) for g in grads]
        seq = IterateSequence(points=points,
                              grad_norms=[float(n) for n in norms])
        oracle = dataclasses.replace(quad.oracle, value=lambda x: x[0] * 0.5,
                                     gradient=None)
        path = tmp_path / "odd.csv"
        write_iterates_csv(seq, oracle, str(path))
        rows = path.read_text().splitlines()[1:]
        expected = []
        for k, x in enumerate(points):
            if np.all(np.isfinite(x)):
                e, g = float(oracle.value(x)), float(norms[k])
            else:
                e, g = float("nan"), float("nan")
            values = [float(k)] + list(x) + [e, g]
            expected.append(",".join("%.17g" % v for v in values))
        assert rows == expected
        assert "-0" in rows[0] and "4.9406564584124654e-324" in rows[0]
        assert rows[-1].endswith("nan,nan")

    def test_non_finite_points_become_nan_rows(self, quad, tmp_path):
        seq = heavy_ball_iterate(quad.oracle, quad.x0, 3,
                                 constant(0.05), constant(0.5))
        seq.points[-1] = np.full(4, np.nan)
        path = tmp_path / "nan.csv"
        write_iterates_csv(seq, quad.oracle, str(path))
        last = path.read_text().splitlines()[-1].split(",")
        assert all(cell == "nan" for cell in last[1:])


class TestSummaries:
    def test_decade_labels(self):
        assert decade_label(1e-1) == "1e-01"
        assert decade_label(1e-6) == "1e-06"

    def test_time_to_decades_monotone(self, reduced_record):
        hits = time_to_gradient_decades(reduced_record)
        assert hits["1e-01"] is not None
        reached = [t for t in hits.values() if t is not None]
        assert reached == sorted(reached)
        assert hits["1e-06"] is None

    def test_iterations_to_decades(self, quad):
        seq = cg_iterate(quad.oracle, quad.x0, 30,
                         lambda o, k, x, g, v: 0.05,
                         lambda o, k, g, gp: 0.2)
        hits = iterations_to_gradient_decades(seq)
        first = hits["1e-01"]
        assert first is not None
        norms = seq.grad_norms
        assert norms[first] <= 1e-1
        assert first == 0 or norms[first - 1] > 1e-1

    def test_flow_summary_fields(self, reduced_record, quad):
        payload = flow_summary(reduced_record, "demo")
        assert payload["label"] == "demo"
        assert payload["kind"] == "flow"
        assert payload["t_final"] == pytest.approx(12.0)
        assert payload["final"]["grad_norm"] > 0
        assert set(payload["time_to_grad"]) == {
            "1e-01", "1e-02", "1e-03", "1e-04", "1e-05", "1e-06"}

    def test_discrete_summary_fields(self, quad):
        seq = heavy_ball_iterate(quad.oracle, quad.x0, 500,
                                 constant(0.05), constant(0.5),
                                 tol_g=1e-6)
        payload = discrete_summary(seq, quad.oracle, "hb", tol_g=1e-6)
        assert payload["kind"] == "discrete"
        assert payload["converged"]
        assert payload["iterations"] == len(seq.points) - 1


class TestJsonAndCompare:
    def test_summary_json_is_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json({"zeta": 1, "alpha": 2}, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"alpha"') < text.index('"zeta"')

    def test_numpy_scalars_serialize(self, tmp_path):
        path = tmp_path / "np.json"
        write_summary_json({"flag": np.bool_(True),
                            "count": np.int64(3),
                            "value": np.float64(0.5),
                            "vec": np.arange(2.0)}, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == {"flag": True, "count": 3, "value": 0.5,
                          "vec": [0.0, 1.0]}

    def test_unserializable_payload_raises(self, tmp_path):
        with pytest.raises(TypeError):
            write_summary_json({"oops": object()},
                               str(tmp_path / "bad.json"))

    def test_compare_csv_fills_unreached_cells_with_nan(self, tmp_path):
        rows = [{"label": "fast",
                 "cells": {"1e-01": 3, "1e-02": 5, "1e-03": 8,
                           "1e-04": 11, "1e-05": 14, "1e-06": 17},
                 "final_E": 1e-20},
                {"label": "slow",
                 "cells": {"1e-01": 40, "1e-02": None, "1e-03": None,
                           "1e-04": None, "1e-05": None, "1e-06": None},
                 "final_E": 0.3}]
        path = tmp_path / "compare.csv"
        write_compare_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ("label,grad_le_1e-01,grad_le_1e-02,"
                            "grad_le_1e-03,grad_le_1e-04,grad_le_1e-05,"
                            "grad_le_1e-06,final_E")
        assert lines[2].split(",")[2] == "nan"
        assert lines[1].split(",")[1] == "3"
