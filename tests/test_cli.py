import dataclasses
import json
import os
import warnings

import numpy as np
import pytest
import yaml

from accelflow import cli
from accelflow.cli import _execute_run, main
from accelflow.config import ProblemConfig, load_config
from accelflow.export import atomic_write, read_trajectory_csv

PROBLEM = {"name": "quadratic", "dim": 4, "kappa": 10.0, "seed": 3}


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def flow_data(out_dir, **method_overrides):
    method = {"kind": "flow", "controller": "polyak", "gamma_a": 10.0,
              "gamma_b": 10.0, "h": 0.01, "t_max": 50.0}
    method.update(method_overrides)
    return {"problem": dict(PROBLEM), "method": method,
            "output": {"out_dir": str(out_dir)}}


def discrete_data(out_dir, **method_overrides):
    method = {"kind": "discrete", "name": "heavy_ball", "alpha": 0.05,
              "beta": 0.5, "max_iters": 500}
    method.update(method_overrides)
    return {"problem": dict(PROBLEM), "method": method,
            "output": {"out_dir": str(out_dir)}}


class TestRunFlow:
    def test_writes_artifacts_and_exits_zero(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "run.yaml", flow_data(out))
        assert main(["run", cfg]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "config_echo.yaml").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "flow"
        assert summary["converged"]
        assert summary["final"]["grad_norm"] <= 1e-6

    def test_config_echo_is_written_atomically(self, tmp_path, monkeypatch):
        written = []

        def recording(path, text):
            written.append(os.path.basename(path))
            atomic_write(path, text)

        monkeypatch.setattr(cli, "atomic_write", recording)
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "run.yaml", flow_data(out, t_max=0.5))
        assert main(["run", cfg]) == 0
        assert written == ["config_echo.yaml"]
        assert not list(out.glob("*.tmp"))

    def test_trajectory_time_is_monotone(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "run.yaml", flow_data(out))
        main(["run", cfg])
        data = read_trajectory_csv(str(out / "trajectory.csv"))
        assert np.all(np.diff(data["t"]) > 0)

    def test_stride_thins_samples(self, tmp_path):
        dense_out, thin_out = tmp_path / "dense", tmp_path / "thin"
        cfg = write_config(tmp_path, "run.yaml", flow_data(dense_out))
        main(["run", cfg])
        assert main(["run", cfg, "--out-dir", str(thin_out),
                     "--stride", "50"]) == 0
        dense = read_trajectory_csv(str(dense_out / "trajectory.csv"))
        thin = read_trajectory_csv(str(thin_out / "trajectory.csv"))
        assert len(thin["t"]) < len(dense["t"]) / 10
        assert thin["t"][-1] == dense["t"][-1]

    def test_config_echo_reloads_to_same_run(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "run.yaml", flow_data(out))
        main(["run", cfg])
        first = (out / "summary.json").read_bytes()
        echo = str(out / "config_echo.yaml")
        assert main(["run", echo, "--out-dir", str(tmp_path / "again")]) == 0
        again = (tmp_path / "again" / "summary.json").read_bytes()
        assert again == first

    def test_summary_is_deterministic(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "run.yaml", flow_data(out))
        main(["run", cfg])
        first = (out / "summary.json").read_bytes()
        main(["run", cfg])
        assert (out / "summary.json").read_bytes() == first

    def test_seed_override_changes_run(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "run.yaml", flow_data(out))
        main(["run", cfg])
        first = (out / "summary.json").read_bytes()
        assert main(["run", cfg, "--seed-override", "9"]) == 0
        assert (out / "summary.json").read_bytes() != first

    def test_failing_checks_exit_one(self, tmp_path):
        out = tmp_path / "run"
        data = flow_data(out, controller="min_p_star", eta=1.0, h=0.01,
                         t_max=10.0)
        del data["method"]["gamma_a"], data["method"]["gamma_b"]
        data["verify"] = {"checks": ["stationarity"]}
        cfg = write_config(tmp_path, "short.yaml", data)
        assert main(["run", cfg]) == 1

    def test_divergence_exits_three(self, tmp_path):
        out = tmp_path / "run"
        data = flow_data(out, gamma_a=1e8, gamma_b=1e4, t_max=5.0)
        cfg = write_config(tmp_path, "div.yaml", data)
        assert main(["run", cfg]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"]


class TestRunDiscrete:
    def test_writes_iterates_and_summary(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "hb.yaml", discrete_data(out))
        assert main(["run", cfg]) == 0
        lines = (out / "iterates.csv").read_text().splitlines()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "discrete"
        assert summary["converged"]
        assert len(lines) == summary["iterations"] + 2

    def test_stationarity_check_allowed(self, tmp_path):
        out = tmp_path / "run"
        data = discrete_data(out)
        data["verify"] = {"checks": ["stationarity"]}
        cfg = write_config(tmp_path, "hb.yaml", data)
        assert main(["run", cfg]) == 0

    def test_flow_only_checks_rejected(self, tmp_path, capsys):
        data = discrete_data(tmp_path / "run")
        data["verify"] = {"checks": ["dissipation"]}
        cfg = write_config(tmp_path, "hb.yaml", data)
        assert main(["run", cfg]) == 2
        assert "verify.checks" in capsys.readouterr().err


    @pytest.mark.parametrize("method", [
        {"name": "heavy_ball", "alpha": 0.05, "beta": 0.5},
        {"name": "nesterov1", "alpha": 0.05, "beta": 0.5},
        {"name": "nesterov2", "alpha": 0.05, "beta": 0.5},
        {"name": "cg", "alpha": "exact_line_search",
         "beta_cg": "fletcher_reeves"},
        {"name": "accel_newton", "gamma_a": 1.0, "gamma_b": 2.0, "h": 0.5},
        {"name": "accel_qn", "gamma_a": 1.0, "gamma_b": 2.0, "h": 0.2},
    ], ids=lambda m: m["name"])
    def test_a_run_takes_one_gradient_per_iterate(self, tmp_path,
                                                  monkeypatch, method):
        # driver, iterates CSV, summary and stationarity check together
        calls = [0]
        build = ProblemConfig.build

        def counted_build(problem_config):
            instance = build(problem_config)
            gradient = instance.oracle.gradient

            def counting(x):
                calls[0] += 1
                return gradient(x)

            oracle = dataclasses.replace(instance.oracle, gradient=counting)
            return dataclasses.replace(instance, oracle=oracle)

        monkeypatch.setattr(ProblemConfig, "build", counted_build)
        data = discrete_data(tmp_path / "run", **method)
        data["verify"] = {"checks": ["stationarity"]}
        config = load_config(write_config(tmp_path, "m.yaml", data))
        code, payload = _execute_run(config)
        assert code == 0 and payload["converged"]
        assert calls[0] == payload["iterations"] + 1

    def test_stops_at_the_first_non_finite_iterate(self, tmp_path, capsys):
        out = tmp_path / "run"
        data = discrete_data(out, alpha=5.0, beta=0.5, max_iters=2000)
        data["problem"] = {"name": "quadratic", "dim": 5, "kappa": 100.0,
                           "seed": 1}
        cfg = write_config(tmp_path, "div.yaml", data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", cfg]) == 3
        assert capsys.readouterr().err == "run diverged\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] and not summary["converged"]
        assert summary["iterations"] == 115
        rows = (out / "iterates.csv").read_text().splitlines()[1:]
        assert len(rows) == 116
        assert [r for r in rows if "nan" in r] == [rows[-1]]
        assert rows[-1].startswith("115,")

    def test_library_value_error_exits_three_in_one_line(self, tmp_path,
                                                          capsys):
        data = discrete_data(tmp_path / "run", name="cg",
                             alpha="exact_line_search",
                             beta_cg="fletcher_reeves", max_iters=100)
        del data["method"]["beta"]
        data["problem"] = {"name": "rosenbrock", "dim": 2}
        cfg = write_config(tmp_path, "cg.yaml", data)
        assert main(["run", cfg]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("runtime failure: nonpositive curvature")


class TestConfigErrors:
    def test_unknown_method_name(self, tmp_path, capsys):
        data = discrete_data(tmp_path / "run", name="bogus")
        cfg = write_config(tmp_path, "bad.yaml", data)
        assert main(["run", cfg]) == 2
        assert "method.name" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.yaml")]) == 2
        assert "absent.yaml" in capsys.readouterr().err

    @pytest.mark.parametrize("field, block, key, value", [
        ("method.h", "method", "h", float("inf")),
        ("method.t_max", "method", "t_max", float("nan")),
        ("method.t_max", "method", "t_max", 0.001),  # below h = 0.01
        ("method.gamma_a", "method", "gamma_a", float("nan")),
        ("method.gamma_b", "method", "gamma_b", 10 ** 400),
        ("method.clf.c", "method", "clf",
         {"a": 2.0, "b": 1.0, "c": float("nan")}),
        ("problem.kappa", "problem", "kappa", float("inf")),
        ("problem.x0[1]", "problem", "x0", [0.0, -float("inf"), 0.0, 0.0]),
        ("verify.eta", "verify", "eta", float("inf")),
    ], ids=["h-inf", "t_max-nan", "t_max-below-h", "gamma_a-nan",
            "gamma_b-overflow", "clf.c-nan", "kappa-inf", "x0-inf", "eta-inf"])
    def test_bad_number_exits_two_naming_the_field(self, tmp_path, capsys,
                                                   field, block, key, value):
        data = flow_data(tmp_path / "run")
        data.setdefault(block, {})[key] = value
        cfg = write_config(tmp_path, "bad.yaml", data)
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{field}:" in err[0]


class TestCompare:
    def test_nesterov_forms_report_identical_progress(self, tmp_path):
        problem = {"name": "quadratic", "dim": 10, "kappa": 100.0, "seed": 3}
        configs = []
        for name in ("nesterov1", "nesterov2"):
            data = {"problem": dict(problem),
                    "method": {"kind": "discrete", "name": name,
                               "alpha": 0.01, "beta": 0.9,
                               "max_iters": 600},
                    "label": name}
            configs.append(write_config(tmp_path, f"{name}.yaml", data))
        out = tmp_path / "cmp"
        assert main(["compare", *configs, "--out-dir", str(out)]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert len(lines) == 3
        cells1 = lines[1].split(",")
        cells2 = lines[2].split(",")
        assert cells1[0] == "nesterov1" and cells2[0] == "nesterov2"
        assert cells1[1:7] == cells2[1:7]
        assert (out / "nesterov1" / "iterates.csv").exists()
        assert (out / "nesterov2" / "summary.json").exists()

    def test_table_printed(self, tmp_path, capsys):
        problem = dict(PROBLEM)
        a = write_config(tmp_path, "a.yaml", {
            "problem": problem,
            "method": {"kind": "discrete", "name": "heavy_ball",
                       "alpha": 0.05, "beta": 0.5, "max_iters": 400},
            "label": "hb"})
        b = write_config(tmp_path, "b.yaml", {
            "problem": problem,
            "method": {"kind": "discrete", "name": "cg",
                       "alpha": "exact_line_search",
                       "beta_cg": "fletcher_reeves", "max_iters": 40},
            "label": "cg"})
        assert main(["compare", a, b, "--out-dir",
                     str(tmp_path / "cmp")]) == 0
        stdout = capsys.readouterr().out
        assert "final_E" in stdout
        assert "hb" in stdout and "cg" in stdout

    def test_a_failed_member_is_a_nan_row_and_the_rest_still_run(
            self, tmp_path, capsys):
        problem = {"name": "rosenbrock", "dim": 2}
        hb = write_config(tmp_path, "hb.yaml", {
            "problem": problem,
            "method": {"kind": "discrete", "name": "heavy_ball",
                       "alpha": 1.0e-3, "beta": 0.5, "max_iters": 100},
            "label": "hb"})
        cg = write_config(tmp_path, "cg.yaml", {
            "problem": problem,
            "method": {"kind": "discrete", "name": "cg",
                       "alpha": "exact_line_search",
                       "beta_cg": "fletcher_reeves", "max_iters": 100},
            "label": "cg"})
        later = write_config(tmp_path, "later.yaml", {
            "problem": problem,
            "method": {"kind": "discrete", "name": "nesterov1",
                       "alpha": 1.0e-3, "beta": 0.5, "max_iters": 100},
            "label": "later"})
        out = tmp_path / "cmp"
        assert main(["compare", hb, cg, later, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("cg: runtime failure: nonpositive curvature")
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == ("label,grad_le_1e-01,grad_le_1e-02,"
                            "grad_le_1e-03,grad_le_1e-04,grad_le_1e-05,"
                            "grad_le_1e-06,final_E")
        assert lines[2] == "cg," + ",".join(["nan"] * 7)
        for row, label in ((lines[1], "hb"), (lines[3], "later")):
            final_e = row.split(",")[-1]
            assert row.startswith(label + ",") and final_e != "nan"
        assert (out / "later" / "summary.json").exists()

    def test_different_problems_rejected(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.yaml", discrete_data(tmp_path / "x"))
        other = discrete_data(tmp_path / "y")
        other["problem"]["seed"] = 4
        b = write_config(tmp_path, "b.yaml", other)
        assert main(["compare", a, b]) == 2
        assert "problem block differs" in capsys.readouterr().err

    def test_duplicate_labels_rejected(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.yaml", discrete_data(tmp_path / "x"))
        b = write_config(tmp_path, "b.yaml", discrete_data(tmp_path / "y"))
        assert main(["compare", a, b]) == 2
        assert "label" in capsys.readouterr().err

    def test_single_config_rejected(self, tmp_path):
        a = write_config(tmp_path, "a.yaml", discrete_data(tmp_path / "x"))
        assert main(["compare", a]) == 2


class TestVerifyVerb:
    @pytest.fixture()
    def finished_run(self, tmp_path):
        out = tmp_path / "run"
        data = flow_data(out)
        data["verify"] = {"checks": ["dissipation", "stationarity"],
                          "dissipation_mode": "rate", "eta": 0.5}
        cfg = write_config(tmp_path, "run.yaml", data)
        assert main(["run", cfg]) in (0, 1)
        return str(out / "trajectory.csv"), cfg

    def test_clean_trajectory_passes(self, tmp_path):
        out = tmp_path / "run"
        data = flow_data(out, controller="min_p_star", eta=1.0, h=0.01,
                         t_max=40.0)
        del data["method"]["gamma_a"], data["method"]["gamma_b"]
        data["verify"] = {"checks": ["dissipation", "stationarity"],
                          "dissipation_mode": "rate", "eta": 1.0}
        cfg = write_config(tmp_path, "mps.yaml", data)
        assert main(["run", cfg]) == 0
        assert main(["verify", str(out / "trajectory.csv"), cfg]) == 0

    def test_empty_checks_run_everything(self, tmp_path, capsys):
        out = tmp_path / "run"
        data = flow_data(out, controller="min_p_star", eta=1.0, h=0.01,
                         t_max=40.0)
        del data["method"]["gamma_a"], data["method"]["gamma_b"]
        data["verify"] = {"dissipation_mode": "rate", "eta": 1.0}
        cfg = write_config(tmp_path, "mps.yaml", data)
        main(["run", cfg])
        assert main(["verify", str(out / "trajectory.csv"), cfg]) == 0
        stdout = capsys.readouterr().out
        for name in ("dissipation", "singular_arc", "adjoint", "stationarity"):
            assert name in stdout

    def test_dissipation_uses_the_controllers_certificate(self, tmp_path,
                                                          capsys):
        # polyak records V and lie V under its own momentum certificate,
        # which for gains (5, 10) is not the config's default clf; both
        # verbs must check under the controller's
        out = tmp_path / "run"
        data = flow_data(out, gamma_a=5.0)
        data["verify"] = {"checks": ["dissipation"]}
        cfg = write_config(tmp_path, "polyak.yaml", data)
        main(["run", cfg])
        ran = capsys.readouterr().out
        main(["verify", str(out / "trajectory.csv"), cfg])
        verified = capsys.readouterr().out
        for stdout in (ran, verified):
            assert "PASS cached_diagnostics" in stdout

    def test_tampered_certificate_column_caught(self, finished_run,
                                                capsys, tmp_path):
        traj, cfg = finished_run
        lines = open(traj).read().splitlines()
        row = lines[5].split(",")
        row[12] = repr(float(row[12]) + 1.0)
        lines[5] = ",".join(row)
        tampered = tmp_path / "tampered.csv"
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(tampered), cfg]) == 1
        assert "FAIL cached_diagnostics" in capsys.readouterr().out

    def test_discrete_config_rejected(self, finished_run, tmp_path, capsys):
        traj, _ = finished_run
        bad = write_config(tmp_path, "hb.yaml",
                           discrete_data(tmp_path / "x"))
        assert main(["verify", traj, bad]) == 2
        assert "flow" in capsys.readouterr().err

    def test_quasi_newton_metric_rejected(self, finished_run, tmp_path,
                                          capsys):
        traj, _ = finished_run
        data = flow_data(tmp_path / "x", controller="quasi_newton",
                         gamma_a=25.0, gamma_b=100.0)
        bad = write_config(tmp_path, "qn.yaml", data)
        assert main(["verify", traj, bad]) == 2
        assert "path-dependent" in capsys.readouterr().err

    def test_dimension_mismatch_rejected(self, finished_run, tmp_path,
                                         capsys):
        traj, _ = finished_run
        data = flow_data(tmp_path / "x")
        data["problem"]["dim"] = 7
        bad = write_config(tmp_path, "dim.yaml", data)
        assert main(["verify", traj, bad]) == 2
        assert "dimension" in capsys.readouterr().err
