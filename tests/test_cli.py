import dataclasses
import json
import os
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gains", [
        {"controller": "nesterov", "gamma_a": 1e300, "gamma_b": None},
        {"controller": "polyak", "gamma_a": 1e200, "gamma_b": 1e200},
    ], ids=["nesterov", "polyak"])
    def test_divergence_prints_no_numpy_warning(self, tmp_path, capsys,
                                                gains):
        out = tmp_path / "run"
        data = flow_data(out, h=0.1, t_max=1.0, **gains)
        data["method"] = {k: v for k, v in data["method"].items()
                          if v is not None}
        data["problem"].update(dim=2, kappa=10.0, seed=1)
        cfg = write_config(tmp_path, "div.yaml", data)
        capsys.readouterr()
        assert main(["run", cfg]) == 3
        assert capsys.readouterr().err == "run diverged\n"

    @pytest.mark.parametrize("controller,metric", [
        ("polyak", "euclidean"), ("accel_newton", "hessian"),
        ("quasi_newton", "quasi_newton"), ("direct", "euclidean")])
    def test_summary_names_the_metric_the_run_used(self, tmp_path,
                                                   controller, metric):
        # the direct law weights no effort, whatever method.metric says
        settings = {"direct": {"metric": "hessian", "gamma_a": 2.0,
                               "gamma_b": 2.0, "gamma_c": 2.0}}
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "run.yaml", flow_data(
            out, controller=controller, t_max=0.5,
            **settings.get(controller, {})))
        assert main(["run", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metric"] == metric


DISCRETE_METHODS = [
    {"name": "heavy_ball", "alpha": 0.05, "beta": 0.5},
    {"name": "nesterov1", "alpha": 0.05, "beta": 0.5},
    {"name": "nesterov2", "alpha": 0.05, "beta": 0.5},
    {"name": "cg", "alpha": "exact_line_search",
     "beta_cg": "fletcher_reeves"},
    {"name": "accel_newton", "gamma_a": 1.0, "gamma_b": 2.0, "h": 0.5},
    {"name": "accel_qn", "gamma_a": 1.0, "gamma_b": 2.0, "h": 0.2},
]


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

    @pytest.mark.parametrize("method", DISCRETE_METHODS,
                             ids=lambda m: m["name"])
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

    @pytest.mark.parametrize("method", DISCRETE_METHODS,
                             ids=lambda m: m["name"])
    def test_a_run_takes_one_norm_per_gradient(self, tmp_path, monkeypatch,
                                               method):
        # the norm the loop takes for its tol_g test serves the iterates
        # CSV, the summary and the stationarity check too
        grads = {}
        normed = []
        build = ProblemConfig.build
        norm = np.linalg.norm

        def counted_build(problem_config):
            instance = build(problem_config)
            gradient = instance.oracle.gradient

            def keeping(x):
                g = gradient(x)
                grads[id(g)] = g
                return g

            oracle = dataclasses.replace(instance.oracle, gradient=keeping)
            return dataclasses.replace(instance, oracle=oracle)

        def counting_norm(x, *args, **kwargs):
            if grads.get(id(x)) is x:
                normed.append(id(x))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(ProblemConfig, "build", counted_build)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        data = discrete_data(tmp_path / "run", **method)
        data["verify"] = {"checks": ["stationarity"]}
        config = load_config(write_config(tmp_path, "m.yaml", data))
        code, payload = _execute_run(config)
        assert code == 0 and payload["converged"]
        assert len(grads) == payload["iterations"] + 1
        assert sorted(normed) == sorted(grads)

    def test_overflowing_gradient_norms_stay_finite(self, tmp_path):
        # the diverging run below: its iterates pass 1e154 long before
        # they stop being finite
        out = tmp_path / "run"
        data = discrete_data(out, alpha=5.0, beta=0.5, max_iters=2000)
        data["problem"] = {"name": "quadratic", "dim": 5, "kappa": 100.0,
                           "seed": 1}
        assert main(["run", write_config(tmp_path, "div.yaml", data)]) == 3
        oracle = load_config(str(tmp_path / "div.yaml")).problem.build() \
            .oracle
        rows = np.loadtxt(out / "iterates.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        overflowed = 0
        with np.errstate(over="ignore"):
            for row in rows[:-1]:  # the last row is the non-finite iterate
                g = oracle.gradient(row[1:-2])
                if not np.isfinite(g).all():
                    # x about 1e307: the gradient itself overflows
                    assert row[-1] == np.inf
                    continue
                scale = np.max(np.abs(g))
                rescaled = scale * np.linalg.norm(g / scale)
                overflowed += np.linalg.norm(g) == np.inf
                assert np.isfinite(row[-1])
                assert abs(row[-1] - rescaled) <= 1e-15 * rescaled
        assert overflowed == 57

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


FLOW_METHODS = [
    {"controller": "min_p", "delta": 1.0},
    {"controller": "min_p_star", "eta": 1.0},
    {"controller": "direct", "gamma_a": 2.0, "gamma_b": 2.0, "gamma_c": 2.0},
    {"controller": "momentum_flow", "gamma_a": 2.0, "gamma_b": 2.0,
     "metric": "hessian"},
    {"controller": "polyak", "gamma_a": 2.0, "gamma_b": 2.0},
    {"controller": "accel_newton", "gamma_a": 2.0, "gamma_b": 2.0},
    {"controller": "quasi_newton", "gamma_a": 2.0, "gamma_b": 2.0},
    {"controller": "nesterov", "gamma_a": 2.0},
]


@pytest.mark.parametrize(
    "method",
    [{"kind": "flow", "h": 0.01, "t_max": 0.1, **m} for m in FLOW_METHODS]
    + [{"kind": "discrete", "max_iters": 20, **m} for m in DISCRETE_METHODS],
    ids=lambda m: f"{m['kind']}-{m.get('controller', m.get('name'))}")
def test_a_rerun_writes_byte_identical_artifacts(tmp_path, monkeypatch,
                                                 method):
    # the same relative out_dir from two working directories, so that the
    # config echo is the same file too
    data = {"problem": {"name": "quadratic", "dim": 3, "seed": 5},
            "method": method, "output": {"out_dir": "run"},
            "verify": {"checks": ["stationarity"]}}
    cfg = write_config(tmp_path, "run.yaml", data)
    codes = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        codes.append(main(["run", cfg]))
    assert codes[0] == codes[1] and codes[0] in (0, 1)
    first, second = tmp_path / "a" / "run", tmp_path / "b" / "run"
    names = sorted(p.name for p in first.iterdir())
    assert len(names) == 3 and "config_echo.yaml" in names
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


class TestConfigErrors:
    @pytest.mark.parametrize("verb", ["run", "compare", "verify"])
    @pytest.mark.parametrize("option,value", [
        ("--stride", "0"), ("--stride", "-2"), ("--out-dir", ""),
        ("--seed-override", "-1")])
    def test_a_bad_override_exits_two_naming_the_option(self, tmp_path,
                                                        capsys, option,
                                                        value, verb):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "run.yaml", flow_data(out, t_max=0.1))
        other = write_config(tmp_path, "other.yaml",
                             dict(flow_data(out, t_max=0.1), label="other"))
        args = {"run": [cfg], "compare": [cfg, other],
                "verify": [str(tmp_path / "trajectory.csv"), cfg]}[verb]
        assert main([verb, *args, option, value]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{option}:" in err[0]
        assert not out.exists()

    def test_unknown_method_name(self, tmp_path, capsys):
        data = discrete_data(tmp_path / "run", name="bogus")
        cfg = write_config(tmp_path, "bad.yaml", data)
        assert main(["run", cfg]) == 2
        assert "method.name" in capsys.readouterr().err

    @pytest.mark.parametrize("field, problem, v0", [
        ("problem.x0", {"name": "quadratic", "dim": 3, "x0": [1.0, 2.0]},
         None),
        ("method.v0", {"name": "quadratic", "dim": 3}, [1.0]),
        ("problem.x0", {"name": "log_sum_exp", "dim": 3, "x0": [1.0]},
         None),
    ], ids=["quadratic-x0", "v0", "log_sum_exp-x0"])
    def test_start_vector_of_the_wrong_length_exits_two(
            self, tmp_path, capsys, field, problem, v0):
        data = flow_data(tmp_path / "run")
        data["problem"] = problem
        if v0 is not None:
            data["method"]["v0"] = v0
        assert main(["run", write_config(tmp_path, "bad.yaml", data)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"config error: {field}:" in err[0]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.yaml")]) == 2
        assert "absent.yaml" in capsys.readouterr().err

    @pytest.mark.parametrize("block, key, shown", [
        ("config", "1", "1"),
        ("problem", "2", "2"),
        ("method", "null", "None"),
        ("method.clf", "off", "False"),  # YAML 1.1 booleans
        ("output", "on", "True"),
        ("verify", "yes", "True"),
    ])
    def test_non_string_key_exits_two_naming_it(self, tmp_path, capsys,
                                                block, key, shown):
        data = flow_data(tmp_path / "run",
                         clf={"a": 2.0, "b": 1.0, "c": -1.0})
        data["verify"] = {"checks": []}
        text = yaml.safe_dump(data, sort_keys=False)
        if block == "config":
            text += f"{key}: 1\n"
        else:
            *parents, name = block.split(".")
            head = "  " * len(parents) + f"{name}:\n"
            assert text.count(head) == 1
            text = text.replace(head, f"{head}{'  ' * len(parents)}  "
                                      f"{key}: 1\n")
        cfg = tmp_path / "keys.yaml"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {block}: unknown field(s): {shown}"]

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

    def test_an_overflowing_step_count_exits_two_naming_t_max(self, tmp_path,
                                                             capsys):
        # t_max / h overflows to inf: no step count, so no run
        data = flow_data(tmp_path / "run", h=1.0e-300, t_max=1.0e+300)
        data["problem"] = {"name": "quadratic", "dim": 2}
        cfg = write_config(tmp_path, "overflow.yaml", data)
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "method.t_max:" in err[0]
        assert "overflows" in err[0]
        # one such member stops a compare before any member runs
        ok = flow_data(tmp_path / "ok", t_max=0.1)
        ok["problem"] = data["problem"]
        ok["label"] = "ok"
        data["label"] = "overflow"
        good = write_config(tmp_path, "ok.yaml", ok)
        bad = write_config(tmp_path, "overflow.yaml", data)
        out = tmp_path / "cmp"
        assert main(["compare", good, bad, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "method.t_max:" in err[0]
        assert not out.exists()


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

    def test_non_finite_cell_exits_two_naming_row_and_column(
            self, finished_run, tmp_path, capsys):
        traj, cfg = finished_run
        lines = open(traj).read().splitlines()
        row = lines[3].split(",")
        row[1] = "nan"
        lines[3] = ",".join(row)
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(bad), cfg]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"config error: {bad}: row 3, column x0: non-finite " \
                      f"value nan"

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_exits_two_without_a_warning(
            self, finished_run, tmp_path, capsys):
        traj, cfg = finished_run
        bad = tmp_path / "empty.csv"
        with open(traj) as fh:
            bad.write_text(fh.readline())
        assert main(["verify", str(bad), cfg]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"config error: {bad}: the file has no samples"

    def test_read_errors_name_the_path_once(self, finished_run, tmp_path,
                                            capsys):
        traj, cfg = finished_run
        missing = str(tmp_path / "missing.csv")
        ragged = tmp_path / "ragged.csv"
        lines = open(traj).read().splitlines()
        ragged.write_text("\n".join(lines[:3] + [lines[3] + ",1"]) + "\n")
        for path in (missing, str(ragged)):
            assert main(["verify", path, cfg]) == 2
            err = capsys.readouterr().err
            assert err.count(os.path.basename(path)) == 1, err
            assert len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_velocity_fails_strict_dissipation(self, tmp_path,
                                                           capsys):
        # a finite 1e200 velocity overflows V and lie V when verify
        # recomputes them; the strict check must fail at that sample
        bad, cfg, row = _overflowing_velocity(tmp_path)
        capsys.readouterr()
        assert main(["verify", str(bad), cfg]) == 1
        stdout = capsys.readouterr().out
        strict = next(line for line in stdout.splitlines()
                      if "dissipation_strict" in line)
        assert strict.startswith("FAIL")
        assert strict.endswith(f"at {float(row[0]):g} (non-finite value)")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_velocity_prints_no_numpy_warning(self, tmp_path,
                                                          capsys):
        bad, cfg, _ = _overflowing_velocity(tmp_path)
        capsys.readouterr()
        assert main(["verify", str(bad), cfg]) == 1
        assert capsys.readouterr().err == ""


def _overflowing_velocity(tmp_path):
    """A dim-2 nesterov trajectory with v0 = v1 = 1e200 at its fifth
    sample, its config, and that row's cells."""
    out = tmp_path / "run"
    data = flow_data(out, controller="nesterov", t_max=1.0)
    del data["method"]["gamma_b"]
    data["problem"]["dim"] = 2
    data["verify"] = {"checks": ["dissipation"]}
    cfg = write_config(tmp_path, "nesterov.yaml", data)
    assert main(["run", cfg]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    row = lines[5].split(",")
    row[3] = row[4] = "1e200"
    lines[5] = ",".join(row)
    bad = tmp_path / "fast.csv"
    bad.write_text("\n".join(lines) + "\n")
    return bad, cfg, row


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A short dim-2 nesterov trajectory and its config, for the fuzzer."""
    root = tmp_path_factory.mktemp("fuzz")
    data = flow_data(root / "run", controller="nesterov", t_max=0.2)
    del data["method"]["gamma_b"]
    data["problem"]["dim"] = 2
    cfg = write_config(root, "nesterov.yaml", data)
    assert main(["run", cfg]) == 0
    text = (root / "run" / "trajectory.csv").read_text()
    return root, text.splitlines(), cfg


def _corrupt(lines, kind, row, col, value):
    header, body = lines[0], [r.split(",") for r in lines[1:]]
    row %= len(body)
    col %= len(body[0])
    if kind == "truncate":
        body[row] = body[row][:max(col, 1)]
        if col == 0:
            body[row][0] = body[row][0][:1]  # a bare sign or digit
    elif kind == "cell":
        body[row][col] = value
    elif kind == "extra_column":
        body = [r + ["0"] for r in body]
    elif kind == "empty_body":
        body = []
    else:  # a header field renamed
        names = header.split(",")
        names[col] = names[col] + "_"
        header = ",".join(names)
    return "\n".join([header] + [",".join(r) for r in body]) + "\n"


@pytest.mark.filterwarnings("error::UserWarning")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["truncate", "cell", "extra_column",
                             "empty_body", "header"]),
       row=st.integers(0, 100), col=st.integers(0, 100),
       value=st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999", "",
                              "x"]))
def test_verify_input_fuzz_exits_one_or_two(small_run, capsys, kind, row,
                                            col, value):
    root, lines, cfg = small_run
    path = root / "fuzzed.csv"
    path.write_text(_corrupt(lines, kind, row, col, value))
    capsys.readouterr()
    code = main(["verify", str(path), cfg])
    err = capsys.readouterr().err
    assert code in (1, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1, err
