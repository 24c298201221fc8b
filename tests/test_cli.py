import dataclasses
import errno
import json
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accelflow import cli, discrete
from accelflow.cli import _execute_run, main
from accelflow.config import ProblemConfig, load_config
from accelflow.export import atomic_write, read_trajectory_csv
from traced import PEAK_PER_COLUMN_BYTE, traced_peak

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

    def test_quasi_newton_costates_pass_the_adjoint_check(self, tmp_path,
                                                          capsys):
        # the adjoint step sees the quasi-Newton matrix the primal used
        data = flow_data(tmp_path / "run", controller="quasi_newton",
                         gamma_a=2.0, gamma_b=2.0, t_max=5.0,
                         mode="full_primal_dual")
        data["problem"] = {"name": "quadratic", "dim": 10, "kappa": 10.0,
                           "seed": 7}
        data["verify"] = {"checks": ["adjoint_consistency"]}
        assert main(["run", write_config(tmp_path, "qn.yaml", data)]) == 0
        assert "PASS adjoint_consistency" in capsys.readouterr().out

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

    @pytest.mark.parametrize("controller", ["polyak", "accel_newton",
                                            "nesterov"])
    def test_an_overflowing_gradient_norm_diverges(self, tmp_path, capsys,
                                                   controller):
        # at scale 1e154 the start gradient is finite, but its norm
        # overflows: the laws would steer by inf, so the run stops there
        out = tmp_path / "run"
        data = flow_data(out, controller=controller, gamma_a=1.0, h=0.01,
                         t_max=1.0)
        if controller == "nesterov":
            del data["method"]["gamma_b"]
        else:
            data["method"]["gamma_b"] = 1.0
        data["problem"].update(scale=1.0e+154, seed=1)
        cfg = write_config(tmp_path, "overflow.yaml", data)
        capsys.readouterr()
        assert main(["run", cfg]) == 3
        assert capsys.readouterr().err == "run diverged\n"

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=refuse)
        assert summary["diverged"] and summary["steps_taken"] == 0
        assert summary["final"]["grad_norm"] is None

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
        # CSV, the summary and the stationarity check too. A norm is
        # counted whether numpy's or the lean one the loop takes
        grads = {}
        normed = []
        build = ProblemConfig.build
        norm, lean = np.linalg.norm, discrete._vector_norm

        def counted_build(problem_config):
            instance = build(problem_config)
            gradient = instance.oracle.gradient

            def keeping(x):
                g = gradient(x)
                grads[id(g)] = g
                return g

            oracle = dataclasses.replace(instance.oracle, gradient=keeping)
            return dataclasses.replace(instance, oracle=oracle)

        def counting(norm):
            def counting_norm(x, *args, **kwargs):
                if grads.get(id(x)) is x:
                    normed.append(id(x))
                return norm(x, *args, **kwargs)
            return counting_norm

        monkeypatch.setattr(ProblemConfig, "build", counted_build)
        monkeypatch.setattr(np.linalg, "norm", counting(norm))
        monkeypatch.setattr(discrete, "_vector_norm", counting(lean))
        data = discrete_data(tmp_path / "run", **method)
        data["verify"] = {"checks": ["stationarity"]}
        config = load_config(write_config(tmp_path, "m.yaml", data))
        code, payload = _execute_run(config)
        assert code == 0 and payload["converged"]
        assert len(grads) == payload["iterations"] + 1
        assert sorted(normed) == sorted(grads)

    @pytest.mark.parametrize("method", [
        {"name": "heavy_ball", "alpha": 1e-160, "beta": 0.5},
        {"name": "accel_newton", "gamma_a": 1.0, "gamma_b": 1.0, "h": 0.1},
    ], ids=lambda m: m["name"])
    def test_an_overflowing_gradient_norm_diverges(self, tmp_path, capsys,
                                                   method):
        # TestRunFlow's case for the discrete loop: at scale 1e154 the
        # start gradient is finite, but its norm overflows, so the run
        # stops at its start, as a flow does
        out = tmp_path / "run"
        data = discrete_data(out, max_iters=50, **method)
        if method["name"] != "heavy_ball":
            del data["method"]["alpha"], data["method"]["beta"]
        data["problem"].update(scale=1.0e+154, seed=1)
        cfg = write_config(tmp_path, "overflow.yaml", data)
        capsys.readouterr()
        assert main(["run", cfg]) == 3
        assert capsys.readouterr().err == "run diverged\n"

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=refuse)
        assert summary["diverged"] and summary["iterations"] == 0
        assert summary["final"]["grad_norm"] is None

    def test_stops_at_the_divergence_limit(self, tmp_path, capsys):
        out = tmp_path / "run"
        data = discrete_data(out, alpha=5.0, beta=0.5, max_iters=2000)
        data["problem"] = {"name": "quadratic", "dim": 5, "kappa": 100.0,
                           "seed": 1}
        data["verify"] = {"checks": ["stationarity"]}
        cfg = write_config(tmp_path, "div.yaml", data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", cfg]) == 3
        assert capsys.readouterr().err == "run diverged\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] and not summary["converged"]
        # the run ends at its last iterate within the flow's limit
        assert summary["iterations"] == 4
        rows = (out / "iterates.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        assert not [r for r in rows if "nan" in r or "inf" in r]
        assert rows[-1].startswith("4,")
        assert np.isfinite([summary["final"]["E"],
                            summary["final"]["grad_norm"]]).all()
        check, = summary["checks"]["checks"]
        assert check["status"] == "failed"
        assert check["detail"] == "divergence flag set"

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


@pytest.mark.parametrize("verb", ["run", "compare", "verify"])
def test_running_out_of_memory_exits_three_in_one_line(tmp_path, capsys,
                                                       verb):
    # the dim x dim matrix would take 728 TiB: numpy refuses the
    # allocation at once, before it touches any memory
    data = flow_data(tmp_path / "run", t_max=0.1)
    data["problem"] = {"name": "quadratic", "dim": 10_000_000}
    cfg = write_config(tmp_path, "a.yaml", data)
    if verb == "run":
        argv = ["run", cfg]
    elif verb == "compare":
        argv = ["compare", cfg,
                write_config(tmp_path, "b.yaml", {**data, "label": "b"})]
    else:
        argv = ["verify", str(tmp_path / "trajectory.csv"), cfg]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("runtime failure: out of memory: Unable to "
                             "allocate")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("verb", ["run", "compare", "verify"])
def test_a_quadratic_that_overflows_exits_three_in_one_line(tmp_path, capsys,
                                                            verb):
    # kappa 1e308 overflows Q's entries: one line per member names Q, and
    # numpy warns of nothing on the way
    data = flow_data(tmp_path / "run", t_max=0.1)
    data["problem"] = {"name": "quadratic", "dim": 4, "kappa": 1.0e308,
                       "seed": 1}
    cfg = write_config(tmp_path, "a.yaml", {**data, "label": "a"})
    if verb == "run":
        argv = ["run", cfg]
    elif verb == "compare":
        argv = ["compare", cfg,
                write_config(tmp_path, "b.yaml", {**data, "label": "b"})]
    else:
        argv = ["verify", str(tmp_path / "trajectory.csv"), cfg]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert caught == []
    line = "runtime failure: Q must be finite, got a non-finite entry"
    assert capsys.readouterr().err.splitlines() == (
        [f"a: {line}", f"b: {line}"] if verb == "compare" else [line])


@pytest.mark.parametrize("verb", ["run", "compare"])
@pytest.mark.parametrize("by_flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_an_out_dir_that_cannot_be_made_exits_two_naming_it(
        tmp_path, capsys, verb, by_flag, under):
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    out = blocker / "run" if under else blocker
    data = discrete_data(tmp_path / "unused" if by_flag else out)
    argv = [verb, write_config(tmp_path, "a.yaml", data)]
    if verb == "compare":
        argv.append(write_config(tmp_path, "b.yaml",
                                 dict(data, label="other")))
    if by_flag:
        argv += ["--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    name = "--out-dir" if by_flag else "output.out_dir"
    assert len(err) == 1 and err[0].startswith(f"config error: {name}: ")
    assert blocker.read_text() == "a file\n"
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize("verb", ["run", "compare"])
@pytest.mark.parametrize("error", [
    OSError(errno.ENOSPC),
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))], ids=["bare", "os"])
def test_an_artifact_that_cannot_be_written_exits_three_naming_it(
        tmp_path, capsys, monkeypatch, verb, error):
    def full_disk(path, chunks):
        raise error

    monkeypatch.setattr(cli, "atomic_write", full_disk)
    monkeypatch.setattr("accelflow.export.atomic_write", full_disk)
    out = tmp_path / "run"
    data = discrete_data(out)
    argv = [verb, write_config(tmp_path, "a.yaml", data)]
    if verb == "compare":
        argv.append(write_config(tmp_path, "b.yaml",
                                 dict(data, label="other")))
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    path = out / ("heavy_ball" if verb == "compare" else "") / "iterates.csv"
    assert err == [f"runtime failure: cannot write {os.path.normpath(path)}"
                   f": {error.strerror or error}"]


def test_a_run_of_1e10_steps_that_converges_early_exits_zero(tmp_path):
    # t_max / h is 1e10 steps; the run converges after about 1200, and
    # holds about its own table
    out = tmp_path / "run"
    data = flow_data(out, h=0.01, t_max=1.0e8)
    data["problem"] = {"name": "quadratic", "dim": 100, "kappa": 10.0,
                       "seed": 1}
    cfg = write_config(tmp_path, "long.yaml", data)
    code, peak = traced_peak(lambda: main(["run", cfg]))
    assert code == 0
    rows = len(read_trajectory_csv(str(out / "trajectory.csv"))["t"])
    assert rows < 5000
    # the record's columns: t, x, v, y, E, grad_norm, V, lie V, the two
    # costates and u
    assert peak < PEAK_PER_COLUMN_BYTE * rows * (5 * 100 + 6) * 8


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


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one core: BLAS runs one thread anyway")
def test_a_cli_run_writes_the_same_bytes_whatever_the_blas_threads(
        tmp_path):
    # at dim 100 a two-thread dgesv sums in another order than a one-thread
    # one, so only a CLI that pins one thread writes the same bytes when
    # the caller sets no thread count
    data = {"problem": {"name": "quadratic", "dim": 100, "kappa": 100.0,
                        "seed": 1},
            "method": {"kind": "flow", "controller": "accel_newton",
                       "gamma_a": 25.0, "gamma_b": 100.0, "h": 0.01,
                       "t_max": 2.0},
            "output": {"out_dir": "run"}}
    cfg = write_config(tmp_path, "run.yaml", data)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    unset["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for side, env in (("unset", unset),
                      ("one", {**unset, **dict.fromkeys(BLAS_THREADS, "1")})):
        (tmp_path / side).mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "accelflow.cli", "run", cfg],
            cwd=tmp_path / side, env=env, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(tmp_path / side / "run" / name).read_bytes()
                        for name in ("trajectory.csv", "summary.json")])
    assert outputs[0] == outputs[1]


class TestConfigErrors:
    # verify writes nothing, so of the three it takes only --seed-override
    @pytest.mark.parametrize("option,value,verb", [
        (option, value, verb)
        for option, value in [("--stride", "0"), ("--stride", "-2"),
                              ("--out-dir", ""), ("--seed-override", "-1")]
        for verb in ["run", "compare", "verify"]
        if verb != "verify" or option == "--seed-override"])
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

    @pytest.mark.parametrize("argv,words", [
        (["run"], "required: config"),
        (["run", "a.yaml", "--bogus"], "unrecognized arguments: --bogus"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["run", "a.yaml", "--stride", "x"], "--stride: invalid int value"),
        (["verify", "t.csv", "a.yaml", "--stride", "2"],
         "unrecognized arguments: --stride 2"),
        (["verify", "t.csv", "a.yaml", "--out-dir", "d"],
         "unrecognized arguments: --out-dir d"),
    ], ids=["missing", "unknown-option", "unknown-verb", "bad-type",
            "verify-stride", "verify-out-dir"])
    def test_a_usage_error_exits_two_in_one_line(self, capsys, argv, words):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: accelflow")
        assert words in err[0]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: accelflow run")

    @pytest.mark.parametrize("verb", ["run", "compare", "verify"])
    def test_a_config_that_is_not_utf8_exits_two_naming_it(self, tmp_path,
                                                          capsys, verb):
        out = tmp_path / "run"
        good = write_config(tmp_path, "good.yaml", flow_data(out, t_max=0.1))
        bad = tmp_path / "latin.yaml"
        bad.write_bytes(b'label: "\xff\xfe"\n'
                        + yaml.safe_dump(flow_data(out)).encode())
        args = {"run": [str(bad)], "compare": [good, str(bad)],
                "verify": [str(tmp_path / "trajectory.csv"), str(bad)]}[verb]
        assert main([verb, *args]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: {bad}: 'utf-8' codec")
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

    @pytest.mark.parametrize("field, value, method", [
        ("eta", 0, {"controller": "min_p_star"}),
        ("delta", -1, {"controller": "min_p"}),
        ("sigma_q", 0, {"controller": "min_p", "delta_mode": "fixed_sigma"}),
    ], ids=["eta", "delta", "sigma_q"])
    def test_a_nonpositive_coefficient_exits_two_naming_its_field(
            self, tmp_path, capsys, field, value, method):
        data = flow_data(tmp_path / "run", **method, **{field: value})
        assert main(["run", write_config(tmp_path, "bad.yaml", data)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: method.{field}: must be positive, got "
            f"{float(value)}"]

    @pytest.mark.parametrize("method, line", [
        ({"gamma_b": -1.0}, "method.gamma_b: must be positive, got -1.0"),
        ({"gamma_a": 0}, "method.gamma_a: must be positive, got 0.0"),
        ({"controller": "accel_newton", "gamma_a": -2.0},
         "method.gamma_a: must be positive, got -2.0"),
        ({"controller": "quasi_newton", "gamma_b": 0.0},
         "method.gamma_b: must be positive, got 0.0"),
        ({"controller": "nesterov", "gamma_a": -1.0},
         "method.gamma_a: must be positive, got -1.0"),
        ({"controller": "nesterov", "clf": {"a": 2.0, "b": 1.0, "c": 0.5}},
         "method.clf.c: nesterov needs a certificate with c < 0, got 0.5"),
    ], ids=["polyak-gamma_b", "polyak-gamma_a", "accel_newton-gamma_a",
            "quasi_newton-gamma_b", "nesterov-gamma_a", "nesterov-clf.c"])
    def test_a_named_flow_rule_exits_two_naming_its_field(
            self, tmp_path, capsys, method, line):
        data = flow_data(tmp_path / "run", **method)
        assert main(["run", write_config(tmp_path, "bad.yaml", data)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {line}"]

    @pytest.mark.parametrize("problem, method, line", [
        ({"kappa": 0.5}, {}, "problem.kappa: must be >= 1, got 0.5"),
        ({}, {"name": "accel_newton", "gamma_a": 1.0, "gamma_b": 1.0,
              "h": 0.0}, "method.h: must be positive, got 0.0"),
        ({}, {"name": "accel_qn", "gamma_a": 1.0, "gamma_b": 1.0,
              "h": -0.5}, "method.h: must be positive, got -0.5"),
        ({}, {"name": "cg", "beta_cg": -0.1},
         "method.beta_cg: must be >= 0, got -0.1"),
    ], ids=["kappa", "accel_newton-h", "accel_qn-h", "beta_cg"])
    def test_a_value_no_method_can_run_exits_two_before_any_output(
            self, tmp_path, capsys, problem, method, line):
        out = tmp_path / "run"
        data = discrete_data(out, **method)
        data["problem"].update(problem)
        assert main(["run", write_config(tmp_path, "bad.yaml", data)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {line}"]
        assert not out.exists()

    def test_a_discrete_members_flow_check_exits_two_before_any_member_runs(
            self, tmp_path, capsys):
        good = write_config(tmp_path, "a.yaml",
                            dict(discrete_data(tmp_path / "x"), label="a"))
        data = dict(discrete_data(tmp_path / "x"), label="b")
        data["verify"] = {"checks": ["stationarity", "dissipation"]}
        bad = write_config(tmp_path, "b.yaml", data)
        line = ("config error: verify.checks: only 'stationarity' applies "
                "to discrete methods, got ['dissipation']")
        out = tmp_path / "out"
        for args in (["run", bad, "--out-dir", str(out)],
                     ["compare", good, bad, "--out-dir", str(out)]):
            assert main(args) == 2
            assert capsys.readouterr().err.splitlines() == [line]
            assert not out.exists()

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
    # a ',', '"', CR or LF would break the label's compare.csv field, and
    # a member directory named compare.csv would take the table's path
    @pytest.mark.parametrize("label", ["ABSOLUTE", "a/../../x", ".", "..",
                                       "a\0b", "m,a", 'm"a', "m\ra",
                                       "m\na", "compare.csv"])
    def test_a_label_that_is_not_one_path_component_exits_two(
            self, tmp_path, capsys, label):
        if label == "ABSOLUTE":
            label = str(tmp_path / "escaped")
        out = tmp_path / "cmp" / "out"
        first = write_config(tmp_path, "a.yaml",
                             dict(discrete_data(out), label=label))
        second = write_config(tmp_path, "b.yaml",
                              dict(discrete_data(out), label="b"))
        before = sorted(tmp_path.rglob("*"))
        assert main(["compare", first, second, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: {first}: label: ")
        # nothing is written, inside the out dir or outside it
        assert sorted(tmp_path.rglob("*")) == before

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

    def test_members_share_one_built_problem(self, tmp_path, monkeypatch):
        # each member writes the bytes its own run writes, from one build
        methods = {
            "polyak": {"kind": "flow", "controller": "polyak",
                       "gamma_a": 2.0, "gamma_b": 2.0, "h": 0.01,
                       "t_max": 0.5},
            "hb": {"kind": "discrete", "name": "heavy_ball", "alpha": 0.05,
                   "beta": 0.5, "max_iters": 50},
            "cg": {"kind": "discrete", "name": "cg",
                   "alpha": "exact_line_search",
                   "beta_cg": "fletcher_reeves", "max_iters": 20},
        }
        configs = [write_config(tmp_path, f"{label}.yaml", {
            "problem": {"name": "quadratic", "dim": 4, "seed": 2},
            "method": method, "label": label})
            for label, method in methods.items()]
        builds = []
        build = ProblemConfig.build
        monkeypatch.setattr(ProblemConfig, "build",
                            lambda cfg: builds.append(cfg) or build(cfg))
        out = tmp_path / "cmp"
        assert main(["compare", *configs, "--out-dir", str(out)]) == 0
        assert len(builds) == 1

        def files():
            return {p.relative_to(out): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}
        shared = files()
        assert len(shared) == 1 + 3 * len(methods)
        for cfg, label in zip(configs, methods):
            assert main(["run", cfg, "--out-dir", str(out / label)]) == 0
        assert files() == shared
        assert len(builds) == 1 + len(methods)

    def test_different_problems_rejected(self, tmp_path, capsys):
        a = write_config(tmp_path, "a.yaml", discrete_data(tmp_path / "x"))
        other = discrete_data(tmp_path / "y")
        other["problem"]["seed"] = 4
        b = write_config(tmp_path, "b.yaml", other)
        assert main(["compare", a, b]) == 2
        assert "problem block differs" in capsys.readouterr().err

    def test_a_seed_override_applies_before_the_shared_problem_check(
            self, tmp_path):
        a = write_config(tmp_path, "a.yaml",
                         dict(discrete_data(tmp_path / "x"), label="a"))
        other = dict(discrete_data(tmp_path / "y"), label="b")
        other["problem"]["seed"] = 4
        b = write_config(tmp_path, "b.yaml", other)
        out = tmp_path / "out"
        assert main(["compare", a, b, "--seed-override", "5",
                     "--out-dir", str(out)]) == 0
        for label in ("a", "b"):
            echo = yaml.safe_load((out / label / "config_echo.yaml")
                                  .read_text())
            assert echo["problem"]["seed"] == 5

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

    def test_both_verbs_check_with_the_verify_blocks_values(self, tmp_path,
                                                            capsys):
        # each check prints the tolerance its block value sets (both
        # costate checks' is coeff * h**4 under RK4); the rate check's
        # worst value is max(lie V + eta V) at the block's eta
        out = tmp_path / "run"
        data = flow_data(out, controller="min_p_star", eta=1.0, h=0.01,
                         t_max=1.0, mode="full_primal_dual")
        del data["method"]["gamma_a"], data["method"]["gamma_b"]
        data["verify"] = {"checks": ["dissipation", "adjoint_consistency",
                                     "singular_arc"],
                          "dissipation_mode": "rate", "eta": 0.5,
                          "tol": 1e-3, "adjoint_coeff": 2e3}
        cfg = write_config(tmp_path, "mps.yaml", data)
        assert main(["run", cfg]) == 0
        ran = capsys.readouterr().out
        traj = str(out / "trajectory.csv")
        assert main(["verify", traj, cfg]) == 0
        verified = capsys.readouterr().out
        cols = read_trajectory_csv(traj)
        rate = np.max(cols["lieV"] + 0.5 * cols["V"])
        expected = {"cached_diagnostics": "1e-12",
                    "dissipation_rate": "0.001",
                    "dissipation_envelope": "0.001",
                    "adjoint_consistency": f"{2e3 * 0.01 ** 4:.6g}",
                    "singular_arc": f"{2e3 * 0.01 ** 4:.6g}"}
        for stdout in (ran, verified):
            found = dict(re.findall(r"^PASS (\w+): worst=\S+ tol=(\S+)",
                                    stdout, re.M))
            assert found == expected, stdout
            worst = re.search(r"dissipation_rate: worst=(\S+)", stdout)
            assert float(worst.group(1)) == pytest.approx(rate, rel=1e-5)

    def test_a_block_that_sets_singular_tol_exits_two(self, tmp_path,
                                                      capsys):
        # singular_arc takes adjoint_coeff * h**p: the old key is refused
        data = flow_data(tmp_path / "run")
        data["verify"] = {"checks": ["singular_arc"], "singular_tol": 1e-8}
        cfg = write_config(tmp_path, "old.yaml", data)
        for argv in (["run", cfg], ["verify", str(tmp_path / "t.csv"), cfg]):
            assert main(argv) == 2
            assert capsys.readouterr().err.splitlines() == [
                "config error: verify: unknown field(s): singular_tol"]
        assert not (tmp_path / "run").exists()

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
        assert capsys.readouterr().err.splitlines() == [
            "config error: verify works on flow trajectories; the config's "
            "method block is discrete"]

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

    @pytest.mark.parametrize("ran, checked", [
        ("reduced", "full_primal_dual"), ("full_primal_dual", "reduced")])
    def test_a_file_of_the_other_mode_exits_two_naming_it(
            self, tmp_path, capsys, ran, checked):
        # a reduced file's costates would be filled in from their
        # definitions and pass every costate check
        out = tmp_path / "run"
        data = flow_data(out, t_max=1.0, mode=ran)
        assert main(["run", write_config(tmp_path, "ran.yaml", data)]) == 0
        data["method"]["mode"] = checked
        cfg = write_config(tmp_path, "checked.yaml", data)
        traj = str(out / "trajectory.csv")
        capsys.readouterr()
        assert main(["verify", traj, cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {traj}:")
        assert f"method.mode is {checked}" in err[0]

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

    @pytest.mark.parametrize("column,code", [
        ("t", 2), ("v1", 2), ("y", 3), ("E", 3), ("grad_norm", 3),
        ("lieV", 3)])
    def test_a_non_finite_cell_exits_by_its_column(self, finished_run,
                                                   tmp_path, capsys, column,
                                                   code):
        # no run writes a non-finite t, x or v: such a file is a bad
        # input. Any other column is derived from the state, and a run
        # records a non-finite one only where it diverged
        traj, cfg = finished_run
        lines = open(traj).read().splitlines()
        row = lines[2].split(",")
        row[lines[0].split(",").index(column)] = "-inf"
        lines[2] = ",".join(row)
        bad = tmp_path / "edited.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(bad), cfg]) == code
        kind = "config error" if code == 2 else "run diverged"
        assert capsys.readouterr().err == (
            f"{kind}: {bad}: row 2, column {column}: non-finite value -inf\n")

    def test_a_run_that_diverged_at_its_start_exits_three(self, tmp_path,
                                                          capsys):
        # the start gradient is finite but its norm overflows: the run
        # records that one state, with grad_norm and V inf
        out = tmp_path / "run"
        data = flow_data(out, gamma_a=1.0, gamma_b=1.0, h=0.01, t_max=1.0)
        data["problem"].update(scale=1.0e+154, seed=1)
        cfg = write_config(tmp_path, "overflow.yaml", data)
        assert main(["run", cfg]) == 3
        traj = out / "trajectory.csv"
        header, first = traj.read_text().splitlines()[:2]
        cells = dict(zip(header.split(","), first.split(",")))
        assert cells["grad_norm"] == cells["V"] == "inf"
        capsys.readouterr()
        assert main(["verify", str(traj), cfg]) == 3
        assert capsys.readouterr().err == (
            f"run diverged: {traj}: row 1, column grad_norm: non-finite "
            f"value inf\n")

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
def test_verify_input_fuzz_exits_with_a_contract_code(small_run, capsys,
                                                     kind, row, col, value):
    root, lines, cfg = small_run
    path = root / "fuzzed.csv"
    path.write_text(_corrupt(lines, kind, row, col, value))
    capsys.readouterr()
    code = main(["verify", str(path), cfg])
    err = capsys.readouterr().err
    assert code in (1, 2, 3), err
    assert "Traceback" not in err
    if code in (2, 3):
        assert len(err.splitlines()) == 1, err
    if code == 3:
        # only a non-finite cell past t, x and v reads as a divergence
        assert kind == "cell" and err.startswith("run diverged: "), err


@pytest.fixture(scope="module")
def dim3_run(tmp_path_factory):
    """A dim-3 nesterov trajectory's bytes, its config and its report."""
    root = tmp_path_factory.mktemp("foreign")
    data = flow_data(root / "run", controller="nesterov", t_max=1.0)
    del data["method"]["gamma_b"]
    data["problem"]["dim"] = 3
    cfg = write_config(root, "nesterov.yaml", data)
    assert main(["run", cfg]) == 0
    return root, (root / "run" / "trajectory.csv").read_bytes(), cfg


def _verify_bytes(root, text, cfg, capsys):
    path = root / "foreign.csv"
    path.write_bytes(text)
    capsys.readouterr()
    code = main(["verify", str(path), cfg])
    out, err = capsys.readouterr()
    return code, out.replace(str(path), "FILE"), err.replace(str(path), "FILE")


def test_a_crlf_trajectory_verifies_as_its_lf_file(dim3_run, capsys):
    root, text, cfg = dim3_run
    lf = _verify_bytes(root, text, cfg, capsys)
    assert lf[2] == ""
    assert _verify_bytes(root, text.replace(b"\n", b"\r\n"), cfg,
                         capsys) == lf


@pytest.mark.parametrize("fault, message", [
    ("header byte", "'utf-8' codec can't decode byte 0xff in position 3: "
                    "invalid start byte"),
    ("nul", "could not convert string '-0.\\x00"),
    ("short last row", "the number of columns changed from 12 to 10 at row "
                       "101; use `usecols` to select a subset and avoid "
                       "this error"),
])
def test_foreign_trajectory_bytes_exit_two_with_one_line(dim3_run, capsys,
                                                         fault, message):
    root, text, cfg = dim3_run
    header, body = text.split(b"\n", 1)
    rows = body.split(b"\n")[:-1]
    if fault == "header byte":
        header = header[:3] + b"\xff" + header[3:]
    elif fault == "nul":
        cells = rows[5].split(b",")
        cells[2] = cells[2][:3] + b"\0" + cells[2][3:]
        rows[5] = b",".join(cells)
    else:
        rows[-1] = b",".join(rows[-1].split(b",")[:-2])
    code, out, err = _verify_bytes(
        root, b"\n".join([header] + rows) + b"\n", cfg, capsys)
    assert code == 2
    assert err.startswith(f"config error: FILE: {message}"), err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("hook", ["setprofile", "settrace"])
def test_a_run_under_a_profiler_or_tracer_exits_zero(tmp_path, hook):
    out = tmp_path / "run"
    data = flow_data(out, t_max=0.2)
    data["problem"] = {"name": "quadratic", "dim": 10, "kappa": 10.0,
                       "seed": 1}
    cfg = write_config(tmp_path, "run.yaml", data)
    set_hook = getattr(sys, hook)
    previous = getattr(sys, hook.replace("set", "get"))()
    set_hook(lambda *args: None)
    try:
        code = main(["run", cfg])
    finally:
        set_hook(previous)
    assert code == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 22


@pytest.mark.parametrize("verb", ["run", "compare"])
def test_a_runtime_failure_over_several_lines_prints_one(tmp_path, capsys,
                                                         monkeypatch, verb):
    # a library error whose text runs over lines, as numpy's do
    def failing(*args, **kwargs):
        raise ValueError("first line,\n  then a second\tand\n\na third\n")

    monkeypatch.setattr(cli, "heavy_ball_iterate", failing)
    argv = [verb, write_config(tmp_path, "a.yaml",
                               discrete_data(tmp_path / "run"))]
    if verb == "compare":
        argv.append(write_config(tmp_path, "b.yaml", dict(
            discrete_data(tmp_path / "run"), label="other")))
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    line = "runtime failure: first line, then a second and a third"
    assert err == ([line] if verb == "run" else
                   [f"heavy_ball: {line}", f"other: {line}"])


def test_a_yaml_parse_error_prints_one_line(tmp_path, capsys):
    # PyYAML's text for a bad indent runs over four lines
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem:\n  name: quadratic\n dim: 4\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {bad}:"), err
    assert "YAML parse error" in err[0]


def _piped(tmp_path, text, call):
    """call(path) with path a named pipe that a thread writes text to."""
    fifo = tmp_path / "config.pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,),
                              daemon=True)
    writer.start()
    try:
        return call(str(fifo)), str(fifo)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


def test_a_config_read_from_a_pipe_runs_as_its_file(tmp_path):
    # a pipe cannot seek: its config is read once, by SafeLoader, here
    # a text with a comment, which the echo does not write back
    out = tmp_path / "run"
    text = "# piped\n" + yaml.safe_dump(flow_data(out, t_max=0.5))
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 0
    summary = (out / "summary.json").read_bytes()
    code, _ = _piped(tmp_path, text, lambda path: main(["run", path]))
    assert code == 0
    assert (out / "summary.json").read_bytes() == summary


def test_a_pipe_with_a_bad_indent_exits_two_naming_it(tmp_path, capsys):
    code, fifo = _piped(tmp_path, "problem:\n  name: quadratic\n dim: 4\n",
                        lambda path: main(["run", path]))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {fifo}:3: YAML parse error: while parsing a block "
        f"mapping in \"{fifo}\", line 1, column 1 expected <block end>, "
        f"but found '<block mapping start>' in \"{fifo}\", line 3, "
        f"column 2"]


def test_a_missing_config_whose_path_holds_a_newline_prints_one_line(
        tmp_path, capsys):
    missing = tmp_path / "two\nlines.yaml"
    assert main(["run", str(missing)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert " ".join(str(missing).split()) in err[0]


@pytest.mark.parametrize("problem", [
    {"name": "quadratic", "dim": 7, "kappa": 10.0, "seed": 3},
    {"name": "log_sum_exp", "dim": 7, "terms": 23, "seed": 3}],
    ids=["quadratic", "log_sum_exp"])
def test_an_accel_newton_config_writes_its_flows_semi_implicit_euler_x(
        tmp_path, problem):
    # the identity of test_discrete.py's semi-implicit Euler test, from
    # the written files: same gains, h and floor, stride 1 and v0 = 0
    from test_discrete import SIE_TOLERANCE
    gains, h, steps, floor = {"gamma_a": 4.0, "gamma_b": 3.0}, 0.05, 150, 0.2
    flow = {"problem": problem, "output": {"out_dir": str(tmp_path / "flow"),
                                           "stride": 1},
            "method": {"kind": "flow", "controller": "accel_newton", **gains,
                       "eig_floor": floor, "h": h, "t_max": steps * h,
                       "integrator": "semi_implicit_euler",
                       "v0": [0.0] * 7}}
    disc = {"problem": problem, "output": {"out_dir": str(tmp_path / "disc")},
            "method": {"kind": "discrete", "name": "accel_newton", **gains,
                       "eig_floor": floor, "h": h, "max_iters": steps}}
    for name, data in (("flow", flow), ("disc", disc)):
        assert main(["run", write_config(tmp_path, f"{name}.yaml", data)]) \
            == 0
    x_flow = read_trajectory_csv(str(tmp_path / "flow" / "trajectory.csv"))[
        "x"]
    iterates = np.loadtxt(tmp_path / "disc" / "iterates.csv", delimiter=",",
                          skiprows=1, ndmin=2)
    x_disc = iterates[:, 1:8]
    rows = min(len(x_flow), len(x_disc))
    assert rows > 100
    err = (np.max(np.abs(x_flow[:rows] - x_disc[:rows]))
           / np.max(np.abs(x_disc[:rows])))
    assert err <= SIE_TOLERANCE["accel_newton"]
