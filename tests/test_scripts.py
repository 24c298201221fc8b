import csv
import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, out_dir):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name),
         "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=300)


def test_metric_comparison_hessian_unit_step_is_one_newton_step(tmp_path):
    # the script drives accelerated_newton_iterate, the discrete user of
    # metric_matrix and metric_solve: at gains (1, 1) and h = 1 the
    # Hessian metric step is Newton's and finishes in one iteration
    proc = run_script("metric_comparison.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    newton = [r for r in rows
              if r["scheme"] == "unit step" and r["metric"] == "hessian"]
    assert [r["spectrum"] for r in newton] == ["stiff", "soft"]
    for r in newton:
        assert r["cost"] == "1 iters"
        assert r["status"] == "converged"


def test_flow_showcase_compares_six_flows_and_certifies_the_rate(tmp_path):
    proc = run_script("flow_showcase.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["label"] for r in rows] == [
        "polyak", "accel_newton", "quasi_newton", "nesterov", "min_p",
        "min_p_star"]
    with open(tmp_path / "min_p_star" / "summary.json") as fh:
        checks = json.load(fh)["checks"]["checks"]
    status = {c["name"]: c["status"] for c in checks}
    assert status["dissipation_rate"] == "passed"
    assert set(status.values()) == {"passed"}


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_output(work_per_s, raw_work_per_s, calibration_s=0.0184678):
    """What perfbench/run.py prints for one untraced run."""
    metrics = {"setup_s": {"value": 0.2243, "unit": "s"},
               "wall_s": {"value": 0.5812, "unit": "s"},
               "op_s_p50": {"value": 0.0939, "unit": "s"},
               "work_per_s": {"value": work_per_s, "unit": "1/s"},
               "peak_rss_mb": {"value": 42.8359375, "unit": "MB"}}
    return "\n".join([
        "perfbench workload=flow_curvature seed=1 trace=0 seconds=2.0",
        "ops_failed_frac 0 (0/6 ops, reference not checked)",
        f"steps_per_s {work_per_s:.3f} 1/s (1000 steps per pass; raw "
        f"{raw_work_per_s:.3f} 1/s)",
        f"raw (unscaled) calibration_s {calibration_s} op_s_p50 0.167514 "
        f"setup_s 0.394447 wall_s 1.02506 work_per_s {raw_work_per_s}",
        json.dumps({"correct": True, "attempted": 6, "failed": 0,
                    "metrics": metrics}),
        ""])


def test_bench_pairs_reads_the_result_and_the_raw_figures():
    bench_pairs = _bench_pairs()
    run = bench_pairs.parse_run_output(_run_output(1720.66, 975.557))
    assert run["result"]["correct"] is True
    assert run["result"]["metrics"]["work_per_s"]["value"] == 1720.66
    assert run["raw"] == {"calibration_s": 0.0184678, "op_s_p50": 0.167514,
                          "setup_s": 0.394447, "wall_s": 1.02506,
                          "work_per_s": 975.557}


@pytest.mark.parametrize("text", [
    "",
    "perfbench: worker exited 1 without a result\n",
    _run_output(1.0, 1.0).replace("raw (unscaled)", "raw"),
    _run_output(1.0, 1.0).replace("wall_s 1.02506 ", "wall_s "),
], ids=["empty", "no_result", "no_raw_line", "unpaired_raw"])
def test_bench_pairs_rejects_an_incomplete_output(text):
    with pytest.raises(ValueError):
        _bench_pairs().parse_run_output(text)


def test_bench_pairs_summary_counts_the_pairs_the_head_won():
    bench_pairs = _bench_pairs()
    parse = bench_pairs.parse_run_output
    pairs = [{"base": parse(_run_output(b, b / 2)),
              "head": parse(_run_output(h, h / 2))}
             for b, h in ((100.0, 120.0), (110.0, 105.0), (90.0, 99.0))]
    pairs.append({"base": {"exit_code": 3, "error": "no result"},
                  "head": parse(_run_output(1.0, 1.0))})
    summary = bench_pairs.summarize(pairs)
    work = summary["work_per_s"]
    assert summary["pairs_compared"] == 3
    assert work["head_wins"] == 2
    assert work["base"]["median"] == 100.0
    assert work["head"]["median"] == 105.0
    assert work["raw_head"]["median"] == 52.5
    assert work["ratio_median"] == pytest.approx(1.1)
    assert summary["calibration_s"]["base"]["median"] == 0.0184678


def test_bench_pairs_appends_its_record_and_alternates_the_order(
        tmp_path, monkeypatch):
    bench_pairs = _bench_pairs()
    order = []

    def canned(checkout, workload, seed, seconds):
        order.append(checkout)
        run = bench_pairs.parse_run_output(
            _run_output(120.0 if checkout == "new" else 100.0, 50.0))
        return {"exit_code": 0, **run}

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    monkeypatch.setattr(bench_pairs, "stage", lambda checkout, dest: checkout)
    out = tmp_path / "BENCH.json"
    argv = ["--base", "old", "--head", "new", "--workload", "flow_curvature",
            "--seconds", "1", "--pairs", "3", "--out", str(out),
            "--base-commit", "a", "--head-commit", "b"]
    assert bench_pairs.main(argv + ["--seed", "1"]) == 0
    assert bench_pairs.main(argv + ["--seed", "2"]) == 0
    assert order[:6] == ["old", "new", "new", "old", "old", "new"]
    records = json.loads(out.read_text())
    assert [r["seed"] for r in records] == [1, 2]
    assert records[0]["base_commit"] == "a"
    assert records[0]["summary"]["work_per_s"]["head_wins"] == 3


def test_bench_pairs_runs_both_sides_from_paths_of_equal_length(
        tmp_path, monkeypatch):
    # checkouts whose paths differ in length run from staged copies whose
    # paths do not; only subprocess.run is replaced, so no workload runs
    bench_pairs = _bench_pairs()
    checkouts = {"base": tmp_path / "b", "head": tmp_path / "a-longer-head"}
    for side, root in checkouts.items():
        _tree(root, {"src/accelflow/cli.py": side, "perfbench/run.py": "",
                     "BENCHMARK.json": "{}", "tests/test_x.py": ""})
    cwds = []

    def canned(argv, cwd, **kwargs):
        cwds.append(cwd)
        assert os.path.isfile(os.path.join(cwd, "perfbench", "run.py"))
        assert os.path.isfile(os.path.join(cwd, "BENCHMARK.json"))
        assert not os.path.exists(os.path.join(cwd, "tests"))
        side = pathlib.Path(cwd, "src", "accelflow", "cli.py").read_text()
        assert os.path.basename(cwd) == side
        return subprocess.CompletedProcess(argv, 0, _run_output(1.0, 1.0),
                                           "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", canned)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([
        "--base", str(checkouts["base"]), "--head", str(checkouts["head"]),
        "--workload", "flow_curvature", "--seed", "1", "--seconds", "1",
        "--pairs", "2", "--out", str(out), "--base-commit", "a",
        "--head-commit", "b"]) == 0
    assert len(cwds) == 4 and len({len(cwd) for cwd in cwds}) == 1
    record = json.loads(out.read_text())[0]
    assert record["base_path"] == str(checkouts["base"])
    assert record["head_path"] == str(checkouts["head"])
    assert [record["base_staged"], record["head_staged"]] == cwds[:2]


def _artifact_diff():
    spec = importlib.util.spec_from_file_location(
        "artifact_diff", os.path.join(ROOT, "scripts", "artifact_diff.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text.replace("{root}", str(root)))
    return str(root)


def test_artifact_diff_ignores_only_the_work_directory(tmp_path):
    compare = _artifact_diff().compare_trees
    files = {"w-seed0/configs/a.yaml": "out_dir: {root}/w-seed0/out/a\n",
             "w-seed0/_ops/000-run_a.json": '{"exit_code": 0}'}
    base = _tree(tmp_path / "base", files)
    assert compare(base, _tree(tmp_path / "head", files)) == []
    files["w-seed0/out/a/trajectory.csv"] = "t,x0\n0,1\n"
    changed = dict(files, **{"w-seed0/_ops/000-run_a.json":
                             '{"exit_code": 3}',
                             "w-seed0/out/a/summary.json": "{}"})
    head = _tree(tmp_path / "head2", changed)
    base = _tree(tmp_path / "base2", dict(files, **{"extra.txt": ""}))
    assert compare(base, head) == [
        "only in base: extra.txt",
        "only in head: w-seed0/out/a/summary.json",
        "differs: w-seed0/_ops/000-run_a.json"]
    # a path outside the work directory is not ignored
    head = _tree(tmp_path / "head3", dict(
        files, **{"w-seed0/configs/a.yaml": "out_dir: /elsewhere/out/a\n"}))
    assert compare(_tree(tmp_path / "base3", files), head) == [
        "differs: w-seed0/configs/a.yaml"]


@pytest.mark.parametrize("same", [True, False])
def test_artifact_diff_exits_one_on_a_difference(tmp_path, monkeypatch,
                                                 capsys, same):
    # the per-checkout runs are replaced by canned trees: no workload runs
    artifact_diff = _artifact_diff()

    def canned(argv, **kwargs):
        checkout, root = argv[argv.index("--collect") + 1:][:2]
        text = "1\n" if same or checkout.endswith("base") else "2\n"
        _tree(pathlib.Path(root), {"w/out.csv": text})
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(artifact_diff.subprocess, "run", canned)
    code = artifact_diff.main(["--base", str(tmp_path / "base"),
                               "--head", str(tmp_path / "head"),
                               "--work", str(tmp_path / "work")])
    out = capsys.readouterr().out.splitlines()
    assert (code, out) == ((0, ["identical"]) if same else
                           (1, ["differs: w/out.csv", "1 differences"]))


@pytest.mark.parametrize("names", [[], ["discrete_compare"],
                                   ["flow_euclid", "verify_replay"]])
def test_artifact_diff_runs_the_named_workloads(tmp_path, monkeypatch,
                                                 capsys, names):
    # each checkout's run is told the workloads, all four by default
    artifact_diff = _artifact_diff()
    told = []

    def canned(argv, **kwargs):
        told.append(argv[argv.index("--workloads") + 1:])
        _tree(pathlib.Path(argv[argv.index("--collect") + 2]),
              {"w/out.csv": "1\n"})
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(artifact_diff.subprocess, "run", canned)
    argv = ["--base", str(tmp_path / "base"), "--head", str(tmp_path / "head"),
            "--work", str(tmp_path / "work")]
    assert artifact_diff.main(
        argv + (["--workloads", *names] if names else [])) == 0
    assert told == [names or list(artifact_diff.WORKLOADS)] * 2
    with pytest.raises(SystemExit) as exit_info:
        artifact_diff.main(argv + ["--workloads", "flow_nowhere"])
    assert exit_info.value.code == 2
    assert "flow_nowhere" in capsys.readouterr().err


def test_artifact_diff_collects_only_the_named_workloads(tmp_path,
                                                         monkeypatch):
    # the child's loop, over workload builds that write nothing
    artifact_diff = _artifact_diff()
    built = []
    fake = type(sys)("workloads")
    fake.build = lambda name, seed, work_dir: built.append(
        (name, seed)) or types.SimpleNamespace(configs={}, prepare=[], ops=[])
    monkeypatch.setitem(sys.modules, "workloads", fake)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    artifact_diff.collect(ROOT, str(tmp_path), [0, 1], ["verify_replay"])
    assert built == [("verify_replay", 0), ("verify_replay", 1)]


def _api_surface(src):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "api_surface.py"),
         "--src", str(src)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {name: (int(lines), int(values)) for name, lines, values
            in (line.split() for line in proc.stdout.splitlines()[1:])}


SURFACE_MODULE = '''import dataclasses
from enum import Enum
from os.path import join


def public(a, b=1, *rest, c, **extra): pass
def _private(a): pass


@dataclasses.dataclass
class Block:
    a: int
    b: int = 0
    c: int = dataclasses.field(default=0, init=False)

    def method(self, x): pass
    def _hidden(self, x): pass

    @staticmethod
    def make(x, y): pass

    @classmethod
    def build(cls, x): pass


class Kind(Enum):
    A = 1


LIMIT = 3
'''


def test_api_surface_counts_by_its_stated_rule(tmp_path):
    _tree(tmp_path, {"accelflow/__init__.py": "",
                     "accelflow/m.py": SURFACE_MODULE})
    lines = SURFACE_MODULE.count("\n")
    # public 5, Block 2 fields + method 1 + make 2 + build 1; the
    # imported join, the private names, Kind and LIMIT count nothing
    assert _api_surface(tmp_path) == {"__init__": (0, 0), "m": (lines, 11),
                                      "total": (lines, 11)}


def test_api_surface_lines_are_the_package_newlines():
    src = os.path.join(ROOT, "src")
    surface = _api_surface(src)
    package = pathlib.Path(src, "accelflow")
    lines = {p.stem: p.read_bytes().count(b"\n")
             for p in package.glob("*.py")}
    assert {name: n for name, (n, _) in surface.items()
            if name != "total"} == lines
    assert surface["total"] == (sum(lines.values()),
                                sum(v for name, (_, v) in surface.items()
                                    if name != "total"))


def _test_only(src):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "api_surface.py"),
         "--src", str(src), "--test-only"],
        capture_output=True, text=True, timeout=120)


TEST_ONLY_MODULE = '''import os


def used(): pass
def recursive(n): return recursive(n - 1) if n else 0
def in_script(): pass
def documented(): pass
def _private(): pass


class Called:
    def method(self): return Called


class Attribute: pass


def caller():
    return used() + os.path.join(Attribute.__name__)
'''


def test_api_surface_test_only_lists_by_its_stated_rule(tmp_path):
    # recursive and Called refer to themselves only inside their own
    # definitions; caller is called by nothing at all
    _tree(tmp_path, {"src/accelflow/__init__.py": "",
                     "src/accelflow/m.py": TEST_ONLY_MODULE,
                     "scripts/s.py": "from accelflow import m\n"
                                     "m.in_script()\n",
                     "README.md": "Call `m.documented()`; not caller.\n"})
    proc = _test_only(tmp_path / "src")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.split() == ["m.recursive", "m.Called", "m.caller"]


def test_api_surface_test_only_lists_nothing_in_this_checkout():
    proc = _test_only(os.path.join(ROOT, "src"))
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr


def _law_cost(base, head, *extra):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "law_cost.py"),
         "--base", str(base), "--head", str(head), "--dim", "4",
         "--repeat", "1", "--number", "2", *extra],
        capture_output=True, text=True, timeout=300)


def test_law_cost_times_each_law_in_both_checkouts():
    proc = _law_cost(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0] == "dim 4, best of 1 x 2 calls, raw us per call"
    assert [row[:22].strip() for row in rows[2:]] == [
        "polyak", "nesterov", "min_p_star inactive", "min_p_star active",
        "metric solve", "pointwise floor", "gradient", "trajectory text",
        "record memory", "trajectory read", "read memory", "config load"]
    for row in rows[2:]:
        base, head, ratio = map(float, row[22:].split())
        assert base > 0.0 and head > 0.0
        assert ratio == pytest.approx(head / base, abs=1e-3, rel=1e-2)


def test_law_cost_exits_one_when_a_checkout_gives_other_bytes(tmp_path):
    # a head whose quadratic gradient is off by one ulp; the laws take
    # the same states in both checkouts, so only the gradient differs
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    objective = tmp_path / "src" / "accelflow" / "objective.py"
    text = objective.read_text()
    old = "return product(d) if d.ndim == 1 else np.matvec(Q, d)"
    assert old in text
    objective.write_text(text.replace(
        old, "return np.nextafter(product(d) if d.ndim == 1 else "
             "np.matvec(Q, d), np.inf)"))
    proc = _law_cost(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "gradient: the checkouts give different bytes"]


def test_law_cost_exits_one_when_the_trajectory_text_differs(tmp_path):
    # a head whose CSV text separates fields with ';': every law and the
    # gradient agree, only the written trajectory differs
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    csvtext = tmp_path / "src" / "accelflow" / "csvtext.py"
    text = csvtext.read_text()
    old = 'for sep in (b",", b"\\n")'
    assert old in text
    csvtext.write_text(text.replace(old, 'for sep in (b";", b"\\n")'))
    proc = _law_cost(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "trajectory text: the checkouts give different bytes"]


def test_law_cost_exits_one_when_the_table_read_differs(tmp_path):
    # a head whose reader rounds every field one ulp up: it writes the
    # same text, so only the table read back from it differs
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    csvtext = tmp_path / "src" / "accelflow" / "csvtext.py"
    text = csvtext.read_text()
    old = "values = r.astype(np.float64)"
    assert old in text
    csvtext.write_text(text.replace(
        old, "values = np.nextafter(r.astype(np.float64), np.inf)"))
    proc = _law_cost(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "trajectory read: the checkouts give different bytes"]


def test_law_cost_exits_one_when_a_loaded_config_differs(tmp_path):
    # a head whose verify block defaults to another adjoint coefficient:
    # the workloads' configs leave it out, so only their load differs
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    config = tmp_path / "src" / "accelflow" / "config.py"
    text = config.read_text()
    old = "adjoint_coeff: float = _field(_as_positive, 1e3)"
    assert old in text
    config.write_text(text.replace(old, old.replace("1e3", "1e4")))
    proc = _law_cost(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "config load: the checkouts give different bytes"]


def test_law_cost_exits_one_when_the_metric_solve_differs(tmp_path):
    # a head whose solve with a fixed W is off by one ulp: only the
    # accel_newton law solves with one, so only its row differs
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    control = tmp_path / "src" / "accelflow" / "control.py"
    text = control.read_text()
    old = "return lu.solve(d)"
    assert old in text
    control.write_text(text.replace(
        old, "return np.nextafter(lu.solve(d), np.inf)"))
    proc = _law_cost(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "metric solve: the checkouts give different bytes"]
