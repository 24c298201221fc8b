import csv
import json
import os
import subprocess
import sys

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
