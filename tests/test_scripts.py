import csv
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_metric_comparison_hessian_unit_step_is_one_newton_step(tmp_path):
    # the script drives accelerated_newton_iterate, the discrete user of
    # metric_matrix and metric_solve: at gains (1, 1) and h = 1 the
    # Hessian metric step is Newton's and finishes in one iteration
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "metric_comparison.py"),
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    newton = [r for r in rows
              if r["scheme"] == "unit step" and r["metric"] == "hessian"]
    assert [r["spectrum"] for r in newton] == ["stiff", "soft"]
    for r in newton:
        assert r["cost"] == "1 iters"
        assert r["status"] == "converged"
