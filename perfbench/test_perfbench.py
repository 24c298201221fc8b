"""The benchmark's own tests: metric lists, wrapper coverage, failure modes.

    python3 -m pytest -q perfbench

Each workload runs once at smoke size with tracing on, twice, in process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".ops", ".steps", ".iterations", ".samples",
                  ".per_step", ".per_iter", "_bytes")


def traced_smoke(name: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(["measure", "--workload", name, "--seed", "0",
                           "--seconds", "0", "--trace", "1", "--smoke"])
    lines = out.getvalue().splitlines()
    assert lines[-1].startswith(run.RESULT)
    result = json.loads(lines[-1].removeprefix(run.RESULT))
    assert code == 0 and result["correct"], lines
    return result


@pytest.fixture(scope="module")
def smoke_runs() -> dict[str, tuple[dict, dict]]:
    """Two traced smoke runs of every workload."""
    return {name: (traced_smoke(name), traced_smoke(name))
            for name in workloads.NAMES}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER]


def test_every_layer_function_is_wrapped_where_it_is_called():
    bench.import_accelflow()
    assert tracing.unlisted_bindings() == []


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_exactly(name, smoke_runs):
    first, second = smoke_runs[name]
    counts = {k: v for k, v in first["metrics"].items()
              if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second["metrics"][k] for k in counts}
    assert first["coverage"] == second["coverage"]
    assert first["metrics"]["cli.self_s"] >= 0.0
    assert second["metrics"]["cli.self_s"] >= 0.0
    assert set(run.PER_LAYER) <= set(first["metrics"])


def test_smoke_runs_reach_every_wrapped_binding(smoke_runs):
    reached: dict[str, int] = {}
    for first, _ in smoke_runs.values():
        for key, calls in first["coverage"].items():
            reached[key] = reached.get(key, 0) + calls
    expected = {f"{caller}.{name.split('.')[1]}"
                for name, callers in tracing.BINDINGS.items()
                for caller in callers}
    expected |= {f"objective.{f}" for f in tracing.ORACLE_FIELDS}
    expected.add(tracing.PROBLEM_BUILD)
    assert sorted(k for k in expected if reached.get(k, 0) == 0) == []


def test_fingerprints_compare_at_the_relative_tolerance():
    ref = {"E": 1.0, "steps_taken": 10, "checks": [["x", "PASS", 2.0]]}
    assert bench._close({"E": 1.0 + 1e-13, "steps_taken": 10,
                         "checks": [["x", "PASS", 2.0]]}, ref)
    assert not bench._close({"E": 1.0 + 1e-9, "steps_taken": 10,
                             "checks": [["x", "PASS", 2.0]]}, ref)
    assert not bench._close({"E": 1.0, "steps_taken": 11,
                             "checks": [["x", "PASS", 2.0]]}, ref)


def test_an_op_fails_on_exit_code_fail_line_or_reference():
    op = workloads.Op("run:x", "run", ["run", "x.yaml"], "out")
    fp = {"E": 1.0}
    assert bench.failure(op, 0, "PASS a: worst=0", fp, None) is None
    assert bench.failure(op, 3, "", fp, None) == "exit code 3"
    assert "FAIL" in bench.failure(op, 0, "FAIL a: worst=1", fp, None)
    assert bench.failure(op, 0, "", fp, {"run:x": {"E": 1.0}}) is None
    assert "misses" in bench.failure(op, 0, "", fp, {"run:x": {"E": 2.0}})
    assert "no reference" in bench.failure(op, 0, "", fp, {})


def test_an_op_that_raises_is_counted_as_failed():
    class Cli:
        @staticmethod
        def main(argv):
            print("partial output")
            raise ValueError("metric is not positive definite")

    op = workloads.Op("run:x", "run", ["run", "x.yaml"], "out")
    code, stdout = bench.call(Cli, op)
    assert code == bench.RAISED and stdout.startswith("partial output")
    assert bench.failure(op, code, stdout, None, None) == (
        "raised ValueError: metric is not positive definite")


def test_reference_covers_every_default_seed_op(tmp_path):
    with open(bench.REFERENCE) as fh:
        reference = json.load(fh)
    for name in workloads.NAMES:
        wl = workloads.build(name, bench.DEFAULT_SEED, str(tmp_path))
        ids = {op.op_id for op in wl.prepare + wl.ops}
        assert ids == set(reference[name])


def test_without_sources_the_benchmark_exits_nonzero_and_prints_nothing(
        tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow_euclid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
