"""Paired benchmark runs of two checkouts, written to one JSON record.

    python3 scripts/bench_pairs.py --base DIR --head DIR \
        --workload flow_curvature --seed 1 --seconds 8 --pairs 10 \
        --out BENCH_<n>.json

Runs perfbench/run.py in the base and the head checkout in turn, --pairs
times. The order alternates from pair to pair (base first, then head
first), so a slow drift of the machine does not favour one side. Each
side runs in a staged copy of its checkout's src/, perfbench/ and
BENCHMARK.json, <tmp>/base and <tmp>/head under one temporary directory,
so both paths have the same length: the length of a checkout's path
alone moved one tree's figures by about 10%.

Each run's last output line (the result JSON), its "raw (unscaled)"
figures and its exit code go to the record, with both commits, both
checkouts' paths and their staged paths, the workload, the seed and the
seconds. A summary gives, per end-to-end metric, each side's median and
quartiles of the scaled and raw figures, and how many pairs the head
won. The --out file holds a JSON list of such records: a run appends its
record to the list already there, so one BENCH_<n>.json collects every
workload and seed a change was measured on.

A checkout's commit is read with git when it is a git checkout; --base-
commit and --head-commit name it otherwise (a copy made with git
archive, or a working tree with changes not yet committed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Optional

#: end-to-end metrics of run.py's result line, with the better direction
BETTER = {"setup_s": "lower", "wall_s": "lower", "op_s_p50": "lower",
          "work_per_s": "higher", "peak_rss_mb": "lower"}
RAW_PREFIX = "raw (unscaled) "
#: what a run needs of a checkout, copied into its staged directory
STAGED = ("src", "perfbench", "BENCHMARK.json")


def parse_run_output(text: str) -> dict[str, Any]:
    """The result JSON and the raw (unscaled) figures of one run.py output.

    The result is the last non-empty line; raw maps each name on the
    "raw (unscaled)" line to its value. Raises ValueError when either is
    missing.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run.py printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise ValueError(f"the last line is not a result: {lines[-1]!r}") \
            from e
    raw_lines = [line for line in lines if line.startswith(RAW_PREFIX)]
    if not raw_lines:
        raise ValueError("no 'raw (unscaled)' line")
    words = raw_lines[-1][len(RAW_PREFIX):].split()
    if len(words) % 2:
        raise ValueError(f"unpaired raw figures: {raw_lines[-1]!r}")
    raw = {name: float(value) for name, value in zip(words[::2], words[1::2])}
    return {"result": result, "raw": raw}


def commit_of(checkout: str, given: Optional[str]) -> Optional[str]:
    if given:
        return given
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def stage(checkout: str, dest: str) -> str:
    """Copy what a run needs of checkout (STAGED, where present, without
    bytecode caches) to dest, and return dest."""
    os.makedirs(dest)
    for name in STAGED:
        path = os.path.join(checkout, name)
        if os.path.isdir(path):
            shutil.copytree(path, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        elif os.path.exists(path):
            shutil.copy2(path, dest)
    return dest


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    run = {"exit_code": proc.returncode}
    try:
        run.update(parse_run_output(proc.stdout))
    except ValueError as e:
        run["error"] = str(e)
        run["stderr_tail"] = proc.stderr.splitlines()[-5:]
    return run


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict[str, Any]]) -> dict[str, Any]:
    """Per metric: each side's median and quartiles, scaled and raw, the
    median of the head/base ratios, and the pairs the head won."""
    ok = [p for p in pairs if "result" in p["base"] and "result" in p["head"]]
    out: dict[str, Any] = {"pairs_compared": len(ok)}
    if not ok:
        return out
    for name, better in BETTER.items():
        base = [p["base"]["result"]["metrics"][name]["value"] for p in ok]
        head = [p["head"]["result"]["metrics"][name]["value"] for p in ok]
        wins = sum((h > b) if better == "higher" else (h < b)
                   for b, h in zip(base, head))
        entry = {"better": better, "base": _quartiles(base),
                 "head": _quartiles(head),
                 "ratio_median": statistics.median(
                     h / b for b, h in zip(base, head) if b),
                 "head_wins": wins}
        raw_base = [p["base"]["raw"].get(name) for p in ok]
        raw_head = [p["head"]["raw"].get(name) for p in ok]
        if None not in raw_base and None not in raw_head:
            entry["raw_base"] = _quartiles(raw_base)
            entry["raw_head"] = _quartiles(raw_head)
        out[name] = entry
    cal = {side: [p[side]["raw"]["calibration_s"] for p in ok
                  if "calibration_s" in p[side]["raw"]]
           for side in ("base", "head")}
    if cal["base"] and cal["head"]:
        out["calibration_s"] = {side: _quartiles(v) for side, v in cal.items()}
    return out


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the parent checkout")
    p.add_argument("--head", required=True, help="the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True,
                   help="the BENCH_<n>.json to append the record to")
    p.add_argument("--base-commit", help="the base's commit, if not in git")
    p.add_argument("--head-commit", help="the head's commit, if not in git")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        staged = {side: stage(getattr(args, side), os.path.join(tmp, side))
                  for side in ("base", "head")}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair: dict[str, Any] = {"order": list(order)}
            for side in order:
                pair[side] = run_once(staged[side], args.workload,
                                      args.seed, args.seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} work_per_s "
                f"{pair[side]['result']['metrics']['work_per_s']['value']:.6g}"
                if "result" in pair[side] else f"{side} failed"
                for side in ("base", "head")), flush=True)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds,
        "base_commit": commit_of(args.base, args.base_commit),
        "head_commit": commit_of(args.head, args.head_commit),
        "base_path": os.path.abspath(args.base),
        "head_path": os.path.abspath(args.head),
        "base_staged": staged["base"], "head_staged": staged["head"],
        "pairs": pairs, "summary": summarize(pairs),
    }
    records = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            records = json.load(fh)
    with open(args.out, "w") as fh:
        json.dump(records + [record], fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = any(p[side]["exit_code"] != 0 or "result" not in p[side]
                 for p in pairs for side in ("base", "head"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
