"""Byte-compare what the benchmark's workloads write in two checkouts.

    python3 scripts/artifact_diff.py --base DIR --head DIR --seeds 0 1 \
        [--workloads NAME ...]

In each checkout, for each workload and seed, builds the workload from
that checkout's perfbench/workloads.py (imported, never changed), writes
its configs the way perfbench/bench.py does, and runs its prepare ops and
its timed ops once, in process, against that checkout's src/, at one BLAS
thread as the benchmark runs them. Each op's exit code, stdout and stderr
are kept as one JSON file beside the artifacts. Then every file the two
sides wrote is compared byte for byte. The only difference ignored is
the work directory itself: each side's root path is replaced by one
placeholder before comparing, since configs, echoes and messages name
absolute paths.

--workloads runs only the named workloads, all four by default, so that a
change aimed at one workload can be byte-checked quickly.

Exits 0 when both sides wrote the same files with the same bytes, 1 with
one line per difference otherwise, and 2 when a checkout's run itself
fails (an op that fails is recorded, not a failed run). --work DIR keeps
both trees there (DIR/base, DIR/head); by default they go to a temporary
directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Optional

WORKLOADS = ("flow_euclid", "flow_curvature", "verify_replay",
             "discrete_compare")
PLACEHOLDER = b"<WORK>"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OPS_DIR = "_ops"


def collect(checkout: str, root: str, seeds: list[int],
            names: list[str]) -> None:
    """Run each named workload once in checkout, writing everything under
    root.

    Runs in its own interpreter (see main), so that the checkout's own
    accelflow is the one imported.
    """
    import yaml

    sys.dont_write_bytecode = True  # leave no cache in either checkout
    sys.path[:0] = [os.path.join(checkout, "src"),
                    os.path.join(checkout, "perfbench")]
    import workloads as wl_module
    from accelflow import cli

    for name in names:
        for seed in seeds:
            work_dir = os.path.join(root, f"{name}-seed{seed}")
            wl = wl_module.build(name, seed, work_dir)
            for path, doc in wl.configs.items():
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as fh:
                    yaml.safe_dump(doc, fh, sort_keys=True)
            log_dir = os.path.join(work_dir, OPS_DIR)
            os.makedirs(log_dir)
            for k, op in enumerate(wl.prepare + wl.ops):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(list(op.argv))
                    except SystemExit as e:
                        code = e.code if isinstance(e.code, int) else 1
                    except Exception as e:  # recorded, and compared
                        code = f"raised {type(e).__name__}: {e}"
                log = {"op": op.op_id, "exit_code": code,
                       "stdout": out.getvalue(), "stderr": err.getvalue()}
                safe = op.op_id.replace(":", "_").replace(os.sep, "_")
                with open(os.path.join(log_dir, f"{k:03d}-{safe}.json"),
                          "w") as fh:
                    json.dump(log, fh, indent=1, sort_keys=True)


def _files(root: str) -> set[str]:
    out = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            out.add(os.path.relpath(os.path.join(dirpath, name), root))
    return out


def _normalized(path: str, root: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    return data.replace(os.path.abspath(root).encode(), PLACEHOLDER)


def compare_trees(base_root: str, head_root: str) -> list[str]:
    """One line per difference between the two trees, sorted by path.

    A file present on one side only, or whose bytes differ once each
    side's root path is replaced by the placeholder, is a difference.
    """
    base, head = _files(base_root), _files(head_root)
    lines = [f"only in base: {p}" for p in sorted(base - head)]
    lines += [f"only in head: {p}" for p in sorted(head - base)]
    for rel in sorted(base & head):
        if (_normalized(os.path.join(base_root, rel), base_root)
                != _normalized(os.path.join(head_root, rel), head_root)):
            lines.append(f"differs: {rel}")
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the parent checkout")
    p.add_argument("--head", required=True, help="the changed checkout")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                   default=list(WORKLOADS), metavar="NAME",
                   help=f"the workloads to run, of {', '.join(WORKLOADS)} "
                        f"(default: all)")
    p.add_argument("--work", help="keep both trees here (DIR/base, DIR/head)")
    p.add_argument("--collect", nargs=2, metavar=("CHECKOUT", "ROOT"),
                   help=argparse.SUPPRESS)  # the per-checkout child run
    args = p.parse_args(argv)
    if args.collect:
        collect(*args.collect, args.seeds, args.workloads)
        return 0

    work = args.work or tempfile.mkdtemp(prefix="artifact_diff_")
    try:
        roots = {}
        for side in ("base", "head"):
            roots[side] = os.path.abspath(os.path.join(work, side))
            shutil.rmtree(roots[side], ignore_errors=True)
            checkout = os.path.abspath(getattr(args, side))
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--base", args.base, "--head", args.head,
                 "--collect", checkout, roots[side],
                 "--seeds", *map(str, args.seeds),
                 "--workloads", *args.workloads],
                cwd=checkout, capture_output=True, text=True,
                env={**os.environ, **dict.fromkeys(BLAS_THREADS, "1")})
            if proc.returncode != 0:
                print(f"{side}: the run failed:\n{proc.stderr}",
                      file=sys.stderr)
                return 2
        lines = compare_trees(roots["base"], roots["head"])
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    print(f"{len(lines)} differences" if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
