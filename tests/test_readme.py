"""The README's Python quick start runs as written.

The package root re-exports nothing, so the documented imports must name
the submodules that define each function; running the block catches a
name that moved.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def python_blocks():
    with open(os.path.join(ROOT, "README.md")) as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(),
                          flags=re.M | re.S)


def test_quick_start_runs(capsys):
    blocks = python_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    converged, t_final, grad_norm = capsys.readouterr().out.split()
    assert converged == "True"
    assert float(grad_norm) <= 1e-6
