"""The README's Python quick start runs as written, and its CLI synopsis
names each verb's options.

The package root re-exports nothing, so the documented imports must name
the submodules that define each function; running the block catches a
name that moved.
"""

import os
import re

import pytest

from accelflow import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def blocks(language):
    with open(os.path.join(ROOT, "README.md")) as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(),
                          flags=re.M | re.S)


def usage(argv, capsys):
    """The usage text the parser prints for argv + --help."""
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([*argv, "--help"])
    return capsys.readouterr().out


def options(text):
    """The optional flags a usage line lists, as [--name ...]."""
    return sorted(re.findall(r"\[(--[\w-]+)", text))


def test_quick_start_runs(capsys):
    python = blocks("python")
    assert len(python) == 1
    exec(compile(python[0], "README.md", "exec"), {})
    converged, t_final, grad_norm = capsys.readouterr().out.split()
    assert converged == "True"
    assert float(grad_norm) <= 1e-6


def test_the_cli_synopsis_lists_each_verbs_options(capsys):
    synopsis = {line.split()[1]: line for block in blocks("sh")
                for line in block.splitlines()
                if line.startswith("accelflow ")}
    verbs = re.search(r"\{([\w,]+)\}", usage([], capsys)).group(1)
    assert sorted(synopsis) == sorted(verbs.split(","))
    for verb, line in synopsis.items():
        assert options(line) == options(usage([verb], capsys)), verb
