"""Print the accelflow package's source lines and public settable values.

    python3 scripts/api_surface.py [--src DIR]

DIR holds the package directory accelflow/ (default: this checkout's
src/). It prints one line per module and a total line, each with both
figures, and exits 0.

Source lines are the newlines in each accelflow/*.py file, what
`wc -l src/accelflow/*.py` counts.

Public settable values are counted over each module's public names (no
leading underscore) that the module itself defines (the object's
__module__ is the module), so a name imported from another module is
counted only where it is defined:
- a function counts its parameters;
- a dataclass counts its init fields;
- a class counts the parameters of each public method it defines
  itself, without self or cls; static and class methods included.
Enum members, constants, type aliases and private names count nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import importlib
import inspect
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parameters(function, bound: bool) -> int:
    return len(inspect.signature(function).parameters) - bound


def settable_values(module) -> int:
    """The public settable values module defines, by the rule above."""
    total = 0
    for name, obj in vars(module).items():
        if name.startswith("_") or \
                getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            total += _parameters(obj, bound=False)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                total += sum(f.init for f in dataclasses.fields(obj))
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, staticmethod):
                    total += _parameters(member.__func__, bound=False)
                elif isinstance(member, classmethod):
                    total += _parameters(member.__func__, bound=True)
                elif inspect.isfunction(member):
                    total += _parameters(member, bound=True)
    return total


def surface(src: str) -> list[tuple[str, int, int]]:
    """(module, source lines, settable values) for each accelflow/*.py
    file under src, in name order."""
    sys.path.insert(0, src)
    package = importlib.import_module("accelflow")
    where = os.path.dirname(os.path.abspath(package.__file__))
    if where != os.path.join(os.path.abspath(src), "accelflow"):
        raise SystemExit(f"accelflow was imported from {where}, not {src}")
    rows = []
    for file in sorted(glob.glob(os.path.join(where, "*.py"))):
        name = os.path.basename(file)[:-3]
        with open(file, "rb") as fh:
            lines = fh.read().count(b"\n")
        module = importlib.import_module(
            "accelflow" if name == "__init__" else f"accelflow.{name}")
        rows.append((name, lines, settable_values(module)))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the directory that holds accelflow/")
    args = parser.parse_args(argv)
    rows = surface(args.src)
    print(f"{'module':<12} {'lines':>6} {'settable':>8}")
    for name, lines, values in rows:
        print(f"{name:<12} {lines:>6} {values:>8}")
    print(f"{'total':<12} {sum(r[1] for r in rows):>6} "
          f"{sum(r[2] for r in rows):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
