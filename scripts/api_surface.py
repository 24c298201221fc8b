"""Print the accelflow package's source lines and public settable values.

    python3 scripts/api_surface.py [--src DIR] [--test-only]

DIR holds the package directory accelflow/ (default: this checkout's
src/). It prints one line per module and a total line, each with both
figures, and exits 0.

With --test-only it prints instead, one module.name a line, each public
function or class of the package that only tests can reach, and exits 1
when it prints any (0 when none). A module-level def or class whose name
has no leading underscore is listed when no Name node or attribute in
accelflow/*.py or in scripts/*.py refers to its name, outside its own
definition, and README.md does not name it in backticks. scripts/ and
README.md are read from DIR's parent directory, the checkout's layout.
Names are matched bare, so a reference to a name reaches every
definition of it.

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
import ast
import dataclasses
import glob
import importlib
import inspect
import os
import re
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(tree: ast.Module) -> set[str]:
    """The names tree refers to by a Name node or an attribute, outside
    the top-level definition of the same name."""
    found = set()
    for statement in tree.body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(statement)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(statement, DEFINITIONS):
            names.discard(statement.name)
        found |= names
    return found


def only_tests_reach(src: str) -> list[str]:
    """module.name of each public function or class of src's accelflow
    that only tests can reach, by the rule in the module docstring."""
    checkout = os.path.dirname(os.path.abspath(src))
    package = sorted(glob.glob(os.path.join(src, "accelflow", "*.py")))
    scripts = sorted(glob.glob(os.path.join(checkout, "scripts", "*.py")))
    trees = {}
    for file in package + scripts:
        with open(file, encoding="utf-8") as fh:
            trees[file] = ast.parse(fh.read(), filename=file)
    referenced = set().union(*map(_referenced, trees.values()))
    readme = os.path.join(checkout, "README.md")
    if os.path.exists(readme):
        with open(readme, encoding="utf-8") as fh:
            spans = re.findall(r"`([^`]*)`", fh.read())
        referenced |= set(re.findall(r"\w+", " ".join(spans)))
    unreached = []
    for file in package:
        module = os.path.basename(file)[:-3]
        unreached += [f"{module}.{statement.name}"
                      for statement in trees[file].body
                      if isinstance(statement, DEFINITIONS)
                      and not statement.name.startswith("_")
                      and statement.name not in referenced]
    return unreached


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the directory that holds accelflow/")
    parser.add_argument("--test-only", action="store_true",
                        help="list the public functions and classes that "
                             "only tests reach")
    args = parser.parse_args(argv)
    if args.test_only:
        names = only_tests_reach(args.src)
        for name in names:
            print(name)
        return 1 if names else 0
    rows = surface(args.src)
    print(f"{'module':<12} {'lines':>6} {'settable':>8}")
    for name, lines, values in rows:
        print(f"{name:<12} {lines:>6} {values:>8}")
    print(f"{'total':<12} {sum(r[1] for r in rows):>6} "
          f"{sum(r[2] for r in rows):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
