"""The benchmark's layer tracer still finds every layer function.

The tracer in perfbench/tracing.py wraps each layer function at the
modules that call it. A refactor that moves a call site breaks the traced
benchmark, and one that stops calling through a traced binding leaves its
layer at zero, so both checks run here, with the rest of the suite.
"""

import importlib.util
import os
import sys

import pytest
import yaml

from accelflow import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(name):
    """A perfbench module, loaded from its file without importing the
    benchmark's package path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


def bound(tracing):
    """Every (module, name) binding the tracer patches, and its value."""
    out = {}
    for name, callers in tracing.BINDINGS.items():
        func = name.split(".")[1]
        for caller in callers:
            mod = importlib.import_module(f"accelflow.{caller}")
            out[(caller, func)] = getattr(mod, func)
    return out


def test_tracer_installs_uninstalls_and_misses_no_binding(tracing):
    before = bound(tracing)
    tracer = tracing.Tracer()
    tracer.install()  # raises LookupError if a listed binding moved
    try:
        assert all(bound(tracing)[key] is not fn
                   for key, fn in before.items())
    finally:
        tracer.uninstall()
    assert bound(tracing) == before
    assert tracing.unlisted_bindings() == []


def test_the_smoke_workloads_reach_every_traced_binding(tracing, tmp_path):
    workloads = load("workloads")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in workloads.NAMES:
            wl = workloads.build(name, 0, str(tmp_path / name), smoke=True)
            for path, doc in wl.configs.items():
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as fh:
                    yaml.safe_dump(doc, fh, sort_keys=True)
            for op in wl.prepare + wl.ops:
                assert cli.main(list(op.argv)) == 0, op.op_id
    finally:
        tracer.uninstall()
    pairs = {f"{caller}.{name.split('.')[1]}"
             for name, callers in tracing.BINDINGS.items()
             for caller in callers}
    assert sorted(key for key in pairs
                  if tracer.binding_calls.get(key, 0) == 0) == []
