"""The benchmark's layer tracer still finds every layer function.

The tracer in perfbench/tracing.py wraps each layer function at the
modules that call it. A refactor that moves a call site breaks the traced
benchmark, so the check runs here, with the rest of the suite.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
