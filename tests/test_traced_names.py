"""The benchmark's tracer wraps dpdlab functions and methods by name.

A renamed or moved name would show up only as `not traced (absent)` in a
benchmark run, so this guard checks every name the tracer lists against the
package.  It skips when the checkout has no benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("no perfbench/tracer.py in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracer):
    for mod_name, attr in tracer.FUNCTIONS:
        module = importlib.import_module(f"dpdlab.{mod_name}")
        assert callable(getattr(module, attr, None)), f"dpdlab.{mod_name}.{attr}"


def test_every_traced_method_is_defined_on_its_class(tracer):
    for mod_name, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(f"dpdlab.{mod_name}"), cls_name)
        assert attr in vars(cls), f"dpdlab.{mod_name}.{cls_name}.{attr}"
