"""The benchmark's tracer wraps package functions by name; each must exist.

`TRACED` is read from perfbench/tracer.py as source, so this test neither
imports the benchmark nor depends on its code running. A rename or removal
then fails here rather than in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    """`module.function` for each entry of the tracer's TRACED literal."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets):
            traced = ast.literal_eval(node.value)
            return [f"{module}.{name}" for module, names in traced.items() for name in names]
    raise AssertionError(f"{TRACER} assigns no TRACED literal")


def test_tracer_lists_entry_points():
    assert len(traced_names()) >= 10


@pytest.mark.parametrize("entry", traced_names())
def test_traced_entry_point_exists(entry):
    module_name, name = entry.rsplit(".", 1)
    module = importlib.import_module(f"excitonprobe.{module_name}")
    assert callable(getattr(module, name, None)), f"excitonprobe.{entry} is not callable"
