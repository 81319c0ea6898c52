"""The names the benchmark binds in the package still resolve.

`bench/tracer.py` wraps the functions named in `TRACED` by attribute name,
and `bench/run.py` imports the modules in `PROGRAM_MODULES`, so a rename
or deletion in `bandgap` would break traced benchmark runs.  Both lists
are read from the bench sources with `ast`: importing `bench/run.py` loads
scipy and pins BLAS threads.
"""

import ast
import importlib
from pathlib import Path

import pytest

import bandgap.operators
import bandgap.recovery
import bandgap.solvers

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _constant(filename: str, name: str) -> tuple[str, ...]:
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} assigns no {name}")


@pytest.mark.parametrize("target", _constant("tracer.py", "TRACED"))
def test_traced_function_resolves(target):
    module_name, function_name = target.split(".")
    assert callable(getattr(importlib.import_module(f"bandgap.{module_name}"), function_name))


@pytest.mark.parametrize("module_name", _constant("run.py", "PROGRAM_MODULES"))
def test_program_module_imports(module_name):
    importlib.import_module(f"bandgap.{module_name}")


def test_diagnostics_is_bound_where_the_tracer_nests_it():
    # The tracer counts the margin taken inside a solve through these bindings.
    assert bandgap.recovery.diagnostics is bandgap.operators.diagnostics
    assert bandgap.solvers.diagnostics is bandgap.operators.diagnostics
