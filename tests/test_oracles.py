"""The package stands apart from the test oracles, and the brute-force oracle from the pipeline.

`tests/oracles.py` holds the references the pipeline is checked against.
The package must run without them and without any test dependency, and
the brute-force oracle must reach its answer without the operator or
solver code it is compared with.
"""

import ast
import subprocess
import sys
from pathlib import Path

import bandgap
import bandgap.operators
import bandgap.solvers
import oracles

TESTS = Path(__file__).resolve().parent
ORACLE_FUNCTIONS = ("oracle_recover", "_oracle_inputs", "oracle_grid_sensitivity")


def test_package_import_loads_no_test_code():
    """`src/` imports no scipy (`scipy.linalg` alone costs ~0.3 s of import time), no test tool and no test module.

    `tests/` is put on the path, so a `src` module that reached back into it
    would load the module here rather than fail only where tests are absent.
    """
    src = str(Path(bandgap.__file__).resolve().parents[1])
    code = (
        "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:]; import bandgap, bandgap.cli; "
        "tests = Path(sys.argv[2]); "
        "print(' '.join(n for n, m in list(sys.modules.items()) "
        "if n.split('.')[0] in ('scipy', 'hypothesis', 'pytest', '_pytest', 'oracles') "
        "or tests in Path(getattr(m, '__file__', None) or '/').resolve().parents))"
    )
    out = subprocess.run([sys.executable, "-c", code, src, str(TESTS)], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def _defined_names(tree: ast.Module) -> dict[str, ast.AST]:
    """The functions, classes and assigned names at the top level of a module."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update((t.id, node) for t in ast.walk(target) if isinstance(t, ast.Name))
    return names


def _used_names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_oracle_uses_no_operator_or_solver_name():
    """The brute-force oracle, and everything in `oracles` it reaches, names nothing the pipeline's solve defines."""
    pipeline = {"operators", "solvers"}
    for module in (bandgap.operators, bandgap.solvers):
        pipeline |= set(_defined_names(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))))
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    for node in tree.body:  # aliases bound to those modules or their names
        if isinstance(node, ast.ImportFrom) and node.module in ("bandgap.operators", "bandgap.solvers"):
            pipeline |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            pipeline |= {alias.asname for alias in node.names
                         if alias.asname and alias.name.split(".")[-1] in ("operators", "solvers")}
    assert {"assemble_operator", "diagnostics", "factor", "solve_direct", "error_bound"} <= pipeline

    local = _defined_names(tree)
    reached, todo = set(), list(ORACLE_FUNCTIONS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for n in _used_names(local[name]) if n in local)
    assert {"OracleSolution", "OracleConditioningError"} <= reached and "solve_neumann" not in reached
    for name in sorted(reached):
        assert not _used_names(local[name]) & pipeline, (name, sorted(_used_names(local[name]) & pipeline))
