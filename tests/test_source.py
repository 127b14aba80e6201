"""Checks on the package source itself."""

import ast
import importlib.util
from pathlib import Path

import pytest

import sgplab


def test_no_assert_statements():
    """Every internal check must survive `python -O`, so none is an assert."""
    found = []
    for path in sorted(Path(sgplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/sgplab: {found}"


def test_tracer_finds_every_name_it_wraps():
    """The traced benchmark wraps sgplab functions and methods by name, so a
    renamed or deleted one must show up here, not in `run.py --trace`."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


FLOAT_SCOPES = {("exactnum.py", "Cyclo.to_complex"), ("chartab.py", "table_to_csv")}


def _float_uses(tree):
    """(qualified scope, line, what) for each float-producing construct:
    float or complex literals, float( / complex( calls, math.pi / cos / sin,
    np.float*, and weights= keywords (np.bincount(..., weights=) is float64)."""
    found = []

    def what(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            return "float literal"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("float", "complex")):
            return f"{node.func.id}("
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr in ("pi", "cos", "sin"):
                return f"math.{node.attr}"
            if node.value.id in ("np", "numpy") and node.attr.startswith("float"):
                return f"np.{node.attr}"
        if isinstance(node, ast.keyword) and node.arg == "weights":
            return "weights="
        return None

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        w = what(node)
        if w:
            found.append((scope, node.lineno, w))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_no_floats_outside_rendering():
    """Every compute path is exact: floats appear only in the two lossy
    renderers, `Cyclo.to_complex` and `table_to_csv`."""
    found = []
    for path in sorted(Path(sgplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {w} in {scope or '<module>'}"
                  for scope, line, w in _float_uses(tree)
                  if (path.name, scope) not in FLOAT_SCOPES]
    assert not found, f"floating point in src/sgplab: {found}"


@pytest.mark.parametrize("src", [
    "x = 0.5", "y = 2j", "float(3)", "complex(1, 2)", "import math\nmath.pi",
    "math.cos(t)", "math.sin(t)", "np.float64(1)", "np.bincount(a, weights=w)",
    "def table_to_csv_helper():\n    return 1.0",
])
def test_float_guard_finds(src):
    assert _float_uses(ast.parse(src))


def test_float_guard_allows_exact_code():
    assert not _float_uses(ast.parse(
        "from fractions import Fraction\nx = Fraction(1, 2) * 3 // 2\n"
        "np.bincount(a, minlength=4)\nnp.int64(3)\nmath.isqrt(10)"))
