"""Checks on the package source itself."""

import ast
import importlib.util
from pathlib import Path

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
