"""Checks on the package source itself."""

import ast
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
