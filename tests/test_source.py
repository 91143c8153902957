"""Checks on the package source itself."""

import ast
from pathlib import Path

import adiafact

PACKAGE = Path(adiafact.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every runtime check must raise explicitly
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
