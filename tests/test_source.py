"""Checks on the program text itself."""

import ast
from pathlib import Path

import wmtrop


def test_no_assert_statements():
    # python -O strips assert statements, so every invariant that guards a
    # result is an explicit check that raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(wmtrop.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
