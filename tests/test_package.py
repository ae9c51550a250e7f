from __future__ import annotations

import ast
from pathlib import Path

import cuberips


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so an invariant checked by one
    # silently stops being checked; the package raises instead.
    root = Path(cuberips.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
