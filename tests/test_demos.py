"""Every script in demos/ runs to completion as a program, and every Python
example of the README gives the values its comments state."""

from __future__ import annotations

import ast
import io
import re
import runpy
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def _comments(source: str) -> dict[int, str]:
    """The text of each comment of source, by its line number."""
    return {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }


def test_readme_examples_give_their_commented_values(capsys):
    # The ```python blocks run in one namespace, in order.  A bare
    # expression or a print call with a "# value" comment must give that
    # value as its repr or printed text, or as the comment's first word.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    namespace: dict = {}
    checked = 0
    for block in re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M):
        comments = _comments(block)
        for stmt in ast.parse(block).body:
            want = comments.get(stmt.end_lineno)
            if want is None or not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            capsys.readouterr()
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            printed = capsys.readouterr().out.strip()
            call = stmt.value
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print":
                got = printed
            else:
                got = repr(value)
            assert got in (want, want.split()[0]), f"{ast.unparse(stmt)} gives {got}"
            checked += 1
    assert checked
