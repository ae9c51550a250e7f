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


def test_every_private_definition_is_used_by_the_package():
    # A module-level private function or class that no other code of the
    # package names is dead, or is kept for the tests, which should hold
    # such code themselves.
    root = Path(cuberips.__file__).parent
    statements = [
        (path.name, node)
        for path in sorted(root.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]

    def names(node) -> set[str]:
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                out.update(alias.name for alias in sub.names)
        return out

    used = [names(node) for _, node in statements]
    unused = [
        f"{module}:{node.name}"
        for i, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not any(node.name in other for j, other in enumerate(used) if j != i)
    ]
    assert unused == []


def test_only_complexes_builds_a_skeleton():
    # Skeleton's constructor checks a skeleton built by hand, and complexes.py
    # builds the package's own skeletons unchecked; every other module takes
    # skeletons from those, so the choice to check or trust stays in one place.
    root = Path(cuberips.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        if path.name != "complexes.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Skeleton"
    ]
    assert found == []


def test_only_complexes_makes_rank_keys():
    # Rank keys, and the binomial table they are read from, are made in
    # complexes.py alone, so a wider key changes one module; no other
    # function takes a table.
    root = Path(cuberips.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "complexes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None) or getattr(node, "arg", None))
            if name in ("_np_binom", "_layer_ranks", "table"):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def _functions_naming(name: str) -> list[str]:
    """"module.py:function" for every use of name in the package, by the
    innermost function around it ("<module>" outside any)."""
    root = Path(cuberips.__file__).parent
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if getattr(node, "id", getattr(node, "attr", None)) == name:
            found.append(f"{path.name}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_reserve_reads_the_free_bytes():
    # Every byte check in the package goes through the one gate, _reserve,
    # so the threshold, the message and the abort are decided in one place.
    assert _functions_naming("_free_bytes") == ["complexes.py:_reserve"]


def test_homology_ranks_layers_only_for_boundaries_and_clearing():
    # Every map of the sweep names its rows by rank key, so homology ranks a
    # layer only to list facet rows and where a map starts, to turn the
    # previous map's pivot keys into the positions it clears.
    found = {f for f in _functions_naming("layer_keys") if f.startswith("homology.py:")}
    assert found == {"homology.py:boundary_matrix", "homology.py:_coboundary_ranks"}


def test_only_set_bits_unpacks_bitsets():
    # Packed bitsets are read through one kernel, complexes._set_bits, which
    # unpacks only their nonzero bytes: clique expansion and the coface
    # reader both call it, and neither unpacks whole words on its own.
    assert _functions_naming("unpackbits") == ["complexes.py:_set_bits"]
