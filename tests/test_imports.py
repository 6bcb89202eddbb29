"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prisomap"


def unused_imports(source: str) -> list[str]:
    """The names an import binds in source that no expression reads; a name
    listed in __all__ counts as read, and __future__ imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport scipy.linalg\n"
              "from pathlib import Path\nfrom .a import b as c\n__all__ = ['c']\n"
              "def f(x: int) -> None:\n    return scipy.linalg.eigh(x)\n")
    assert unused_imports(source) == ["os (line 2)", "Path (line 4)"]
