"""Every imported name in src/rsvl, tests and scripts is used where it is imported.

No linter ships with the project, so this stdlib ``ast`` scan is the check. A
name counts as used when the module refers to it anywhere (code,
annotations, decorators) or lists it in ``__all__``.  ``from __future__``
imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src/rsvl", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)


def _imported(tree: ast.Module):
    """(bound name, line) for each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return names


def _referenced(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _referenced(tree) | _exported(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Any, List\n"
        "__all__ = ['Any']\n"
        "def f(x: List) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["osp (line 2)"]
