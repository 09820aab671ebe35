"""Every private module-level name in src/rsvl is used somewhere in src/rsvl.

A private function, class or constant (a name with one leading underscore,
bound at module level) that no module of the package refers to is dead code:
nothing can reach it but a test.  Like ``test_unused_imports.py``, this is a
stdlib ``ast`` scan.  A name counts as used when any module refers to it by
name or as an attribute (``fileio._each``), except in the statement that
defines it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rsvl"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module):
    """(name, defining statement) for each private name bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if _private(name):
                yield name, node


def _uses(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level name that no module uses."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = {id(stmt): set(_uses(stmt)) for tree in trees.values() for stmt in tree.body}
    unused = []
    for module, tree in trees.items():
        for name, definition in _defined(tree):
            if not any(name in uses[id(stmt)] for other in trees.values() for stmt in other.body
                       if stmt is not definition):
                unused.append(f"{module}.{name}")
    return unused


def test_no_unused_private_names():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_the_scan_flags_an_unused_private_name():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_DEAD = 4\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Orphan:\n"
            "    pass\n"
        ),
        "b": "from .a import _helper\n",
    }
    assert unused_private_names(sources) == ["a._DEAD", "a._recursive", "a._Orphan"]
