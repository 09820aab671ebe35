"""Every module-level name in src/rsvl has a caller outside the unit tests.

A private function, class or constant (a name with one leading underscore,
bound at module level) that no module of the package refers to is dead code:
nothing can reach it but a test.  The same holds for a public name, one in a
module's ``__all__``, that neither the package, the scripts, the benchmark,
the test oracles (``tests/helpers.py``) nor the acceptance tests use.  Like
``test_unused_imports.py``, this is a stdlib ``ast`` scan.  A name counts as
used when any of those files refers to it by name or as an attribute
(``fileio._each``), except in the statement that defines it and in
``__all__``.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rsvl"
# public with no caller on purpose, as README.md says
KEPT_PUBLIC = {
    "markup.denormalize_box": "the inverse of the grid mapping",
    "trajectory.gru_step": "the GRU cell, for the re-derivation tests",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module):
    """(name, defining statement) for each name bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
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
            if _private(name) and not any(name in uses[id(stmt)] for other in trees.values()
                                          for stmt in other.body if stmt is not definition):
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


def _assigns_all(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def unused_public_names(sources: dict[str, str], exported: dict[str, list[str]]) -> list[str]:
    """``module.name`` for each name in ``exported[module]`` that no source uses.

    ``sources`` maps every file that may use a public name to its text, each
    exporting module among them under its own name.
    """
    trees = {key: ast.parse(source) for key, source in sources.items()}
    uses = [(stmt, set(_uses(stmt))) for tree in trees.values() for stmt in tree.body
            if not _assigns_all(stmt)]
    unused = []
    for module, names in exported.items():
        definitions = dict(_defined(trees[module]))
        for name in names:
            if not any(name in used for stmt, used in uses if stmt is not definitions.get(name)):
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_caller():
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "helpers.py",
             ROOT / "tests" / "test_acceptance.py"]
    sources = {(path.stem if path.parent == PACKAGE else str(path.relative_to(ROOT))):
               path.read_text(encoding="utf-8") for path in paths}
    exported = {path.stem: importlib.import_module(f"rsvl.{path.stem}").__all__
                for path in paths if path.parent == PACKAGE and path.stem != "__init__"}
    assert sorted(unused_public_names(sources, exported)) == sorted(KEPT_PUBLIC)


def test_the_scan_flags_an_unused_public_name():
    sources = {
        "a": (
            "class Base:\n"
            "    pass\n"
            "def used():\n"
            "    return 1\n"
            "def dead():\n"
            "    return 2\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "__all__ = [n for n, v in list(globals().items()) if v is not Base]\n"
        ),
        "user.py": "from a import used\n",
    }
    exported = {"a": ["Base", "used", "dead", "recursive"]}
    assert unused_public_names(sources, exported) == ["a.Base", "a.dead", "a.recursive"]
