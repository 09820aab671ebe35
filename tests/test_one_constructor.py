"""Every value in src/rsvl is built through its class's public constructor.

A frozen dataclass tempts a fast path around ``__init__`` and its checks:
``object.__new__`` plus ``__dict__.update``, or ``object.__setattr__`` on
a half-built instance.  The value classes are plain dataclasses, so none of
these is needed.  Like ``test_dead_code.py``, this is a stdlib ``ast`` scan.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rsvl"


def _finding(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "object" and node.attr in (
                "__new__", "__setattr__"):
            return f"object.{node.attr}"
        if node.attr == "update" and isinstance(node.value, ast.Attribute) and node.value.attr == "__dict__":
            return "__dict__.update"
    if (isinstance(node, ast.keyword) and node.arg == "frozen"
            and isinstance(node.value, ast.Constant) and node.value.value is True):
        return "frozen=True"
    return None


def unchecked_construction(sources: dict[str, str]) -> list[str]:
    """``module:line: construct`` for each way around a constructor found in ``sources``."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            what = _finding(node)
            if what is not None:
                found.append(f"{module}:{node.lineno}: {what}")
    return sorted(found)


def test_no_value_is_built_around_its_constructor():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unchecked_construction(sources) == []


def test_the_scan_flags_each_way_around_a_constructor():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Point:\n"
            "    x: int\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'x', int(self.x))\n"
            "def _fast(cls, *values):\n"
            "    node = object.__new__(cls)\n"
            "    node.__dict__.update(zip(cls.__dataclass_fields__, values))\n"
            "    return node\n"
        ),
        "b": (
            "from dataclasses import dataclass\n"
            "@dataclass(unsafe_hash=True, frozen=False)\n"
            "class Point:\n"
            "    x: int\n"
            "    def __post_init__(self):\n"
            "        self.x = int(self.x)\n"
            "        self.__dict__.get('x')\n"
        ),
    }
    assert unchecked_construction(sources) == [
        "a:2: frozen=True", "a:6: object.__setattr__", "a:8: object.__new__", "a:9: __dict__.update",
    ]
