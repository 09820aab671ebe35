"""Special-token task markup: parsing, canonical serialization, coordinates.

Instruction records address image content through inline tags:

    <|navigation|> <|decision|> <|decomposition|> <|reasoning|>   task markers
    <|ref|>name<|/ref|>                  named entity (free text payload)
    <|pos|>[x, y, z]<|/pos|>             one 3D point, scene units
    <|pose|>[[x,y,z,phi,theta,psi], ...]<|/pose|>   6-DoF pose sequence
    <|det|>[[x1,y1,x2,y2], ...]<|/det|>  boxes on the normalized pixel grid
    <|rel|>label<|/rel|>                 relation label (free text payload)

Task markers stand alone; the other five kinds come as balanced open/close
pairs.  Box coordinates live on a fixed [0, 999] grid regardless of source
image size; ``normalize_box`` / ``denormalize_box`` convert pixel rectangles
to and from that grid.  3D points and poses are not rescaled, they pass
through in scene units.

``parse`` turns a string into a :class:`MarkupDoc`, ``emit`` serializes one
back.  Serialization is canonical: no whitespace inside a numeric tuple, a
single space after the comma between tuples.  ``emit(parse(s))`` equals
``canonical(s)``, which rewrites only whitespace inside numeric payloads and
leaves every other byte alone.  Numeric literals keep their original spelling
through a parse/emit cycle.

``parse`` has two canonical fast paths, each one regex through the close
tag: ``<|det|>`` boxes of 1-3 digit coordinates, and ``<|pos|>``/``<|pose|>``
floats as ``emit`` spells them without an exponent, below 1e16.  Any other
payload, and any payload that fails a check, is read again from the same
index by the character scanner.  The scanner is the only error path, so the
error class and byte offset never depend on the fast paths.  Both build every
node through its public constructor, which checks it once.

``normalize_box`` likewise maps four ordered int pixels inside an int extent
in one expression; any other box goes through the checks one by one, which
are its only error path.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import (
    CoordOutOfRange,
    EmptyList,
    InvalidExtent,
    InvariantViolation,
    InvertedBox,
    MalformedNumber,
    UnbalancedTag,
    UnknownTag,
)

__all__ = [
    "TaskKind",
    "Modality",
    "Pos3",
    "Pose6",
    "Box",
    "Text",
    "Task",
    "Ref",
    "Pos",
    "PoseSeq",
    "Det",
    "Rel",
    "MarkupNode",
    "MarkupDoc",
    "parse",
    "emit",
    "canonical",
    "normalize_box",
    "denormalize_box",
    "GRID",
]

GRID = 1000  # normalized coordinates run 0..GRID-1

_OPEN = "<|"
_CLOSE_DELIM = "|>"

_TAG_RE = re.compile(r"<\|(/?[a-z]+)\|>")
_FLOAT_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_INT_RE = re.compile(r"[+-]?\d+")
# longest numeric literal handed to int()/float(): above the 310 characters
# emit spells -1.8e308 with, below int()'s 4,300-digit limit
_MAX_LEXEME = 400

# A canonical <|det|> payload through its close tag: boxes of 1-3 digit
# unsigned coordinates (so always on the grid), joined by ", ", no other
# whitespace.  Anything else goes to the character scanner.
_CANON_BOX = r"\[[0-9]{1,3},[0-9]{1,3},[0-9]{1,3},[0-9]{1,3}\]"
_CANON_DET_RE = re.compile(rf"\[({_CANON_BOX}(?:, {_CANON_BOX})*)\]<\|/det\|>")
_CANON_BOX_LEXEMES_RE = re.compile(r"([0-9]+),([0-9]+),([0-9]+),([0-9]+)")

# Canonical <|pos|> and <|pose|> payloads through their close tags: floats as
# emit spells them without an exponent (at most 16 integer digits, so finite,
# and at most 20 fraction digits, which covers repr down to 1e-4), no
# whitespace inside a tuple, ", " between tuples.
_CANON_FLOAT = r"-?[0-9]{1,16}(?:\.[0-9]{1,20})?"
_CANON_POS_RE = re.compile(rf"\[({_CANON_FLOAT}),({_CANON_FLOAT}),({_CANON_FLOAT})\]<\|/pos\|>")
_CANON_POSE = r"\[" + ",".join([_CANON_FLOAT] * 6) + r"\]"
_CANON_POSE_RE = re.compile(rf"\[({_CANON_POSE}(?:, {_CANON_POSE})*)\]<\|/pose\|>")


class TaskKind(str, Enum):
    """Reasoning-task markers that may open a prompt."""

    NAVIGATION = "navigation"
    DECISION = "decision"
    DECOMPOSITION = "decomposition"
    REASONING = "reasoning"


class Modality(str, Enum):
    """Sensor modality of the referenced imagery."""

    OPT = "opt"
    SAR = "sar"
    IR = "ir"


_TASK_KINDS = {kind.value: kind for kind in TaskKind}
_PAIRED_NAMES = ("ref", "pos", "pose", "det", "rel")


def _byte_offset(text: str, index: int) -> int:
    """UTF-8 byte offset of character ``index`` in ``text``."""
    return len(text[:index].encode("utf-8"))


def _require(name: str, value, kind: type, optional: bool = False) -> None:
    """Raise InvariantViolation naming a constructor field that is not a ``kind`` (a bool is no int)."""
    if not (optional and value is None or isinstance(value, kind) and not isinstance(value, bool)):
        raise InvariantViolation(f"'{name}' must be of type {kind.__name__}, got {value!r}")


def _require_items(name: str, values, kind, kinds: str = "") -> tuple:
    """``values`` as a tuple; InvariantViolation naming the field unless it holds only ``kind``.

    A bare string is no sequence of items: it would split into characters.
    """
    items = tuple(values) if isinstance(values, Iterable) and not isinstance(values, str) else (None,)
    if not all(isinstance(item, kind) for item in items):
        raise InvariantViolation(f"'{name}' must hold {kinds or kind.__name__ + 's'}, got {values!r}")
    return items


def _require_finite_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvariantViolation(f"{what} must be a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise InvariantViolation(f"{what} must be finite, got an int beyond the float range") from None
    if not math.isfinite(value):
        raise InvariantViolation(f"{what} must be finite, got {value!r}")
    return value


# --- Values -----------------------------------------------------------------
#
# Plain dataclasses checked once in __post_init__: valid input passes one
# combined test, and only a failing value runs the checks that word the error.
# all(map(Kind.__instancecheck__, items)) is isinstance with no frame per item.


@dataclass(unsafe_hash=True)
class Pos3:
    """A 3D point in scene units."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = self.x, self.y, self.z
        # a finite sum has finite terms (a sum that overflows takes the checks)
        if not (type(x) is float and type(y) is float and type(z) is float and math.isfinite(x + y + z)):
            for name in ("x", "y", "z"):
                setattr(self, name, _require_finite_float(getattr(self, name), f"pos {name}"))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(unsafe_hash=True)
class Pose6:
    """Position plus attitude: (x, y, z, phi, theta, psi) in scene units."""

    x: float
    y: float
    z: float
    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        x, y, z, phi, theta, psi = self.x, self.y, self.z, self.phi, self.theta, self.psi
        if not (type(x) is float and type(y) is float and type(z) is float and type(phi) is float
                and type(theta) is float and type(psi) is float
                and math.isfinite(x + y + z + phi + theta + psi)):
            for name in ("x", "y", "z", "phi", "theta", "psi"):
                setattr(self, name, _require_finite_float(getattr(self, name), f"pose {name}"))

    def as_tuple(self) -> tuple[float, ...]:
        return (self.x, self.y, self.z, self.phi, self.theta, self.psi)


@dataclass(unsafe_hash=True)
class Box:
    """Axis-aligned rectangle on the normalized [0, 999] grid, corners inclusive."""

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self):
        x1, y1, x2, y2 = self.x1, self.y1, self.x2, self.y2
        if not (type(x1) is int and type(y1) is int and type(x2) is int and type(y2) is int
                and 0 <= x1 <= x2 < GRID and 0 <= y1 <= y2 < GRID):
            for v, name in ((x1, "x1"), (y1, "y1"), (x2, "x2"), (y2, "y2")):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise InvariantViolation(f"box {name} must be an int, got {v!r}")
                if not 0 <= v < GRID:
                    raise CoordOutOfRange(v)
            if x2 < x1 or y2 < y1:
                raise InvertedBox((x1, y1, x2, y2))

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x1, self.y1, self.x2, self.y2)

    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2, (self.y1 + self.y2) / 2)


# --- AST nodes --------------------------------------------------------------
#
# Lexeme fields remember the exact spelling of numeric literals seen by the
# parser so a parse/emit cycle never rewrites digits.  The parser assigns them
# to the node it built; they stay out of ==, hash and repr, so built nodes
# equal parsed ones.


@dataclass(unsafe_hash=True)
class Text:
    value: str

    def __post_init__(self):
        if type(self.value) is not str:
            _require("value", self.value, str)


@dataclass(unsafe_hash=True)
class Task:
    kind: TaskKind

    def __post_init__(self):
        if type(self.kind) is not TaskKind:
            _require("kind", self.kind, TaskKind)


@dataclass(unsafe_hash=True)
class Ref:
    name: str

    def __post_init__(self):
        if type(self.name) is not str:
            _require("name", self.name, str)


@dataclass(unsafe_hash=True)
class Pos:
    point: Pos3
    lexemes: tuple[str, str, str] | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        if type(self.point) is not Pos3:
            _require("point", self.point, Pos3)


@dataclass(unsafe_hash=True)
class PoseSeq:
    poses: tuple[Pose6, ...]
    lexemes: tuple[tuple[str, ...], ...] | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        if type(self.poses) is not tuple or not all(map(Pose6.__instancecheck__, self.poses)):
            self.poses = _require_items("poses", self.poses, Pose6)
        if not self.poses:
            raise InvariantViolation("pose sequence must hold at least one pose")


@dataclass(unsafe_hash=True)
class Det:
    boxes: tuple[Box, ...]
    lexemes: tuple[tuple[str, ...], ...] | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        if type(self.boxes) is not tuple or not all(map(Box.__instancecheck__, self.boxes)):
            self.boxes = _require_items("boxes", self.boxes, Box, "Boxes")
        if not self.boxes:
            raise InvariantViolation("det must hold at least one box")


@dataclass(unsafe_hash=True)
class Rel:
    label: str

    def __post_init__(self):
        if type(self.label) is not str:
            _require("label", self.label, str)


MarkupNode = Text | Task | Ref | Pos | PoseSeq | Det | Rel
_NODE_TYPES = frozenset(MarkupNode.__args__)


@dataclass(unsafe_hash=True)
class MarkupDoc:
    """Parsed markup: a node sequence."""

    nodes: tuple[MarkupNode, ...]

    def __post_init__(self):
        if type(self.nodes) is not tuple or not _NODE_TYPES.issuperset(map(type, self.nodes)):
            self.nodes = _require_items("nodes", self.nodes, MarkupNode, "markup nodes")


# --- Parsing ----------------------------------------------------------------


def parse(text: str) -> MarkupDoc:
    """Parse markup text into a :class:`MarkupDoc`.

    Every byte of the input lands in exactly one node; Text nodes are maximal
    runs between tags.  Any malformed input raises a
    :class:`~rsvl.errors.MarkupError` subtype carrying a byte offset:
    UnbalancedTag, UnknownTag, MalformedNumber, CoordOutOfRange or EmptyList.
    """
    if not isinstance(text, str):
        raise InvariantViolation(f"parse wants str, got {type(text).__name__}")
    nodes: list[MarkupNode] = []
    i = 0
    n = len(text)
    while i < n:
        k = text.find(_OPEN, i)
        if k == -1:
            nodes.append(Text(text[i:]))
            break
        if k > i:
            nodes.append(Text(text[i:k]))
        name, after = _read_tag(text, k)
        if name in _TASK_KINDS:
            nodes.append(Task(_TASK_KINDS[name]))
            i = after
        elif name in ("ref", "rel"):
            node, i = _parse_text_tag(text, name, k, after)
            nodes.append(node)
        elif name in ("pos", "pose", "det"):
            node, i = _parse_numeric_tag(text, name, k, after)
            nodes.append(node)
        elif name.startswith("/") and name[1:] in _PAIRED_NAMES:
            raise UnbalancedTag(name, _byte_offset(text, k))
        else:
            raise UnknownTag(name, _byte_offset(text, k))
    return MarkupDoc(tuple(nodes))


def _read_tag(text: str, k: int) -> tuple[str, int]:
    """Read the ``<|name|>`` token starting at ``k``; return (name, end index)."""
    m = _TAG_RE.match(text, k)
    if m is not None:
        return m.group(1), m.end()
    j = text.find(_CLOSE_DELIM, k + 2)
    nxt = text.find(_OPEN, k + 2)
    if j == -1 or (nxt != -1 and nxt < j):
        end = nxt if nxt != -1 and (j == -1 or nxt < j) else min(len(text), k + 34)
        raise UnknownTag(text[k + 2 : end][:32], _byte_offset(text, k))
    raise UnknownTag(text[k + 2 : j][:32], _byte_offset(text, k))


def _parse_text_tag(text: str, name: str, open_pos: int, i: int):
    close = f"<|/{name}|>"
    m = text.find(_OPEN, i)
    if m == -1:
        raise UnbalancedTag(name, _byte_offset(text, open_pos))
    if not text.startswith(close, m):
        raise UnbalancedTag(name, _byte_offset(text, m))
    payload = text[i:m]
    node: MarkupNode = Ref(payload) if name == "ref" else Rel(payload)
    return node, m + len(close)


def _skip_ws(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def _scan_number(text: str, i: int, pattern, convert):
    m = pattern.match(text, i)
    if m is None:
        raise MalformedNumber(_byte_offset(text, i), "expected a number")
    lex = m.group()
    if len(lex) > _MAX_LEXEME:
        raise MalformedNumber(_byte_offset(text, i), f"literal longer than {_MAX_LEXEME} characters")
    value = convert(lex)
    if isinstance(value, float) and not math.isfinite(value):
        raise MalformedNumber(_byte_offset(text, i), f"{lex!r} is not finite")
    return (lex, value), m.end()


def _scan_list(text: str, i: int, tag: str, scan_item):
    """Scan ``[item, item, ...]`` at ``i``; ``scan_item(text, i)`` returns (item, end)."""
    i = _skip_ws(text, i)
    if not text.startswith("[", i):
        raise MalformedNumber(_byte_offset(text, i), "expected '['")
    i = _skip_ws(text, i + 1)
    if text.startswith("]", i):
        raise EmptyList(tag, _byte_offset(text, i))
    items = []
    while True:
        item, i = scan_item(text, i)
        items.append(item)
        i = _skip_ws(text, i)
        if text.startswith(",", i):
            i = _skip_ws(text, i + 1)
        elif text.startswith("]", i):
            return items, i + 1
        else:
            raise MalformedNumber(_byte_offset(text, i), "expected ',' or ']'")


def _scan_tuple(text: str, i: int, tag: str, arity: int, pattern, convert):
    """Scan ``[v, v, ...]`` at ``i``; enforce exactly ``arity`` members."""
    pairs, i = _scan_list(text, i, tag, lambda t, j: _scan_number(t, j, pattern, convert))
    if len(pairs) != arity:
        raise MalformedNumber(
            _byte_offset(text, i), f"<|{tag}|> tuple wants {arity} numbers, got {len(pairs)}"
        )
    lexemes, values = zip(*pairs)
    return lexemes, values, i


def _scan_pose(text: str, i: int):
    lexemes, values, i = _scan_tuple(text, i, "pose", 6, _FLOAT_RE, float)
    return (lexemes, Pose6(*values)), i


def _scan_box(text: str, start: int):
    lexemes, values, i = _scan_tuple(text, start, "det", 4, _INT_RE, int)
    for v in values:
        if not 0 <= v < GRID:
            raise CoordOutOfRange(v, _byte_offset(text, start))
    if values[2] < values[0] or values[3] < values[1]:
        raise InvertedBox(values, _byte_offset(text, start))
    return (lexemes, Box(*values)), i


def _scan_canonical_det(text: str, i: int):
    """(Det, lexemes, end) for a canonical ``<|det|>`` payload at ``i``, else None.

    None also for an inverted box: the scanner then rescans from ``i`` and
    raises its error at the exact offset.
    """
    m = _CANON_DET_RE.match(text, i)
    if m is None:
        return None
    lexemes = _CANON_BOX_LEXEMES_RE.findall(m.group(1))
    boxes = []
    for lex in lexemes:
        x1, y1, x2, y2 = map(int, lex)
        if x2 < x1 or y2 < y1:
            return None
        boxes.append(Box(x1, y1, x2, y2))
    return Det(tuple(boxes)), tuple(lexemes), m.end()


def _scan_canonical_pos(text: str, i: int):
    """(Pos, lexemes, end) for a canonical ``<|pos|>`` payload at ``i``, else None."""
    m = _CANON_POS_RE.match(text, i)
    if m is None:
        return None
    lexemes = m.groups()
    return Pos(Pos3(*map(float, lexemes))), lexemes, m.end()


def _scan_canonical_pose(text: str, i: int):
    """(PoseSeq, lexemes, end) for a canonical ``<|pose|>`` payload at ``i``, else None."""
    m = _CANON_POSE_RE.match(text, i)
    if m is None:
        return None
    lexemes = tuple(tuple(body.split(",")) for body in m.group(1)[1:-1].split("], ["))
    return PoseSeq(tuple(Pose6(*map(float, lex)) for lex in lexemes)), lexemes, m.end()


def _parse_numeric_tag(text: str, name: str, open_pos: int, i: int):
    if name == "det":
        fast = _scan_canonical_det(text, i)
    elif name == "pos":
        fast = _scan_canonical_pos(text, i)
    else:
        fast = _scan_canonical_pose(text, i)
    if fast is not None:
        node, lexemes, end = fast
        node.lexemes = lexemes  # the spelling, which no constructor takes
        return node, end
    if name == "pos":
        lexemes, values, i = _scan_tuple(text, i, name, 3, _FLOAT_RE, float)
        node: MarkupNode = Pos(Pos3(*values))
    else:
        items, i = _scan_list(text, i, name, _scan_pose if name == "pose" else _scan_box)
        lexemes, values = zip(*items)
        node = (PoseSeq if name == "pose" else Det)(values)
    node.lexemes = lexemes

    close = f"<|/{name}|>"
    i = _skip_ws(text, i)
    if i >= len(text):
        raise UnbalancedTag(name, _byte_offset(text, open_pos))
    if not text.startswith(close, i):
        raise MalformedNumber(_byte_offset(text, i), f"expected {close}")
    return node, i + len(close)


# --- Serialization ----------------------------------------------------------


def _fmt_float(value: float) -> str:
    # repr is the shortest spelling that parses back to the same double;
    # integral values drop the ".0" so a zero pose reads [[0,0,0,0,0,0]]
    if value.is_integer():
        return repr(int(value))
    return repr(value)


def _pos_body(node: Pos) -> str:
    parts = node.lexemes if node.lexemes is not None else tuple(_fmt_float(v) for v in node.point.as_tuple())
    return "[" + ",".join(parts) + "]"


def _pose_body(node: PoseSeq) -> str:
    lexemes = node.lexemes
    if lexemes is None:
        lexemes = [map(_fmt_float, pose.as_tuple()) for pose in node.poses]
    return "[[" + "], [".join(map(",".join, lexemes)) + "]]"


def emit(doc: MarkupDoc) -> str:
    """Serialize a doc to canonical markup text.

    Raises InvariantViolation when the doc could not round-trip: empty or
    adjacent Text nodes, or a raw payload containing the ``<|`` delimiter.
    ``parse(emit(doc)) == doc`` holds for every doc this function accepts.
    """
    parts: list[str] = []
    prev_was_text = False
    for node in doc.nodes:
        if isinstance(node, Text):
            if prev_was_text:
                raise InvariantViolation("adjacent Text nodes are not canonical")
            if not node.value:
                raise InvariantViolation("empty Text node")
            if _OPEN in node.value:
                raise InvariantViolation("Text payload contains '<|'")
            parts.append(node.value)
            prev_was_text = True
            continue
        prev_was_text = False
        if isinstance(node, Ref):
            if _OPEN in node.name:
                raise InvariantViolation("ref name contains '<|'")
            parts.append(f"<|ref|>{node.name}<|/ref|>")
        elif isinstance(node, Det):
            if node.lexemes is None:
                body = "], [".join([f"{b.x1},{b.y1},{b.x2},{b.y2}" for b in node.boxes])
            else:
                body = "], [".join(map(",".join, node.lexemes))
            parts.append(f"<|det|>[[{body}]]<|/det|>")
        elif isinstance(node, Task):
            parts.append(f"<|{node.kind.value}|>")
        elif isinstance(node, Rel):
            if _OPEN in node.label:
                raise InvariantViolation("rel label contains '<|'")
            parts.append(f"<|rel|>{node.label}<|/rel|>")
        elif isinstance(node, Pos):
            parts.append(f"<|pos|>{_pos_body(node)}<|/pos|>")
        elif isinstance(node, PoseSeq):
            parts.append(f"<|pose|>{_pose_body(node)}<|/pose|>")
        else:
            raise InvariantViolation(f"unknown node type {type(node).__name__}")
    return "".join(parts)


_NUM_SPAN_RE = re.compile(r"(<\|(pos|pose|det)\|>)(.*?)(<\|/\2\|>)", re.S)


def canonical(text: str) -> str:
    """Rewrite whitespace inside numeric payloads to the canonical form.

    All other bytes pass through untouched.  For any string ``s`` accepted by
    :func:`parse`, ``emit(parse(s)) == canonical(s)``.
    """

    def _fix(m: re.Match) -> str:
        payload = "".join(ch for ch in m.group(3) if not ch.isspace())
        payload = payload.replace("],[", "], [")
        return m.group(1) + payload + m.group(4)

    return _NUM_SPAN_RE.sub(_fix, text)


# --- Coordinate normalization ------------------------------------------------


def _check_extent(width: int, height: int) -> None:
    if (isinstance(width, bool) or isinstance(height, bool)
            or not isinstance(width, int) or not isinstance(height, int)):
        raise InvalidExtent(f"extent must be integral, got {width!r} x {height!r}")
    if width < 1 or height < 1:
        raise InvalidExtent(f"extent must be at least 1x1, got {width} x {height}")


def normalize_box(px_box, width: int, height: int) -> Box:
    """Map a pixel rectangle (x1, y1, x2, y2) onto the [0, 999] grid.

    Each coordinate becomes floor(px * 1000 / extent), clamped into range;
    x uses the image width, y the height.  Exact for integer pixels, and for
    float pixels on an extent beyond the float range.

    A tuple or list of four ordered int pixels inside an int extent maps in
    one expression.  Any other box goes through the checks one by one (extent,
    arity, each coordinate's type and range, then corner order), which are the
    only error path.
    """
    if (type(width) is int and type(height) is int and width >= 1 and height >= 1
            and (type(px_box) is tuple or type(px_box) is list) and len(px_box) == 4):
        x1, y1, x2, y2 = px_box
        if (type(x1) is int and type(y1) is int and type(x2) is int and type(y2) is int
                and 0 <= x1 <= x2 <= width and 0 <= y1 <= y2 <= height):
            top = GRID - 1
            return Box(min(x1 * GRID // width, top), min(y1 * GRID // height, top),
                       min(x2 * GRID // width, top), min(y2 * GRID // height, top))
    _check_extent(width, height)
    try:
        x1, y1, x2, y2 = px_box
    except (TypeError, ValueError):
        raise InvariantViolation(f"pixel box must have 4 coordinates, got {px_box!r}") from None
    for v, extent in ((x1, width), (x2, width), (y1, height), (y2, height)):
        # ints are finite at any size: only floats go to isfinite, which overflows on huge ints
        if type(v) is not int and (
            isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
        ):
            raise InvariantViolation(f"pixel coordinate {v!r} is not a finite number")
        if not 0 <= v <= extent:
            raise CoordOutOfRange(v, upper=extent)
    if x2 < x1 or y2 < y1:
        raise InvertedBox((x1, y1, x2, y2))
    return Box(_norm_coord(x1, width), _norm_coord(y1, height),
               _norm_coord(x2, width), _norm_coord(y2, height))


def _norm_coord(v, extent: int) -> int:
    if isinstance(v, int):
        q = v * GRID // extent
    else:
        try:
            q = math.floor(v * GRID / extent)
        except OverflowError:  # the extent, or v * GRID, is beyond the float range
            q = math.floor(Fraction(v) * GRID / extent)
    return max(0, min(GRID - 1, q))


def denormalize_box(box: Box, width: int, height: int) -> tuple[int, int, int, int]:
    """Inverse of :func:`normalize_box`: grid value to nearest pixel.

    Targets the midpoint (v + 0.5) / 1000 * extent of the source interval,
    rounding halves down; the result is clamped to [0, extent - 1].  For any
    extent >= 1000 this is an exact right inverse of normalize_box.
    """
    _check_extent(width, height)
    return (
        _denorm_coord(box.x1, width),
        _denorm_coord(box.y1, height),
        _denorm_coord(box.x2, width),
        _denorm_coord(box.y2, height),
    )


def _denorm_coord(v: int, extent: int) -> int:
    # nearest integer to (2v + 1) * extent / 2000 with ties rounded down,
    # in exact integer arithmetic
    px = -(-((2 * v + 1) * extent - GRID) // (2 * GRID))
    return max(0, min(extent - 1, px))
