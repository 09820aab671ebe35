"""Exception types shared across the toolkit.

Everything raised on purpose derives from ToolkitError so callers (and the
CLI exit-code mapping) can catch one base class.  Markup errors carry a byte
offset into the source string whenever one is known.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class MarkupError(ToolkitError, ValueError):
    """A problem in special-token markup text.

    ``offset`` is a byte offset (UTF-8) into the source string, or None when
    the error did not originate from parsing.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class UnbalancedTag(MarkupError):
    def __init__(self, tag: str, offset: int | None = None):
        self.tag = tag
        super().__init__(f"unbalanced tag <|{tag}|>", offset)


class UnknownTag(MarkupError):
    def __init__(self, name: str, offset: int | None = None):
        self.name = name
        super().__init__(f"unknown tag {name!r}", offset)


class MalformedNumber(MarkupError):
    """Numeric payload does not scan: bad literal, wrong arity, stray token."""

    def __init__(self, offset: int | None = None, detail: str = ""):
        msg = "malformed numeric payload"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg, offset)


class CoordOutOfRange(MarkupError):
    """A coordinate outside the grid, or with ``upper`` given, outside a pixel extent."""

    def __init__(self, value, offset: int | None = None, upper: int = 999):
        self.value = value
        super().__init__(f"coordinate {value!r} outside [0, {upper}]", offset)


class EmptyList(MarkupError):
    def __init__(self, tag: str, offset: int | None = None):
        self.tag = tag
        super().__init__(f"<|{tag}|> payload holds an empty list", offset)


class InvertedBox(MarkupError):
    def __init__(self, coords, offset: int | None = None):
        self.coords = tuple(coords)
        super().__init__(f"box corners out of order: {self.coords}", offset)


class InvalidExtent(ToolkitError, ValueError):
    """Image width or height below 1."""


class InvariantViolation(ToolkitError, ValueError):
    """A typed value or document violates its declared invariant."""


# Record building -----------------------------------------------------------

class EmptyAnnotation(ToolkitError, ValueError):
    """Annotation carries no usable content for the requested task."""


class EmptyLabel(ToolkitError, ValueError):
    """A label or answer that must be non-empty is empty."""


class EmptySteps(ToolkitError, ValueError):
    """A plan with zero steps."""


class SchemaError(ToolkitError, ValueError):
    """Input file does not match the documented schema.

    ``index`` points at the offending record (0-based) when known; ``path``
    names the input file, given here or attached by the loader that read it.
    """

    path: str | None = None

    def __init__(self, message: str, index: int | None = None, path=None):
        self.index = index
        if path is not None:
            self.path = str(path)
        if index is not None:
            message = f"record {index}: {message}"
        super().__init__(message)


# Trajectory decoding -------------------------------------------------------

class DimensionMismatch(ToolkitError, ValueError):
    """Weight or input shapes disagree with the decoder configuration."""


class EmptyGroundTruth(ToolkitError, ValueError):
    """Loss requested against an empty target trajectory."""


class DivergenceDetected(ToolkitError, ArithmeticError):
    """Optimization produced a non-finite loss."""


# Metrics -------------------------------------------------------------------

class LengthMismatch(ToolkitError, ValueError):
    """Paired sequences differ in length."""


class EmptyEpisodeSet(ToolkitError, ValueError):
    """Navigation metrics over zero episodes."""


# every error class above is public
__all__ = [name for name, value in globals().items()
           if isinstance(value, type) and issubclass(value, ToolkitError)]
