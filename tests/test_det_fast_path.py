"""The canonical <|det|> fast path against the character scanner it short-cuts.

``parse`` must give the same nodes, the same lexemes, and on bad input the same
error class at the same byte offset, whether a payload goes through the fast
path or the scanner.
"""

import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsvl import markup
from rsvl.errors import MalformedNumber, MarkupError
from rsvl.markup import GRID, Det, Pos, Pos3, MarkupDoc, emit, parse

canonical_int = st.integers(0, GRID - 1).map(str)
odd_int = st.one_of(
    st.builds(lambda zeros, v: "0" * zeros + str(v), st.integers(1, 3), st.integers(0, GRID - 1)),
    st.builds(lambda sign, v: sign + str(v), st.sampled_from("+-"), st.integers(0, GRID - 1)),
    st.integers(GRID, 10**5).map(str),
    st.sampled_from(["", "1000", "9999", "0999", "0000"]),
)
context = st.sampled_from(["", "There are 2 ", "é <|ref|>ship<|/ref|>"])
CLOSE = "<|/det|>"


@st.composite
def canonical_boxes(draw):
    xs = sorted(draw(st.lists(st.integers(0, GRID - 1), min_size=2, max_size=2)))
    ys = sorted(draw(st.lists(st.integers(0, GRID - 1), min_size=2, max_size=2)))
    return "[" + ",".join(map(str, (xs[0], ys[0], xs[1], ys[1]))) + "]"


@st.composite
def canonical_payloads(draw):
    return "[" + ", ".join(draw(st.lists(canonical_boxes(), min_size=1, max_size=6))) + "]" + CLOSE


TAILS = ("", " in the image.", "<|det|>[[1,2,3,4]]<|/det|>")


@st.composite
def docs(draw, payloads=canonical_payloads(), tails=TAILS):
    return draw(context) + "<|det|>" + draw(payloads) + draw(st.sampled_from(tails))


@st.composite
def near_canonical_payloads(draw):
    """A canonical payload with one small edit, now and then two."""
    payload = draw(canonical_payloads())
    for _ in range(draw(st.sampled_from((1, 1, 1, 2)))):
        kind = draw(st.integers(0, 6))
        at = draw(st.integers(0, len(payload)))
        numbers = [m.span() for m in re.finditer(r"[0-9]+", payload)]
        if kind == 0:  # whitespace anywhere, inside or around a tuple
            payload = payload[:at] + draw(st.sampled_from([" ", "  ", "\t", "\n"])) + payload[at:]
        elif kind in (1, 2) and numbers:  # another number: may invert a box, or not be canonical
            a, b = draw(st.sampled_from(numbers))
            value = draw(canonical_int if kind == 1 else odd_int)
            payload = payload[:a] + value + payload[b:]
        elif kind == 3:  # one character gone: brackets, commas, digits, the close tag
            payload = payload[:at] + payload[at + 1:]
        elif kind == 4:  # a stray character
            payload = payload[:at] + draw(st.sampled_from(list("x,[]<|-+.") + ["<|"])) + payload[at:]
        elif kind == 5:  # trailing garbage before the close tag, or no close tag
            body = payload[: -len(CLOSE)] if payload.endswith(CLOSE) else payload
            payload = body + draw(st.sampled_from(["", "x", " ", "]", ", [1,2,3,4]"])) + (
                CLOSE if draw(st.booleans()) else "")
        else:
            payload = draw(st.sampled_from(["[]" + CLOSE, "[[]]" + CLOSE, "[ ]" + CLOSE, CLOSE]))
    return payload


def outcome(text: str):
    try:
        doc = parse(text)
    except MarkupError as e:
        return type(e), e.offset, str(e)
    return doc.nodes, [node.lexemes for node in doc.nodes if isinstance(node, Det)]


def scanner_outcome(text: str):
    with mock.patch.object(markup, "_scan_canonical_det", lambda text, i: None):
        return outcome(text)


@settings(max_examples=300, deadline=None)
@given(docs())
def test_canonical_payloads_take_the_fast_path(text):
    start = text.index("<|det|>") + len("<|det|>")
    assert markup._scan_canonical_det(text, start) is not None
    fast = outcome(text)
    assert fast == scanner_outcome(text)
    assert emit(parse(text)) == text


@settings(max_examples=600, deadline=None)
@given(docs(near_canonical_payloads(), TAILS + ("<|", " <|/det|>")))
@example("<|det|>[[1,2,1000,4]]<|/det|>")
@example("<|det|>[[1,2,3,04]]<|/det|>")
@example("<|det|>[[5,6,7,5]]<|/det|>")
def test_fast_path_agrees_with_scanner(text):
    assert outcome(text) == scanner_outcome(text)


@pytest.mark.parametrize("text, offset", [
    ("<|det|>[[2,1,1,4]]<|/det|>", 8),
    ("<|det|>[[1,2,3,4], [5,6,7,5]]<|/det|>", 19),
    ("<|det|>[[1,2,3,4]] <|/det|>", None),
    ("<|det|>[[1,2,3,4]]", 0),
])
def test_fallback_keeps_the_scanner_verdict(text, offset):
    result = outcome(text)
    assert result == scanner_outcome(text)
    if offset is not None:
        assert result[1] == offset


def test_oversized_lexeme_is_a_markup_error():
    prefix = "é <|det|>[[1,2,3,"
    with pytest.raises(MalformedNumber) as info:
        parse(prefix + "9" * 5000 + "]]<|/det|>")
    assert info.value.offset == len(prefix.encode("utf-8"))

    with pytest.raises(MalformedNumber) as info:
        parse("<|pos|>[1,2," + "9" * 5000 + "]<|/pos|>")
    assert info.value.offset == len("<|pos|>[1,2,")


def test_longest_emitted_literal_still_parses():
    doc = MarkupDoc((Pos(Pos3(-1.7976931348623157e308, 0.0, 5e-324)),))
    assert parse(emit(doc)) == doc
