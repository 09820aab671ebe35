"""The canonical <|pos|>/<|pose|> fast path against the character scanner it short-cuts.

``parse`` must give the same nodes, the same lexemes, the same ``repr`` of
every value (so the sign of ``-0.0`` too), and on bad input the same error
class, byte offset and message, whether a payload goes through the fast path
or the scanner.
"""

import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsvl import markup
from rsvl.cli import main
from rsvl.errors import MarkupError
from rsvl.markup import Pos, PoseSeq, _fmt_float, emit, parse

from test_golden_bytes import MIXED_PER_TASK, MIXED_SEED, load_corpus

ARITY = {"pos": 3, "pose": 6}

finite = st.floats(allow_nan=False, allow_infinity=False)
floats = st.one_of(
    finite,
    st.builds(round, st.floats(-1e6, 1e6), st.integers(0, 6)),
    st.integers(-10**17, 10**17).map(float),  # integral: 16 and 17 digits
    st.floats(1e-5, 1e-3),  # either side of the exponent boundary at 1e-4
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 9999999999999998.0, 5e-324, 1e-4,
                     0.00012345678901234567, 1.7976931348623157e308, 0.1, 2.5]),
)
lexeme = floats.map(_fmt_float)
context = st.sampled_from(["", "Fly to ", "é <|ref|>tower<|/ref|> at "])
TAILS = ("", " then land.", "<|pos|>[1,2,3]<|/pos|>", "<|pose|>[[1,2,3,4,5,6]]<|/pose|>")


def _tuple(lexemes) -> str:
    return "[" + ",".join(lexemes) + "]"


@st.composite
def canonical_payloads(draw, tag):
    """A payload as ``emit`` writes it, through the close tag."""
    arity = ARITY[tag]
    if tag == "pos":
        body = _tuple(draw(st.lists(lexeme, min_size=arity, max_size=arity)))
    else:
        rows = draw(st.lists(st.lists(lexeme, min_size=arity, max_size=arity), min_size=1, max_size=4))
        body = "[" + ", ".join(map(_tuple, rows)) + "]"
    return body + f"<|/{tag}|>"


ODD_LEXEMES = [
    "1e5", "1E-3", "-2.5e+01", "1e999", "-1e400", "nan", "inf", "-inf", "+1", "+0.5", "01", "-007.5",
    "1.", "-1.", ".5", "-.5", "9" * 401, "1" * 17, "0." + "1" * 21, "-", "", "1.2.3",
]


@st.composite
def near_canonical_payloads(draw, tag):
    """A canonical payload with one small edit, now and then two."""
    payload = draw(canonical_payloads(tag))
    close = f"<|/{tag}|>"
    for _ in range(draw(st.sampled_from((1, 1, 1, 2)))):
        kind = draw(st.integers(0, 7))
        at = draw(st.integers(0, len(payload)))
        numbers = [m.span() for m in re.finditer(r"[-+.0-9a-zA-Z]+", payload.split("<|")[0])]
        tuples = [m.span() for m in re.finditer(r"\[[^\[\]]*\]", payload)]
        if kind == 0:  # whitespace anywhere, inside or around a tuple
            payload = payload[:at] + draw(st.sampled_from([" ", "  ", "\t", "\n"])) + payload[at:]
        elif kind == 1 and numbers:  # a literal emit never writes, or one it does
            a, b = draw(st.sampled_from(numbers))
            payload = payload[:a] + draw(st.one_of(st.sampled_from(ODD_LEXEMES), lexeme)) + payload[b:]
        elif kind == 2 and tuples:  # a tuple of the wrong arity
            a, b = draw(st.sampled_from(tuples))
            size = draw(st.sampled_from((2, 4, 5, 7)))
            payload = payload[:a] + _tuple(draw(st.lists(lexeme, min_size=size, max_size=size))) + payload[b:]
        elif kind == 3:  # one character gone: brackets, commas, digits, the close tag
            payload = payload[:at] + payload[at + 1:]
        elif kind == 4:  # a stray character
            payload = payload[:at] + draw(st.sampled_from(list("x,[]<|-+.e") + ["<|"])) + payload[at:]
        elif kind == 5:  # trailing garbage before the close tag, a broken one, or none
            body = payload[: -len(close)] if payload.endswith(close) else payload
            payload = body + draw(st.sampled_from(["", "x", " ", "]", ", [1,2,3]"])) + draw(
                st.sampled_from([close, "", "<|/po|>", "<|/pose|>" if tag == "pos" else "<|/pos|>", close[:-1]]))
        elif kind == 6:
            payload = draw(st.sampled_from(["[]", "[[]]", "[ ]", "", "[[1,2,3,4,5,6]"])) + close
        else:  # the other tag's shape: a bare tuple for pose, a nested list for pos
            inner = _tuple(["1"] * ARITY[tag])
            payload = draw(st.sampled_from([inner, "[" + inner + "]"])) + close
    return payload


@st.composite
def docs(draw, payloads, tails=TAILS):
    tag = draw(st.sampled_from(sorted(ARITY)))
    return draw(context) + f"<|{tag}|>" + draw(payloads(tag)) + draw(st.sampled_from(tails))


def outcome(text: str):
    try:
        doc = parse(text)
    except MarkupError as e:
        return type(e), e.offset, str(e)
    return doc.nodes, list(map(repr, doc.nodes)), [
        node.lexemes for node in doc.nodes if isinstance(node, (Pos, PoseSeq))]


def scanner_outcome(text: str):
    with mock.patch.object(markup, "_scan_canonical_pos", lambda text, i: None), \
            mock.patch.object(markup, "_scan_canonical_pose", lambda text, i: None):
        return outcome(text)


def _fast_scan(text: str):
    m = re.search(r"<\|(pose?)\|>", text)
    scan = markup._scan_canonical_pos if m.group(1) == "pos" else markup._scan_canonical_pose
    return scan(text, m.end())


@settings(max_examples=400, deadline=None)
@given(docs(canonical_payloads))
@example("<|pos|>[-0.0,0,-0]<|/pos|>")
@example("<|pos|>[0.00012345678901234567,9999999999999998,-1]<|/pos|>")
@example("<|pose|>[[1e+16,5e-324,0.1,-2.5,7,1.7976931348623157e+308]]<|/pose|>")
@example("<|pos|>[10000000000000000,0,0]<|/pos|>")
def test_canonical_payloads_agree_with_scanner(text):
    payload = re.search(r"<\|(pose?)\|>(.*?)<\|/\1\|>", text).group(2)
    lexemes = re.findall(r"[^\[\], ]+", payload)
    # the fast path takes every float emit writes without an exponent, below 1e16
    assert (_fast_scan(text) is not None) == all(
        "e" not in lex and abs(float(lex)) < 1e16 for lex in lexemes)
    assert outcome(text) == scanner_outcome(text)
    assert emit(parse(text)) == text


@settings(max_examples=600, deadline=None)
@given(docs(near_canonical_payloads, TAILS + ("<|", " <|/pos|>")))
@example("<|pos|>[1,2,3] <|/pos|>")
@example("<|pos|>[1,2,1e5]<|/pos|>")
@example("<|pos|>[+1,2,3]<|/pos|>")
@example("<|pose|>[[1,2,3,4,5,6],[1,2,3,4,5,6]]<|/pose|>")
@example("<|pose|>[[1,2,3,4,5,6], [1,2,3,4,5]]<|/pose|>")
@example("<|pos|>[1,2,3]<|/pose|>")
@example("<|pos|>[1,2,3]")
def test_fast_path_agrees_with_scanner(text):
    assert outcome(text) == scanner_outcome(text)


@pytest.mark.parametrize("text", [
    "<|pos|>[1," + "9" * 401 + ",3]<|/pos|>",
    "<|pos|>[1,nan,3]<|/pos|>",
    "<|pos|>[1,1e999,3]<|/pos|>",
    "<|pose|>[[1,2,3,4,5,6,7]]<|/pose|>",
    "<|pose|>[]<|/pose|>",
    "<|pos|>[1.,.5,3]<|/pos|>",
])
def test_fallback_keeps_the_scanner_verdict(text):
    assert _fast_scan(text) is None
    assert outcome(text) == scanner_outcome(text)


def test_strict_validate_of_a_built_corpus_never_runs_the_scanner(tmp_path, capsys):
    """Every <|pos|>/<|pose|>/<|det|> payload the builders write takes a fast path."""
    corpus = load_corpus().mixed_corpus(random.Random(MIXED_SEED), tmp_path, MIXED_PER_TASK)
    built = []
    for task, path in corpus.inputs.items():
        target = tmp_path / f"{task}.jsonl"
        assert main(["build", task, path, "-o", str(target)]) == 0
        built.append(target.read_text(encoding="utf-8"))
    records = tmp_path / "all.jsonl"
    records.write_text("".join(built), encoding="utf-8")
    assert all(tag in "".join(built) for tag in ("<|pos|>", "<|pose|>", "<|det|>"))

    scans = []
    with mock.patch.object(markup, "_scan_list", lambda *args: scans.append(args)):
        assert main(["validate", str(records), "--strict"]) == 0
    capsys.readouterr()
    assert scans == []
