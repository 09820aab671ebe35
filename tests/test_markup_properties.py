"""Grammar properties: roundtrips, totality, coordinate closure."""

import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import random_doc
from rsvl.errors import MarkupError
from rsvl.markup import (
    GRID,
    Box,
    Det,
    MarkupDoc,
    Pos,
    Pos3,
    Pose6,
    PoseSeq,
    Ref,
    Rel,
    Task,
    TaskKind,
    Text,
    canonical,
    denormalize_box,
    emit,
    normalize_box,
    parse,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
tag_free = st.text().filter(lambda s: "<|" not in s)


@st.composite
def boxes(draw):
    x1 = draw(st.integers(0, GRID - 1))
    y1 = draw(st.integers(0, GRID - 1))
    x2 = draw(st.integers(x1, GRID - 1))
    y2 = draw(st.integers(y1, GRID - 1))
    return Box(x1, y1, x2, y2)


nodes = st.one_of(
    st.builds(Text, st.text(min_size=1).filter(lambda s: "<|" not in s)),
    st.builds(Ref, tag_free),
    st.builds(Rel, tag_free),
    st.builds(Task, st.sampled_from(list(TaskKind))),
    st.builds(Pos, st.builds(Pos3, finite, finite, finite)),
    st.builds(
        PoseSeq,
        st.lists(
            st.builds(Pose6, finite, finite, finite, finite, finite, finite),
            min_size=1,
            max_size=3,
        ).map(tuple),
    ),
    st.builds(Det, st.lists(boxes(), min_size=1, max_size=3).map(tuple)),
)


@st.composite
def docs(draw):
    raw = draw(st.lists(nodes, max_size=7))
    merged = []
    for node in raw:
        if merged and isinstance(node, Text) and isinstance(merged[-1], Text):
            merged[-1] = Text(merged[-1].value + node.value)
        else:
            merged.append(node)
    # merging two tag-free strings can still mint a '<|' at the seam
    assume(all("<|" not in n.value for n in merged if isinstance(n, Text)))
    return MarkupDoc(tuple(merged))


@given(docs())
def test_parse_inverts_emit(doc):
    assert parse(emit(doc)) == doc


@given(docs())
def test_emit_is_canonical(doc):
    s = emit(doc)
    assert canonical(s) == s
    assert emit(parse(s)) == s


@given(st.text())
def test_parse_is_total(text):
    # arbitrary input either parses or raises a structured markup error
    try:
        doc = parse(text)
    except MarkupError as exc:
        assert exc.offset is None or 0 <= exc.offset <= len(text.encode("utf-8"))
    else:
        assert emit(doc) == canonical(text)


_FRAGMENTS = (
    "<|", "|>", "<|ref|>", "<|/ref|>", "<|pos|>", "<|/pos|>", "<|det|>",
    "<|/det|>", "<|pose|>", "<|/pose|>", "<|rel|>", "<|/rel|>",
    "<|navigation|>", "[", "]", "[[", "]]", ",", " ", "0", "1", "999",
    "1000", "-", ".", "e", "nan", "inf", "x",
)


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join))
def test_parse_is_total_on_tag_soup(text):
    try:
        doc = parse(text)
    except MarkupError:
        pass
    else:
        assert emit(doc) == canonical(text)


@given(st.integers(1, 5000), st.integers(1, 5000), st.data())
def test_normalize_closure(width, height, data):
    x1 = data.draw(st.integers(0, width))
    x2 = data.draw(st.integers(x1, width))
    y1 = data.draw(st.integers(0, height))
    y2 = data.draw(st.integers(y1, height))
    b = normalize_box((x1, y1, x2, y2), width, height)
    assert 0 <= b.x1 <= b.x2 <= GRID - 1
    assert 0 <= b.y1 <= b.y2 <= GRID - 1


@given(boxes(), st.integers(GRID, 8000), st.integers(GRID, 8000))
def test_denormalize_right_inverse_above_grid_extent(box, width, height):
    assert normalize_box(denormalize_box(box, width, height), width, height) == box


@given(boxes(), st.integers(1, 999), st.integers(1, 999))
def test_denormalize_lands_in_pixel_bounds(box, width, height):
    x1, y1, x2, y2 = denormalize_box(box, width, height)
    assert 0 <= x1 <= x2 <= width - 1
    assert 0 <= y1 <= y2 <= height - 1


@given(st.integers(1, 5000), st.integers(1, 5000), st.data())
def test_normalize_box_maps_float_pixels(width, height, data):
    x1, x2 = sorted(data.draw(st.floats(0, width)) for _ in range(2))
    y1, y2 = sorted(data.draw(st.floats(0, height)) for _ in range(2))
    b = normalize_box((x1, y1, x2, y2), width, height)
    assert 0 <= b.x1 <= b.x2 <= GRID - 1
    assert 0 <= b.y1 <= b.y2 <= GRID - 1
    # integral floats map exactly like the ints they equal
    ints = (round(x1), round(y1), round(x2), round(y2))
    assert normalize_box(tuple(map(float, ints)), width, height) == normalize_box(ints, width, height)


def test_fuzz_generator_roundtrip_seeded():
    # the cheap generator used for the bulk fuzz runs; spot check it here
    rng = random.Random(20240817)
    for _ in range(500):
        doc = random_doc(rng)
        assert parse(emit(doc)) == doc


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_generator_is_deterministic(seed):
    a = [emit(random_doc(random.Random(seed))) for _ in range(20)]
    b = [emit(random_doc(random.Random(seed))) for _ in range(20)]
    assert a == b
