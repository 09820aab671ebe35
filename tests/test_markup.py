"""Parser, serializer, and coordinate grid for the task markup."""

import json
from collections import Counter
from pathlib import Path

import pytest

from rsvl.errors import (
    CoordOutOfRange,
    EmptyList,
    InvalidExtent,
    InvariantViolation,
    InvertedBox,
    MalformedNumber,
    MarkupError,
    UnbalancedTag,
    UnknownTag,
)
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

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "markup_corpus.json").read_text(encoding="utf-8"))


# --- parse ---------------------------------------------------------------


def test_parse_ref_then_pos():
    doc = parse("<|ref|>Wellington Road<|/ref|><|pos|>[1.0, 2.0, 3.0]<|/pos|>")
    assert len(doc.nodes) == 2
    ref, pos = doc.nodes
    assert ref == Ref("Wellington Road")
    assert isinstance(pos, Pos)
    assert pos.point == Pos3(1.0, 2.0, 3.0)


def test_parse_empty_string():
    doc = parse("")
    assert doc.nodes == ()


def test_parse_two_box_det():
    doc = parse("<|det|>[[0,0,10,10],[5,5,15,15]]<|/det|>")
    (det,) = doc.nodes
    assert isinstance(det, Det)
    assert det.boxes == (Box(0, 0, 10, 10), Box(5, 5, 15, 15))


def test_parse_covers_every_byte():
    s = "head <|ref|>x<|/ref|> tail"
    doc = parse(s)
    assert doc.nodes == (Text("head "), Ref("x"), Text(" tail"))


def test_parse_task_markers():
    pairs = {
        "<|navigation|>": TaskKind.NAVIGATION,
        "<|decision|>": TaskKind.DECISION,
        "<|decomposition|>": TaskKind.DECOMPOSITION,
        "<|reasoning|>": TaskKind.REASONING,
    }
    for marker, kind in pairs.items():
        doc = parse(marker + "prompt text")
        assert doc.nodes[0] == Task(kind)
        assert doc.nodes[1] == Text("prompt text")


def test_parse_pose_sequence():
    doc = parse("<|pose|>[[0,0,0,0,0,0], [1,2,0,0.1,0,0]]<|/pose|>")
    (seq,) = doc.nodes
    assert isinstance(seq, PoseSeq)
    assert seq.poses == (
        Pose6(0, 0, 0, 0, 0, 0),
        Pose6(1, 2, 0, 0.1, 0, 0),
    )


def test_parse_rel_label():
    doc = parse("the car is <|rel|>driving on<|/rel|> the road.")
    assert doc.nodes[1] == Rel("driving on")


def test_text_nodes_are_maximal():
    # no two adjacent Text nodes, whatever the input layout
    for s in CORPUS:
        nodes = parse(s).nodes
        for a, b in zip(nodes, nodes[1:]):
            assert not (isinstance(a, Text) and isinstance(b, Text))


# --- parse errors --------------------------------------------------------


def test_unbalanced_open_tag():
    with pytest.raises(UnbalancedTag) as exc:
        parse("<|ref|>no close")
    assert "(byte offset 0)" in str(exc.value)


def test_stray_close_tag():
    with pytest.raises(UnbalancedTag) as exc:
        parse("x<|/ref|>y")
    assert exc.value.offset == 1


def test_unknown_tag():
    with pytest.raises(UnknownTag):
        parse("<|bogus|>x")


def test_malformed_number():
    with pytest.raises(MalformedNumber):
        parse("<|pos|>[a,b,c]<|/pos|>")


def test_wrong_arity_is_malformed():
    with pytest.raises(MalformedNumber):
        parse("<|pos|>[1,2]<|/pos|>")
    with pytest.raises(MalformedNumber):
        parse("<|det|>[[1,2,3]]<|/det|>")


def test_det_requires_integers():
    with pytest.raises(MalformedNumber):
        parse("<|det|>[[0,0,1.5,2]]<|/det|>")


def test_coord_out_of_range():
    with pytest.raises(CoordOutOfRange):
        parse("<|det|>[[0,0,1000,10]]<|/det|>")


def test_empty_list():
    with pytest.raises(EmptyList):
        parse("<|det|>[]<|/det|>")


def test_inverted_box():
    with pytest.raises(InvertedBox):
        parse("<|det|>[[5,5,2,8]]<|/det|>")


def test_offsets_count_bytes_not_characters():
    # 'é' is two bytes in UTF-8, so the offending tuple's opening bracket
    # sits at byte 10 even though it is character 9
    with pytest.raises(CoordOutOfRange) as exc:
        parse("é<|det|>[[0,0,1000,1]]<|/det|>")
    assert exc.value.offset == 10


@pytest.mark.parametrize(
    "bad",
    [
        "<|ref|>a<|/det|>",      # mismatched close
        "<|pos|>1,2,3<|/pos|>",  # missing brackets
        "<|det|>[[0,0,1,1],]<|/det|>",
        "<|pose|>[[0,0,0,0,0,0]<|/pose|>",
        "<|nav igation|>",
        "text <| ref|>x<|/ref|>",
    ],
)
def test_malformed_inputs_raise_structured_errors(bad):
    # totality: anything wrong surfaces as MarkupError, never another type
    with pytest.raises(MarkupError):
        parse(bad)


# --- emit ----------------------------------------------------------------


def test_emit_single_box():
    assert emit(MarkupDoc((Det((Box(0, 0, 1, 1),)),))) == "<|det|>[[0,0,1,1]]<|/det|>"


def test_emit_zero_pose():
    doc = MarkupDoc((PoseSeq((Pose6(0, 0, 0, 0, 0, 0),)),))
    assert emit(doc) == "<|pose|>[[0,0,0,0,0,0]]<|/pose|>"


def test_emit_tuple_spacing():
    # no spaces inside a tuple, one space after the comma between tuples
    doc = MarkupDoc((Det((Box(0, 0, 10, 10), Box(5, 5, 15, 15))),))
    assert emit(doc) == "<|det|>[[0,0,10,10], [5,5,15,15]]<|/det|>"


def test_emit_pos_is_one_tuple():
    assert emit(MarkupDoc((Pos(Pos3(1.0, 2.0, 3.0)),))) == "<|pos|>[1,2,3]<|/pos|>"


def test_emit_preserves_parsed_lexemes():
    # numbers keep their original spelling through a parse/emit cycle
    doc = parse("<|pos|>[1.50, 2, 3e0]<|/pos|>")
    assert emit(doc) == "<|pos|>[1.50,2,3e0]<|/pos|>"


def test_emit_fractional_floats():
    doc = MarkupDoc((Pos(Pos3(1.5, 2.0, -3.25)),))
    assert emit(doc) == "<|pos|>[1.5,2,-3.25]<|/pos|>"


def test_emit_rejects_adjacent_text():
    with pytest.raises(InvariantViolation):
        emit(MarkupDoc((Text("a"), Text("b"))))


def test_emit_rejects_tag_opener_in_text():
    with pytest.raises(InvariantViolation):
        emit(MarkupDoc((Text("x <|ref|> y"),)))


def test_node_invariants_checked_at_construction():
    with pytest.raises(InvariantViolation):
        Det(())
    with pytest.raises(InvariantViolation):
        PoseSeq(())
    with pytest.raises(InvariantViolation):
        Pos3(float("nan"), 0.0, 0.0)
    with pytest.raises(InvertedBox):
        Box(5, 5, 2, 8)
    with pytest.raises(CoordOutOfRange):
        Box(0, 0, 1000, 10)
    with pytest.raises(CoordOutOfRange):
        Box(-1, 0, 10, 10)


def test_lexemes_are_parser_only():
    point = Pos3(1.0, 2.0, 3.0)
    with pytest.raises(TypeError):
        Pos(point, ("1", "2", "3"))
    with pytest.raises(TypeError):
        PoseSeq((Pose6(0, 0, 0, 0, 0, 0),), lexemes=(("0",) * 6,))
    with pytest.raises(TypeError):
        Det((Box(0, 0, 1, 1),), lexemes=(("0", "0", "1", "1"),))
    assert Pos(point).lexemes is None
    assert parse("<|pos|>[1.0, 2, 3]<|/pos|>").nodes[0] == Pos(point)


def test_parser_builds_each_value_through_its_constructor_once(monkeypatch):
    """Fast paths and scanner alike: every parsed value ran its own check exactly once."""
    checked = Counter()
    for cls in (Pos3, Pose6, Box, PoseSeq, Det, Pos):
        def counted(self, check=cls.__post_init__):
            checked[id(self)] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    text = ("<|pos|>[1.5,2,3]<|/pos|> <|pos|>[1.5, 2, 3]<|/pos|> "
            "<|pose|>[[0,0,1,0,0,0], [1,1,1,0,0,0]]<|/pose|> <|pose|>[[0, 0, 1, 0, 0, 0]]<|/pose|> "
            "<|det|>[[1,2,3,4]]<|/det|> <|det|>[[1, 2, 3, 4], [0, 0, 9, 9]]<|/det|>")
    doc = parse(text)
    nodes = [n for n in doc.nodes if not isinstance(n, Text)]
    assert [type(n) for n in nodes] == [Pos, Pos, PoseSeq, PoseSeq, Det, Det]
    values = [*nodes, *(n.point for n in nodes[:2]), *(p for n in nodes[2:4] for p in n.poses),
              *(b for n in nodes[4:] for b in n.boxes)]
    assert len(values) == 6 + 2 + 3 + 3
    assert checked == {id(v): 1 for v in values}
    assert emit(doc) == canonical(text)


def test_values_are_equal_by_type_and_fields():
    assert Text("a") != Ref("a")
    assert Rel("a") != Ref("a")
    assert Box(1, 2, 3, 4) != (1, 2, 3, 4)
    assert Pos3(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)
    assert Box(1, 2, 3, 4) == Box(1, 2, 3, 4)
    assert hash(Box(1, 2, 3, 4)) == hash(Box(1, 2, 3, 4))
    assert hash(Pos3(1, 2, 3)) == hash(Pos3(1.0, 2.0, 3.0))
    doc = MarkupDoc((Task(TaskKind.NAVIGATION), Text("a"), Det((Box(0, 0, 1, 1),))))
    assert doc == MarkupDoc(list(doc.nodes)) and hash(doc) == hash(MarkupDoc(list(doc.nodes)))
    assert len({Text("a"), Text("a"), Ref("a")}) == 2


def test_lexemes_stay_out_of_equality_hash_and_repr():
    parsed = parse("<|pos|>[1.50, 2e0, 3]<|/pos|><|pose|>[[0.0, 0,0,0,0,0]]<|/pose|>"
                   "<|det|>[[001, 2, 3, 4]]<|/det|>").nodes
    built = (Pos(Pos3(1.5, 2.0, 3.0)), PoseSeq((Pose6(0, 0, 0, 0, 0, 0),)), Det((Box(1, 2, 3, 4),)))
    assert [n.lexemes for n in parsed] == [("1.50", "2e0", "3"), (("0.0",) + ("0",) * 5,),
                                           (("001", "2", "3", "4"),)]
    assert [n.lexemes for n in built] == [None, None, None]
    for p, b in zip(parsed, built):
        assert p == b
        assert hash(p) == hash(b)
        assert repr(p) == repr(b)
    assert emit(MarkupDoc(parsed)) != emit(MarkupDoc(built))


# --- roundtrip over the fixture corpus -----------------------------------


@pytest.mark.parametrize("s", CORPUS, ids=range(len(CORPUS)))
def test_corpus_roundtrip(s):
    assert emit(parse(s)) == canonical(s)


def test_canonical_is_idempotent():
    for s in CORPUS:
        assert canonical(canonical(s)) == canonical(s)


def test_canonical_touches_only_numeric_payloads():
    s = "spaced   prose <|det|>[ [1, 2, 3, 4] ]<|/det|> more   prose"
    assert canonical(s) == "spaced   prose <|det|>[[1,2,3,4]]<|/det|> more   prose"


def test_parse_emit_identity_on_canonical_strings():
    for s in CORPUS:
        c = canonical(s)
        assert emit(parse(c)) == c


# --- coordinate grid -----------------------------------------------------


def test_normalize_full_extent_clamps():
    # floor(800*1000/800) = 1000, clamped into the grid
    assert normalize_box((0, 0, 800, 800), 800, 800) == Box(0, 0, 999, 999)


def test_normalize_origin_fixed_point():
    for w, h in [(1, 1), (640, 480), (4000, 4000)]:
        assert normalize_box((0, 0, 0, 0), w, h) == Box(0, 0, 0, 0)


def test_normalize_midpoint():
    # floor(400*1000/800) = 500
    assert normalize_box((400, 400, 400, 400), 800, 800) == Box(500, 500, 500, 500)


def test_normalize_identity_at_grid_extent():
    assert normalize_box((0, 0, 999, 999), 1000, 1000) == Box(0, 0, 999, 999)
    assert normalize_box((123, 456, 789, 999), 1000, 1000) == Box(123, 456, 789, 999)


def test_normalize_rejects_bad_extent():
    with pytest.raises(InvalidExtent):
        normalize_box((0, 0, 1, 1), 0, 100)
    with pytest.raises(InvalidExtent):
        normalize_box((0, 0, 1, 1), 100, -5)


def test_normalize_rejects_inverted_pixels():
    with pytest.raises(InvertedBox):
        normalize_box((10, 0, 5, 5), 100, 100)


def test_normalize_rejects_bad_pixel_coordinates():
    with pytest.raises(CoordOutOfRange):
        normalize_box((0, 0, 10**400, 5), 100, 100)  # too big for a float, still an int
    for bad in (float("inf"), float("nan"), True, "5", None):
        with pytest.raises(InvariantViolation):
            normalize_box((0, 0, bad, 5), 100, 100)


def test_normalize_closure_exhaustive_small_extents():
    # every in-bounds pixel lands inside the grid
    for extent in (1, 2, 3, 7, 999, 1000, 1001):
        for px in range(0, extent + 1):
            b = normalize_box((px, 0, px, 0), extent, extent)
            assert 0 <= b.x1 <= GRID - 1


def test_denormalize_full_grid():
    # midpoint targets round to (0,0,999,999) after the clamp to pixel bounds
    assert denormalize_box(Box(0, 0, 999, 999), 1000, 1000) == (0, 0, 999, 999)


def test_denormalize_origin():
    assert denormalize_box(Box(0, 0, 0, 0), 1000, 1000) == (0, 0, 0, 0)
    assert denormalize_box(Box(0, 0, 0, 0), 800, 800) == (0, 0, 0, 0)


def test_denormalize_is_right_inverse_at_2000():
    import random

    rng = random.Random(7)
    for _ in range(500):
        x1 = rng.randrange(GRID)
        x2 = rng.randrange(x1, GRID)
        y1 = rng.randrange(GRID)
        y2 = rng.randrange(y1, GRID)
        b = Box(x1, y1, x2, y2)
        assert normalize_box(denormalize_box(b, 2000, 2000), 2000, 2000) == b


def test_denormalize_exhaustive_right_inverse_at_1000():
    for v in range(GRID):
        px = denormalize_box(Box(v, 0, v, 0), 1000, 1000)
        assert normalize_box(px, 1000, 1000) == Box(v, 0, v, 0)


def test_denormalize_rejects_bad_extent():
    with pytest.raises(InvalidExtent):
        denormalize_box(Box(0, 0, 1, 1), 0, 10)


def test_example_box_roundtrip_at_800():
    # 799 is the last in-bounds pixel of an 800-wide image
    assert denormalize_box(Box(0, 0, 999, 999), 800, 800) == (0, 0, 799, 799)
    assert normalize_box((0, 0, 799, 799), 800, 800) == Box(0, 0, 998, 998)
