"""Builder/validator agreement: every record a builder writes passes ``validate --strict``.

Free text is drawn from arbitrary strings and from the four sentences of the
decomposition scaffold, so a category, label or step that quotes the scaffold
is covered too.  Categories also come in spellings that differ only in case
or carry hyphens and digits; a caption built from them must pass the caption
validator, and fail it once one of its counts or categories is changed.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsvl import builders
from rsvl.builders import (
    ImageAnnotation,
    ObjectAnnotation,
    RelationAnnotation,
    SceneRecord,
    validate_caption,
)
from rsvl.cli import _validate_line
from rsvl.errors import ToolkitError
from rsvl.fileio import record_to_dict
from rsvl.markup import GRID, Box, Modality, Pos3, Pose6

WIDTH, HEIGHT = 120, 80

STEP_SENTENCES = (
    "Step1: Locate the target area: The target area locates at the center of the image. ",
    "Step2: Perform object detection: There are 9 entities in the target area",
    "Step3: Perform relation analysis: There are 9 relations found",
    "Step4: Perform context summary: 9 object types with 9 interactions.",
)

words = st.one_of(st.text(), st.sampled_from(STEP_SENTENCES))
finite = st.floats(allow_nan=False, allow_infinity=False)
# categories and sizes that differ only in case
case_variants = st.sampled_from(("ship", "Ship", "SHIP", "storage tank", "Storage Tank"))
size_variants = st.none() | st.sampled_from(("small", "Small", "large", "extra-large"))
# categories with hyphens and digits, in case variants
CLAIM_CATEGORIES = ("ship", "Ship", "baseball-diamond", "Baseball-Diamond", "B52", "b52",
                    "F-16", "storage tank", "Storage-Tank2")
claim_categories = st.sampled_from(CLAIM_CATEGORIES)


@st.composite
def object_args(draw, categories=case_variants | words, sizes=st.none() | words):
    x1, x2 = sorted((draw(st.integers(0, WIDTH)), draw(st.integers(0, WIDTH))))
    y1, y2 = sorted((draw(st.integers(0, HEIGHT)), draw(st.integers(0, HEIGHT))))
    return draw(categories), (x1, y1, x2, y2), draw(sizes)


@st.composite
def grid_boxes(draw):
    x1, x2 = sorted((draw(st.integers(0, GRID - 1)), draw(st.integers(0, GRID - 1))))
    y1, y2 = sorted((draw(st.integers(0, GRID - 1)), draw(st.integers(0, GRID - 1))))
    return Box(x1, y1, x2, y2)


def _objects(data, min_size=0):
    rows = data.draw(st.lists(object_args(), min_size=min_size, max_size=4))
    return tuple(ObjectAnnotation(*row) for row in rows)


def _image(data, objects=()):
    return ImageAnnotation("img", Modality.SAR, WIDTH, HEIGHT, objects, data.draw(st.none() | words))


def _pose(data):
    return Pose6(*(data.draw(finite) for _ in range(6)))


def _relations(data, objects):
    if not objects:
        return ()
    index = st.integers(0, len(objects) - 1)
    triples = data.draw(st.lists(st.tuples(index, words, index), max_size=3))
    return tuple(RelationAnnotation(objects[s], objects[o], label) for s, label, o in triples)


def _relation(data):
    subject, target = _objects(data, min_size=2)[:2]
    ann = ImageAnnotation("img", Modality.OPT, WIDTH, HEIGHT, (subject, target))
    return builders.build_relation_record(RelationAnnotation(subject, target, data.draw(words)), ann)


def _decomposition(data):
    ann = _image(data, _objects(data))
    return builders.build_decomposition_record(
        data.draw(grid_boxes()), ann, _relations(data, ann.objects)
    )


def _scheduling(data):
    return builders.build_scheduling_record(SceneRecord(
        image_id="img",
        modality=Modality.IR,
        description=data.draw(words),
        landmark_name=data.draw(words),
        landmark_pos=Pos3(*(data.draw(finite) for _ in range(3))),
        target_name=data.draw(words),
        target_pos=Pos3(*(data.draw(finite) for _ in range(3))),
        surroundings=data.draw(st.lists(words, max_size=3)),
        trajectory=tuple(_pose(data) for _ in range(data.draw(st.integers(1, 3)))),
    ))


BUILDS = {
    "detection": lambda data: builders.build_detection_record(_image(data, _objects(data))),
    "caption": lambda data: builders.build_caption_record(_image(data, _objects(data))),
    "classification": lambda data: builders.build_classification_record(_image(data)),
    "vqa": lambda data: builders.build_vqa_record(data.draw(words), data.draw(words), "img"),
    "relation": _relation,
    "decomposition": _decomposition,
    "decision": lambda data: builders.build_decision_record(
        _pose(data), _pose(data), data.draw(st.lists(words, max_size=3)), ("img",)
    ),
    "scheduling": _scheduling,
}


@pytest.mark.parametrize("task", BUILDS)
@settings(deadline=None)
@given(data=st.data())
def test_built_records_pass_strict_validation(task, data):
    try:
        record = BUILDS[task](data)
    except ToolkitError:
        return
    line = json.dumps(record_to_dict(record), ensure_ascii=False)
    assert _validate_line(line, True) == []


@settings(deadline=None)
@given(st.lists(object_args(case_variants, size_variants), min_size=1, max_size=6))
def test_built_captions_pass_their_own_validator(rows):
    ann = ImageAnnotation("img", Modality.OPT, WIDTH, HEIGHT, tuple(ObjectAnnotation(*row) for row in rows))
    caption = builders.build_caption_record(ann).response
    assert validate_caption(caption, ann).failures == ()


CLAIM_RE = re.compile(r"There (?:is|are) ([0-9]+) (.+?) in the image")


@settings(deadline=None)
@given(st.lists(object_args(claim_categories, size_variants), min_size=1, max_size=6), st.data())
def test_changed_counts_and_categories_in_built_captions_fail(rows, data):
    ann = ImageAnnotation("img", Modality.OPT, WIDTH, HEIGHT, tuple(ObjectAnnotation(*row) for row in rows))
    caption = builders.build_caption_record(ann).response
    assert validate_caption(caption, ann).passed
    claim = data.draw(st.sampled_from(list(CLAIM_RE.finditer(caption))))

    count = data.draw(st.integers(0, 20).filter(lambda n: n != int(claim.group(1))))
    changed = caption[:claim.start(1)] + str(count) + caption[claim.end(1):]
    assert not validate_caption(changed, ann).passed

    present = {obj.category.casefold() for obj in ann.objects}
    absent = [c for c in CLAIM_CATEGORIES if c.casefold() not in present] or ["zeppelin"]
    changed = caption[:claim.start(2)] + data.draw(st.sampled_from(absent)) + caption[claim.end(2):]
    assert not validate_caption(changed, ann).passed
