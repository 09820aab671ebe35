"""Record builders: templates, caption validation, tiling."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import _DocBuilder
from rsvl import builders
from rsvl.builders import (
    CAPTION_PROMPT,
    CLASSIFICATION_PROMPT,
    DETECTION_PROMPT,
    CaptionValidation,
    ImageAnnotation,
    InstructionRecord,
    ObjectAnnotation,
    RelationAnnotation,
    SceneRecord,
    TaskType,
    TilingPlan,
    _markup,
    build_caption_record,
    build_classification_record,
    build_decision_record,
    build_decomposition_record,
    build_detection_record,
    build_relation_record,
    build_scheduling_record,
    build_vqa_record,
    plan_tiling,
    region_direction,
    validate_caption,
)
from rsvl.errors import (
    EmptyAnnotation,
    EmptyLabel,
    EmptySteps,
    InvalidExtent,
    InvariantViolation,
)
from rsvl.markup import (
    Box, Det, Modality, Pos, Pos3, Pose6, PoseSeq, Ref, Rel, Task, TaskKind, Text, emit, parse,
)

OPT = Modality.OPT


def ann_of(*objects, image_id="im", width=1000, height=1000, scene_label=None):
    return ImageAnnotation(image_id, OPT, width, height, tuple(objects), scene_label)


# --- detection -------------------------------------------------------------


def test_detection_single_ship():
    rec = build_detection_record(ann_of(ObjectAnnotation("ship", (0, 0, 100, 100))))
    assert rec.prompt == DETECTION_PROMPT
    assert "1 <|ref|>ship<|/ref|><|det|>[[0,0,100,100]]<|/det|>" in rec.response
    assert rec.response.startswith("There is 1 ")
    assert rec.task is TaskType.DETECTION
    assert rec.image_refs == ("im",)


def test_detection_groups_by_category_in_first_appearance_order():
    rec = build_detection_record(
        ann_of(
            ObjectAnnotation("ship", (0, 0, 10, 10)),
            ObjectAnnotation("plane", (20, 20, 30, 30)),
            ObjectAnnotation("ship", (40, 40, 50, 50)),
        )
    )
    assert rec.response == (
        "There are 2 <|ref|>ship<|/ref|><|det|>[[0,0,10,10], [40,40,50,50]]<|/det|>, "
        "1 <|ref|>plane<|/ref|><|det|>[[20,20,30,30]]<|/det|> in the image."
    )


def test_detection_normalizes_boxes():
    rec = build_detection_record(
        ann_of(ObjectAnnotation("ship", (0, 0, 400, 400)), width=800, height=800)
    )
    assert "<|det|>[[0,0,500,500]]<|/det|>" in rec.response


def test_detection_empty_annotation():
    with pytest.raises(EmptyAnnotation):
        build_detection_record(ann_of())


def test_detection_boxes_stay_on_grid():
    rec = build_detection_record(
        ann_of(ObjectAnnotation("ship", (0, 0, 800, 800)), width=800, height=800)
    )
    doc = parse(rec.response)
    for node in doc.nodes:
        if isinstance(node, Det):
            for b in node.boxes:
                assert 0 <= b.x1 <= b.x2 <= 999
                assert 0 <= b.y1 <= b.y2 <= 999


# --- caption ----------------------------------------------------------------


def test_caption_two_small_aircraft():
    rec = build_caption_record(
        ann_of(
            ObjectAnnotation("aircraft", (10, 10, 60, 60), "small"),
            ObjectAnnotation("aircraft", (100, 100, 160, 160), "small"),
        )
    )
    assert rec.prompt == CAPTION_PROMPT
    assert rec.response == "There are 2 aircrafts in the image, which are small in size."


def test_caption_counts_case_variants_of_a_category_together():
    ann = ann_of(
        ObjectAnnotation("Ship", (0, 0, 100, 100), "small"),
        ObjectAnnotation("plane", (200, 200, 300, 300)),
        ObjectAnnotation("ship", (400, 400, 500, 500), "small"),
    )
    rec = build_caption_record(ann)
    assert rec.response == (
        "There are 2 Ships in the image, which are small in size. There is 1 plane in the image."
    )
    assert validate_caption(rec.response, ann).passed
    # detection keeps the exact spellings apart
    assert build_detection_record(ann).response.startswith("There are 1 <|ref|>Ship<|/ref|>")


def test_caption_single_ship_no_shape():
    rec = build_caption_record(ann_of(ObjectAnnotation("ship", (0, 0, 100, 100))))
    assert rec.response == "There is 1 ship in the image."


def test_caption_scene_fallback():
    rec = build_caption_record(ann_of(scene_label="harbor"))
    assert rec.response == "The image shows a harbor scene."


def test_caption_mixed_shapes_drop_the_clause():
    rec = build_caption_record(
        ann_of(
            ObjectAnnotation("tank", (0, 0, 10, 10), "small"),
            ObjectAnnotation("tank", (20, 20, 30, 30), "large"),
        )
    )
    assert rec.response == "There are 2 tanks in the image."


def test_caption_needs_objects_or_label():
    with pytest.raises(EmptyAnnotation):
        build_caption_record(ann_of())


# --- caption validation ------------------------------------------------------


AIR2 = ann_of(
    ObjectAnnotation("aircraft", (0, 0, 10, 10), "small"),
    ObjectAnnotation("aircraft", (20, 20, 30, 30), "small"),
)
SHIP2 = ann_of(
    ObjectAnnotation("ship", (0, 0, 10, 10)),
    ObjectAnnotation("ship", (20, 20, 30, 30)),
)


def test_validate_caption_passes_on_match():
    v = validate_caption(
        "There are 2 aircrafts in the image, which are small in size.", AIR2
    )
    assert v == CaptionValidation(True, ())


def test_validate_caption_count_mismatch():
    v = validate_caption("There are 3 ships in the image.", SHIP2)
    assert not v.passed
    assert any(f.startswith("count:") for f in v.failures)


def test_validate_caption_unknown_category():
    v = validate_caption("There are 2 boats in the image.", SHIP2)
    assert not v.passed
    assert any(f.startswith("category:") for f in v.failures)


DIAMOND2 = ann_of(
    ObjectAnnotation("baseball-diamond", (0, 0, 10, 10)),
    ObjectAnnotation("baseball-diamond", (20, 20, 30, 30)),
)


def test_validate_caption_reads_hyphenated_and_alphanumeric_categories():
    built = build_caption_record(DIAMOND2).response
    assert built == "There are 2 baseball-diamonds in the image."
    assert validate_caption(built, DIAMOND2).passed
    assert validate_caption(built.replace("2", "9"), DIAMOND2).failures == (
        "count: caption states 9 'baseball-diamonds', annotation has 2",)
    assert validate_caption("There are 7 B52s in the image.", DIAMOND2).failures == (
        "category: 'b52s' not found in annotation",)
    b52 = ann_of(ObjectAnnotation("B52", (0, 0, 10, 10), "extra-large"))
    assert build_caption_record(b52).response == "There is 1 B52 in the image, which is extra-large in size."
    assert validate_caption("There is 1 b52 in the image, which is extra-large in size.", b52).passed
    assert validate_caption("There is 1 B52 in the image, which is x-small in size.", b52).failures == (
        "shape: 'x-small' does not match annotation for 'b52'",)


def test_validate_caption_synonym_rescues_category():
    v = validate_caption(
        "There are 2 boats in the image.", SHIP2, synonyms={"boat": "ship"}
    )
    assert v.passed


def test_validate_caption_synonym_rescues_shape():
    v = validate_caption(
        "There are 2 aircrafts in the image, which are tiny in size.",
        AIR2,
        synonyms={"tiny": "small"},
    )
    assert v.passed


def test_validate_caption_shape_mismatch():
    v = validate_caption(
        "There are 2 aircrafts in the image, which are large in size.", AIR2
    )
    assert not v.passed
    assert any(f.startswith("shape:") for f in v.failures)


def test_validate_caption_similarity_below_gate():
    # 0.79 < 0.8 x 1.0
    v = validate_caption("There are 2 ships in the image.", SHIP2, score=0.79, benchmark=1.0)
    assert not v.passed
    assert any(f.startswith("similarity:") for f in v.failures)


def test_validate_caption_similarity_at_gate():
    v = validate_caption("There are 2 ships in the image.", SHIP2, score=0.80, benchmark=1.0)
    assert v.passed


def test_validate_caption_scaled_benchmark():
    # 0.8 * 0.5 is exactly representable, so the boundary is crisp
    v = validate_caption("There are 2 ships in the image.", SHIP2, score=0.39, benchmark=0.5)
    assert not v.passed
    v = validate_caption("There are 2 ships in the image.", SHIP2, score=0.40, benchmark=0.5)
    assert v.passed


def test_validate_caption_score_requires_benchmark():
    with pytest.raises(InvariantViolation):
        validate_caption("x", SHIP2, score=0.5)
    with pytest.raises(InvariantViolation):
        validate_caption("x", SHIP2, score=0.5, benchmark=0.0)


@given(st.dictionaries(st.sampled_from(["boat", "vessel", "tiny", "huge"]),
                       st.sampled_from(["ship", "small", "large"])))
def test_validate_caption_monotone_in_synonyms(extra):
    # adding synonym rows never turns a pass into a fail
    base = {"boat": "ship"}
    caption = "There are 2 boats in the image."
    before = validate_caption(caption, SHIP2, synonyms=base).passed
    merged = {**extra, **base}
    after = validate_caption(caption, SHIP2, synonyms=merged).passed
    assert not before or after


# --- classification / vqa -----------------------------------------------------


def test_classification_record():
    rec = build_classification_record(ann_of(scene_label="aircraft"))
    assert rec.prompt == CLASSIFICATION_PROMPT
    assert rec.response == "aircraft."
    assert rec.task is TaskType.CLASSIFICATION


def test_classification_needs_label():
    with pytest.raises(EmptyLabel):
        build_classification_record(ann_of())


def test_vqa_record():
    rec = build_vqa_record(
        "Is a small road present? The answer to this question is", "yes", "im5"
    )
    assert rec.prompt == "Is a small road present? The answer to this question is"
    assert rec.response == "yes."
    assert rec.task is TaskType.VQA


def test_vqa_rejects_empty_fields():
    with pytest.raises(EmptyLabel):
        build_vqa_record("q?", "", "i")
    with pytest.raises(EmptyLabel):
        build_vqa_record("", "yes", "i")


# --- relation -----------------------------------------------------------------


CAR_ROAD = RelationAnnotation(
    ObjectAnnotation("car", (50, 50, 80, 80)),
    ObjectAnnotation("road", (0, 40, 500, 90)),
    "driving on",
)


def test_relation_response_template():
    rec = build_relation_record(CAR_ROAD, ann_of(image_id="im6", width=500, height=100))
    assert rec.response == (
        "subject: car, object: road, the car is <|rel|>driving on<|/rel|> the road."
    )


def test_relation_prompt_hides_object_category():
    rec = build_relation_record(CAR_ROAD, ann_of(width=500, height=100))
    assert rec.prompt.startswith("<|reasoning|>")
    assert "<|ref|>car<|/ref|>" in rec.prompt
    assert "road" not in rec.prompt
    assert rec.prompt.count("<|det|>") == 2


def test_relation_self_relation_is_well_formed():
    obj = ObjectAnnotation("bridge", (10, 10, 90, 90))
    rec = build_relation_record(
        RelationAnnotation(obj, obj, "spans"), ann_of(width=100, height=100)
    )
    parse(rec.prompt)
    assert len([n for n in parse(rec.response).nodes if isinstance(n, Rel)]) == 1


def test_relation_exactly_one_rel_node():
    rec = build_relation_record(CAR_ROAD, ann_of(width=500, height=100))
    rels = [n for n in parse(rec.response).nodes if isinstance(n, Rel)]
    assert [r.label for r in rels] == ["driving on"]


# --- region direction -----------------------------------------------------------


def test_region_direction_examples():
    assert region_direction(Box(400, 400, 600, 600)) == "center"
    assert region_direction(Box(0, 0, 100, 100)) == "upper left"
    assert region_direction(Box(900, 400, 999, 600)) == "right"


def test_region_direction_all_nine_cells():
    # centers chosen well inside each third of the grid
    spots = {
        (100, 100): "upper left", (500, 100): "upper", (900, 100): "upper right",
        (100, 500): "left", (500, 500): "center", (900, 500): "right",
        (100, 900): "lower left", (500, 900): "lower", (900, 900): "lower right",
    }
    for (cx, cy), want in spots.items():
        box = Box(cx - 50, cy - 50, cx + 50, cy + 50)
        assert region_direction(box) == want, (cx, cy)


# --- decomposition ----------------------------------------------------------------


SHIPS = ann_of(
    ObjectAnnotation("ship", (100, 100, 200, 200)),
    ObjectAnnotation("ship", (300, 300, 400, 400)),
    image_id="d1",
)
DOCKED = (RelationAnnotation(SHIPS.objects[0], SHIPS.objects[1], "docked beside"),)


def test_decomposition_counts():
    rec = build_decomposition_record(Box(0, 0, 500, 500), SHIPS, DOCKED)
    assert rec.prompt == (
        "<|decomposition|>Analyze the region <|det|>[[0,0,500,500]]<|/det|> of the image."
    )
    assert "There are 2 entities in the target area" in rec.response
    assert rec.response.endswith("Step4: Perform context summary: 1 object types with 1 interactions.")


def test_decomposition_empty_region():
    rec = build_decomposition_record(Box(900, 900, 999, 999), SHIPS, DOCKED)
    assert "There are 0 entities in the target area." in rec.response
    assert "There are 0 relations found." in rec.response
    assert rec.response.endswith("0 object types with 0 interactions.")


def test_decomposition_steps_in_order():
    rec = build_decomposition_record(Box(0, 0, 500, 500), SHIPS, DOCKED)
    positions = [rec.response.index(f"Step{i}: ") for i in range(1, 5)]
    assert positions == sorted(positions)
    parse(rec.response)


def test_decomposition_filters_by_center():
    # only the first ship's center (150,150) falls inside the region
    rec = build_decomposition_record(Box(0, 0, 250, 250), SHIPS, DOCKED)
    assert "There are 1 entities in the target area" in rec.response
    # the relation's other endpoint left the region, so no relations survive
    assert "There are 0 relations found." in rec.response


def test_decomposition_direction_comes_from_region():
    rec = build_decomposition_record(Box(900, 400, 999, 600), SHIPS, ())
    assert "locates at the right of the image" in rec.response


# --- scheduling -------------------------------------------------------------------


def scene_of(trajectory, **over):
    kw = dict(
        image_id="s1",
        modality=OPT,
        description="a campus with two towers",
        landmark_name="clock tower",
        landmark_pos=Pos3(10.0, 20.5, 0.0),
        target_name="library entrance",
        target_pos=Pos3(40.0, -3.0, 1.5),
        surroundings=("a lawn", "a fountain"),
        trajectory=tuple(trajectory),
    )
    kw.update(over)
    return SceneRecord(**kw)


def test_scheduling_prompt_opens_with_navigation():
    rec = build_scheduling_record(scene_of([Pose6(0, 0, 0, 0, 0, 0)]))
    assert rec.prompt.startswith("<|navigation|>You need to formulate a flight plan")
    doc = parse(rec.prompt)
    assert doc.nodes[0] == Task(TaskKind.NAVIGATION)


def test_scheduling_single_point_trajectory():
    rec = build_scheduling_record(scene_of([Pose6(0, 0, 0, 0, 0, 0)]))
    assert "Step 4: Trajectory: <|pose|>[[0,0,0,0,0,0]]<|/pose|>." in rec.response


def test_scheduling_fields_copied_verbatim():
    rec = build_scheduling_record(
        scene_of([Pose6(0, 0, 0, 0, 0, 0), Pose6(1, 2, 0, 0.1, 0, 0)])
    )
    assert "a campus with two towers" in rec.prompt
    assert "<|ref|>clock tower<|/ref|><|pos|>[10,20.5,0]<|/pos|>" in rec.prompt
    assert "<|ref|>library entrance<|/ref|><|pos|>[40,-3,1.5]<|/pos|>" in rec.response
    assert "Surroundings: a lawn, a fountain." in rec.response
    assert "<|pose|>[[0,0,0,0,0,0], [1,2,0,0.1,0,0]]<|/pose|>" in rec.response


def test_scheduling_response_steps_use_spaced_labels():
    rec = build_scheduling_record(scene_of([Pose6(0, 0, 0, 0, 0, 0)]))
    for label in ("Step 1:", "Step 2:", "Step 3:", "Step 4:"):
        assert label in rec.response


def test_scene_record_invariants():
    with pytest.raises(EmptySteps):
        scene_of([])
    with pytest.raises(InvariantViolation):
        scene_of([Pose6(1, 0, 0, 0, 0, 0)], start_pose=Pose6(9, 9, 9, 0, 0, 0))
    # explicit start matching trajectory[0] is fine
    scene_of([Pose6(1, 0, 0, 0, 0, 0)], start_pose=Pose6(1, 0, 0, 0, 0, 0))


# --- decision ----------------------------------------------------------------------


START = Pose6(0, 0, 10, 0, 0, 0)
GOAL = Pose6(50, 50, 10, 0, 0, 0)


def test_decision_single_step():
    rec = build_decision_record(START, GOAL, ["go straight"], ["img1"])
    assert rec.response == "Step1: go straight."
    assert rec.prompt.startswith("<|decision|>How to fly from position")
    assert "<|pose|>[[0,0,10,0,0,0]]<|/pose|>" in rec.prompt
    assert "<|pose|>[[50,50,10,0,0,0]]<|/pose|>" in rec.prompt


def test_decision_multiple_steps_unspaced_labels():
    rec = build_decision_record(START, GOAL, ["lift off", "turn left", "land"], ["img1"])
    assert rec.response == "Step1: lift off. Step2: turn left. Step3: land."


def test_decision_hover_in_place():
    rec = build_decision_record(START, START, ["hover"], ["img1"])
    assert rec.response == "Step1: hover."


def test_decision_rejects_empty_steps():
    with pytest.raises(EmptySteps):
        build_decision_record(START, GOAL, [], ["img1"])


# --- tiling ------------------------------------------------------------------------


def test_tiling_exact_fit():
    assert plan_tiling(384, 384) == TilingPlan(1, 1, 1)


def test_tiling_ceil_within_budget():
    assert plan_tiling(800, 800) == TilingPlan(3, 3, 9)


def test_tiling_reduction():
    # ceil gives (11, 2) = 22 tiles; larger side shrinks until the budget fits
    assert plan_tiling(4000, 500) == TilingPlan(4, 2, 8)


def test_tiling_rejects_bad_extent():
    with pytest.raises(InvalidExtent):
        plan_tiling(0, 100)
    with pytest.raises(InvalidExtent):
        plan_tiling(100, -1)


@given(st.integers(1, 10000), st.integers(1, 10000))
def test_tiling_budget_and_exact_ceil(height, width):
    plan = plan_tiling(height, width)
    assert plan.m >= 1 and plan.n >= 1
    assert plan.m * plan.n <= 9
    assert plan.tile_count == plan.m * plan.n
    em, en = math.ceil(height / 384), math.ceil(width / 384)
    if em * en <= 9:
        assert (plan.m, plan.n) == (em, en)


# --- cross-cutting -------------------------------------------------------------------


def _sample_records():
    yield build_detection_record(SHIPS)
    yield build_caption_record(AIR2)
    yield build_caption_record(ann_of(scene_label="harbor"))
    yield build_classification_record(ann_of(scene_label="aircraft"))
    yield build_vqa_record("Is a small road present? The answer to this question is", "yes", "v")
    yield build_relation_record(CAR_ROAD, ann_of(width=500, height=100))
    yield build_decomposition_record(Box(0, 0, 500, 500), SHIPS, DOCKED)
    yield build_decision_record(START, GOAL, ["go straight"], ["img1"])
    yield build_scheduling_record(scene_of([Pose6(0, 0, 0, 0, 0, 0)]))


def test_every_builder_output_parses():
    for rec in _sample_records():
        parse(rec.prompt)
        parse(rec.response)


def test_task_marker_is_first_prompt_node():
    markers = {
        TaskType.SCHEDULING: TaskKind.NAVIGATION,
        TaskType.DECISION: TaskKind.DECISION,
        TaskType.DECOMPOSITION: TaskKind.DECOMPOSITION,
        TaskType.RELATION: TaskKind.REASONING,
    }
    for rec in _sample_records():
        doc = parse(rec.prompt)
        if rec.task in markers:
            assert doc.nodes[0] == Task(markers[rec.task])
        else:
            assert not any(isinstance(n, Task) for n in doc.nodes)


def test_builders_are_deterministic():
    first = [(r.prompt, r.response) for r in _sample_records()]
    second = [(r.prompt, r.response) for r in _sample_records()]
    assert first == second


def test_instruction_record_requires_image_ref():
    with pytest.raises(InvariantViolation):
        InstructionRecord((), OPT, TaskType.VQA, "p", "r")


# every builder writes each markup field through one ``_markup`` call, so one emit
EMITS_PER_RECORD = {
    TaskType.DETECTION: 1, TaskType.CAPTION: 1, TaskType.CLASSIFICATION: 1,
    TaskType.VQA: 2, TaskType.RELATION: 2, TaskType.DECOMPOSITION: 2,
    TaskType.DECISION: 2, TaskType.SCHEDULING: 2,
}


def test_each_markup_field_is_one_emit(monkeypatch):
    """No builder writes markup around the serializer and its ``<|`` check."""
    calls = []
    monkeypatch.setattr(builders, "emit", lambda doc: calls.append(doc) or emit(doc))
    seen = set()
    for record in _sample_records():
        assert len(calls) == EMITS_PER_RECORD[record.task], record.task
        calls.clear()
        seen.add(record.task)
    assert seen == set(TaskType)


texts = st.one_of(st.text(max_size=6), st.sampled_from(["", "<|", "a<", "|b", "<|ref|>x<|/ref|>"]))
finite = st.floats(allow_nan=False, allow_infinity=False)
coords = st.integers(0, 999)
boxes = st.builds(lambda a, b, c, d: Box(min(a, c), min(b, d), max(a, c), max(b, d)),
                  coords, coords, coords, coords)
nodes = st.one_of(
    st.builds(Text, texts),
    st.builds(Task, st.sampled_from(TaskKind)),
    st.builds(Ref, texts),
    st.builds(Rel, texts),
    st.builds(Pos, st.builds(Pos3, finite, finite, finite)),
    st.builds(PoseSeq, st.lists(st.builds(Pose6, *[finite] * 6), min_size=1, max_size=2)),
    st.builds(Det, st.lists(boxes, min_size=1, max_size=2)),
)


@given(st.lists(texts | nodes, max_size=8))
def test_markup_matches_the_doc_builder_chain(parts):
    """``_markup(*parts)`` writes what the chained builder wrote, or raises what it raised."""
    def outcome(write):
        try:
            return write()
        except InvariantViolation as e:
            return ("raised", str(e))

    def chain():
        b = _DocBuilder()
        for part in parts:
            if isinstance(part, str):
                b.text(part)
            else:
                b.add(part)
        return b.build()

    assert outcome(lambda: _markup(*parts)) == outcome(chain)
