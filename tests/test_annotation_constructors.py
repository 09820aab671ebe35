"""The public constructors raise typed errors that name the field.

That holds for the annotation rows, the markup nodes, the metric rows, the
tiling plan and the decoder's configuration and states.  The loaders check
types before they construct, so these cases reach only a library caller;
each must still end in a ``ToolkitError`` subclass, never in a
``TypeError``, ``AttributeError``, ``OverflowError`` or bare ``ValueError``
from deeper down.  Every type is checked before any comparison: a
wrong-typed width is reported as such even when another field is also bad.
"""

import numpy as np
import pytest

from rsvl.builders import (
    ImageAnnotation,
    InstructionRecord,
    ObjectAnnotation,
    RelationAnnotation,
    SceneRecord,
    TaskType,
    TilingPlan,
)
from rsvl.errors import EmptyLabel, EmptySteps, InvalidExtent, InvariantViolation
from rsvl.markup import (
    Box,
    Det,
    MarkupDoc,
    Modality,
    Pos,
    Pos3,
    Pose6,
    PoseSeq,
    Ref,
    Rel,
    Task,
    TaskKind,
    Text,
    emit,
)
from rsvl.metrics import DetGroundTruth, DetPrediction, NavEpisode, RelationTriple, nav_metrics
from rsvl.trajectory import DecoderConfig, TrajState

BOX = (0, 0, 1, 1)
GRID_BOX = Box(0, 0, 1, 1)
SHIP = ObjectAnnotation("ship", BOX)
POSE = Pose6(0, 0, 0, 0, 0, 0)
ORIGIN = Pos3(0, 0, 0)
SCENE = dict(image_id="s", modality="opt", description="a campus", landmark_name="tower",
             landmark_pos=Pos3(1, 2, 3), target_name="gate", target_pos=Pos3(4, 5, 6),
             surroundings=("a lawn",), trajectory=(POSE,))


RECORD = dict(image_refs=("a",), modality="opt", task="vqa", prompt="p", response="r")


def scene(**changes) -> SceneRecord:
    return SceneRecord(**{**SCENE, **changes})


def instruction(**changes) -> InstructionRecord:
    return InstructionRecord(**{**RECORD, **changes})


CASES = [
    ("string-width", lambda: ImageAnnotation("a", "opt", "9", 1),
     InvariantViolation, "'width' must be of type int, got '9'"),
    ("string-height", lambda: ImageAnnotation("a", "opt", 9, "1"),
     InvariantViolation, "'height' must be of type int, got '1'"),
    ("bool-width", lambda: ImageAnnotation("a", "opt", True, 1),
     InvariantViolation, "'width' must be of type int, got True"),
    ("float-width", lambda: ImageAnnotation("a", "opt", 9.0, 1),
     InvariantViolation, "'width' must be of type int, got 9.0"),
    ("string-width-and-zero-height", lambda: ImageAnnotation("a", "opt", "9", 0),
     InvariantViolation, "'width' must be of type int, got '9'"),
    ("string-width-and-empty-id", lambda: ImageAnnotation("", "opt", "9", 1),
     InvariantViolation, "'width' must be of type int, got '9'"),
    ("zero-width", lambda: ImageAnnotation("a", "opt", 0, 1),
     InvalidExtent, "image extent 0 x 1"),
    ("int-image-id", lambda: ImageAnnotation(1, "opt", 9, 1),
     InvariantViolation, "'image_id' must be of type str, got 1"),
    ("empty-image-id", lambda: ImageAnnotation("", "opt", 9, 1),
     EmptyLabel, "image_id must be non-empty"),
    ("unknown-modality", lambda: ImageAnnotation("a", "uv", 9, 1),
     InvariantViolation, "unknown modality 'uv', expected one of ['opt', 'sar', 'ir']"),
    ("int-modality", lambda: ImageAnnotation("a", 5, 9, 1),
     InvariantViolation, "unknown modality 5"),
    ("list-modality", lambda: ImageAnnotation("a", ["opt"], 9, 1),
     InvariantViolation, "unknown modality ['opt']"),
    ("int-scene-label", lambda: ImageAnnotation("a", "opt", 9, 1, (), 5),
     InvariantViolation, "'scene_label' must be of type str, got 5"),
    ("objects-not-iterable", lambda: ImageAnnotation("a", "opt", 9, 1, 5),
     InvariantViolation, "'objects' must hold ObjectAnnotations, got 5"),
    ("objects-of-dicts", lambda: ImageAnnotation("a", "opt", 9, 1, ({"category": "ship"},)),
     InvariantViolation, "'objects' must hold ObjectAnnotations"),
    ("int-category", lambda: ObjectAnnotation(1, BOX),
     InvariantViolation, "'category' must be of type str, got 1"),
    ("none-category", lambda: ObjectAnnotation(None, BOX),
     InvariantViolation, "'category' must be of type str, got None"),
    ("empty-category", lambda: ObjectAnnotation("", BOX),
     EmptyLabel, "object category must be non-empty"),
    ("blank-category", lambda: ObjectAnnotation("  ", BOX),
     EmptyLabel, "object category must be non-empty"),
    ("int-shape", lambda: ObjectAnnotation("ship", BOX, 3),
     InvariantViolation, "'shape_attr' must be of type str, got 3"),
    ("box-not-iterable", lambda: ObjectAnnotation("ship", 5),
     InvariantViolation, "pixel box must have 4 coordinates, got 5"),
    ("box-of-3", lambda: ObjectAnnotation("ship", (0, 0, 1)),
     InvariantViolation, "pixel box must have 4 coordinates, got (0, 0, 1)"),
    ("int-relation", lambda: RelationAnnotation(SHIP, SHIP, 1),
     InvariantViolation, "'relation' must be of type str, got 1"),
    ("int-subject", lambda: RelationAnnotation(1, SHIP, "near"),
     InvariantViolation, "'subject' must be of type ObjectAnnotation, got 1"),
    ("dict-object", lambda: RelationAnnotation(SHIP, {"category": "ship"}, "near"),
     InvariantViolation, "'object' must be of type ObjectAnnotation, got {'category': 'ship'}"),
    ("int-subject-and-blank-relation", lambda: RelationAnnotation(1, SHIP, " "),
     InvariantViolation, "'subject' must be of type ObjectAnnotation, got 1"),
    ("blank-relation", lambda: RelationAnnotation(SHIP, SHIP, " "),
     EmptyLabel, "relation label must be non-empty"),
    ("scene-int-image-id", lambda: scene(image_id=1),
     InvariantViolation, "'image_id' must be of type str, got 1"),
    ("scene-none-description", lambda: scene(description=None),
     InvariantViolation, "'description' must be of type str, got None"),
    ("scene-unknown-modality", lambda: scene(modality="uv"),
     InvariantViolation, "unknown modality 'uv', expected one of ['opt', 'sar', 'ir']"),
    ("scene-list-modality", lambda: scene(modality=["opt"]),
     InvariantViolation, "unknown modality ['opt']"),
    ("scene-tuple-landmark", lambda: scene(landmark_pos=(1, 2, 3)),
     InvariantViolation, "'landmark_pos' must be of type Pos3, got (1, 2, 3)"),
    ("scene-list-start-pose", lambda: scene(start_pose=[0] * 6),
     InvariantViolation, "'start_pose' must be of type Pose6, got [0, 0, 0, 0, 0, 0]"),
    ("scene-int-surrounding", lambda: scene(surroundings=("a lawn", 1)),
     InvariantViolation, "'surroundings' must hold strings, got ('a lawn', 1)"),
    ("scene-trajectory-of-lists", lambda: scene(trajectory=([0] * 6,)),
     InvariantViolation, "'trajectory' must hold Pose6s, got ([0, 0, 0, 0, 0, 0],)"),
    ("scene-trajectory-not-iterable", lambda: scene(trajectory=5),
     InvariantViolation, "'trajectory' must hold Pose6s, got 5"),
    ("scene-int-id-and-unknown-modality", lambda: scene(image_id=1, modality="uv"),
     InvariantViolation, "'image_id' must be of type str, got 1"),
    ("scene-blank-target", lambda: scene(target_name=" "),
     EmptyLabel, "scene target_name must be non-empty"),
    ("scene-empty-trajectory", lambda: scene(trajectory=()),
     EmptySteps, "scene trajectory must hold at least the start pose"),
    ("scene-start-off-the-trajectory", lambda: scene(start_pose=Pose6(1, 0, 0, 0, 0, 0)),
     InvariantViolation, "trajectory[0] must equal start_pose"),
    ("scene-string-surroundings", lambda: scene(surroundings="a lawn"),
     InvariantViolation, "'surroundings' must hold strings, got 'a lawn'"),
    ("record-int-ref", lambda: instruction(image_refs=(1,)),
     InvariantViolation, "'image_refs' must hold strings, got (1,)"),
    ("record-string-refs", lambda: instruction(image_refs="ab"),
     InvariantViolation, "'image_refs' must hold strings, got 'ab'"),
    ("record-refs-not-iterable", lambda: instruction(image_refs=5),
     InvariantViolation, "'image_refs' must hold strings, got 5"),
    ("record-int-prompt", lambda: instruction(prompt=5),
     InvariantViolation, "'prompt' must be of type str, got 5"),
    ("record-none-response", lambda: instruction(response=None),
     InvariantViolation, "'response' must be of type str, got None"),
    ("record-unknown-modality", lambda: instruction(modality="uv"),
     InvariantViolation, "unknown modality 'uv', expected one of ['opt', 'sar', 'ir']"),
    ("record-list-modality", lambda: instruction(modality=["opt"]),
     InvariantViolation, "unknown modality ['opt']"),
    ("record-unknown-task", lambda: instruction(task="nav"),
     InvariantViolation, "unknown task 'nav', expected one of ['caption', 'classification', "),
    ("record-int-task", lambda: instruction(task=1),
     InvariantViolation, "unknown task 1"),
    ("record-no-refs", lambda: instruction(image_refs=()),
     InvariantViolation, "image_refs must hold at least one non-empty id"),
    ("record-empty-ref", lambda: instruction(image_refs=("a", "")),
     InvariantViolation, "image_refs must hold at least one non-empty id"),
    ("record-empty-refs-and-int-prompt", lambda: instruction(image_refs=(), prompt=5),
     InvariantViolation, "'prompt' must be of type str, got 5"),
    ("record-int-ref-and-unknown-task", lambda: instruction(image_refs=(1,), task="nav"),
     InvariantViolation, "'image_refs' must hold strings, got (1,)"),
    ("pos3-int-beyond-floats", lambda: Pos3(10**400, 0, 0),
     InvariantViolation, "pos x must be finite, got an int beyond the float range"),
    ("pose6-negative-int-beyond-floats", lambda: Pose6(0, 0, 0, 0, 0, -10**400),
     InvariantViolation, "pose psi must be finite, got an int beyond the float range"),
    ("text-int", lambda: Text(5),
     InvariantViolation, "'value' must be of type str, got 5"),
    ("ref-none", lambda: Ref(None),
     InvariantViolation, "'name' must be of type str, got None"),
    ("rel-int", lambda: Rel(3),
     InvariantViolation, "'label' must be of type str, got 3"),
    ("task-string", lambda: Task("navigation"),
     InvariantViolation, "'kind' must be of type TaskKind, got 'navigation'"),
    ("pos-tuple", lambda: Pos((1, 2, 3)),
     InvariantViolation, "'point' must be of type Pos3, got (1, 2, 3)"),
    ("det-of-tuples", lambda: Det([(1, 2, 3, 4)]),
     InvariantViolation, "'boxes' must hold Boxes, got [(1, 2, 3, 4)]"),
    ("det-not-iterable", lambda: Det(5),
     InvariantViolation, "'boxes' must hold Boxes, got 5"),
    ("pose-seq-string", lambda: PoseSeq("ab"),
     InvariantViolation, "'poses' must hold Pose6s, got 'ab'"),
    ("doc-of-strings", lambda: MarkupDoc(["a"]),
     InvariantViolation, "'nodes' must hold markup nodes, got ['a']"),
    ("doc-not-iterable", lambda: MarkupDoc(5),
     InvariantViolation, "'nodes' must hold markup nodes, got 5"),
    ("box-string-coordinate", lambda: Box(0, "1", 2, 3),
     InvariantViolation, "box y1 must be an int, got '1'"),
    ("prediction-int-category", lambda: DetPrediction(1, GRID_BOX, 0.5),
     InvariantViolation, "'category' must be of type str, got 1"),
    ("prediction-tuple-box", lambda: DetPrediction("c", BOX, 0.5),
     InvariantViolation, "'box' must be of type Box, got (0, 0, 1, 1)"),
    ("prediction-string-confidence", lambda: DetPrediction("c", GRID_BOX, "0.5"),
     InvariantViolation, "confidence must be a number, got str"),
    ("prediction-bool-confidence", lambda: DetPrediction("c", GRID_BOX, True),
     InvariantViolation, "confidence must be a number, got bool"),
    ("prediction-int-beyond-floats", lambda: DetPrediction("c", GRID_BOX, 10**400),
     InvariantViolation, "confidence must be finite, got an int beyond the float range"),
    ("prediction-int-category-and-bad-confidence", lambda: DetPrediction(1, GRID_BOX, 2.0),
     InvariantViolation, "'category' must be of type str, got 1"),
    ("prediction-confidence-above-1", lambda: DetPrediction("c", GRID_BOX, 2),
     InvariantViolation, "confidence 2.0 outside [0, 1]"),
    ("ground-truth-tuple-box", lambda: DetGroundTruth("c", BOX),
     InvariantViolation, "'box' must be of type Box, got (0, 0, 1, 1)"),
    ("ground-truth-none-category", lambda: DetGroundTruth(None, GRID_BOX),
     InvariantViolation, "'category' must be of type str, got None"),
    ("triple-int-subject", lambda: RelationTriple(1, "a", "b"),
     InvariantViolation, "'subject_cat' must be of type str, got 1"),
    ("triple-blank-subject-and-none-relation", lambda: RelationTriple(" ", "a", None),
     InvariantViolation, "'relation' must be of type str, got None"),
    ("triple-blank-object", lambda: RelationTriple("a", " ", "b"),
     InvariantViolation, "triple field 'object_cat' is empty"),
    ("episode-string-length", lambda: NavEpisode([ORIGIN], ORIGIN, "1", 1.0),
     InvariantViolation, "'shortest_path_length' must be of type Real, got '1'"),
    ("episode-tuple-path", lambda: NavEpisode([(0, 0, 0), (1, 1, 1)], ORIGIN, 1.0, 1.0),
     InvariantViolation, "'predicted_path' must hold Pos3 waypoints, got [(0, 0, 0), (1, 1, 1)]"),
    ("episode-tuple-goal", lambda: NavEpisode([ORIGIN], (0, 0, 0), 1.0, 1.0),
     InvariantViolation, "'goal' must be of type Pos3, got (0, 0, 0)"),
    ("episode-empty-path-and-string-radius", lambda: NavEpisode([], ORIGIN, 1.0, "1"),
     InvariantViolation, "'success_radius' must be of type Real, got '1'"),
    ("tiling-string-m", lambda: TilingPlan("1", 1, 1),
     InvariantViolation, "'m' must be of type int, got '1'"),
    ("tiling-float-count-and-zero-n", lambda: TilingPlan(1, 0, 1.0),
     InvariantViolation, "'tile_count' must be of type int, got 1.0"),
    ("decoder-string-d-e", lambda: DecoderConfig("8", 8, 20),
     InvariantViolation, "'d_e' must be of type int, got '8'"),
    ("decoder-bool-steps", lambda: DecoderConfig(8, 8, True),
     InvariantViolation, "'max_steps' must be of type int, got True"),
    ("decoder-string-threshold", lambda: DecoderConfig(8, 8, 20, "1"),
     InvariantViolation, "'termination_threshold' must be of type Real, got '1'"),
    ("state-of-strings", lambda: TrajState(("a",) * 6),
     InvariantViolation, "'values' must hold numbers, got ('a', 'a', 'a', 'a', 'a', 'a')"),
    ("state-string", lambda: TrajState("abcdef"),
     InvariantViolation, "'values' must hold numbers, got 'abcdef'"),
    ("state-int-beyond-floats", lambda: TrajState((10**400,) * 6),
     InvariantViolation, "state component must be finite, got an int beyond the float range"),
]


@pytest.mark.parametrize("build, error, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_field_raises_a_typed_error_naming_it(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert message in str(raised.value)


def test_good_neighbours_still_construct():
    ann = ImageAnnotation("a", Modality.SAR, 9, 1, [SHIP], "harbor")
    assert ann.modality is Modality.SAR
    assert ann.objects == (SHIP,)
    assert ImageAnnotation("a", "ir", 9, 1, (o for o in [SHIP])).objects == (SHIP,)
    assert ObjectAnnotation("ship", [0, 0, 1, 1], None).px_box == BOX
    assert ObjectAnnotation("ship", BOX, "small").shape_attr == "small"
    assert RelationAnnotation(SHIP, SHIP, "near").relation == "near"
    record = scene(modality="sar", surroundings=["a lawn"], trajectory=[POSE])
    assert record.modality is Modality.SAR
    assert (record.surroundings, record.trajectory, record.start_pose) == (("a lawn",), (POSE,), POSE)
    assert scene(start_pose=POSE, surroundings=()).start_pose == POSE
    made = instruction(image_refs=["a", "b"])
    assert (made.image_refs, made.modality, made.task) == (("a", "b"), Modality.OPT, TaskType.VQA)
    assert instruction(modality=Modality.IR, task=TaskType.CAPTION).task is TaskType.CAPTION


def test_good_nodes_and_metric_rows_still_construct():
    assert Det([GRID_BOX]).boxes == (GRID_BOX,)
    assert PoseSeq([POSE]).poses == (POSE,)
    doc = MarkupDoc([Task(TaskKind.REASONING), Text("a "), Ref("ship"), Det((GRID_BOX,)), Rel("near")])
    assert emit(doc) == "<|reasoning|>a <|ref|>ship<|/ref|><|det|>[[0,0,1,1]]<|/det|><|rel|>near<|/rel|>"
    assert Pos(Pos3(1, 2, 3)).point == Pos3(1.0, 2.0, 3.0)
    assert DetPrediction("c", GRID_BOX, 1).confidence == 1.0
    assert type(DetPrediction("c", GRID_BOX, 1).confidence) is float
    assert DetGroundTruth("c", GRID_BOX).box == GRID_BOX
    assert RelationTriple(" Ship", "PIER ", "docked at") == RelationTriple("ship", "pier", "docked at")


def test_good_plans_episodes_and_decoder_values_still_construct():
    assert TilingPlan(3, 3, 9).tile_count == 9
    episode = NavEpisode([ORIGIN, Pos3(3, 4, 0)], Pos3(3, 4, 0), 5, 1)
    assert episode.predicted_path == (ORIGIN, Pos3(3, 4, 0))
    assert nav_metrics([episode]) == (0.0, 100.0, 100.0, 100.0)
    assert DecoderConfig(4, 8, 20, 1).termination_threshold == 1
    state = TrajState([0.5, 0.25, 0.5, 0.5, 0.5, 0.75])
    assert state.values == (0.5, 0.25, 0.5, 0.5, 0.5, 0.75)
    assert [type(v) for v in TrajState(tuple(np.full(6, 0.5))).values] == [float] * 6  # as decode builds it
