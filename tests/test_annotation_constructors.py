"""The public annotation constructors raise typed errors that name the field.

The loaders check types before they construct, so these cases reach only a
library caller; each must still end in a ``ToolkitError`` subclass, never in
a ``TypeError``, ``AttributeError``, ``OverflowError`` or bare ``ValueError``
from deeper down.  Every type is checked before any comparison: a
wrong-typed width is reported as such even when another field is also bad.
"""

import pytest

from rsvl.builders import (
    ImageAnnotation,
    InstructionRecord,
    ObjectAnnotation,
    RelationAnnotation,
    SceneRecord,
    TaskType,
)
from rsvl.errors import EmptyLabel, EmptySteps, InvalidExtent, InvariantViolation
from rsvl.markup import Modality, Pos3, Pose6

BOX = (0, 0, 1, 1)
SHIP = ObjectAnnotation("ship", BOX)
POSE = Pose6(0, 0, 0, 0, 0, 0)
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
