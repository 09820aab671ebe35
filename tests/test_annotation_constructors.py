"""The public annotation constructors raise typed errors that name the field.

The loaders check types before they construct, so these cases reach only a
library caller; each must still end in a ``ToolkitError`` subclass, never in
a ``TypeError``, ``AttributeError`` or bare ``ValueError`` from deeper down.
Every type is checked before any comparison: a wrong-typed width is reported
as such even when another field is also bad.
"""

import pytest

from rsvl.builders import ImageAnnotation, ObjectAnnotation
from rsvl.errors import EmptyLabel, InvalidExtent, InvariantViolation
from rsvl.markup import Modality

BOX = (0, 0, 1, 1)
SHIP = ObjectAnnotation("ship", BOX)

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
