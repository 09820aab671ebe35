"""Instruction record builders for the eight supervision tasks.

Every builder returns an :class:`InstructionRecord` whose prompt and response
are valid markup (see :mod:`rsvl.markup`) rendered in canonical form.  The
response templates are fixed sentences; identical annotations produce byte
identical records on every run and platform.

Perception tasks (caption, classification, VQA, detection) use plain prompts.
Reasoning tasks open their prompt with the matching task marker:

    scheduling     <|navigation|>
    decision       <|decision|>
    decomposition  <|decomposition|>
    relation       <|reasoning|>

Also here: the record rules ``validate --strict`` checks (these markers and the
decomposition scaffold), rule-based caption validation against annotations,
the 3x3 image direction grid, and the tiling planner that picks how many
384-pixel tiles an image is resized to.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    EmptyAnnotation,
    EmptyLabel,
    EmptySteps,
    InvalidExtent,
    InvariantViolation,
)
from .markup import (
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
    _check_extent,
    _require,
    _require_items,
    emit,
    normalize_box,
    parse,
)

__all__ = [
    "TaskType",
    "ObjectAnnotation",
    "ImageAnnotation",
    "RelationAnnotation",
    "SceneRecord",
    "InstructionRecord",
    "TilingPlan",
    "CaptionValidation",
    "DETECTION_PROMPT",
    "CAPTION_PROMPT",
    "CLASSIFICATION_PROMPT",
    "build_detection_record",
    "build_caption_record",
    "build_classification_record",
    "build_vqa_record",
    "build_relation_record",
    "build_decomposition_record",
    "build_scheduling_record",
    "build_decision_record",
    "validate_caption",
    "check_record",
    "region_direction",
    "plan_tiling",
    "TILE_SIZE",
    "MAX_TILES",
]


class TaskType(str, Enum):
    CAPTION = "caption"
    CLASSIFICATION = "classification"
    VQA = "vqa"
    DETECTION = "detection"
    RELATION = "relation"
    DECOMPOSITION = "decomposition"
    DECISION = "decision"
    SCHEDULING = "scheduling"


DETECTION_PROMPT = "Detect all objects shown in the remote sensing image and describe using HBBs."
CAPTION_PROMPT = "Please provide a short depiction of the picture:"
CLASSIFICATION_PROMPT = "Please output the scene corresponding to the image:"

TILE_SIZE = 384
MAX_TILES = 9


# --- Input annotations -------------------------------------------------------


def _require_member(name: str, value, kind: type[Enum]):
    """``value`` as a member of ``kind``; InvariantViolation naming the field unless it is one."""
    if isinstance(value, kind):
        return value
    values = [m.value for m in kind]
    if value not in values:
        raise InvariantViolation(f"unknown {name} {value!r}, expected one of {values}")
    return kind(value)


@dataclass(unsafe_hash=True)
class ObjectAnnotation:
    """One object: category, pixel rectangle, optional coarse size attribute."""

    category: str
    px_box: tuple[float, float, float, float]
    shape_attr: str | None = None

    def __post_init__(self):
        category, box, shape = self.category, self.px_box, self.shape_attr
        if not (type(category) is str and category.strip() and type(box) is tuple and len(box) == 4
                and (shape is None or type(shape) is str)):
            _require("category", category, str)
            _require("shape_attr", shape, str, optional=True)
            if not category.strip():
                raise EmptyLabel("object category must be non-empty")
            self.px_box = tuple(box) if isinstance(box, Iterable) else ()
            if len(self.px_box) != 4:
                raise InvariantViolation(f"pixel box must have 4 coordinates, got {box!r}")


@dataclass(unsafe_hash=True)
class ImageAnnotation:
    image_id: str
    modality: Modality
    width: int
    height: int
    objects: tuple[ObjectAnnotation, ...] = ()
    scene_label: str | None = None

    def __post_init__(self):
        image_id, width, height, label = self.image_id, self.width, self.height, self.scene_label
        if not (type(image_id) is str and image_id and type(width) is int and type(height) is int
                and width >= 1 and height >= 1 and (label is None or type(label) is str)
                and type(self.modality) is Modality and type(self.objects) is tuple
                and all(map(ObjectAnnotation.__instancecheck__, self.objects))):
            # every type before any comparison, so a wrong type names its field
            _require("image_id", image_id, str)
            _require("width", width, int)
            _require("height", height, int)
            _require("scene_label", label, str, optional=True)
            if not image_id:
                raise EmptyLabel("image_id must be non-empty")
            if width < 1 or height < 1:
                raise InvalidExtent(f"image extent {width} x {height}")
            self.modality = _require_member("modality", self.modality, Modality)
            self.objects = _require_items("objects", self.objects, ObjectAnnotation)


@dataclass(unsafe_hash=True)
class RelationAnnotation:
    """A directed subject/object pair with a relation label."""

    subject: ObjectAnnotation
    object: ObjectAnnotation
    relation: str

    def __post_init__(self):
        _require("subject", self.subject, ObjectAnnotation)
        _require("object", self.object, ObjectAnnotation)
        _require("relation", self.relation, str)
        if not self.relation.strip():
            raise EmptyLabel("relation label must be non-empty")


@dataclass(unsafe_hash=True)
class SceneRecord:
    """Flight-scene annotation backing one task-scheduling record.

    ``trajectory[0]`` is the start pose; ``start_pose`` may be omitted and is
    then taken from the trajectory.
    """

    image_id: str
    modality: Modality
    description: str
    landmark_name: str
    landmark_pos: Pos3
    target_name: str
    target_pos: Pos3
    surroundings: tuple[str, ...]
    trajectory: tuple[Pose6, ...]
    start_pose: Pose6 | None = None

    def __post_init__(self):
        # every type before any comparison, so a wrong type names its field
        labels = ("image_id", "description", "landmark_name", "target_name")
        for label in labels:
            _require(label, getattr(self, label), str)
        _require("landmark_pos", self.landmark_pos, Pos3)
        _require("target_pos", self.target_pos, Pos3)
        _require("start_pose", self.start_pose, Pose6, optional=True)
        self.surroundings = _require_items("surroundings", self.surroundings, str, "strings")
        self.trajectory = _require_items("trajectory", self.trajectory, Pose6)
        for label in labels:
            if not getattr(self, label).strip():
                raise EmptyLabel(f"scene {label} must be non-empty")
        self.modality = _require_member("modality", self.modality, Modality)
        if not self.trajectory:
            raise EmptySteps("scene trajectory must hold at least the start pose")
        if self.start_pose is None:
            self.start_pose = self.trajectory[0]
        elif self.start_pose != self.trajectory[0]:
            raise InvariantViolation("trajectory[0] must equal start_pose")


@dataclass(unsafe_hash=True)
class InstructionRecord:
    """One prompt/response supervision pair tied to one or more images."""

    image_refs: tuple[str, ...]
    modality: Modality
    task: TaskType
    prompt: str
    response: str

    def __post_init__(self):
        refs = self.image_refs
        if not (type(refs) is tuple and refs and all(map(str.__instancecheck__, refs)) and "" not in refs
                and type(self.prompt) is str and type(self.response) is str
                and type(self.modality) is Modality and type(self.task) is TaskType):
            # every type before any comparison, so a wrong type names its field
            self.image_refs = refs = _require_items("image_refs", refs, str, "strings")
            _require("prompt", self.prompt, str)
            _require("response", self.response, str)
            self.modality = _require_member("modality", self.modality, Modality)
            self.task = _require_member("task", self.task, TaskType)
            if not refs or "" in refs:
                raise InvariantViolation("image_refs must hold at least one non-empty id")


# --- Small shared helpers ----------------------------------------------------


def _markup(*parts) -> str:
    """Canonical markup for ``parts``: a string is text, anything else a node.

    Strings join the text before them, so a run of strings (and a Text node
    ahead of it) becomes one Text node; empty strings are dropped.  ``emit``
    serializes the doc and refuses ``<|`` in text.
    """
    nodes: list = []
    for part in parts:
        if not isinstance(part, str):
            nodes.append(part)
        elif part:
            if nodes and isinstance(nodes[-1], Text):
                nodes[-1] = Text(nodes[-1].value + part)
            else:
                nodes.append(Text(part))
    return emit(MarkupDoc(tuple(nodes)))


def _sentence(text: str) -> str:
    text = text.strip()
    return text if text.endswith(".") else text + "."


def _plural(noun: str, count: int) -> str:
    return noun if count == 1 else noun + "s"


def _group_by_category(objects: Iterable[ObjectAnnotation], fold: Callable[[str], str] | None = None):
    """(category, objects) pairs in first-appearance order.

    With ``fold``, categories that ``fold`` maps to one key form one group,
    named by the spelling that appears first.
    """
    groups: dict[str, tuple[str, list[ObjectAnnotation]]] = {}
    for obj in objects:
        key = fold(obj.category) if fold else obj.category
        if key not in groups:
            groups[key] = (obj.category, [])
        groups[key][1].append(obj)
    return list(groups.values())


def _norm_object_box(obj: ObjectAnnotation, ann: ImageAnnotation) -> Box:
    return normalize_box(obj.px_box, ann.width, ann.height)


# --- Perception tasks --------------------------------------------------------


def build_detection_record(ann: ImageAnnotation) -> InstructionRecord:
    """Detection record: every object, grouped by category.

    Response shape: ``There is/are M <|ref|>cat<|/ref|><|det|>[[...], ...]<|/det|>,
    ... in the image.`` with is/are chosen by the total object count and
    categories in first-appearance order.  Raises EmptyAnnotation when the
    image has no objects.
    """
    if not ann.objects:
        raise EmptyAnnotation(f"{ann.image_id}: no objects to detect")
    width, height = ann.width, ann.height
    parts = []
    lead = "There is " if len(ann.objects) == 1 else "There are "
    for category, objs in _group_by_category(ann.objects):
        boxes = [normalize_box(o.px_box, width, height) for o in objs]
        parts += (f"{lead}{len(objs)} ", Ref(category), Det(tuple(boxes)))
        lead = ", "
    return InstructionRecord((ann.image_id,), ann.modality, TaskType.DETECTION, DETECTION_PROMPT,
                             _markup(*parts, " in the image."))


def build_caption_record(ann: ImageAnnotation) -> InstructionRecord:
    """Short rule-based caption from object counts and size attributes.

    One sentence per category: ``There are 2 aircrafts in the image, which
    are small in size.``  The size clause appears only when every object of
    the category carries the same attribute.  Categories that differ only in
    case are one category under their first spelling, as the caption
    validator reads them.  Without objects the scene label backs a fallback
    sentence; without either the annotation is empty.
    """
    sentences = []
    for category, objs in _group_by_category(ann.objects, str.casefold):
        n = len(objs)
        verb = "is" if n == 1 else "are"
        sentence = f"There {verb} {n} {_plural(category, n)} in the image"
        shapes = {o.shape_attr for o in objs}
        if len(shapes) == 1 and None not in shapes:
            sentence += f", which {verb} {shapes.pop()} in size"
        sentences.append(sentence + ".")
    if not sentences:
        if ann.scene_label:
            sentences.append(f"The image shows a {ann.scene_label} scene.")
        else:
            raise EmptyAnnotation(f"{ann.image_id}: neither objects nor scene label")
    return InstructionRecord(
        image_refs=(ann.image_id,),
        modality=ann.modality,
        task=TaskType.CAPTION,
        prompt=CAPTION_PROMPT,
        response=_markup(" ".join(sentences)),
    )


def build_classification_record(ann: ImageAnnotation) -> InstructionRecord:
    if not ann.scene_label or not ann.scene_label.strip():
        raise EmptyLabel(f"{ann.image_id}: classification needs a scene label")
    return InstructionRecord(
        image_refs=(ann.image_id,),
        modality=ann.modality,
        task=TaskType.CLASSIFICATION,
        prompt=CLASSIFICATION_PROMPT,
        response=_markup(_sentence(ann.scene_label)),
    )


def build_vqa_record(
    question: str, answer: str, image_id: str, modality: Modality = Modality.OPT
) -> InstructionRecord:
    """VQA record: question as the prompt and answer, both parsed and emitted canonically.

    Malformed markup raises MarkupError; a question opening with a task marker is rejected.
    """
    if not question or not question.strip():
        raise EmptyLabel("VQA question must be non-empty")
    if not answer or not answer.strip():
        raise EmptyLabel("VQA answer must be non-empty")
    prompt = parse(question)
    problems = check_record(TaskType.VQA, prompt, None)
    if problems:
        raise InvariantViolation(problems[0])
    return InstructionRecord(
        image_refs=(image_id,),
        modality=modality,
        task=TaskType.VQA,
        prompt=_markup(*prompt.nodes),
        response=_markup(*parse(_sentence(answer)).nodes),
    )


# --- Reasoning tasks ---------------------------------------------------------


def build_relation_record(rel: RelationAnnotation, ann: ImageAnnotation) -> InstructionRecord:
    """Relation reasoning pair: subject named with its box, object by box only."""
    subj_box = _norm_object_box(rel.subject, ann)
    obj_box = _norm_object_box(rel.object, ann)
    prompt = _markup(
        Task(TaskKind.REASONING), "What is the relationship between ",
        Ref(rel.subject.category), Det((subj_box,)), " and the object in ", Det((obj_box,)),
        " in the image? And output their categories.",
    )
    response = _markup(
        f"subject: {rel.subject.category}, object: {rel.object.category}, ",
        f"the {rel.subject.category} is ", Rel(rel.relation), f" the {rel.object.category}.",
    )
    return InstructionRecord(
        image_refs=(ann.image_id,),
        modality=ann.modality,
        task=TaskType.RELATION,
        prompt=prompt,
        response=response,
    )


def _center_inside(box: Box, region: Box) -> bool:
    cx, cy = box.center()
    return region.x1 <= cx <= region.x2 and region.y1 <= cy <= region.y2


def build_decomposition_record(
    region: Box,
    ann: ImageAnnotation,
    relations: Sequence[RelationAnnotation] = (),
) -> InstructionRecord:
    """Four-step region analysis: direction, detection, relations, summary.

    Objects count as in-region when their normalized box center falls inside
    ``region`` (bounds inclusive); relations require both endpoints in-region.
    Step4 reports the number of distinct in-region categories and the number
    of Step3 relation clauses, so the record stays self-consistent under
    re-parsing.  An empty region is well-formed and reports zeros.
    """
    prompt = _markup(Task(TaskKind.DECOMPOSITION), "Analyze the region ", Det((region,)),
                     " of the image.")

    boxed = [(obj, _norm_object_box(obj, ann)) for obj in ann.objects]
    inside = [(obj, box) for obj, box in boxed if _center_inside(box, region)]
    groups = _group_by_category(obj for obj, _ in inside)
    box_of = {id(obj): box for obj, box in boxed}

    kept_relations = []
    for rel in relations:
        sbox = _norm_object_box(rel.subject, ann)
        obox = _norm_object_box(rel.object, ann)
        if _center_inside(sbox, region) and _center_inside(obox, region):
            kept_relations.append((rel, sbox, obox))

    total = len(inside)
    parts = [
        "Step1: Locate the target area: "
        f"The target area locates at the {region_direction(region)} of the image. ",
        f"Step2: Perform object detection: There are {total} entities in the target area",
    ]
    if total:
        parts.append(", including: ")
        for idx, (category, objs) in enumerate(groups):
            parts += (", " if idx else "", f"{len(objs)} ", Ref(category),
                      Det(tuple(box_of[id(o)] for o in objs)))
    parts.append(". ")

    m = len(kept_relations)
    parts.append(f"Step3: Perform relation analysis: There are {m} relations found")
    if m:
        parts.append(": ")
        for idx, (rel, sbox, obox) in enumerate(kept_relations):
            parts += ("; " if idx else "", Ref(rel.subject.category), Det((sbox,)), " is ",
                      Rel(rel.relation), " the ", Ref(rel.object.category), Det((obox,)))
        parts.append(";")
    else:
        parts.append(".")
    parts.append(f" Step4: Perform context summary: {len(groups)} object types with {m} interactions.")

    return InstructionRecord(
        image_refs=(ann.image_id,),
        modality=ann.modality,
        task=TaskType.DECOMPOSITION,
        prompt=prompt,
        response=_markup(*parts),
    )


def build_scheduling_record(scene: SceneRecord) -> InstructionRecord:
    """Flight-plan record: description and landmark into the prompt, four response steps."""
    prompt = _markup(
        Task(TaskKind.NAVIGATION),
        "You need to formulate a flight plan for a quadcopter based on this map, "
        "enabling it to fly over all the buildings and reach the destination. "
        f"The target location is described as follows: {scene.description}. "
        "The 3D coordinates of the landmark are as follows: ",
        Ref(scene.landmark_name), Pos(scene.landmark_pos),
        ". Your starting 3D coordinates and orientation angles are ", PoseSeq((scene.start_pose,)),
        ". You need to provide a series of 3D waypoints and attitude angles "
        "for the quadcopter to reach the target location.",
    )
    response = _markup(
        "Step 1: Extract basic information as follows: "
        f"Target: {scene.target_name}. Landmarks: {scene.landmark_name}. "
        f"Surroundings: {', '.join(scene.surroundings)}. "
        "Step 2: Get landmarks position: ",
        Ref(scene.landmark_name), Pos(scene.landmark_pos),
        ". Step 3: Get target position: ", Ref(scene.target_name), Pos(scene.target_pos),
        ". Step 4: Trajectory: ", PoseSeq(scene.trajectory), ".",
    )
    return InstructionRecord(
        image_refs=(scene.image_id,),
        modality=scene.modality,
        task=TaskType.SCHEDULING,
        prompt=prompt,
        response=response,
    )


def build_decision_record(
    start: Pose6,
    goal: Pose6,
    steps: Sequence[str],
    image_ids: Sequence[str],
    modality: Modality = Modality.OPT,
) -> InstructionRecord:
    """Pose-to-pose flight plan as a numbered step list.

    Response shape: ``Step1: <text>. Step2: <text>. ... Stepn: <text>.``
    Raises EmptySteps when no step descriptions are given.
    """
    steps = [s.strip() for s in steps]
    if not steps or any(not s for s in steps):
        raise EmptySteps("decision plan needs at least one non-empty step")
    prompt = _markup(Task(TaskKind.DECISION), "How to fly from position", PoseSeq((start,)),
                     " to position", PoseSeq((goal,)), ", and provide a detailed plan.")
    response = _markup(" ".join(f"Step{i}: {_sentence(s)}" for i, s in enumerate(steps, start=1)))
    return InstructionRecord(
        image_refs=tuple(image_ids),
        modality=modality,
        task=TaskType.DECISION,
        prompt=prompt,
        response=response,
    )


# --- Strict record rules -----------------------------------------------------

_TASK_MARKERS = {
    TaskType.SCHEDULING: TaskKind.NAVIGATION,
    TaskType.DECISION: TaskKind.DECISION,
    TaskType.DECOMPOSITION: TaskKind.DECOMPOSITION,
    TaskType.RELATION: TaskKind.REASONING,
}

_STEP2_RE = re.compile(r"Step2: Perform object detection: There are (\d+) entities in the target area")
_STEP3_RE = re.compile(r"Step3: Perform relation analysis: There are (\d+) relations found")
_STEP4_RE = re.compile(r"Step4: Perform context summary: (\d+) object types with (\d+) interactions\.")
_GROUP_COUNT_RE = re.compile(r"(\d+) $")


def _check_decomposition(doc: MarkupDoc) -> list[str]:
    """Cross-check the step scaffold of a decomposition response against itself.

    The builder writes the scaffold in Text nodes only, so Ref and Rel payloads
    that quote a step sentence are not read as one.
    """
    # no step pattern holds a newline, so no match spans two Text nodes
    text = "\n".join(node.value for node in doc.nodes if isinstance(node, Text))
    s2 = _STEP2_RE.search(text)
    s3 = _STEP3_RE.search(text)
    s4 = _STEP4_RE.search(text)
    if not (s2 and s3 and s4):
        return ["decomposition response missing the Step1..Step4 scaffold"]
    claimed_n = int(s2.group(1))
    claimed_m = int(s3.group(1))
    claimed_types, claimed_inter = int(s4.group(1)), int(s4.group(2))

    failures: list[str] = []
    section = 1
    names: list[str] = []
    total = 0
    rel_count = 0
    nodes = doc.nodes
    for i, node in enumerate(nodes):
        if isinstance(node, Text):
            for marker, sec in (("Step2:", 2), ("Step3:", 3), ("Step4:", 4)):
                if marker in node.value:
                    section = max(section, sec)
            continue
        if isinstance(node, Ref) and section == 2:
            prev = nodes[i - 1] if i else None
            nxt = nodes[i + 1] if i + 1 < len(nodes) else None
            count_match = _GROUP_COUNT_RE.search(prev.value) if isinstance(prev, Text) else None
            if count_match is None or not isinstance(nxt, Det):
                failures.append(
                    f"Step2 group {node.name!r} lacks a leading count or a box list"
                )
                continue
            count = int(count_match.group(1))
            names.append(node.name)
            total += count
            if count != len(nxt.boxes):
                failures.append(
                    f"Step2 claims {count} of {node.name!r} but lists {len(nxt.boxes)} boxes"
                )
        elif isinstance(node, Rel) and section == 3:
            rel_count += 1

    if total != claimed_n:
        failures.append(f"Step2 claims {claimed_n} entities but its groups add up to {total}")
    if rel_count != claimed_m:
        failures.append(f"Step3 claims {claimed_m} relations but lists {rel_count}")
    if claimed_types != len(set(names)):
        failures.append(
            f"Step4 claims {claimed_types} object types but Step2 names {len(set(names))}"
        )
    if claimed_inter != claimed_m:
        failures.append(f"Step4 claims {claimed_inter} interactions but Step3 found {claimed_m}")
    return failures


def check_record(task: TaskType, prompt: MarkupDoc | None, response: MarkupDoc | None) -> list[str]:
    """Problems with the task marker and, for decomposition, the step scaffold.

    ``prompt`` and ``response`` are the parsed fields of a record of ``task``;
    either is None when it did not parse, and its checks are skipped.
    """
    failures: list[str] = []
    if prompt is not None:
        first = prompt.nodes[0] if prompt.nodes else None
        expected = _TASK_MARKERS.get(task)
        if expected is not None:
            if not (isinstance(first, Task) and first.kind is expected):
                failures.append(f"prompt must open with <|{expected.value}|>")
        elif isinstance(first, Task):
            failures.append(f"unexpected marker <|{first.kind.value}|> on a {task.value} prompt")
    if task is TaskType.DECOMPOSITION and response is not None:
        failures.extend(_check_decomposition(response))
    return failures


# --- Direction grid ----------------------------------------------------------

_DIRECTION_GRID = (
    ("upper left", "upper", "upper right"),
    ("left", "center", "right"),
    ("lower left", "lower", "lower right"),
)


def _third(coord: float) -> int:
    # grid cell boundaries sit at 333 and 666
    if coord < 333:
        return 0
    if coord < 666:
        return 1
    return 2


def region_direction(box: Box) -> str:
    """Which of the nine image regions holds the box center."""
    cx, cy = box.center()
    return _DIRECTION_GRID[_third(cy)][_third(cx)]


# --- Caption validation ------------------------------------------------------

SIMILARITY_FRACTION = 0.8

_NUMBER_WORDS = {
    "a": 1, "an": 1, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11,
    "twelve": 12,
}

# categories and sizes are words of letters, digits, "_" and "-" (any script),
# joined by spaces: "baseball-diamond", "b52", "storage tank"
_CLAIM_RE = re.compile(
    r"\bthere (?:is|are) (\d+|[a-z]+) (\w[\w -]*?) in the (?:image|picture|scene)"
    r"(?:, which (?:is|are) (\w[\w -]*?) in size)?[.!]",
)


@dataclass(unsafe_hash=True)
class CaptionValidation:
    passed: bool
    failures: tuple[str, ...]


def _canon(term: str, table: Mapping[str, str]) -> str:
    return table.get(term, term)


def _terms_match(stated: str, actual: str, table: Mapping[str, str]) -> bool:
    # identity is always kept alongside table lookups, so growing the table
    # can only add matches, never remove one
    forms = {stated}
    if stated.endswith("s"):
        forms.add(stated[:-1])
    for form in forms:
        if (
            form == actual
            or _canon(form, table) == actual
            or form == _canon(actual, table)
            or _canon(form, table) == _canon(actual, table)
        ):
            return True
    return False


def validate_caption(
    caption: str,
    ann: ImageAnnotation,
    synonyms: Mapping[str, str] | None = None,
    score: float | None = None,
    benchmark: float | None = None,
) -> CaptionValidation:
    """Check a caption's stated object facts against the annotation.

    Every ``There is/are N <category> ...`` claim is checked for category
    presence, exact count, and (when a size clause is present) the size
    attribute, all up to the synonym table.  When ``score`` is given the
    caption must also reach ``SIMILARITY_FRACTION * benchmark``.  Claims the
    caption does not make are not required.
    """
    table = {k.casefold().strip(): v.casefold().strip() for k, v in (synonyms or {}).items()}
    failures: list[str] = []

    for count_raw, category, shape in _CLAIM_RE.findall(caption.casefold()):
        if count_raw.isdigit():
            count = int(count_raw)
        elif count_raw in _NUMBER_WORDS:
            count = _NUMBER_WORDS[count_raw]
        else:
            failures.append(f"count: cannot read quantity {count_raw!r}")
            continue
        category = category.strip()
        matched = [
            obj for obj in ann.objects if _terms_match(category, obj.category.casefold(), table)
        ]
        if not matched:
            failures.append(f"category: {category!r} not found in annotation")
            continue
        if count != len(matched):
            failures.append(
                f"count: caption states {count} {category!r}, annotation has {len(matched)}"
            )
        if shape:
            shape = shape.strip()
            bad = [
                obj for obj in matched
                if obj.shape_attr is None or not _terms_match(shape, obj.shape_attr.casefold(), table)
            ]
            if bad:
                failures.append(f"shape: {shape!r} does not match annotation for {category!r}")

    if score is not None:
        if benchmark is None or not benchmark > 0:
            raise InvariantViolation("similarity gate needs a positive benchmark")
        if score < SIMILARITY_FRACTION * benchmark:
            failures.append(
                f"similarity: score {score} below {SIMILARITY_FRACTION} x benchmark {benchmark}"
            )

    return CaptionValidation(passed=not failures, failures=tuple(failures))


# --- Tiling ------------------------------------------------------------------


@dataclass(unsafe_hash=True)
class TilingPlan:
    """How an image is cut for the encoder: m x n tiles plus one thumbnail.

    ``m`` counts tiles along the height, ``n`` along the width.
    """

    m: int
    n: int
    tile_count: int

    def __post_init__(self):
        m, n, count = self.m, self.n, self.tile_count
        if not (type(m) is int and type(n) is int and type(count) is int):
            _require("m", m, int)
            _require("n", n, int)
            _require("tile_count", count, int)
        if m < 1 or n < 1:
            raise InvariantViolation("tile counts must be at least 1")
        if m * n > MAX_TILES:
            raise InvariantViolation(f"tile grid {m} x {n} exceeds {MAX_TILES}")
        if count != m * n:
            raise InvariantViolation("tile_count must equal m * n")


def plan_tiling(height: int, width: int) -> TilingPlan:
    """Tile counts for an H x W image.

    Starts from the smallest multiples of 384 covering each side, then, while
    the grid exceeds 9 tiles, decrements the larger count (the height count on
    ties) until it fits.  Exact cover is kept whenever it is feasible.
    """
    _check_extent(height, width)  # argument order keeps the "H x W" wording
    m = math.ceil(height / TILE_SIZE)
    n = math.ceil(width / TILE_SIZE)
    while m * n > MAX_TILES:
        if m >= n:
            m -= 1
        else:
            n -= 1
    return TilingPlan(m=m, n=n, tile_count=m * n)
