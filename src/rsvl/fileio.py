"""File formats: instruction-record JSONL, annotation JSON, weight and curve files.

Records travel as UTF-8 JSONL with LF line endings, one object per line with
exactly the keys image_refs, modality, task, prompt, response (in that
order when written here).  Annotation and evaluation inputs are JSON arrays;
decoder weights are a single JSON object.  Full layouts with examples live in
docs/formats.md.

Loaders raise SchemaError pointing at the offending record index and input
file for any structural problem and print a warning to stderr for keys they
do not know, so that a typo in an optional key does not silently drop data.

Record lines, image annotations and detection rows are checked field by field
in one fixed order; the first fault raises.  A loader checks the JSON types;
the row's public constructor, run once, checks the values it holds.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .builders import (
    ImageAnnotation,
    InstructionRecord,
    ObjectAnnotation,
    RelationAnnotation,
    SceneRecord,
    TaskType,
)
from .errors import SchemaError, ToolkitError
from .markup import Box, Modality, Pos3, Pose6
from .metrics import DetGroundTruth, DetPrediction, RelationTriple

if TYPE_CHECKING:  # numpy and the decoder load with the first weight, latent or target file
    import numpy as np

    from .trajectory import DecoderConfig, DecoderWeights

__all__ = [
    "RECORD_KEYS",
    "record_to_dict",
    "write_records",
    "read_record_lines",
    "parse_record_line",
    "load_image_annotations",
    "load_vqa_items",
    "load_relation_items",
    "load_decomposition_items",
    "load_decision_items",
    "load_scene_records",
    "load_det_predictions",
    "load_det_ground_truth",
    "load_triple_file",
    "load_decomposition_eval",
    "load_text_eval",
    "load_similarity_scores",
    "TextEvalRow",
    "load_path_predictions",
    "load_nav_ground_truth",
    "save_weights",
    "load_weights",
    "load_latent",
    "load_targets",
    "write_loss_curve",
    "VqaItem",
    "DecompositionItem",
    "DecisionItem",
]

RECORD_KEYS = ("image_refs", "modality", "task", "prompt", "response")
_RECORD_KEY_SET = frozenset(RECORD_KEYS)
_MODALITIES = {m.value: m for m in Modality}
_TASK_TYPES = {t.value: t for t in TaskType}


# --- Structural helpers -------------------------------------------------------
#
# They raise SchemaError without a record index: ``_wrap`` adds it.  Only the
# unknown-key warning, printed rather than raised, takes the index itself.


def _require_keys(
    obj: dict,
    required: Sequence[str],
    optional: Sequence[str],
    index: int | str | None,
    *,
    reject_unknown: bool = False,
):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            if reject_unknown:
                raise SchemaError(f"unknown key {key!r}")
            print(f"warning: record {index}: ignoring unknown key {key!r}", file=sys.stderr)


def _as_str(obj: dict, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise SchemaError(f"{key!r} must be a string, got {type(value).__name__}")
    return value


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _as_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # nan, inf, or an int beyond floats
        raise SchemaError(f"{what} must be finite, got {value!r}")
    return float(value)


def _as_str_list(obj: dict, key: str, *, allow_empty=True) -> tuple[str, ...]:
    value = obj[key]
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise SchemaError(f"{key!r} must be a list of strings")
    if not value and not allow_empty:
        raise SchemaError(f"{key!r} must not be empty")
    return tuple(value)


def _as_numbers(value, what: str, arity: int) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != arity:
        raise SchemaError(f"{what} must be a list of {arity} numbers")
    return tuple(_as_number(v, what) for v in value)


def _as_int4(value, what: str) -> tuple[int, int, int, int]:
    if not isinstance(value, list) or len(value) != 4:
        raise SchemaError(f"{what} must be a list of 4 integers")
    return tuple(_as_int(v, what) for v in value)


def _modality(obj: dict, default: str = "opt") -> Modality:
    raw = obj.get("modality", default)
    if type(raw) is str and raw in _MODALITIES:
        return _MODALITIES[raw]
    if not isinstance(raw, str):
        raise SchemaError(f"'modality' must be a string, got {type(raw).__name__}")
    raise SchemaError(f"unknown modality {raw!r} (expected one of {list(_MODALITIES)})")


class _wrap:
    """Context manager: re-raise a toolkit error naming no record as a SchemaError for ``index``."""

    __slots__ = ("index",)

    def __init__(self, index: int | None):
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, ToolkitError) and getattr(exc, "index", None) is None:
            raise SchemaError(str(exc), self.index) from exc
        return False


def _loads(text: str, parse_constant=None):
    """``json.loads`` with bad syntax, over-long integers and deep nesting as SchemaError.

    A SchemaError raised by a ``parse_constant`` hook propagates unchanged.
    """
    try:
        return json.loads(text, parse_constant=parse_constant)
    except SchemaError:
        raise
    except (ValueError, RecursionError) as e:
        raise SchemaError(f"invalid JSON: {e}") from None


def _read_text(path: str | Path) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise SchemaError(str(e)) from None


def _read_json(path: str | Path, parse_constant=None):
    return _loads(_read_text(path), parse_constant)


def _names_file(load):
    """Decorate a loader of ``path``: its toolkit errors become SchemaErrors naming the file."""

    @functools.wraps(load)
    def named(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except ToolkitError as e:
            error = e if isinstance(e, SchemaError) else SchemaError(str(e))
            error.path = str(path)
            raise error

    return named


def _each(fn, items) -> list:
    """``fn(item, i)`` for each item; a toolkit error naming no record names item ``i``."""
    out = []
    try:
        for i, item in enumerate(items):
            out.append(fn(item, i))
    except ToolkitError:
        with _wrap(i):  # only the failing item pays for a context manager
            raise
    return out


@_names_file
def _rows(path: str | Path, what: str, parse_row) -> list:
    """``parse_row(obj, i)`` for each row of the JSON array at ``path``; errors name row ``i``."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise SchemaError(f"{what} file must hold a JSON array, got {type(data).__name__}")
    return _each(parse_row, data)


# --- Instruction records --------------------------------------------------------


def record_to_dict(record: InstructionRecord) -> dict:
    return {
        "image_refs": list(record.image_refs),
        "modality": record.modality.value,
        "task": record.task.value,
        "prompt": record.prompt,
        "response": record.response,
    }


def write_records(path: str | Path, records: Iterable[InstructionRecord]) -> None:
    """Write ``records`` to the file at ``path``, one JSONL line each, LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_dict(rec), ensure_ascii=False))
            fh.write("\n")


def parse_record_line(line: str | bytes) -> InstructionRecord:
    """One JSONL line to a record; any fault, the record constructor's included, is a SchemaError.

    ``line`` may end in the CR of a CRLF line end.  A line given as bytes
    is decoded first, and one that is not UTF-8 fails with the byte offset of
    the first bad byte.
    """
    with _wrap(None):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as e:
                raise SchemaError(f"invalid UTF-8: {e.reason} (byte offset {e.start})") from None
        if line.endswith("\r"):
            line = line[:-1]
        if not line:
            raise SchemaError("blank line in record stream")
        obj = _loads(line)  # a bad line is one record's failure, not the file's
        if type(obj) is not dict or obj.keys() != _RECORD_KEY_SET:
            _require_keys(obj, RECORD_KEYS, (), None, reject_unknown=True)
        refs, modality, task = obj["image_refs"], obj["modality"], obj["task"]
        prompt, response = obj["prompt"], obj["response"]
        if type(refs) is not list or not refs or not all(type(r) is str for r in refs):
            _as_str_list(obj, "image_refs", allow_empty=False)
        if type(modality) is not str or modality not in _MODALITIES:
            _modality(obj)
        if type(task) is not str or task not in _TASK_TYPES:
            raise SchemaError(f"unknown task {_as_str(obj, 'task')!r}")
        if type(prompt) is not str or type(response) is not str:
            _as_str(obj, "prompt"), _as_str(obj, "response")  # words the first fault
        return InstructionRecord(tuple(refs), _MODALITIES[modality], _TASK_TYPES[task], prompt, response)


def _decoded(raw: bytes) -> str | bytes:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw


@_names_file
def read_record_lines(path: str | Path) -> list[str | bytes]:
    """JSONL lines split at each LF and nowhere else; a final empty line is dropped.

    A line keeps the CR of a CRLF line end.  A line that is not UTF-8
    stays bytes, to fail as its own record in ``parse_record_line``; a file in
    which no non-blank line is UTF-8 is not a record stream and raises
    SchemaError.
    """
    data = Path(path).read_bytes()
    try:
        lines: list = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as e:
        lines = [_decoded(raw) for raw in data.split(b"\n")]
        if not any(isinstance(line, str) and line for line in lines):
            raise SchemaError(str(e)) from None
    if lines[-1] == "":
        lines.pop()
    return lines


# --- Annotation inputs ------------------------------------------------------------


_IMAGE_REQUIRED = ("image_id", "width", "height")
_IMAGE_REQUIRED_SET = frozenset(_IMAGE_REQUIRED)
_IMAGE_KEYS = _IMAGE_REQUIRED_SET | {"modality", "objects", "scene_label"}
_SCORED_IMAGE_KEYS = _IMAGE_KEYS | {"similarity_score"}
_OBJECT_REQUIRED = frozenset(("category", "box"))
_OBJECT_KEYS = _OBJECT_REQUIRED | {"shape"}


def _parse_objects(values, index: int) -> tuple[ObjectAnnotation, ...]:
    """Object rows, each checked key by key, then box, shape and category; the first fault raises."""
    built = []
    for obj in values:
        if type(obj) is not dict or not _OBJECT_REQUIRED <= obj.keys() <= _OBJECT_KEYS:
            _require_keys(obj, ("category", "box"), ("shape",), index)
        category, box = obj["category"], obj["box"]
        x1, y1, x2, y2 = box if type(box) is list and len(box) == 4 else _as_int4(box, "'box'")
        if not (type(x1) is int and type(y1) is int and type(x2) is int and type(y2) is int):
            _as_int4(box, "'box'")
        shape = obj.get("shape")
        if shape is not None and type(shape) is not str:
            raise SchemaError(f"'shape' must be a string, got {type(shape).__name__}")
        if type(category) is not str:
            _as_str(obj, "category")
        built.append(ObjectAnnotation(category, (x1, y1, x2, y2), shape))
    return tuple(built)


def _parse_image_annotation(obj, index: int, keys: frozenset, default_modality: str) -> ImageAnnotation:
    """One image annotation; a key outside ``keys`` draws a warning, the first fault raises."""
    if type(obj) is not dict or not _IMAGE_REQUIRED_SET <= obj.keys() <= keys:
        _require_keys(obj, _IMAGE_REQUIRED, keys, index)
    image_id, width, height = obj["image_id"], obj["width"], obj["height"]
    objects, scene = obj.get("objects", []), obj.get("scene_label")
    if type(objects) is not list:
        raise SchemaError("'objects' must be a list")
    if scene is not None and type(scene) is not str:
        raise SchemaError(f"'scene_label' must be a string, got {type(scene).__name__}")
    if type(image_id) is not str:
        _as_str(obj, "image_id")
    modality = _modality(obj, default_modality)
    if type(width) is not int or type(height) is not int:
        _as_int(width, "'width'"), _as_int(height, "'height'")  # words the first fault
    return ImageAnnotation(image_id, modality, width, height, _parse_objects(objects, index), scene)


def load_image_annotations(
    path: str | Path, default_modality: str = "opt"
) -> list[ImageAnnotation]:
    """Detection / caption / classification input: one entry per image."""
    return _rows(path, "annotation", lambda obj, i: _parse_image_annotation(
        obj, i, _SCORED_IMAGE_KEYS, default_modality))


def load_similarity_scores(path: str | Path) -> list[float | None]:
    """Each annotation's similarity_score from the same file, in row order; None where absent."""
    def score(obj, i):
        if isinstance(obj, dict) and "similarity_score" in obj:
            return _as_number(obj["similarity_score"], "'similarity_score'")
        return None

    return _rows(path, "annotation", score)


class VqaItem(NamedTuple):  # fields in the argument order of build_vqa_record
    question: str
    answer: str
    image_id: str
    modality: Modality


def load_vqa_items(path: str | Path, default_modality: str = "opt") -> list[VqaItem]:
    def item(obj, i):
        _require_keys(obj, ("image_id", "question", "answer"), ("modality",), i)
        return VqaItem(
            image_id=_as_str(obj, "image_id"),
            question=_as_str(obj, "question"),
            answer=_as_str(obj, "answer"),
            modality=_modality(obj, default_modality),
        )

    return _rows(path, "vqa", item)


def load_relation_items(
    path: str | Path, default_modality: str = "opt"
) -> list[tuple[RelationAnnotation, ImageAnnotation]]:
    """Relation input: subject and object boxes in pixels on a named image."""
    def item(obj, i):
        _require_keys(obj, ("image_id", "width", "height", "subject", "object", "relation"),
                      ("modality",), i)
        subject, target = _parse_objects((obj["subject"], obj["object"]), i)
        ann = ImageAnnotation(
            image_id=_as_str(obj, "image_id"),
            modality=_modality(obj, default_modality),
            width=_as_int(obj["width"], "'width'"),
            height=_as_int(obj["height"], "'height'"),
            objects=(subject, target),
        )
        rel = RelationAnnotation(subject=subject, object=target, relation=_as_str(obj, "relation"))
        return rel, ann

    return _rows(path, "relation", item)


class DecompositionItem(NamedTuple):
    annotation: ImageAnnotation
    region_px: tuple[int, int, int, int]
    relations: tuple[RelationAnnotation, ...]


def load_decomposition_items(
    path: str | Path, default_modality: str = "opt"
) -> list[DecompositionItem]:
    """Decomposition input: an image annotation, a pixel region, object-index relations."""
    def item(obj, i):
        _require_keys(obj, ("image", "region"), ("relations",), i)
        ann = _parse_image_annotation(obj["image"], i, _IMAGE_KEYS, default_modality)
        region = _as_int4(obj["region"], "'region'")
        raw_rels = obj.get("relations", [])
        if not isinstance(raw_rels, list):
            raise SchemaError("'relations' must be a list")
        relations = []
        for rel in raw_rels:
            _require_keys(rel, ("subject", "object", "relation"), (), i)
            s = _as_int(rel["subject"], "'subject'")
            o = _as_int(rel["object"], "'object'")
            for idx in (s, o):
                if not 0 <= idx < len(ann.objects):
                    raise SchemaError(
                        f"relation object index {idx} outside 0..{len(ann.objects) - 1}"
                    )
            relations.append(RelationAnnotation(
                subject=ann.objects[s],
                object=ann.objects[o],
                relation=_as_str(rel, "relation"),
            ))
        return DecompositionItem(ann, region, tuple(relations))

    return _rows(path, "decomposition", item)


class DecisionItem(NamedTuple):
    start: Pose6
    goal: Pose6
    steps: tuple[str, ...]
    image_ids: tuple[str, ...]
    modality: Modality


def load_decision_items(path: str | Path, default_modality: str = "opt") -> list[DecisionItem]:
    def item(obj, i):
        _require_keys(obj, ("start", "goal", "steps", "image_ids"), ("modality",), i)
        return DecisionItem(
            start=Pose6(*_as_numbers(obj["start"], "'start'", 6)),
            goal=Pose6(*_as_numbers(obj["goal"], "'goal'", 6)),
            steps=_as_str_list(obj, "steps", allow_empty=False),
            image_ids=_as_str_list(obj, "image_ids", allow_empty=False),
            modality=_modality(obj, default_modality),
        )

    return _rows(path, "decision", item)


def load_scene_records(path: str | Path, default_modality: str = "opt") -> list[SceneRecord]:
    def item(obj, i):
        _require_keys(
            obj,
            ("image_id", "description", "landmark_name", "landmark_pos",
             "target_name", "target_pos", "surroundings", "trajectory"),
            ("modality", "start_pose"),
            i,
        )
        raw_traj = obj["trajectory"]
        if not isinstance(raw_traj, list) or not raw_traj:
            raise SchemaError("'trajectory' must be a non-empty list of pose rows")
        start = obj.get("start_pose")
        return SceneRecord(
            image_id=_as_str(obj, "image_id"),
            modality=_modality(obj, default_modality),
            description=_as_str(obj, "description"),
            landmark_name=_as_str(obj, "landmark_name"),
            landmark_pos=Pos3(*_as_numbers(obj["landmark_pos"], "'landmark_pos'", 3)),
            target_name=_as_str(obj, "target_name"),
            target_pos=Pos3(*_as_numbers(obj["target_pos"], "'target_pos'", 3)),
            surroundings=_as_str_list(obj, "surroundings"),
            trajectory=tuple(Pose6(*_as_numbers(row, "'trajectory' row", 6)) for row in raw_traj),
            start_pose=None if start is None else Pose6(*_as_numbers(start, "'start_pose'", 6)),
        )

    return _rows(path, "scene", item)


# --- Evaluation inputs ---------------------------------------------------------


def _det_keys(with_confidence: bool, id_keys: Sequence[str] = ()) -> dict[str, None]:
    """The keys of a detection row in check order: string ids, then the detection's own."""
    return dict.fromkeys((*id_keys, "category", "box", *(("confidence",) if with_confidence else ())))


def _det_row(obj, index: int | str, keys: dict[str, None], with_confidence: bool):
    """One detection: a DetPrediction with ``with_confidence``, else a DetGroundTruth.

    ``index`` names the row in the unknown-key warning: the record index, or
    ``"N: detections[J]"`` for a detection inside record N.  The checks run in
    the order of ``keys``, and the first fault raises; the caller checks the ids.
    """
    if type(obj) is not dict or obj.keys() != keys.keys():
        _require_keys(obj, keys, (), index)
    category, box = obj["category"], obj["box"]
    if type(category) is not str:
        _as_str(obj, "category")
    x1, y1, x2, y2 = box if type(box) is list and len(box) == 4 else _as_int4(box, "'box'")
    if not (type(x1) is int and type(y1) is int and type(x2) is int and type(y2) is int):
        _as_int4(box, "'box'")  # words the fault
    box = Box(x1, y1, x2, y2)
    if not with_confidence:
        return DetGroundTruth(category, box)
    confidence = obj["confidence"]
    if not (type(confidence) is float and 0.0 <= confidence <= 1.0):
        confidence = _as_number(confidence, "'confidence'")
    return DetPrediction(category, box, confidence)


def _load_det_rows(path: str | Path, what: str, with_confidence: bool) -> dict[str, list]:
    keys = _det_keys(with_confidence, ("image_id",))
    out: dict[str, list] = {}

    def row(obj, i):
        det, image_id = _det_row(obj, i, keys, with_confidence), obj["image_id"]
        out.setdefault(image_id if type(image_id) is str else _as_str(obj, "image_id"), []).append(det)

    _rows(path, what, row)
    return out


def load_det_predictions(path: str | Path) -> dict[str, list[DetPrediction]]:
    """Detection predictions: grid boxes with confidences, grouped by image id."""
    return _load_det_rows(path, "prediction", True)


def load_det_ground_truth(path: str | Path) -> dict[str, list[DetGroundTruth]]:
    return _load_det_rows(path, "ground-truth", False)


def _load_keyed(path: str | Path, what: str, id_key: str, keys: Sequence[str], parse,
                optional: Sequence[str] = ()) -> dict:
    """One ``parse(obj, index)`` result per row, keyed by the row's unique ``id_key``."""
    out: dict = {}

    def row(obj, i):
        _require_keys(obj, (id_key, *keys), optional, i)
        key = _as_str(obj, id_key)
        if key in out:
            raise SchemaError(f"duplicate {id_key} {key!r}")
        out[key] = parse(obj, i)

    _rows(path, what, row)
    return out


def _as_triples(value) -> tuple[RelationTriple, ...]:
    if not isinstance(value, list):
        raise SchemaError("'triples' must be a list")
    triples = []
    for row in value:
        if not isinstance(row, list) or len(row) != 3 or any(not isinstance(v, str) for v in row):
            raise SchemaError("each triple must be [subject, relation, object] strings")
        triples.append(RelationTriple(subject_cat=row[0], relation=row[1], object_cat=row[2]))
    return tuple(triples)


def load_triple_file(path: str | Path) -> dict[str, tuple[RelationTriple, ...]]:
    """Relation eval input: one entry per image with its triple list."""
    return _load_keyed(path, "triples", "image_id", ("triples",),
                       lambda obj, i: _as_triples(obj["triples"]))


def load_decomposition_eval(
    path: str | Path, with_confidence: bool
) -> tuple[dict[str, list], dict[str, tuple[RelationTriple, ...]]]:
    """Decomposition eval rows: per-image detections plus triples.

    With ``with_confidence`` the detections parse as predictions, otherwise as
    ground truth.
    """
    keys = _det_keys(with_confidence)

    def parse(obj, i):
        dets = obj["detections"]
        if not isinstance(dets, list):
            raise SchemaError("'detections' must be a list")
        rows = []
        for j, det in enumerate(dets):
            try:
                rows.append(_det_row(det, f"{i}: detections[{j}]", keys, with_confidence))
            except ToolkitError as e:
                raise SchemaError(f"detections[{j}]: {e}") from e
        return rows, _as_triples(obj["triples"])

    rows = _load_keyed(path, "decomposition eval", "image_id", ("detections", "triples"), parse)
    return {k: v[0] for k, v in rows.items()}, {k: v[1] for k, v in rows.items()}


class TextEvalRow(NamedTuple):
    value: object  # str, or tuple[str, ...] when loaded with as_list
    question_type: str | None


def load_text_eval(
    path: str | Path, value_key: str, *, as_list: bool
) -> dict[str, TextEvalRow]:
    """Generic id-to-text loader for caption/classification/vqa/decision eval files.

    ``value_key`` names the payload field; with ``as_list`` it must be a
    non-empty list of strings (a reference set), otherwise a single string.
    """
    def parse(obj, i):
        if as_list:
            value: object = _as_str_list(obj, value_key, allow_empty=False)
        else:
            value = _as_str(obj, value_key)
        qtype = _as_str(obj, "question_type") if "question_type" in obj else None
        return TextEvalRow(value, qtype)

    return _load_keyed(path, value_key, "id", (value_key,), parse, ("question_type",))


def _path_points(obj, i) -> tuple[Pos3, ...]:
    rows = obj["path"]
    if not isinstance(rows, list) or not rows:
        raise SchemaError("'path' must be a non-empty list of waypoints")
    points = []
    for row in rows:
        if not isinstance(row, list) or len(row) not in (3, 6):
            raise SchemaError("each waypoint must list 3 coordinates (or a 6-number pose)")
        points.append(Pos3(*[_as_number(v, "'path'") for v in row][:3]))
    return tuple(points)


def load_path_predictions(path: str | Path) -> dict[str, tuple[Pos3, ...]]:
    """Flight-plan eval predictions: id plus waypoint rows of 3 (or 6) numbers."""
    return _load_keyed(path, "path", "id", ("path",), _path_points)


def _nav_goal(obj, i) -> tuple[Pos3, float]:
    goal = Pos3(*_as_numbers(obj["goal"], "'goal'", 3))
    length = _as_number(obj["shortest_path_length"], "'shortest_path_length'")
    if length < 0:
        raise SchemaError(f"'shortest_path_length' must be non-negative, got {length!r}")
    return goal, length


def load_nav_ground_truth(path: str | Path) -> dict[str, tuple[Pos3, float]]:
    """Flight-plan eval ground truth: goal position and shortest path length per id."""
    return _load_keyed(path, "navigation ground-truth", "id", ("goal", "shortest_path_length"),
                       _nav_goal)


# --- Decoder weights, latents, targets, curves -----------------------------------


def save_weights(path: str | Path, weights: DecoderWeights, cfg: DecoderConfig) -> None:
    from .trajectory import PARAM_FIELDS

    weights.check(cfg)
    payload: dict = {"d_e": cfg.d_e, "d_h": cfg.d_h}
    for name in PARAM_FIELDS:
        payload[name] = getattr(weights, name).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _reject_constant(token: str):
    raise SchemaError(f"non-finite number {token!r} in weight file")


@_names_file
def load_weights(path: str | Path) -> tuple[DecoderWeights, int, int]:
    """Read a weight file back as (weights, d_e, d_h), validating shapes."""
    import numpy as np

    from .trajectory import PARAM_FIELDS, DecoderConfig, DecoderWeights

    weight_keys = ("d_e", "d_h") + PARAM_FIELDS
    data = _read_json(path, _reject_constant)
    if not isinstance(data, dict):
        raise SchemaError("weight file must hold a JSON object")
    missing = [k for k in weight_keys if k not in data]
    extra = [k for k in data if k not in weight_keys]
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing keys: " + ", ".join(missing))
        if extra:
            parts.append("unexpected keys: " + ", ".join(extra))
        raise SchemaError("; ".join(parts))
    d_e = _as_int(data["d_e"], "'d_e'")
    d_h = _as_int(data["d_h"], "'d_h'")
    if d_e < 1 or d_h < 1:
        raise SchemaError(f"dimensions must be positive, got d_e={d_e}, d_h={d_h}")
    arrays = {}
    for name in PARAM_FIELDS:
        try:
            arr = np.asarray(data[name], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as e:
            raise SchemaError(f"{name}: {e}") from None
        if not np.all(np.isfinite(arr)):
            raise SchemaError(f"{name}: contains non-finite values")
        arrays[name] = arr
    weights = DecoderWeights(**arrays)
    weights.check(DecoderConfig(d_e=d_e, d_h=d_h, max_steps=1))
    return weights, d_e, d_h


@_names_file
def load_latent(path: str | Path) -> np.ndarray:
    """Trajectory embedding: a JSON array of finite numbers."""
    import numpy as np

    values = _rows(path, "latent", lambda v, i: _as_number(v, "latent entry"))
    if not values:
        raise SchemaError("latent file must hold at least one number")
    return np.array(values)


def _target_row(row, i) -> tuple[float, ...]:
    values = _as_numbers(row, "target row", 6)
    for v in values:
        if not 0.0 < v < 1.0:
            raise SchemaError(f"target component {v!r} outside the open interval (0, 1)")
    return values


@_names_file
def load_targets(path: str | Path) -> np.ndarray:
    """Target states: rows of 6 numbers, each strictly inside (0, 1)."""
    import numpy as np

    rows = _rows(path, "target", _target_row)
    if not rows:
        raise SchemaError("target file must hold at least one state row")
    return np.array(rows)


def write_loss_curve(path: str | Path, curve: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,loss\n")
        for i, loss in enumerate(curve):
            fh.write(f"{i},{float(loss)!r}\n")
