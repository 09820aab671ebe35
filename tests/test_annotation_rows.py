"""Malformed annotation rows: the exact exit code, errors and warnings of ``build``.

Each case corrupts one field of record 1 of a two-row ``build detection``
input (record 0 stays clean).  A rejected row exits 2 with one ``error:`` line
naming the row and the file; an accepted one exits 0, prints its warning, and
builds exactly the records its clean spelling builds.  Errors from the loader
and errors from the builder (pixel range, corner order, markup in a category)
come out alike.

The loader checks each row on one path and builds it once; a property test
holds that path to an oracle that checks field by field and then constructs
through the public constructors: the same annotation, error and warning for
every single fault of a random row.
"""

import copy
import io
import json
from contextlib import redirect_stderr

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import write_json
from helpers import parse_image_annotation_checked
from rsvl.errors import ToolkitError
from rsvl.fileio import _IMAGE_KEYS, _parse_image_annotation

BASE = {
    "image_id": "img", "width": 100, "height": 50, "modality": "ir", "scene_label": "port",
    "objects": [
        {"category": "ship", "box": [10, 5, 20, 15], "shape": "small"},
        {"category": "car", "box": [0, 0, 100, 50]},
    ],
}
DROP = object()
WARNING = "warning: record 1: ignoring unknown key 'note'"

# (case, path to the mutated field, bad value, expected error or warning line)
CASES = [
    ("row-not-an-object", (), 7, "expected an object, got int"),
    ("missing-image-id", ("image_id",), DROP, "missing key 'image_id'"),
    ("missing-width", ("width",), DROP, "missing key 'width'"),
    ("missing-height", ("height",), DROP, "missing key 'height'"),
    ("unknown-key", ("note",), "x", WARNING),
    ("unknown-object-key", ("objects", 1, "note"), "x", WARNING),
    ("int-image-id", ("image_id",), 1, "'image_id' must be a string, got int"),
    ("empty-image-id", ("image_id",), "", "image_id must be non-empty"),
    ("bool-width", ("width",), True, "'width' must be an integer, got True"),
    ("float-width", ("width",), 3.0, "'width' must be an integer, got 3.0"),
    ("zero-width", ("width",), 0, "image extent 0 x 50"),
    ("negative-width", ("width",), -1, "image extent -1 x 50"),
    ("string-width", ("width",), "9", "'width' must be an integer, got '9'"),
    ("zero-height", ("height",), 0, "image extent 100 x 0"),
    ("int-modality", ("modality",), 1, "'modality' must be a string, got int"),
    ("unknown-modality", ("modality",), "uv",
     "unknown modality 'uv' (expected one of ['opt', 'sar', 'ir'])"),
    ("list-modality", ("modality",), ["x"], "'modality' must be a string, got list"),
    ("null-objects", ("objects",), None, "'objects' must be a list"),
    ("object-objects", ("objects",), {}, "'objects' must be a list"),
    ("object-not-a-dict", ("objects", 1), 3, "expected an object, got int"),
    ("object-without-category", ("objects", 1, "category"), DROP, "missing key 'category'"),
    ("object-without-box", ("objects", 1, "box"), DROP, "missing key 'box'"),
    ("int-category", ("objects", 1, "category"), 1, "'category' must be a string, got int"),
    ("empty-category", ("objects", 1, "category"), "", "object category must be non-empty"),
    ("blank-category", ("objects", 1, "category"), "  ", "object category must be non-empty"),
    ("markup-category", ("objects", 1, "category"), "a<|b", "ref name contains '<|'"),
    ("box-of-3", ("objects", 1, "box"), [1, 2, 3], "'box' must be a list of 4 integers"),
    ("box-of-5", ("objects", 1, "box"), [1, 2, 3, 4, 5], "'box' must be a list of 4 integers"),
    ("box-not-a-list", ("objects", 1, "box"), "1,2,3,4", "'box' must be a list of 4 integers"),
    ("bool-coordinate", ("objects", 1, "box"), [True, 2, 3, 4], "'box' must be an integer, got True"),
    ("float-coordinate", ("objects", 1, "box"), [1, 2.0, 3, 4], "'box' must be an integer, got 2.0"),
    ("negative-coordinate", ("objects", 1, "box"), [-1, 2, 3, 4], "coordinate -1 outside [0, 100]"),
    ("x-beyond-width", ("objects", 1, "box"), [1, 2, 101, 4], "coordinate 101 outside [0, 100]"),
    ("y-beyond-height", ("objects", 1, "box"), [1, 2, 3, 51], "coordinate 51 outside [0, 50]"),
    ("corners-out-of-order", ("objects", 1, "box"), [5, 2, 3, 4],
     "box corners out of order: (5, 2, 3, 4)"),
    ("int-shape", ("objects", 1, "shape"), 1, "'shape' must be a string, got int"),
    ("int-scene-label", ("scene_label",), 1, "'scene_label' must be a string, got int"),
]


def _mutated(path: tuple, value):
    if not path:
        return value
    row = copy.deepcopy(BASE)
    *parents, last = path
    target = row
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return row


def _build(tmp_path, rows, *options):
    source = write_json(tmp_path / "in.json", rows)
    out = tmp_path / "out.jsonl"
    return source, out, ("build", "detection", source, "-o", out, *options)


def _diagnostics(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith(("error:", "warning:"))]


@pytest.mark.parametrize("path,value,line", [
    pytest.param(path, value, line, id=case) for case, path, value, line in CASES
])
def test_malformed_annotation_row(path, value, line, tmp_path, run_cli):
    source, out, argv = _build(tmp_path, [BASE, _mutated(path, value)])
    code, stdout, err = run_cli(*argv)
    if line != WARNING:
        assert (code, stdout) == (2, "")
        assert _diagnostics(err) == [f"error: record 1: {line} (in {source})"]
        assert not out.exists()
        return

    assert (code, stdout, _diagnostics(err)) == (0, "", [line])
    clean = tmp_path / "clean"
    clean.mkdir()
    _, clean_out, clean_argv = _build(clean, [BASE, BASE])
    assert run_cli(*clean_argv)[0] == 0
    assert out.read_bytes() == clean_out.read_bytes()


def test_first_bad_box_is_reported_in_category_order(tmp_path, run_cli):
    """Boxes map group by group, categories in first-appearance order."""
    row = {**BASE, "objects": [
        {"category": "ship", "box": [0, 0, 1, 1]},
        {"category": "car", "box": [0, 0, 101, 1]},
        {"category": "ship", "box": [0, 0, 102, 1]},
    ]}
    source, _, argv = _build(tmp_path, [row])
    code, _, err = run_cli(*argv)
    assert (code, _diagnostics(err)) == (
        2, [f"error: record 0: coordinate 102 outside [0, 100] (in {source})"])


def test_modality_option_applies_to_rows_without_one(tmp_path, run_cli):
    row = {k: v for k, v in BASE.items() if k != "modality"}
    _, out, argv = _build(tmp_path, [BASE, row], "--modality", "sar")
    code, _, err = run_cli(*argv)
    assert (code, _diagnostics(err)) == (0, [])
    assert [json.loads(line)["modality"] for line in out.read_text().splitlines()] == ["ir", "sar"]


def test_decomposition_image_takes_no_similarity_score(tmp_path, run_cli):
    image = {**BASE, "similarity_score": 0.5}
    source = write_json(tmp_path / "in.json", [{"image": image, "region": [0, 0, 50, 25]}])
    code, _, err = run_cli("build", "decomposition", source, "-o", tmp_path / "out.jsonl")
    assert (code, _diagnostics(err)) == (
        0, ["warning: record 0: ignoring unknown key 'similarity_score'"])


# --- the one check path against the checks one by one ---------------------------


_ODD = {
    "image_id": [1, "", None, ["x"]],
    "width": [True, 3.0, 0, -1, "9", None, 10**30],
    "height": [False, 2.0, 0, -5, ["9"]],
    "modality": [1, "uv", "SAR", ["x"], None],
    "scene_label": [1, None, ["x"]],
    "objects": [None, {}, "x", [3], [None], [[]]],
    "similarity_score": ["x", None],
    "category": [1, "", "  ", None, ["x"]],
    "box": [[1, 2, 3], [1, 2, 3, 4, 5], "1,2,3,4", (1, 2, 3, 4), [True, 2, 3, 4],
            [1, 2.0, 3, 4], [1, 2, 3, None], [-1, 2, 3, 4], [5, 2, 3, 4], [1, 2, 10**30, 4]],
    "shape": [1, None, ["x"]],
}


def _single_faults(row: dict):
    """``row`` with each fault an annotation row can have worked in, one at a time."""
    yield 7
    yield [row]
    yield {**row, "note": "x"}
    for key in ("image_id", "width", "height", "modality", "scene_label", "objects",
                "similarity_score"):
        if key in row:
            yield {k: v for k, v in row.items() if k != key}
        for value in _ODD[key]:
            yield {**row, key: value}
    objects = row.get("objects", [])
    for j, obj in enumerate(objects if isinstance(objects, list) else []):
        if not isinstance(obj, dict):
            continue

        def swap(new, j=j):
            return {**row, "objects": [*objects[:j], new, *objects[j + 1:]]}
        yield swap(5)
        yield swap({**obj, "note": "x"})
        for key in ("category", "box", "shape"):
            if key in obj:
                yield swap({k: v for k, v in obj.items() if k != key})
            for value in _ODD[key]:
                yield swap({**obj, key: value})


_BOX = st.lists(st.integers(0, 4000), min_size=4, max_size=4)
_OBJECT = st.fixed_dictionaries(
    {"category": st.sampled_from(["ship", "storage tank", " car ", "Übergang"]), "box": _BOX},
    optional={"shape": st.sampled_from(["small", "large", ""])},
)


@st.composite
def annotation_rows(draw):
    row = draw(st.fixed_dictionaries(
        {"image_id": st.sampled_from(["img", "a b", "路口"]),
         "width": st.integers(1, 4000), "height": st.integers(1, 4000)},
        optional={"modality": st.sampled_from(["opt", "sar", "ir"]),
                  "scene_label": st.sampled_from([None, "harbor", ""]),
                  "objects": st.lists(_OBJECT, max_size=3),
                  "similarity_score": st.floats(0, 1)},
    ))
    extra = draw(st.sampled_from([(), ("similarity_score",)]))
    return row, extra, draw(st.sampled_from(["opt", "sar", "ir"]))


def _types(value):
    if isinstance(value, tuple):
        return tuple(_types(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return type(value), {k: _types(v) for k, v in vars(value).items()}
    return type(value)


def _outcome(parse, obj, *args):
    """(annotation and its field types, or the error) and what went to stderr."""
    with redirect_stderr(io.StringIO()) as err:
        try:
            ann = parse(obj, 0, *args)
            got = ann, _types(ann)
        except ToolkitError as e:
            got = type(e), str(e)
    return got, err.getvalue()


@given(annotation_rows())
def test_one_test_path_builds_what_the_checks_build(drawn):
    row, extra, default_modality = drawn
    keys = _IMAGE_KEYS.union(extra)
    for obj in (row, *_single_faults(row)):
        assert (_outcome(_parse_image_annotation, obj, keys, default_modality)
                == _outcome(parse_image_annotation_checked, obj, extra, default_modality))


def test_two_faults_report_what_the_checks_report():
    """Every pair of faults in one row: the order of the checks picks the one reported."""
    row = {**BASE, "similarity_score": 0.5}
    for first in _single_faults(row):
        for obj in _single_faults(first) if isinstance(first, dict) else ():
            assert (_outcome(_parse_image_annotation, obj, _IMAGE_KEYS, "opt")
                    == _outcome(parse_image_annotation_checked, obj, (), "opt"))
