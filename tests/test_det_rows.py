"""Malformed detection rows: the exact exit code and stderr line for each.

Each case corrupts one row of an ``eval detection`` predictions or
ground-truth file, or the one detection of an ``eval decomposition``
predictions row.  A rejected row exits 2 with one ``error:`` line naming the
row and the file; an accepted one exits 0 and scores exactly as its clean
spelling does.  A bad decomposition detection is named by its place in its
row's ``detections`` list.

The loader checks each row on one path and builds it once; a property test
holds that path to an oracle that checks field by field and then constructs
through the public constructors: the same detection, error and warning for
every single fault of a random row.
"""

import io
from contextlib import redirect_stderr

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import write_json
from helpers import det_row_checked
from rsvl.errors import ToolkitError
from rsvl.fileio import _det_keys, _det_row

PRED = {"image_id": "i", "category": "car", "box": [1, 2, 3, 4], "confidence": 0.5}
GT = {"image_id": "i", "category": "car", "box": [1, 2, 3, 4]}
DROP = object()

# (case, key, bad value, error message or None when the row is accepted)
CASES = [
    ("bool-coordinate", "box", [True, 2, 3, 4], "'box' must be an integer, got True"),
    ("float-coordinate", "box", [3.0, 2, 3, 4], "'box' must be an integer, got 3.0"),
    ("negative-coordinate", "box", [-1, 2, 3, 4], "coordinate -1 outside [0, 999]"),
    ("coordinate-1000", "box", [1, 2, 1000, 4], "coordinate 1000 outside [0, 999]"),
    ("inverted-box", "box", [3, 2, 1, 4], "box corners out of order: (3, 2, 1, 4)"),
    ("box-of-3", "box", [1, 2, 3], "'box' must be a list of 4 integers"),
    ("box-of-5", "box", [1, 2, 3, 4, 5], "'box' must be a list of 4 integers"),
    ("box-not-a-list", "box", "1,2,3,4", "'box' must be a list of 4 integers"),
    ("int-confidence", "confidence", 1, None),
    ("confidence-1.5", "confidence", 1.5, "confidence 1.5 outside [0, 1]"),
    ("nan-confidence", "confidence", float("nan"), "'confidence' must be finite, got nan"),
    ("infinite-confidence", "confidence", float("inf"), "'confidence' must be finite, got inf"),
    ("missing-key", "category", DROP, "missing key 'category'"),
    ("extra-key", "note", "x", None),
    ("int-category", "category", 7, "'category' must be a string, got int"),
    ("int-image-id", "image_id", 7, "'image_id' must be a string, got int"),
]


def _with(row: dict, key: str, value) -> dict:
    row = dict(row)
    if value is DROP:
        row.pop(key, None)
    else:
        row[key] = value
    return row


def _clean(key: str):
    """The well-formed spelling that an accepted bad value must score like."""
    return DROP if key == "note" else 1.0


def _detection_files(tmp_path, target: str, key: str, value):
    """(argv, path of the bad file); the mutated row is record 1 of its file.

    The other file is sized so that dropping the mutated row would change mAP.
    """
    if target == "preds":
        bad = write_json(tmp_path / "bad.json", [PRED, _with(PRED, key, value)])
        other = write_json(tmp_path / "gts.json", [GT, GT])
        return ("eval", "detection", "--preds", bad, "--gts", other, "--json"), bad
    bad = write_json(tmp_path / "bad.json", [GT, _with(GT, key, value)])
    other = write_json(tmp_path / "preds.json", [PRED])
    return ("eval", "detection", "--preds", other, "--gts", bad, "--json"), bad


def _decomposition_files(tmp_path, key: str, value):
    """(argv, path of the bad file); the mutated detection sits in record 0."""
    det = {k: v for k, v in PRED.items() if k != "image_id"}
    gt = {k: v for k, v in GT.items() if k != "image_id"}
    bad = write_json(tmp_path / "bad.json", [
        {"image_id": "i", "detections": [_with(det, key, value)], "triples": []},
    ])
    other = write_json(tmp_path / "gts.json", [
        {"image_id": "i", "detections": [gt, gt], "triples": []},
    ])
    return ("eval", "decomposition", "--preds", bad, "--gts", other, "--json"), bad


def _targets(key: str):
    targets = ["preds"]
    if key != "confidence":
        targets.append("gts")
    if key != "image_id":  # decomposition detections carry no image id of their own
        targets.append("decomposition")
    return targets


PARAMS = [
    pytest.param(target, key, value, message, id=f"{case}-{target}")
    for case, key, value, message in CASES
    for target in _targets(key)
]


def _files(tmp_path, target, key, value):
    if target == "decomposition":
        return _decomposition_files(tmp_path, key, value)
    return _detection_files(tmp_path, target, key, value)


@pytest.mark.parametrize("target,key,value,message", PARAMS)
def test_malformed_detection_row(target, key, value, message, tmp_path, run_cli):
    argv, bad = _files(tmp_path, target, key, value)
    code, stdout, err = run_cli(*argv)
    where = "record 0: detections[0]" if target == "decomposition" else "record 1"
    if message is not None:
        assert (code, stdout) == (2, "")
        assert err == f"error: {where}: {message} (in {bad})\n"
        return

    warning = f"warning: {where}: ignoring unknown key 'note'\n" if key == "note" else ""
    assert (code, err) == (0, warning)
    clean = tmp_path / "clean"
    clean.mkdir()
    clean_argv, _ = _files(clean, target, key, _clean(key))
    assert run_cli(*clean_argv) == (0, stdout, "")


def test_decomposition_names_the_bad_detection(tmp_path, run_cli):
    det = {k: v for k, v in PRED.items() if k != "image_id"}
    gt = {k: v for k, v in GT.items() if k != "image_id"}
    gts = write_json(tmp_path / "gts.json", [{"image_id": "i", "detections": [gt], "triples": []}])

    def run(third):
        preds = write_json(tmp_path / "preds.json", [
            {"image_id": "i", "detections": [det, det, third], "triples": []},
        ])
        return run_cli("eval", "decomposition", "--preds", preds, "--gts", gts, "--json"), preds

    (code, stdout, err), preds = run(_with(det, "box", [3, 2, 1, 4]))
    assert (code, stdout) == (2, "")
    assert err == f"error: record 0: detections[2]: box corners out of order: (3, 2, 1, 4) (in {preds})\n"

    (code, _, err), _ = run(_with(det, "note", "x"))
    assert (code, err) == (0, "warning: record 0: detections[2]: ignoring unknown key 'note'\n")


# --- the one check path against the checks one by one ---------------------------


_ODD = {
    "category": [7, None, ["car"]],
    "coordinate": [True, False, 3.0, -1, 1000, None],
    "confidence": [0, 1, True, 1.5, -0.5, float("nan"), float("inf"), "0.5", None],
}


def _single_faults(row: dict, keys):
    """``row`` with each fault a detection row can have worked in, one at a time."""
    for key in keys:
        yield {k: v for k, v in row.items() if k != key}
    yield {**row, "note": "x"}
    for value in _ODD["category"]:
        yield {**row, "category": value}
    box = row.get("box")
    if isinstance(box, list) and len(box) == 4:
        x1, y1, x2, y2 = box
        for i in range(4):
            for value in _ODD["coordinate"]:
                yield {**row, "box": [*box[:i], value, *box[i + 1:]]}
        for bad in ([x2, y1, x1, y2], [x1, y2, x2, y1], box[:3], [*box, 0], "1,2,3,4"):
            yield {**row, "box": bad}
    if "confidence" in keys:
        for value in _ODD["confidence"]:
            yield {**row, "confidence": value}


@st.composite
def det_rows(draw):
    with_confidence = draw(st.booleans())
    keys = _det_keys(with_confidence, draw(st.sampled_from([(), ("image_id",)])))
    x1, x2 = sorted(draw(st.lists(st.integers(0, 999), min_size=2, max_size=2)))
    y1, y2 = sorted(draw(st.lists(st.integers(0, 999), min_size=2, max_size=2)))
    full = {"image_id": "i", "category": "car", "box": [x1, y1, x2, y2],
            "confidence": draw(st.floats(0.0, 1.0))}
    return {k: full[k] for k in keys}, keys, with_confidence


def _outcome(parse, obj, keys, with_confidence):
    """(detection and its field types, or the error) and what went to stderr."""
    with redirect_stderr(io.StringIO()) as err:
        try:
            det = parse(obj, 0, keys, with_confidence)
            got = det, [type(v) for v in vars(det).values()], [type(v) for v in vars(det.box).values()]
        except ToolkitError as e:
            got = type(e), str(e)
    return got, err.getvalue()


@given(det_rows())
def test_one_test_path_builds_what_the_checks_build(row):
    row, keys, with_confidence = row
    for obj in (row, *_single_faults(row, keys)):
        assert (_outcome(_det_row, obj, keys, with_confidence)
                == _outcome(det_row_checked, obj, keys, with_confidence))


@pytest.mark.parametrize("row", [PRED, GT], ids=["prediction", "ground-truth"])
def test_two_faults_report_what_the_checks_report(row):
    """Every pair of faults in one row: the order of the checks picks the one reported."""
    with_confidence = "confidence" in row
    keys = _det_keys(with_confidence, ("image_id",))
    for first in _single_faults(row, keys):
        for obj in _single_faults(first, keys):
            assert (_outcome(_det_row, obj, keys, with_confidence)
                    == _outcome(det_row_checked, obj, keys, with_confidence))
