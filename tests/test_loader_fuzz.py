"""Front-door fuzz: arbitrary JSON values as the rows of the row loaders' inputs.

Each row of a ``build detection`` annotation file, an ``eval detection``
predictions or ground-truth file, or a ``validate --strict`` record stream is
drawn as any JSON value, most often as an object with the row kind's own keys
holding arbitrary values.  Whatever the rows, the CLI exits 0, 1 or 2, prints
no traceback and no internal error, and every ``error:`` line names the input
file; an error in a row names that row's ``record N``.
"""

import json
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_json

SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10, 1010) | st.just(-10**400)
           | st.floats() | st.text(max_size=6) | st.sampled_from(["opt", "sar", "caption", ""]))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=6)
                      | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=12)
BOXES = st.lists(st.integers(-2, 1001) | VALUES, min_size=4, max_size=4)


def _rows(keys, special=st.nothing()):
    """Any JSON value, or an object with some of ``keys`` (and now and then another key)."""
    field = st.sampled_from(keys) | st.text(max_size=4)
    obj = st.dictionaries(field, VALUES | special, max_size=len(keys) + 1)
    return st.lists(obj | obj | VALUES, max_size=4)


OBJECTS = st.lists(st.fixed_dictionaries({"category": st.text(max_size=4) | VALUES, "box": BOXES},
                                         optional={"shape": VALUES}) | VALUES, max_size=3)
ANNOTATION_ROWS = _rows(("image_id", "width", "height", "modality", "objects", "scene_label",
                         "similarity_score"), BOXES | OBJECTS)
DET_ROWS = _rows(("image_id", "category", "box", "confidence"), BOXES | st.floats(0, 1))
RECORD_ROWS = _rows(("image_refs", "modality", "task", "prompt", "response"),
                    st.lists(st.text(max_size=3), max_size=2))

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                       HealthCheck.function_scoped_fixture])
ROW_ERROR = re.compile(r"error: record (\d+): ")
# errors about the file as a whole, not about one of its rows
WHOLE_FILE = ("error: no ground-truth boxes", "error: predictions for unknown ids")


def _check(code, err, path, rows):
    assert code in (0, 1, 2), err
    assert "Traceback" not in err and "error: internal" not in err, err
    for line in err.splitlines():
        if line.startswith("error:"):
            assert line.endswith(f" (in {path})"), line
            row = ROW_ERROR.match(line)
            assert line.startswith(WHOLE_FILE) or row and int(row.group(1)) < len(rows), line


@FUZZ
@given(rows=ANNOTATION_ROWS)
def test_build_detection_survives_any_rows(rows, tmp_path, run_cli):
    source = write_json(tmp_path / "in.json", rows)
    code, _, err = run_cli("build", "detection", source, "-o", tmp_path / "out.jsonl")
    _check(code, err, source, rows)


@FUZZ
@given(rows=DET_ROWS, fuzz_preds=st.booleans())
def test_eval_detection_survives_any_rows(rows, fuzz_preds, tmp_path, run_cli):
    fuzzed = write_json(tmp_path / "fuzzed.json", rows)
    gt = {"image_id": "i", "category": "car", "box": [1, 2, 3, 4]}
    if fuzz_preds:
        argv = ("--preds", fuzzed, "--gts", write_json(tmp_path / "gts.json", [gt]))
    else:
        argv = ("--preds", write_json(tmp_path / "preds.json", []), "--gts", fuzzed)
    code, _, err = run_cli("eval", "detection", *argv, "--json")
    _check(code, err, fuzzed, rows)


@FUZZ
@given(rows=RECORD_ROWS)
def test_validate_strict_survives_any_lines(rows, tmp_path, run_cli):
    records = tmp_path / "records.jsonl"
    records.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    code, stdout, err = run_cli("validate", records, "--strict", "--json")
    _check(code, err, records, rows)
    if code != 2:
        assert json.loads(stdout)["checked"] == len(rows)
