"""Malformed record lines: the exact ``validate --json`` report for each.

Each case spoils one line of a two-record JSONL file; the other line is a
valid caption record.  ``validate`` reads a bad line as one failed record and
goes on, so every case exits 1 with the failures of that line alone.

``parse_record_line`` checks each line on one path and builds it once; a
property test holds it to an oracle that checks field by field and then
constructs through ``InstructionRecord``: the same record or the same error
for every single fault of a random line.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import parse_record_line_checked
from rsvl import fileio
from rsvl.builders import CAPTION_PROMPT, TaskType
from rsvl.errors import ToolkitError
from rsvl.markup import Modality

GOOD = {
    "image_refs": ["img-1"],
    "modality": "opt",
    "task": "caption",
    "prompt": CAPTION_PROMPT,
    "response": "There is 1 ship in the image.",
}
DROP = object()


def _line(**changes) -> str:
    row = dict(GOOD)
    for key, value in changes.items():
        if value is DROP:
            del row[key]
        else:
            row[key] = value
    return json.dumps(row)


# (case, the bad line, its failures under plain validate, under --strict)
CASES = [
    ("array", "[1, 2]", ["expected an object, got list"], None),
    ("string", '"caption"', ["expected an object, got str"], None),
    ("not-json", "{", ["invalid JSON: Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1)"], None),
    ("missing-key", _line(task=DROP), ["missing key 'task'"], None),
    ("extra-key", _line(note="x"), ["unknown key 'note'"], None),
    ("refs-empty", _line(image_refs=[]), ["'image_refs' must not be empty"], None),
    ("refs-not-a-list", _line(image_refs="img-1"), ["'image_refs' must be a list of strings"], None),
    ("refs-int", _line(image_refs=["img-1", 7]), ["'image_refs' must be a list of strings"], None),
    ("refs-empty-string", _line(image_refs=[""]),
     ["image_refs must hold at least one non-empty id"], None),
    ("refs-true", _line(image_refs=[True]), ["'image_refs' must be a list of strings"], None),
    ("modality-uv", _line(modality="uv"),
     ["unknown modality 'uv' (expected one of ['opt', 'sar', 'ir'])"], None),
    ("modality-int", _line(modality=1), ["'modality' must be a string, got int"], None),
    ("modality-list", _line(modality=["x"]), ["'modality' must be a string, got list"], None),
    ("task-nav", _line(task="nav"), ["unknown task 'nav'"], None),
    ("task-dict", _line(task={}), ["'task' must be a string, got dict"], None),
    ("prompt-int", _line(prompt=5), ["'prompt' must be a string, got int"], None),
    ("response-null", _line(response=None), ["'response' must be a string, got NoneType"], None),
    ("crlf", _line() + "\r", [], ["line ends in CRLF; records end in LF alone"]),
]


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("bad, plain, strict_only", [
    pytest.param(bad, plain, strict_only, id=case) for case, bad, plain, strict_only in CASES
])
def test_malformed_record_line(bad, plain, strict_only, strict, tmp_path, run_cli):
    records = tmp_path / "records.jsonl"
    records.write_bytes((_line() + "\n" + bad + "\n").encode("utf-8"))
    argv = ["validate", records, "--json", *(["--strict"] if strict else [])]
    code, stdout, err = run_cli(*argv)
    messages = strict_only if strict and strict_only is not None else plain
    assert json.loads(stdout) == {
        "checked": 2,
        "failures": [{"record": 1, "message": m} for m in messages],
    }
    assert code == (1 if messages else 0)
    assert err == f"checked 2 records: {len(messages)} problem(s)\n"


# --- the one check path against the checks one by one ---------------------------


_ODD = {
    "image_refs": [[], "img", [7], [""], [True], [None], ["a", ""], ["a", 1], {}, None],
    "modality": ["uv", "OPT", "", 1, True, ["opt"], {}, None],
    "task": ["nav", "CAPTION", "", 1, False, ["vqa"], {}, None],
    "prompt": [5, 1.5, True, None, ["x"], {}],
    "response": [5, 1.5, False, None, ["x"], {}],
}


@st.composite
def record_rows(draw):
    text = st.text(max_size=8)
    return {
        "image_refs": draw(st.lists(text.filter(bool), min_size=1, max_size=3)),
        "modality": draw(st.sampled_from([m.value for m in Modality])),
        "task": draw(st.sampled_from([t.value for t in TaskType])),
        "prompt": draw(text),
        "response": draw(text),
    }


def _single_faults(row: dict):
    """``row`` as a JSON line, then with each fault a record line can have worked in."""
    yield json.dumps(row)
    yield json.dumps(list(row.values()))
    for key in row:
        yield json.dumps({k: v for k, v in row.items() if k != key})
        for value in _ODD.get(key, ()):
            yield json.dumps({**row, key: value})
    yield json.dumps({**row, "note": "x"})
    yield json.dumps(dict(reversed(row.items())))


def _outcome(parse, *args):
    """The record with its field types, or the error class and message."""
    try:
        record = parse(*args)
    except ToolkitError as e:
        return type(e), str(e)
    return record, [type(v) for v in vars(record).values()], [type(r) for r in record.image_refs]


@given(record_rows())
def test_one_test_path_builds_what_the_checks_build(row):
    for line in _single_faults(row):
        oracle = _outcome(parse_record_line_checked, line, None)
        assert _outcome(fileio.parse_record_line, line) == oracle


def test_two_faults_report_what_the_checks_report():
    """Every pair of faults in one line: the order of the checks picks the one reported."""
    for first in map(json.loads, _single_faults(GOOD)):
        for line in _single_faults(first) if isinstance(first, dict) else ():
            oracle = _outcome(parse_record_line_checked, line, None)
            assert _outcome(fileio.parse_record_line, line) == oracle
