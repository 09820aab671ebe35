"""File formats: record JSONL, annotation JSON, weight and target files."""

import json

import numpy as np
import pytest

from rsvl.builders import InstructionRecord, TaskType
from rsvl.errors import SchemaError
from rsvl.fileio import (
    load_decomposition_eval,
    load_det_predictions,
    load_image_annotations,
    load_latent,
    load_nav_ground_truth,
    load_path_predictions,
    load_similarity_scores,
    load_synonyms,
    load_targets,
    load_text_eval,
    load_triple_file,
    load_vqa_items,
    load_weights,
    parse_record_line,
    read_record_lines,
    record_to_dict,
    save_weights,
    write_loss_curve,
    write_records,
)
from rsvl.markup import Modality, Pos3
from rsvl.trajectory import PARAM_FIELDS, DecoderConfig, init_weights


REC = InstructionRecord(("im1",), Modality.OPT, TaskType.VQA, "q", "a.")


def _read(path):
    return [parse_record_line(line) for line in read_record_lines(path)]


# --- record JSONL -----------------------------------------------------------


def test_record_line_layout(tmp_path):
    p = tmp_path / "r.jsonl"
    write_records(p, [REC])
    line = p.read_text(encoding="utf-8")
    assert line.endswith("\n") and line.count("\n") == 1
    assert list(json.loads(line)) == ["image_refs", "modality", "task", "prompt", "response"]


def test_record_roundtrip_is_byte_stable(tmp_path):
    recs = [
        REC,
        InstructionRecord(("a", "b"), Modality.SAR, TaskType.DETECTION, "p2", "r2"),
    ]
    p = tmp_path / "r.jsonl"
    write_records(p, recs)
    first = p.read_bytes()
    assert _read(p) == recs
    write_records(p, _read(p))
    assert p.read_bytes() == first
    assert b"\r" not in first


def test_record_unicode_survives(tmp_path):
    rec = InstructionRecord(("i",), Modality.OPT, TaskType.CAPTION, "Übergang 路口", "ok.")
    p = tmp_path / "u.jsonl"
    write_records(p, [rec])
    assert _read(p)[0].prompt == "Übergang 路口"


def test_parse_record_line_rejects_unknown_keys():
    row = record_to_dict(REC)
    row["zzz"] = 1
    with pytest.raises(SchemaError) as exc:
        parse_record_line(json.dumps(row))
    assert str(exc.value) == "unknown key 'zzz'"


def test_parse_record_line_reports_missing_key():
    row = record_to_dict(REC)
    del row["response"]
    with pytest.raises(SchemaError, match="missing key 'response'"):
        parse_record_line(json.dumps(row))


def test_parse_record_line_rejects_bad_json_and_values():
    with pytest.raises(SchemaError, match="^invalid JSON: "):
        parse_record_line("{not json")
    row = record_to_dict(REC)
    row["task"] = "nope"
    with pytest.raises(SchemaError, match="unknown task"):
        parse_record_line(json.dumps(row))
    row = record_to_dict(REC)
    row["modality"] = "radar"
    with pytest.raises(SchemaError):
        parse_record_line(json.dumps(row))


def test_read_record_lines_drops_only_trailing_blank(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text("a\nb\n", encoding="utf-8")
    assert read_record_lines(p) == ["a", "b"]
    p.write_text("a\n\nb\n", encoding="utf-8")
    assert read_record_lines(p) == ["a", "", "b"]


# --- annotations ---------------------------------------------------------------


def test_load_image_annotations_defaults_and_warns(tmp_path, capsys):
    p = tmp_path / "ann.json"
    p.write_text(json.dumps([
        {
            "image_id": "a",
            "width": 100,
            "height": 80,
            "objects": [{"category": "ship", "box": [0, 0, 10, 10], "shape": "small"}],
            "mystery": True,
        }
    ]), encoding="utf-8")
    anns = load_image_annotations(p, default_modality="sar")
    assert anns[0].modality is Modality.SAR
    assert anns[0].objects[0].shape_attr == "small"
    assert "mystery" in capsys.readouterr().err


def test_unknown_key_warnings_name_the_outer_record(tmp_path, capsys):
    p = tmp_path / "ann.json"
    ok = {"image_id": "a", "width": 10, "height": 10}
    nested = {"category": "ship", "box": [0, 0, 1, 1], "hull": "steel"}
    p.write_text(json.dumps([ok, dict(ok, image_id="b", mystery=1, objects=[nested])]),
                 encoding="utf-8")
    load_image_annotations(p)
    assert capsys.readouterr().err == (
        "warning: record 1: ignoring unknown key 'mystery'\n"
        "warning: record 1: ignoring unknown key 'hull'\n"
    )


def test_loader_errors_name_row_and_file(tmp_path):
    p = tmp_path / "vqa.json"
    p.write_text(json.dumps([{"image_id": "a", "question": "q?", "answer": 3}]), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_vqa_items(p)
    assert str(info.value) == "record 0: 'answer' must be a string, got int"
    assert (info.value.index, info.value.path) == (0, str(p))


def test_load_image_annotations_schema_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps([{"image_id": "a", "width": 0, "height": 5}]), encoding="utf-8")
    with pytest.raises(SchemaError, match="record 0"):
        load_image_annotations(p)
    p.write_text(json.dumps({"image_id": "a"}), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_image_annotations(p)


def test_load_synonyms(tmp_path):
    syn = tmp_path / "syn.json"
    syn.write_text(json.dumps({"boat": "ship"}), encoding="utf-8")
    assert load_synonyms(syn) == {"boat": "ship"}
    syn.write_text(json.dumps({"boat": 3}), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_synonyms(syn)


def test_load_similarity_scores_reads_annotation_field(tmp_path):
    p = tmp_path / "ann.json"
    p.write_text(json.dumps([
        {"image_id": "a", "width": 10, "height": 10, "similarity_score": 0.9},
        {"image_id": "b", "width": 10, "height": 10},
    ]), encoding="utf-8")
    assert load_similarity_scores(p) == [0.9, None]
    p.write_text(json.dumps([
        {"image_id": "a", "width": 10, "height": 10, "similarity_score": "high"},
    ]), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_similarity_scores(p)


def test_load_triple_file(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(
        json.dumps([{"image_id": "a", "triples": [["car", "driving on", "road"]]}]),
        encoding="utf-8",
    )
    table = load_triple_file(p)
    (trip,) = table["a"]
    assert (trip.subject_cat, trip.relation, trip.object_cat) == ("car", "driving on", "road")


def test_load_triple_file_rejects_duplicate_ids(tmp_path):
    p = tmp_path / "t.json"
    row = {"image_id": "a", "triples": []}
    p.write_text(json.dumps([row, row]), encoding="utf-8")
    with pytest.raises(SchemaError, match="duplicate"):
        load_triple_file(p)


# loader, id key, the rest of a valid row
KEYED_LOADERS = {
    "triples": (load_triple_file, "image_id", {"triples": [["car", "on", "road"]]}),
    "decomposition": (lambda p: load_decomposition_eval(p, True), "image_id",
                      {"detections": [{"category": "car", "box": [1, 2, 3, 4], "confidence": 0.5}],
                       "triples": []}),
    "text": (lambda p: load_text_eval(p, "references", as_list=True), "id",
             {"references": ["a ship"]}),
    "path": (load_path_predictions, "id", {"path": [[0, 0, 10]]}),
    "navigation": (load_nav_ground_truth, "id", {"goal": [1, 2, 3], "shortest_path_length": 4.0}),
}


@pytest.mark.parametrize("name", KEYED_LOADERS)
def test_keyed_loaders_name_the_duplicate_row(name, tmp_path):
    load, id_key, rest = KEYED_LOADERS[name]
    p = tmp_path / "eval.json"
    p.write_text(json.dumps([{id_key: k, **rest} for k in ("a", "b", "a")]), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load(p)
    assert str(info.value) == f"record 2: duplicate {id_key} 'a'"
    assert info.value.index == 2


@pytest.mark.parametrize("name", KEYED_LOADERS)
def test_keyed_loaders_require_the_id_key(name, tmp_path):
    load, id_key, rest = KEYED_LOADERS[name]
    p = tmp_path / "eval.json"
    p.write_text(json.dumps([{id_key: "a", **rest}, rest]), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load(p)
    assert str(info.value) == f"record 1: missing key {id_key!r}"


@pytest.mark.parametrize("waypoint, message", [
    ([0, 0, 0, "x", None, {}], "'path' must be a number, got 'x'"),
    ([0, 0, 0, 1, 2, None], "'path' must be a number, got None"),
    ([0, 0, 0, 1, 2, float("nan")], "'path' must be finite, got nan"),
    ([0, 0, 0, 1, True, 3], "'path' must be a number, got True"),
])
def test_path_waypoint_checks_every_pose_entry(waypoint, message, tmp_path):
    """A 6-number pose keeps only its position, but all six entries must be finite numbers."""
    p = tmp_path / "path.json"
    p.write_text(json.dumps([{"id": "a", "path": [[1, 2, 3], waypoint]}]), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_path_predictions(p)
    assert str(info.value) == f"record 0: {message}"


def test_path_pose_waypoint_keeps_its_position(tmp_path):
    p = tmp_path / "path.json"
    p.write_text(json.dumps([{"id": "a", "path": [[1, 2, 3, 4, 5.5, 6]]}]), encoding="utf-8")
    assert load_path_predictions(p) == {"a": (Pos3(1.0, 2.0, 3.0),)}


# --- decoder files ----------------------------------------------------------------


CFG = DecoderConfig(d_e=3, d_h=4, max_steps=5)


def test_weight_file_roundtrip(tmp_path):
    w = init_weights(CFG, seed=1)
    p = tmp_path / "w.json"
    save_weights(p, w, CFG)
    raw = p.read_text(encoding="utf-8")
    assert raw.endswith("\n") and raw.count("\n") == 1
    assert sorted(json.loads(raw)) == sorted(
        ("d_e", "d_h") + PARAM_FIELDS
    )
    w2, d_e, d_h = load_weights(p)
    assert (d_e, d_h) == (3, 4)
    for f in PARAM_FIELDS:
        assert np.array_equal(getattr(w, f), getattr(w2, f))


def test_weight_file_rejects_key_drift(tmp_path):
    w = init_weights(CFG, seed=1)
    p = tmp_path / "w.json"
    save_weights(p, w, CFG)
    obj = json.loads(p.read_text())

    missing = dict(obj)
    del missing["W_out"]
    p.write_text(json.dumps(missing))
    with pytest.raises(SchemaError, match="missing keys: W_out"):
        load_weights(p)

    extra = dict(obj)
    extra["momentum"] = 0.9
    p.write_text(json.dumps(extra))
    with pytest.raises(SchemaError, match="unexpected keys"):
        load_weights(p)


def test_weight_file_rejects_bad_shapes_and_nonfinite(tmp_path):
    w = init_weights(CFG, seed=1)
    p = tmp_path / "w.json"
    save_weights(p, w, CFG)
    obj = json.loads(p.read_text())

    bad = dict(obj)
    bad["b_out"] = [1, 2, 3]
    p.write_text(json.dumps(bad))
    with pytest.raises(SchemaError, match="b_out"):
        load_weights(p)

    p.write_text(p.read_text())  # restore not needed; rewrite with NaN token
    nan = json.dumps(obj).replace(json.dumps(obj["b_out"]), "[0, 0, NaN, 0, 0, 0]", 1)
    p.write_text(nan)
    with pytest.raises(SchemaError, match="non-finite"):
        load_weights(p)


BEYOND_FLOATS = "1" + "0" * 400  # a JSON integer no float can hold


def test_numbers_beyond_the_float_range_are_schema_errors(tmp_path):
    p = tmp_path / "n.json"
    p.write_text(f"[0.5, {BEYOND_FLOATS}]")
    with pytest.raises(SchemaError, match=f"record 1: latent entry must be finite, got {BEYOND_FLOATS}"):
        load_latent(p)
    row = f'{{"image_id": "i", "category": "c", "box": [1, 2, 3, 4], "confidence": -{BEYOND_FLOATS}}}'
    p.write_text(f"[{row}]")
    with pytest.raises(SchemaError, match="record 0: 'confidence' must be finite"):
        load_det_predictions(p)
    w = init_weights(CFG, seed=1)
    save_weights(p, w, CFG)
    p.write_text(p.read_text().replace('"b_out": [', f'"b_out": [{BEYOND_FLOATS}, ', 1))
    with pytest.raises(SchemaError, match="b_out: int too large"):
        load_weights(p)


def test_load_latent(tmp_path):
    p = tmp_path / "l.json"
    p.write_text("[0.5, -0.25, 1.0]")
    assert np.array_equal(load_latent(p), np.array([0.5, -0.25, 1.0]))
    p.write_text("[]")
    with pytest.raises(SchemaError):
        load_latent(p)
    p.write_text('["x"]')
    with pytest.raises(SchemaError):
        load_latent(p)


def test_load_targets_enforces_open_interval(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps([[0.5] * 6, [0.2] * 6]))
    assert load_targets(p).shape == (2, 6)
    p.write_text(json.dumps([[0.5] * 6, [1.0] + [0.5] * 5]))
    with pytest.raises(SchemaError, match="record 1"):
        load_targets(p)
    p.write_text(json.dumps([[0.5] * 5]))
    with pytest.raises(SchemaError):
        load_targets(p)


def test_write_loss_curve_format(tmp_path):
    p = tmp_path / "c.csv"
    write_loss_curve(p, [0.5, 0.25])
    assert p.read_text(encoding="utf-8") == "iteration,loss\n0,0.5\n1,0.25\n"


def test_read_record_lines_splits_at_lf_only(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_bytes(b"a\r\nb\rc\n\xff\n")
    assert read_record_lines(p) == ["a\r", "b\rc", b"\xff"]
