"""End-to-end CLI coverage: every subcommand run in-process through main()."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from rsvl import cli
from rsvl.cli import main
from rsvl.fileio import load_weights, save_weights
from rsvl.trajectory import DecoderConfig, init_weights, zero_weights

from conftest import write_json

TASKS = (
    "detection",
    "caption",
    "classification",
    "vqa",
    "relation",
    "decomposition",
    "decision",
    "scheduling",
)


# --- build / validate ----------------------------------------------------------


@pytest.mark.parametrize("task", TASKS)
def test_build_then_validate(task, task_inputs, tmp_path, run_cli):
    out = tmp_path / f"{task}.jsonl"
    code, _, err = run_cli("build", task, task_inputs[task], "-o", out)
    assert code == 0
    assert f"-> {out}" in err
    assert out.read_text(encoding="utf-8").strip()

    for extra in ((), ("--strict",)):
        code, stdout, err = run_cli("validate", out, *extra)
        assert code == 0
        assert stdout == ""
        assert "0 problem(s)" in err


@pytest.mark.parametrize("task", TASKS)
def test_build_reruns_are_byte_identical(task, task_inputs, tmp_path, run_cli):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("build", task, task_inputs[task], "-o", first)[0] == 0
    assert run_cli("build", task, task_inputs[task], "-o", second)[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_build_json_payload(task_inputs, tmp_path, run_cli):
    out = tmp_path / "det.jsonl"
    code, stdout, _ = run_cli("build", "detection", task_inputs["detection"], "-o", out, "--json")
    assert code == 0
    assert json.loads(stdout) == {"built": 3, "out": str(out)}


def test_validate_flags_broken_markup(task_inputs, tmp_path, run_cli):
    out = tmp_path / "det.jsonl"
    run_cli("build", "detection", task_inputs["detection"], "-o", out)
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].replace("<|/det|>", "<|/det|", 1)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")

    code, stdout, err = run_cli("validate", out)
    assert code == 1
    assert stdout.startswith("record 0: ")
    assert "1 problem(s)" in err

    code, stdout, _ = run_cli("validate", out, "--json")
    assert code == 1
    payload = json.loads(stdout)
    assert payload["checked"] == 3
    assert payload["failures"][0]["record"] == 0


def test_strict_validate_catches_noncanonical_spacing(task_inputs, tmp_path, run_cli):
    out = tmp_path / "det.jsonl"
    run_cli("build", "detection", task_inputs["detection"], "-o", out)
    text = out.read_text(encoding="utf-8")
    assert "[[0,0," in text
    out.write_text(text.replace("[[0,0,", "[[0, 0,", 1), encoding="utf-8")

    assert run_cli("validate", out)[0] == 0  # still parses
    code, stdout, _ = run_cli("validate", out, "--strict")
    assert code == 1
    assert "not in canonical serialization" in stdout


def test_binary_garbage_is_bad_input(tmp_path, run_cli):
    bad = tmp_path / "noise.jsonl"
    bad.write_bytes(b"\x00\xfe\xff\x00")
    assert run_cli("validate", bad)[0] == 2


def test_missing_file_is_bad_input(tmp_path, run_cli):
    assert run_cli("validate", tmp_path / "absent.jsonl")[0] == 2


def test_unreadable_json_lines_fail_one_record_each(task_inputs, tmp_path, run_cli):
    out = tmp_path / "det.jsonl"
    run_cli("build", "detection", task_inputs["detection"], "-o", out)
    good = out.read_text(encoding="utf-8").splitlines()
    huge_int = good[0].replace('"image_refs": [', '"image_refs": [' + "9" * 5000 + ", ", 1)
    deep = "[" * 100_000 + "]" * 100_000
    out.write_text("\n".join([good[0], huge_int, deep, good[1]]) + "\n", encoding="utf-8")

    code, stdout, err = run_cli("validate", out, "--strict")
    assert code == 1
    lines = stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("record 1: invalid JSON: ")
    assert lines[1].startswith("record 2: invalid JSON: ")
    assert "checked 4 records: 2 problem(s)" in err
    assert "Traceback" not in stdout + err


def _built_lines(task_inputs, tmp_path, run_cli) -> list[bytes]:
    out = tmp_path / "det.jsonl"
    run_cli("build", "detection", task_inputs["detection"], "-o", out)
    return out.read_bytes().splitlines()


def test_undecodable_line_fails_only_its_record(task_inputs, tmp_path, run_cli):
    good = _built_lines(task_inputs, tmp_path, run_cli)
    bad_line = good[1].replace(b"image", b"im\xffage", 1)
    records = tmp_path / "mixed.jsonl"
    records.write_bytes(b"\n".join([good[0], bad_line, good[2]]) + b"\n")

    code, stdout, err = run_cli("validate", records, "--strict", "--json")
    assert code == 1
    offset = bad_line.index(b"\xff")
    assert json.loads(stdout) == {"checked": 3, "failures": [
        {"record": 1, "message": f"invalid UTF-8: invalid start byte (byte offset {offset})"}]}
    assert "checked 3 records: 1 problem(s)" in err


def test_crlf_lines_pass_plain_validate_with_unchanged_indices(task_inputs, tmp_path, run_cli):
    good = _built_lines(task_inputs, tmp_path, run_cli)
    records = tmp_path / "crlf.jsonl"
    records.write_bytes(b"".join(line + b"\r\n" for line in [good[0], b"", good[1]]))
    code, stdout, err = run_cli("validate", records)
    assert code == 1
    assert stdout == "record 1: blank line in record stream\n"
    assert "checked 3 records: 1 problem(s)" in err


def test_strict_validate_reports_crlf_line_ends(task_inputs, tmp_path, run_cli):
    good = _built_lines(task_inputs, tmp_path, run_cli)
    records = tmp_path / "crlf.jsonl"
    records.write_bytes(good[0] + b"\n" + good[1] + b"\r\n")
    code, stdout, _ = run_cli("validate", records, "--strict")
    assert code == 1
    assert stdout == "record 1: line ends in CRLF; records end in LF alone\n"


def test_lone_cr_does_not_end_a_line(task_inputs, tmp_path, run_cli):
    good = _built_lines(task_inputs, tmp_path, run_cli)
    records = tmp_path / "cr.jsonl"
    records.write_bytes(good[0] + b"\r" + good[1] + b"\n")
    code, stdout, err = run_cli("validate", records)
    assert code == 1
    assert stdout.startswith("record 0: invalid JSON: Extra data")
    assert "checked 1 records: 1 problem(s)" in err


HUGE_INT = "[" + "9" * 5000 + "]"  # past CPython's 4,300-digit int() limit
DEEP = "[" * 100_000 + "]" * 100_000  # past the decoder's recursion limit


@pytest.mark.parametrize("payload", [HUGE_INT, DEEP], ids=["huge-int", "deep-nesting"])
@pytest.mark.parametrize("command", ["build detection", "eval classification --gts",
                                     "fit --targets", "decode --weights"])
def test_unreadable_json_files_are_bad_input(command, payload, tmp_path, run_cli):
    bad = tmp_path / "bad.json"
    bad.write_text(payload, encoding="utf-8")
    preds = write_json(tmp_path / "preds.json", [{"id": "a", "label": "harbor"}])
    latent = write_json(tmp_path / "latent.json", [0.1, 0.2])
    argv = {
        "build detection": ("build", "detection", bad, "-o", tmp_path / "out.jsonl"),
        "eval classification --gts": ("eval", "classification", "--preds", preds, "--gts", bad),
        "fit --targets": ("fit", "--targets", bad, "--iters", "1"),
        "decode --weights": ("decode", "--weights", bad, "--latent", latent, "-T", "2"),
    }[command]
    code, stdout, err = run_cli(*argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: invalid JSON: ")
    assert len(err.splitlines()) == 1


# one free-text field per task holds a tag opener; the record would fail validate --strict
FREE_TEXT_MARKUP = {
    "caption": ({"image_id": "a", "width": 10, "height": 10,
                 "objects": [{"category": "sh<|det|>ip", "box": [0, 0, 5, 5]}]},
                "Text payload contains '<|'"),
    "classification": ({"image_id": "a", "width": 10, "height": 10, "scene_label": "har<|det|>bor"},
                       "Text payload contains '<|'"),
    "decision": ({"start": [0] * 6, "goal": [1] * 6, "steps": ["lift <|pos|> off"], "image_ids": ["a"]},
                 "Text payload contains '<|'"),
    "vqa": ({"image_id": "a", "question": "is <|det|> there?", "answer": "yes"},
            "malformed numeric payload: expected '[' (byte offset 11)"),
    "vqa-marker": ({"image_id": "a", "question": "<|reasoning|>why?", "answer": "yes"},
                   "unexpected marker <|reasoning|> on a vqa prompt"),
}


@pytest.mark.parametrize("case", FREE_TEXT_MARKUP)
def test_builders_refuse_markup_in_free_text(case, tmp_path, run_cli):
    row, message = FREE_TEXT_MARKUP[case]
    out = tmp_path / "out.jsonl"
    source = write_json(tmp_path / "in.json", [row])
    code, stdout, err = run_cli("build", case.split("-")[0], source, "-o", out)
    assert code == 2
    assert stdout == ""
    assert err == f"error: record 0: {message} (in {source})\n"
    assert not out.exists()


def test_vqa_grounded_question_builds_in_canonical_form(tmp_path, run_cli):
    row = {"image_id": "a", "question": "Is <|ref|>ship<|/ref|><|det|>[[1, 2,3,4]]<|/det|> moored?",
           "answer": "yes"}
    out = tmp_path / "vqa.jsonl"
    assert run_cli("build", "vqa", write_json(tmp_path / "in.json", [row]), "-o", out)[0] == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["prompt"] == "Is <|ref|>ship<|/ref|><|det|>[[1,2,3,4]]<|/det|> moored?"
    assert run_cli("validate", out, "--strict")[0] == 0


def test_input_errors_name_their_file(tmp_path, run_cli):
    pred = {"image_id": "i", "category": "car", "box": [0, 0, 1, 1], "confidence": 0.9}
    gt = {"image_id": "i", "category": "car", "box": [0, 0, 1, 1]}
    preds = write_json(tmp_path / "preds.json", [pred])
    gts = write_json(tmp_path / "gts.json", [gt])
    bad_preds = write_json(tmp_path / "bad_preds.json", [pred, dict(pred, category=1)])
    bad_gts = write_json(tmp_path / "bad_gts.json", [gt, dict(gt, category=1)])
    unreadable = tmp_path / "unreadable.json"
    unreadable.write_text("[", encoding="utf-8")

    runs = {
        bad_preds: run_cli("eval", "detection", "--preds", bad_preds, "--gts", gts),
        bad_gts: run_cli("eval", "detection", "--preds", preds, "--gts", bad_gts),
    }
    for path, (code, stdout, err) in runs.items():
        assert (code, stdout) == (2, "")
        assert err == f"error: record 1: 'category' must be a string, got int (in {path})\n"
    assert runs[bad_preds][2] != runs[bad_gts][2]

    code, _, err = run_cli("eval", "detection", "--preds", unreadable, "--gts", gts)
    assert code == 2
    assert err == f"error: invalid JSON: Expecting value: line 1 column 2 (char 1) (in {unreadable})\n"


@pytest.mark.parametrize("command", ["build", "eval", "validate", "synonyms"])
def test_undecodable_files_name_the_file(command, task_inputs, tmp_path, run_cli):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b"\xfe[]")
    gts = write_json(tmp_path / "gts.json", [{"id": "a", "label": "harbor"}])
    out = tmp_path / "out.jsonl"
    argv = {
        "build": ("build", "detection", bad, "-o", out),
        "eval": ("eval", "classification", "--preds", bad, "--gts", gts),
        "validate": ("validate", "--strict", bad),
        "synonyms": ("build", "caption", task_inputs["caption"], "-o", out,
                     "--validate-captions", "--synonyms", bad),
    }[command]
    code, stdout, err = run_cli(*argv)
    assert (code, stdout) == (2, "")
    assert err == ("error: 'utf-8' codec can't decode byte 0xfe in position 0: "
                   f"invalid start byte (in {bad})\n")


def test_pixel_coordinate_error_quotes_the_extent(tmp_path, run_cli):
    row = {"image_id": "a", "width": 10, "height": 10,
           "objects": [{"category": "ship", "box": [0, 0, 50, 5]}]}
    source = write_json(tmp_path / "in.json", [row])
    code, stdout, err = run_cli("build", "detection", source, "-o", tmp_path / "out.jsonl")
    assert (code, stdout) == (2, "")
    assert err == f"error: record 0: coordinate 50 outside [0, 10] (in {source})\n"


def test_empty_latent_and_target_files_name_the_file(tmp_path, run_cli):
    empty = write_json(tmp_path / "empty.json", [])
    targets = write_json(tmp_path / "targets.json", [[0.5] * 6])
    code, _, err = run_cli("fit", "--targets", targets, "--latent", empty, "--iters", "1")
    assert (code, err) == (2, f"error: latent file must hold at least one number (in {empty})\n")
    code, _, err = run_cli("fit", "--targets", empty, "--iters", "1")
    assert (code, err) == (2, f"error: target file must hold at least one state row (in {empty})\n")


def test_unexpected_exceptions_exit_3_on_one_line(task_inputs, monkeypatch, run_cli):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    code, stdout, err = run_cli("validate", task_inputs["vqa"])
    assert code == 3
    assert stdout == ""
    assert err == "error: internal: RuntimeError('boom\\nsecond line')\n"


def test_parser_is_built_once_across_calls(tmp_path, monkeypatch, run_cli):
    build_parser, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    records = tmp_path / "empty.jsonl"
    records.write_bytes(b"")
    cli._parser.cache_clear()
    try:
        assert [run_cli("validate", records)[0] for _ in range(2)] == [0, 0]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_unknown_task_exits_via_argparse(task_inputs, tmp_path):
    with pytest.raises(SystemExit):
        main(["build", "segmentation", task_inputs["detection"], "-o", str(tmp_path / "x.jsonl")])


# --- caption validation --------------------------------------------------------


def test_caption_validation_rejects_low_similarity(task_inputs, tmp_path, run_cli):
    out = tmp_path / "cap.jsonl"
    code, stdout, err = run_cli(
        "build", "caption", task_inputs["caption"], "-o", out,
        "--validate-captions", "--similarity-benchmark", "1.0", "--json",
    )
    assert code == 1
    payload = json.loads(stdout)
    assert payload["built"] == 2
    assert payload["rejected"] == 1
    assert payload["rejects_out"] == f"{out}.rejects"
    assert "rejected 1" in err

    rejects = Path(payload["rejects_out"]).read_text(encoding="utf-8").splitlines()
    assert len(rejects) == 1
    entry = json.loads(rejects[0])
    assert entry["image_id"] == "img-003"
    assert entry["failures"]

    assert len(out.read_text(encoding="utf-8").splitlines()) == 2
    assert run_cli("validate", out, "--strict")[0] == 0


def test_caption_validation_passes_under_low_benchmark(task_inputs, tmp_path, run_cli):
    out = tmp_path / "cap.jsonl"
    code, _, _ = run_cli(
        "build", "caption", task_inputs["caption"], "-o", out,
        "--validate-captions", "--similarity-benchmark", "0.1",
    )
    assert code == 0
    assert Path(f"{out}.rejects").read_text(encoding="utf-8") == ""


def test_caption_similarity_gate_reads_each_rows_own_score(tmp_path, run_cli):
    rows = [{"image_id": "a", "width": 100, "height": 100, "similarity_score": score,
             "objects": [{"category": "ship", "box": [0, 0, 10, 10]}]} for score in (0.95, 0.1)]
    out = tmp_path / "cap.jsonl"
    code, stdout, _ = run_cli("build", "caption", write_json(tmp_path / "ann.json", rows),
                              "-o", out, "--validate-captions", "--similarity-benchmark", "1.0",
                              "--json")
    assert code == 1
    assert json.loads(stdout)["rejected"] == 1
    rejects = Path(f"{out}.rejects").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["failures"] for line in rejects] == [
        ["similarity: score 0.1 below 0.8 x benchmark 1.0"]]
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1


@pytest.mark.parametrize("flag", [("--similarity-benchmark", "0.5"), ("--synonyms", "syn.json")],
                         ids=["similarity-benchmark", "synonyms"])
def test_benchmark_requires_validation_flag(flag, task_inputs, tmp_path, run_cli):
    write_json(tmp_path / "syn.json", {"plane": "aircraft"})
    code, _, err = run_cli(
        "build", "caption", task_inputs["caption"], "-o", tmp_path / "x.jsonl",
        *(a if a != "syn.json" else tmp_path / "syn.json" for a in flag),
    )
    assert code == 2
    assert err == f"error: {flag[0]} needs --validate-captions\n"
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("flag", [("--validate-captions",), ("--synonyms", "syn.json")])
def test_caption_options_rejected_elsewhere(flag, task_inputs, tmp_path, run_cli):
    write_json(tmp_path / "syn.json", {"plane": "aircraft"})
    code, _, _ = run_cli(
        "build", "detection", task_inputs["detection"], "-o", tmp_path / "x.jsonl",
        *(a if a != "syn.json" else tmp_path / "syn.json" for a in flag),
    )
    assert code == 2


# --- eval ----------------------------------------------------------------------


def eval_json(run_cli, *argv):
    code, stdout, _ = run_cli("eval", *argv, "--json")
    return code, (json.loads(stdout) if stdout else None)


def test_eval_classification_accuracy(tmp_path, run_cli):
    preds = write_json(tmp_path / "p.json", [
        {"id": "a", "label": "Harbor."},
        {"id": "b", "label": "airport"},
    ])
    gts = write_json(tmp_path / "g.json", [
        {"id": "a", "label": "harbor"},
        {"id": "b", "label": "airport"},
    ])
    code, report = eval_json(run_cli, "classification", "--preds", preds, "--gts", gts)
    assert code == 0
    assert report["task"] == "classification"
    assert report["count"] == 2
    assert report["metrics"]["accuracy"] == 100.0


def test_eval_rejects_unknown_prediction_ids(tmp_path, run_cli):
    preds = write_json(tmp_path / "p.json", [{"id": "zz", "label": "x"}])
    gts = write_json(tmp_path / "g.json", [{"id": "a", "label": "x"}])
    code, _ = eval_json(run_cli, "classification", "--preds", preds, "--gts", gts)
    assert code == 2


def test_eval_cross_file_errors_name_the_file_at_fault(tmp_path, run_cli):
    """An id mismatch names the predictions file; a box-free ground truth names its own."""
    preds = write_json(tmp_path / "p.json", [{"id": "zz", "label": "x"}])
    gts = write_json(tmp_path / "g.json", [{"id": "a", "label": "x"}])
    assert run_cli("eval", "classification", "--preds", preds, "--gts", gts) == (
        2, "", f"error: predictions for unknown ids: 'zz' (in {preds})\n")
    gts = write_json(tmp_path / "g.json", [{"id": "zz", "label": "x"}, {"id": "c", "label": "y"}])
    assert run_cli("eval", "classification", "--preds", preds, "--gts", gts) == (
        2, "", f"error: no predictions for ids: 'c' (in {preds})\n")
    preds = write_json(tmp_path / "p.json", [])
    gts = write_json(tmp_path / "g.json", [])
    assert run_cli("eval", "detection", "--preds", preds, "--gts", gts) == (
        2, "", f"error: no ground-truth boxes to evaluate against (in {gts})\n")


@pytest.mark.parametrize("task, flag, message", [
    ("caption", ("--iou", "0.9"), "--iou only applies to the detection and decomposition tasks"),
    ("detection", ("--success-radius", "2"), "--success-radius only applies to the scheduling task"),
])
def test_eval_refuses_a_flag_its_task_would_ignore(task, flag, message, tmp_path, run_cli):
    preds = write_json(tmp_path / "p.json", [])
    gts = write_json(tmp_path / "g.json", [])
    assert run_cli("eval", task, "--preds", preds, "--gts", gts, *flag) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("task", TASKS)
def test_eval_empty_ground_truth_names_its_file(task, tmp_path, run_cli):
    """Ground truth without a row leaves nothing to score: exit 2, one line naming its file."""
    preds = write_json(tmp_path / "p.json", [])
    gts = write_json(tmp_path / "g.json", [])
    radius = ("--success-radius", "1") if task == "scheduling" else ()
    unit = "boxes" if task == "detection" else "rows"
    assert run_cli("eval", task, "--preds", preds, "--gts", gts, *radius) == (
        2, "", f"error: no ground-truth {unit} to evaluate against (in {gts})\n")


def test_eval_detection_iou_threshold_gates_matching(tmp_path, run_cli):
    # the only candidate pair overlaps at IoU 1/7: below 0.5, above 0.125
    preds = write_json(tmp_path / "p.json", [
        {"image_id": "i", "category": "car", "box": [0, 0, 1, 1], "confidence": 0.9},
    ])
    gts = write_json(tmp_path / "g.json", [
        {"image_id": "i", "category": "car", "box": [1, 1, 2, 2]},
    ])
    code, report = eval_json(run_cli, "detection", "--preds", preds, "--gts", gts)
    assert code == 0
    assert report["metrics"]["mAP@50"] == 0.0

    code, report = eval_json(
        run_cli, "detection", "--preds", preds, "--gts", gts, "--iou", "0.125"
    )
    assert code == 0
    assert report["metrics"]["mAP@12.5"] == 100.0
    assert report["per_class"] == {"car": 100.0}


def test_eval_relation_f1_is_exact(tmp_path, run_cli):
    preds = write_json(tmp_path / "p.json", [{
        "image_id": "i",
        "triples": [
            ["car", "driving on", "road"],
            ["ship", "docked at", "pier"],
            ["plane", "parked on", "apron"],
        ],
    }])
    gts = write_json(tmp_path / "g.json", [{
        "image_id": "i",
        "triples": [
            ["car", "driving on", "road"],
            ["ship", "docked at", "pier"],
            ["truck", "crossing", "bridge"],
            ["train", "stopped at", "station"],
        ],
    }])
    code, report = eval_json(run_cli, "relation", "--preds", preds, "--gts", gts)
    assert code == 0
    assert report["metrics"]["f1"] == 100.0 * (2 * 2 / (3 + 4))
    assert report["metrics"]["precision"] == 100.0 * (2 / 3)
    assert report["metrics"]["recall"] == 100.0 * (2 / 4)


def test_eval_caption_identity_scores_perfectly(tmp_path, run_cli):
    sentence = "a ship sails near the harbor entrance"
    preds = write_json(tmp_path / "p.json", [{"id": "a", "caption": sentence}])
    gts = write_json(tmp_path / "g.json", [{"id": "a", "references": [sentence, "noise"]}])
    code, report = eval_json(run_cli, "caption", "--preds", preds, "--gts", gts)
    assert code == 0
    for n in (1, 2, 3, 4):
        assert report["metrics"][f"BLEU-{n}"] == pytest.approx(100.0)
    assert report["metrics"]["ROUGE-L"] == pytest.approx(100.0)
    assert report["unsupported"] == ["METEOR", "CIDEr", "SPICE"]


def test_eval_decision_uses_plan_key(tmp_path, run_cli):
    preds = write_json(tmp_path / "p.json", [{"id": "a", "plan": "Step1: hover."}])
    gts = write_json(tmp_path / "g.json", [{"id": "a", "references": ["Step1: hover."]}])
    code, report = eval_json(run_cli, "decision", "--preds", preds, "--gts", gts)
    assert code == 0
    assert report["metrics"]["BLEU-1"] == pytest.approx(100.0)
    assert report["unsupported"] == ["SPICE"]


def test_eval_vqa_reports_per_type_accuracy(tmp_path, run_cli):
    preds = write_json(tmp_path / "p.json", [
        {"id": "a", "answer": "Yes."},
        {"id": "b", "answer": "three"},
    ])
    gts = write_json(tmp_path / "g.json", [
        {"id": "a", "answer": "yes", "question_type": "existence"},
        {"id": "b", "answer": "two", "question_type": "count"},
    ])
    code, report = eval_json(run_cli, "vqa", "--preds", preds, "--gts", gts)
    assert code == 0
    assert report["metrics"]["accuracy"] == 50.0
    assert report["metrics"]["avg_acc"] == 50.0
    assert report["per_class"] == {"existence": 100.0, "count": 0.0}


def test_eval_vqa_text_report_heads_per_type_accuracy(tmp_path, run_cli):
    preds = write_json(tmp_path / "p.json", [{"id": "a", "answer": "yes"}])
    gts = write_json(tmp_path / "g.json", [{"id": "a", "answer": "yes", "question_type": "count"}])
    code, stdout, _ = run_cli("eval", "vqa", "--preds", preds, "--gts", gts)
    assert code == 0
    assert stdout.splitlines()[-2:] == ["per-type accuracy:", "  count: 100.0000"]


def test_eval_decomposition_combines_boxes_and_triples(tmp_path, run_cli):
    preds = write_json(tmp_path / "p.json", [{
        "image_id": "i",
        "detections": [
            {"category": "car", "box": [10, 10, 50, 50], "confidence": 0.8},
        ],
        "triples": [["car", "driving on", "road"]],
    }])
    gts = write_json(tmp_path / "g.json", [{
        "image_id": "i",
        "detections": [{"category": "car", "box": [10, 10, 50, 50]}],
        "triples": [["car", "driving on", "road"]],
    }])
    code, report = eval_json(run_cli, "decomposition", "--preds", preds, "--gts", gts)
    assert code == 0
    assert report["metrics"]["mAP@50"] == 100.0
    assert report["metrics"]["f1"] == 100.0


def test_eval_scheduling_requires_success_radius(tmp_path, run_cli):
    preds = write_json(tmp_path / "p.json", [{"id": "e1", "path": [[56, 78, 9]]}])
    gts = write_json(tmp_path / "g.json", [
        {"id": "e1", "goal": [56, 78, 9], "shortest_path_length": 5.0},
    ])
    code, _ = eval_json(run_cli, "scheduling", "--preds", preds, "--gts", gts)
    assert code == 2

    code, report = eval_json(
        run_cli, "scheduling", "--preds", preds, "--gts", gts, "--success-radius", "3.0"
    )
    assert code == 0
    assert report["metrics"] == {"NE": 0.0, "SR": 100.0, "OSR": 100.0, "SPL": 100.0}


def test_eval_text_renders_without_json(tmp_path, run_cli):
    preds = write_json(tmp_path / "p.json", [{"id": "a", "label": "x"}])
    gts = write_json(tmp_path / "g.json", [{"id": "a", "label": "x"}])
    code, stdout, _ = run_cli("eval", "classification", "--preds", preds, "--gts", gts)
    assert code == 0
    assert "accuracy" in stdout


# --- decode / fit ---------------------------------------------------------------


@pytest.fixture
def zero_weight_file(tmp_path):
    cfg = DecoderConfig(d_e=2, d_h=3, max_steps=5, termination_threshold=1e-3)
    path = tmp_path / "weights.json"
    save_weights(path, zero_weights(cfg), cfg)
    return path


def test_decode_zero_weights_holds_midpoint(zero_weight_file, tmp_path, run_cli):
    latent = write_json(tmp_path / "latent.json", [0.3, -0.7])
    code, stdout, _ = run_cli(
        "decode", "--weights", zero_weight_file, "--latent", latent, "-T", "5", "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["terminated_by"] == "threshold"
    assert payload["steps"] == [[0.5] * 6, [0.5] * 6]


def test_decode_respects_max_steps(zero_weight_file, tmp_path, run_cli):
    latent = write_json(tmp_path / "latent.json", [0.3, -0.7])
    code, stdout, _ = run_cli(
        "decode", "--weights", zero_weight_file, "--latent", latent, "-T", "1", "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["terminated_by"] == "max_steps"
    assert len(payload["steps"]) == 1


def test_decode_json_reruns_identically(zero_weight_file, tmp_path, run_cli):
    latent = write_json(tmp_path / "latent.json", [0.25, 0.5])
    args = ("decode", "--weights", zero_weight_file, "--latent", latent, "-T", "4", "--json")
    assert run_cli(*args)[1] == run_cli(*args)[1]


def test_decode_text_output_lists_steps(zero_weight_file, tmp_path, run_cli):
    latent = write_json(tmp_path / "latent.json", [0.3, -0.7])
    code, stdout, _ = run_cli("decode", "--weights", zero_weight_file, "--latent", latent, "-T", "5")
    assert code == 0
    assert stdout.splitlines()[0] == "steps: 2 (terminated by threshold)"
    assert stdout.splitlines()[1] == "1: " + " ".join(["0.500000"] * 6)


def test_decode_rejects_mismatched_latent(zero_weight_file, tmp_path, run_cli):
    latent = write_json(tmp_path / "latent.json", [0.1, 0.2, 0.3])
    code, _, _ = run_cli(
        "decode", "--weights", zero_weight_file, "--latent", latent, "-T", "2"
    )
    assert code == 2


def test_fit_zero_iterations_keeps_initialization(tmp_path, run_cli):
    targets = write_json(tmp_path / "targets.json", [[0.3, 0.4, 0.5, 0.6, 0.5, 0.4]])
    weights_out = tmp_path / "w.json"
    code, stdout, _ = run_cli(
        "fit", "--targets", targets, "--weights-out", weights_out,
        "--iters", "0", "--seed", "3", "--d-e", "2", "--d-h", "3", "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["iterations"] == 0
    assert payload["steps_decoded"] == 1
    assert payload["initial_loss"] == payload["final_loss"]

    fitted, d_e, d_h = load_weights(weights_out)
    cfg = DecoderConfig(d_e=2, d_h=3, max_steps=1, termination_threshold=1e-3)
    assert (d_e, d_h) == (2, 3)
    reference = init_weights(cfg, seed=3)
    for name in ("W_latent", "W_z", "U_c", "W_out", "b_out"):
        assert np.array_equal(getattr(fitted, name), getattr(reference, name))


def test_fit_improves_loss_and_writes_curve(tmp_path, run_cli):
    targets = write_json(tmp_path / "targets.json", [
        [0.3, 0.4, 0.5, 0.6, 0.5, 0.4],
        [0.4, 0.5, 0.6, 0.7, 0.6, 0.5],
    ])
    curve_out = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(
        "fit", "--targets", targets, "--curve-out", curve_out,
        "--iters", "20", "--lr", "0.5", "--seed", "0", "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["final_loss"] < payload["initial_loss"]
    assert payload["steps_decoded"] == 2

    lines = curve_out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iteration,loss"
    assert len(lines) == 22
    assert lines[1].startswith("0,")


def test_fit_rejects_targets_outside_open_interval(tmp_path, run_cli):
    targets = write_json(tmp_path / "targets.json", [[0.3, 0.4, 0.5, 0.6, 0.5, 1.0]])
    code, _, _ = run_cli("fit", "--targets", targets, "--iters", "1")
    assert code == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "argument --seed: must be non-negative, got -1"),
    ("--lr", "inf", "argument --lr: must be finite, got inf"),
    ("--lr", "1e309", "argument --lr: must be finite, got 1e309"),
    ("--lr", "nan", "argument --lr: must be positive, got nan"),
])
def test_fit_rejects_a_bad_seed_or_rate_at_the_parser(tmp_path, capsys, flag, value, message):
    targets = write_json(tmp_path / "targets.json", [[0.3, 0.4, 0.5, 0.6, 0.5, 0.4]])
    with pytest.raises(SystemExit) as exited:
        main(["fit", "--targets", targets, "--iters", "1", flag, value])
    assert exited.value.code == 2
    assert message in capsys.readouterr().err


def test_diverging_fit_prints_one_error_line_and_no_warnings(tmp_path, run_cli):
    targets = write_json(tmp_path / "targets.json", [[0.3, 0.4, 0.5, 0.6, 0.5, 0.4]] * 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli("fit", "--targets", targets, "--iters", "5", "--lr", "1e308")
    assert [str(w.message) for w in caught] == []
    assert code == 3
    assert stdout == ""
    assert err == "error: loss became nan after 1 updates\n"


def test_fit_reruns_identically(tmp_path, run_cli):
    targets = write_json(tmp_path / "targets.json", [[0.3, 0.4, 0.5, 0.6, 0.5, 0.4]])
    args = ("fit", "--targets", targets, "--iters", "5", "--seed", "7", "--json")
    assert run_cli(*args)[1] == run_cli(*args)[1]
