"""Command line front end: validate, build, eval, decode, fit.

Exit codes: 0 success, 1 validation failures in otherwise readable input,
2 unreadable or malformed input (including argument errors), 3 internal
invariant breaks, diverging optimization and any unexpected error.
Machine-readable results go to stdout only under --json; everything
diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from enum import IntEnum
from statistics import fmean

import numpy as np

from . import builders, fileio, metrics
from .builders import TaskType, validate_caption
from .errors import (
    DivergenceDetected,
    InvariantViolation,
    MarkupError,
    SchemaError,
    ToolkitError,
)
from .markup import Det, Modality, Ref, Rel, Task, TaskKind, Text, emit, normalize_box, parse
from .metrics import EvalReport, NavEpisode, bleu_corpus, map50, nav_metrics
from .trajectory import DecoderConfig, decode, fit

__all__ = ["ExitStatus", "build_parser", "main"]


class ExitStatus(IntEnum):
    OK = 0
    INVALID = 1
    BAD_INPUT = 2
    INTERNAL = 3


# --- Shared plumbing -----------------------------------------------------------


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return value


# --- validate ---------------------------------------------------------------------

# tasks whose prompts must open with a specific marker token
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


def _check_decomposition(doc, raw: str) -> list[str]:
    """Cross-check the step scaffold of a decomposition response against itself."""
    s2 = _STEP2_RE.search(raw)
    s3 = _STEP3_RE.search(raw)
    s4 = _STEP4_RE.search(raw)
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


def _validate_line(line: str, strict: bool) -> list[str]:
    """All problems with one record line, without the "record N:" prefix."""
    try:
        record = fileio.parse_record_line(line, None)
    except SchemaError as e:
        return [str(e)]

    failures: list[str] = []
    docs = {}
    for field_name, text in (("prompt", record.prompt), ("response", record.response)):
        try:
            docs[field_name] = parse(text)
        except MarkupError as e:
            failures.append(f"{field_name}: {e}")
    if not strict:
        return failures

    for field_name, doc in docs.items():
        original = record.prompt if field_name == "prompt" else record.response
        if emit(doc) != original:
            failures.append(f"{field_name}: not in canonical serialization")

    prompt_doc = docs.get("prompt")
    if prompt_doc is not None:
        first = prompt_doc.nodes[0] if prompt_doc.nodes else None
        expected = _TASK_MARKERS.get(record.task)
        if expected is not None:
            if not (isinstance(first, Task) and first.kind is expected):
                failures.append(f"prompt must open with <|{expected.value}|>")
        elif isinstance(first, Task):
            failures.append(
                f"unexpected marker <|{first.kind.value}|> on a {record.task.value} prompt"
            )

    response_doc = docs.get("response")
    if record.task is TaskType.DECOMPOSITION and response_doc is not None:
        failures.extend(_check_decomposition(response_doc, record.response))
    return failures


def cmd_validate(args) -> int:
    lines = fileio.read_record_lines(args.records)
    flat = [
        {"record": index, "message": message}
        for index, line in enumerate(lines)
        for message in _validate_line(line, args.strict)
    ]
    if args.json:
        print(json.dumps({"checked": len(lines), "failures": flat}, ensure_ascii=False))
    else:
        for item in flat:
            print(f"record {item['record']}: {item['message']}")
    _say(f"checked {len(lines)} records: {len(flat)} problem(s)")
    return ExitStatus.INVALID if flat else ExitStatus.OK


# --- build ------------------------------------------------------------------------


def _build_each(fn, items) -> list:
    """``fn`` over ``items`` in order; toolkit errors name the failing item's index."""
    records = []
    for index, item in enumerate(items):
        with fileio._wrap(index):
            records.append(fn(item))
    return records


def cmd_build(args) -> int:
    task = TaskType(args.task)
    if args.similarity_benchmark is not None and not args.validate_captions:
        raise SchemaError("--similarity-benchmark needs --validate-captions")
    if (args.validate_captions or args.synonyms) and task is not TaskType.CAPTION:
        raise SchemaError("caption validation options only apply to the caption task")
    if args.synonyms is not None and not args.validate_captions:
        raise SchemaError("--synonyms needs --validate-captions")

    dm = args.modality
    rejected: list[dict] = []
    rejects_out = None
    if task in (TaskType.DETECTION, TaskType.CAPTION, TaskType.CLASSIFICATION):
        annotations = fileio.load_image_annotations(args.input, dm)
        build_one = {
            TaskType.DETECTION: builders.build_detection_record,
            TaskType.CAPTION: builders.build_caption_record,
            TaskType.CLASSIFICATION: builders.build_classification_record,
        }[task]
        records = _build_each(build_one, annotations)
        if task is TaskType.CAPTION and args.validate_captions:
            synonyms = fileio.load_synonyms(args.synonyms) if args.synonyms else None
            scores = (
                fileio.load_similarity_scores(args.input)
                if args.similarity_benchmark is not None
                else {}
            )
            kept = []
            for ann, record in zip(annotations, records):
                verdict = validate_caption(
                    record.response,
                    ann,
                    synonyms=synonyms,
                    score=scores.get(ann.image_id),
                    benchmark=args.similarity_benchmark,
                )
                if verdict.passed:
                    kept.append(record)
                else:
                    rejected.append(
                        {"image_id": ann.image_id, "failures": list(verdict.failures)}
                    )
            records = kept
            rejects_out = f"{args.out}.rejects"
            with open(rejects_out, "w", encoding="utf-8", newline="\n") as fh:
                for item in rejected:
                    fh.write(json.dumps(item, ensure_ascii=False))
                    fh.write("\n")
    elif task is TaskType.VQA:
        records = _build_each(
            lambda it: builders.build_vqa_record(it.question, it.answer, it.image_id, it.modality),
            fileio.load_vqa_items(args.input, dm),
        )
    elif task is TaskType.RELATION:
        records = _build_each(
            lambda pair: builders.build_relation_record(*pair),
            fileio.load_relation_items(args.input, dm),
        )
    elif task is TaskType.DECOMPOSITION:
        def build_decomposition(item: fileio.DecompositionItem):
            region = normalize_box(item.region_px, item.annotation.width, item.annotation.height)
            return builders.build_decomposition_record(region, item.annotation, item.relations)

        records = _build_each(build_decomposition, fileio.load_decomposition_items(args.input, dm))
    elif task is TaskType.DECISION:
        records = _build_each(
            lambda it: builders.build_decision_record(
                it.start, it.goal, it.steps, it.image_ids, it.modality
            ),
            fileio.load_decision_items(args.input, dm),
        )
    else:
        records = _build_each(builders.build_scheduling_record, fileio.load_scene_records(args.input, dm))

    fileio.write_records(args.out, records)
    note = f"built {len(records)} records -> {args.out}"
    if rejects_out is not None:
        note += f", rejected {len(rejected)} -> {rejects_out}"
    _say(note)
    if args.json:
        payload = {"built": len(records), "out": str(args.out)}
        if rejects_out is not None:
            payload["rejected"] = len(rejected)
            payload["rejects_out"] = rejects_out
        print(json.dumps(payload, ensure_ascii=False))
    return ExitStatus.INVALID if rejected else ExitStatus.OK


# --- eval -------------------------------------------------------------------------


def _match_ids(preds: dict, gts: dict, *, allow_missing: bool = False) -> list[str]:
    def head(ids) -> str:
        shown = ", ".join(repr(v) for v in ids[:5])
        return shown + (", ..." if len(ids) > 5 else "")

    unknown = sorted(set(preds) - set(gts))
    if unknown:
        raise SchemaError(f"predictions for unknown ids: {head(unknown)}")
    if not allow_missing:
        missing = sorted(set(gts) - set(preds))
        if missing:
            raise SchemaError(f"no predictions for ids: {head(missing)}")
    return sorted(gts)


def _percent(value: float) -> float:
    return 100.0 * value


def _micro_prf(pred_map, gt_map, ids) -> dict[str, float]:
    """Precision, recall and F1 in percent over the triples of all ``ids`` pooled.

    Each triple is paired with its id, so it can only match one on the same image.
    """
    def pairs(triples_by_id):
        return [(key, t) for key in ids for t in triples_by_id.get(key, ())]

    prf = metrics.relation_f1(pairs(pred_map), pairs(gt_map))
    return {name: _percent(value) for name, value in prf._asdict().items()}


def _text_gen_metrics(preds_path, gts_path, value_key: str) -> tuple[dict[str, float], int]:
    preds = fileio.load_text_eval(preds_path, value_key, as_list=False)
    gts = fileio.load_text_eval(gts_path, "references", as_list=True)
    ids = _match_ids(preds, gts)
    candidates = [metrics.tokenize(preds[key].value) for key in ids]
    references = [[metrics.tokenize(r) for r in gts[key].value] for key in ids]
    out = {
        f"BLEU-{n}": _percent(bleu_corpus(candidates, references, n=n)) for n in (1, 2, 3, 4)
    }
    out["ROUGE-L"] = _percent(fmean(
        max(metrics.rouge_l(cand, ref) for ref in refs)
        for cand, refs in zip(candidates, references)
    ))
    return out, len(ids)


def _iou_tag(iou: float) -> str:
    return f"mAP@{iou * 100:g}"


def cmd_eval(args) -> int:
    task = TaskType(args.task)
    if task is TaskType.DETECTION:
        preds = fileio.load_det_predictions(args.preds)
        gts = fileio.load_det_ground_truth(args.gts)
        _match_ids(preds, gts, allow_missing=True)  # an image with no detections has no rows
        per_class, mean_ap = map50(preds, gts, args.iou)
        report = EvalReport(
            task=task.value,
            count=len(gts),
            metrics={_iou_tag(args.iou): _percent(mean_ap)},
            per_class={k: _percent(v) for k, v in per_class.items()},
        )
    elif task is TaskType.RELATION:
        pred_map = fileio.load_triple_file(args.preds)
        gt_map = fileio.load_triple_file(args.gts)
        ids = _match_ids(pred_map, gt_map)
        report = EvalReport(
            task=task.value, count=len(ids), metrics=_micro_prf(pred_map, gt_map, ids)
        )
    elif task is TaskType.CAPTION:
        scores, count = _text_gen_metrics(args.preds, args.gts, "caption")
        report = EvalReport(
            task=task.value,
            count=count,
            metrics=scores,
            unsupported=("METEOR", "CIDEr", "SPICE"),
        )
    elif task is TaskType.DECISION:
        scores, count = _text_gen_metrics(args.preds, args.gts, "plan")
        report = EvalReport(
            task=task.value, count=count, metrics=scores, unsupported=("SPICE",)
        )
    elif task is TaskType.CLASSIFICATION:
        preds = fileio.load_text_eval(args.preds, "label", as_list=False)
        gts = fileio.load_text_eval(args.gts, "label", as_list=False)
        ids = _match_ids(preds, gts)
        acc = metrics.accuracy([preds[k].value for k in ids], [gts[k].value for k in ids])
        report = EvalReport(task=task.value, count=len(ids), metrics={"accuracy": _percent(acc)})
    elif task is TaskType.VQA:
        preds = fileio.load_text_eval(args.preds, "answer", as_list=False)
        gts = fileio.load_text_eval(args.gts, "answer", as_list=False)
        ids = _match_ids(preds, gts)
        overall = metrics.accuracy([preds[k].value for k in ids], [gts[k].value for k in ids])
        by_type: dict[str, list[str]] = {}
        for key in ids:
            by_type.setdefault(gts[key].question_type or "untyped", []).append(key)
        per_type = {
            qtype: _percent(metrics.accuracy(
                [preds[k].value for k in keys], [gts[k].value for k in keys]
            ))
            for qtype, keys in by_type.items()
        }
        report = EvalReport(
            task=task.value,
            count=len(ids),
            metrics={"accuracy": _percent(overall), "avg_acc": fmean(per_type.values())},
            per_class=per_type,
        )
    elif task is TaskType.DECOMPOSITION:
        pred_boxes, pred_triples = fileio.load_decomposition_eval(args.preds, True)
        gt_boxes, gt_triples = fileio.load_decomposition_eval(args.gts, False)
        ids = _match_ids(pred_boxes, gt_boxes)
        per_class, mean_ap = map50(pred_boxes, gt_boxes, args.iou)
        report = EvalReport(
            task=task.value,
            count=len(ids),
            metrics={
                _iou_tag(args.iou): _percent(mean_ap),
                **_micro_prf(pred_triples, gt_triples, ids),
            },
            per_class={k: _percent(v) for k, v in per_class.items()},
        )
    else:  # scheduling
        if args.success_radius is None:
            raise SchemaError("--success-radius is required for scheduling evaluation")
        paths = fileio.load_path_predictions(args.preds)
        goals = fileio.load_nav_ground_truth(args.gts)
        ids = _match_ids(paths, goals)
        episodes = [
            NavEpisode(
                predicted_path=paths[key],
                goal=goals[key][0],
                shortest_path_length=goals[key][1],
                success_radius=args.success_radius,
            )
            for key in ids
        ]
        nm = nav_metrics(episodes)
        report = EvalReport(
            task=task.value,
            count=len(episodes),
            metrics={"NE": nm.ne, "SR": nm.sr, "OSR": nm.osr, "SPL": nm.spl},
        )

    if args.json:
        print(json.dumps(report.to_dict(), ensure_ascii=False))
    else:
        print(report.render())
    return ExitStatus.OK


# --- decode / fit -------------------------------------------------------------------


def cmd_decode(args) -> int:
    weights, d_e, d_h = fileio.load_weights(args.weights)
    latent = fileio.load_latent(args.latent)
    cfg = DecoderConfig(d_e=d_e, d_h=d_h, max_steps=args.max_steps,
                        termination_threshold=args.threshold)
    trajectory = decode(latent, weights, cfg)
    if args.json:
        print(json.dumps({
            "steps": [list(state.values) for state in trajectory.states],
            "terminated_by": trajectory.terminated_by.value,
        }))
    else:
        print(f"steps: {len(trajectory.states)} (terminated by {trajectory.terminated_by.value})")
        for t, state in enumerate(trajectory.states, start=1):
            print(f"{t}: " + " ".join(f"{v:.6f}" for v in state.values))
    return ExitStatus.OK


def cmd_fit(args) -> int:
    targets = fileio.load_targets(args.targets)
    max_steps = args.max_steps if args.max_steps is not None else len(targets)
    if args.latent is not None:
        latent = fileio.load_latent(args.latent)
        d_e = args.d_e if args.d_e is not None else len(latent)
        if len(latent) != d_e:
            raise SchemaError(f"--d-e {d_e} disagrees with a latent of length {len(latent)}")
    else:
        d_e = args.d_e if args.d_e is not None else 4
        latent = np.random.default_rng(args.seed).uniform(-1.0, 1.0, d_e)
    cfg = DecoderConfig(d_e=d_e, d_h=args.d_h, max_steps=max_steps,
                        termination_threshold=args.threshold)
    weights, curve = fit(latent, targets, cfg, lr=args.lr, iters=args.iters, seed=args.seed)
    if args.weights_out:
        fileio.save_weights(args.weights_out, weights, cfg)
        _say(f"weights -> {args.weights_out}")
    if args.curve_out:
        fileio.write_loss_curve(args.curve_out, curve)
        _say(f"loss curve -> {args.curve_out}")
    if args.json:
        print(json.dumps({
            "initial_loss": curve[0],
            "final_loss": curve[-1],
            "iterations": args.iters,
            "steps_decoded": max_steps,
        }))
    else:
        print(f"initial loss: {curve[0]:.6f}")
        print(f"final loss: {curve[-1]:.6f}")
    return ExitStatus.OK


# --- Argument wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsvl",
        description="Task-markup records: build, validate, evaluate; decode and fit trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a record stream for schema and markup problems")
    v.add_argument("records", help="JSONL record file")
    v.add_argument("--strict", action="store_true",
                   help="also require canonical serialization, task markers and"
                        " self-consistent decomposition responses")
    v.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    v.set_defaults(func=cmd_validate)

    b = sub.add_parser("build", help="turn annotation files into instruction records")
    b.add_argument("task", choices=[t.value for t in TaskType])
    b.add_argument("input", help="annotation JSON file (layouts in docs/formats.md)")
    b.add_argument("-o", "--out", required=True, help="output JSONL path")
    b.add_argument("--modality", choices=[m.value for m in Modality], default="opt",
                   help="modality to assume when the input omits one")
    b.add_argument("--synonyms", help="JSON table of caption term synonyms")
    b.add_argument("--validate-captions", action="store_true",
                   help="check captions against their annotations; rejects go to OUT.rejects")
    b.add_argument("--similarity-benchmark", type=_positive_float, default=None,
                   help="minimum similarity_score a caption must carry to pass validation")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("eval", help="score predictions against ground truth")
    e.add_argument("task", choices=[t.value for t in TaskType])
    e.add_argument("--preds", required=True)
    e.add_argument("--gts", required=True)
    e.add_argument("--iou", type=_unit_float, default=0.5,
                   help="IoU threshold for box matching (default 0.5)")
    e.add_argument("--success-radius", type=_positive_float, default=None,
                   help="scene-unit radius for navigation success (scheduling only)")
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_eval)

    d = sub.add_parser("decode", help="expand a latent embedding into trajectory states")
    d.add_argument("--weights", required=True, help="decoder weight JSON file")
    d.add_argument("--latent", required=True, help="JSON array holding the embedding")
    d.add_argument("-T", "--max-steps", type=_positive_int, required=True)
    d.add_argument("-p", "--threshold", type=_positive_float, default=1e-3)
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_decode)

    f = sub.add_parser("fit", help="gradient-descent decoder weights onto target states")
    f.add_argument("--targets", required=True, help="JSON array of 6-number state rows in (0, 1)")
    f.add_argument("--weights-out", help="where to write the fitted weight JSON")
    f.add_argument("--curve-out", help="where to write the iteration,loss CSV")
    f.add_argument("--latent", help="embedding JSON array; omitted: drawn uniform [-1,1] from --seed")
    f.add_argument("--lr", type=_positive_float, default=0.05)
    f.add_argument("--iters", type=_nonneg_int, default=500)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--d-e", type=_positive_int, default=None,
                   help="embedding size (default: latent length, else 4)")
    f.add_argument("--d-h", type=_positive_int, default=8)
    f.add_argument("-T", "--max-steps", type=_positive_int, default=None,
                   help="unroll cap (default: number of target rows)")
    f.add_argument("-p", "--threshold", type=_positive_float, default=1e-3)
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (DivergenceDetected, InvariantViolation) as e:
        _say(f"error: {e}")
        return int(ExitStatus.INTERNAL)
    except ToolkitError as e:
        path = getattr(e, "path", None)
        _say(f"error: {e}" + (f" (in {path})" if path else ""))
        return int(ExitStatus.BAD_INPUT)
    except (OSError, UnicodeDecodeError) as e:
        _say(f"error: {e}")
        return int(ExitStatus.BAD_INPUT)
    except Exception as e:  # a bug, not bad input: one line, never a traceback or exit 1
        _say(f"error: internal: {e!r}")
        return int(ExitStatus.INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
