"""Command line front end: validate, build, eval, decode, fit.

Exit codes: 0 success, 1 validation failures in otherwise readable input,
2 unreadable or malformed input (including argument errors), 3 internal
invariant breaks, diverging optimization and any unexpected error.
Machine-readable results go to stdout only under --json; everything
diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from enum import IntEnum

from . import builders, fileio, metrics
from .builders import TaskType, check_record, validate_caption
from .errors import (
    DivergenceDetected,
    InvariantViolation,
    MarkupError,
    SchemaError,
    ToolkitError,
)
from .markup import Modality, emit, normalize_box, parse
from .metrics import EvalReport, NavEpisode, bleu_corpus, map50, nav_metrics

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


def _finite_positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return value


# --- validate ---------------------------------------------------------------------


def _validate_line(line: str | bytes, strict: bool) -> list[str]:
    """All problems with one record line, without the "record N:" prefix."""
    try:
        record = fileio.parse_record_line(line)
    except SchemaError as e:
        return [str(e)]

    failures: list[str] = []
    if strict and line.endswith(b"\r" if isinstance(line, bytes) else "\r"):
        failures.append("line ends in CRLF; records end in LF alone")
    docs = {}
    for field_name, text in (("prompt", record.prompt), ("response", record.response)):
        try:
            docs[field_name] = parse(text)
        except MarkupError as e:
            failures.append(f"{field_name}: {e}")
    if not strict:
        return failures

    for field_name, doc in docs.items():
        if emit(doc) != getattr(record, field_name):
            failures.append(f"{field_name}: not in canonical serialization")
    failures.extend(check_record(record.task, docs.get("prompt"), docs.get("response")))
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


@fileio._names_file
def _build_each(path, build, items) -> list:
    """``build`` over the ``items`` read from ``path``; toolkit errors name the item and the file."""
    return fileio._each(lambda item, index: build(item), items)


def _build_decomposition(item: fileio.DecompositionItem):
    region = normalize_box(item.region_px, item.annotation.width, item.annotation.height)
    return builders.build_decomposition_record(region, item.annotation, item.relations)


def cmd_build(args) -> int:
    task = TaskType(args.task)
    if args.similarity_benchmark is not None and not args.validate_captions:
        raise SchemaError("--similarity-benchmark needs --validate-captions")
    if args.validate_captions and task is not TaskType.CAPTION:
        raise SchemaError("caption validation options only apply to the caption task")

    # looked up per call: the traced benchmark run replaces these functions by name
    loader, build = {
        TaskType.DETECTION: (fileio.load_image_annotations, builders.build_detection_record),
        TaskType.CAPTION: (fileio.load_image_annotations, builders.build_caption_record),
        TaskType.CLASSIFICATION: (fileio.load_image_annotations,
                                  builders.build_classification_record),
        TaskType.VQA: (fileio.load_vqa_items, lambda item: builders.build_vqa_record(*item)),
        TaskType.RELATION: (fileio.load_relation_items,
                            lambda item: builders.build_relation_record(*item)),
        TaskType.DECOMPOSITION: (fileio.load_decomposition_items, _build_decomposition),
        TaskType.DECISION: (fileio.load_decision_items,
                            lambda item: builders.build_decision_record(*item)),
        TaskType.SCHEDULING: (fileio.load_scene_records, builders.build_scheduling_record),
    }[task]
    items = loader(args.input, args.modality)
    records = _build_each(args.input, build, items)

    rejected: list[dict] = []
    rejects_out = None
    if args.validate_captions:
        scores = (
            fileio.load_similarity_scores(args.input)
            if args.similarity_benchmark is not None
            else [None] * len(items)
        )
        kept = []
        for ann, record, score in zip(items, records, scores):
            verdict = validate_caption(record.response, ann, score=score,
                                       benchmark=args.similarity_benchmark)
            if verdict.passed:
                kept.append(record)
            else:
                rejected.append({"image_id": ann.image_id, "failures": list(verdict.failures)})
        records = kept
        rejects_out = f"{args.out}.rejects"
        with open(rejects_out, "w", encoding="utf-8", newline="\n") as fh:
            for item in rejected:
                fh.write(json.dumps(item, ensure_ascii=False))
                fh.write("\n")

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


def _match_ids(args, preds: dict, gts: dict, *, allow_missing: bool = False) -> list[str]:
    """The ids to score, sorted; an id in one file only is a fault of the predictions file.

    Ground truth without a row is a fault of its own file (detection leaves that to ``map50``).
    """
    def head(ids) -> str:
        shown = ", ".join(repr(v) for v in ids[:5])
        return shown + (", ..." if len(ids) > 5 else "")

    if not (gts or allow_missing):
        raise SchemaError("no ground-truth rows to evaluate against", path=args.gts)
    unknown = sorted(set(preds) - set(gts))
    if unknown:
        raise SchemaError(f"predictions for unknown ids: {head(unknown)}", path=args.preds)
    if not allow_missing:
        missing = sorted(set(gts) - set(preds))
        if missing:
            raise SchemaError(f"no predictions for ids: {head(missing)}", path=args.preds)
    return sorted(gts)


def _percent(value: float) -> float:
    return 100.0 * value


def _mean(values) -> float:
    """``statistics.fmean``'s result, without importing ``statistics``."""
    values = list(values)
    return math.fsum(values) / len(values)


def _micro_prf(pred_map, gt_map, ids) -> dict[str, float]:
    """Precision, recall and F1 in percent over the triples of all ``ids`` pooled.

    Each triple is paired with its id, so it can only match one on the same image.
    """
    def pairs(triples_by_id):
        return [(key, t) for key in ids for t in triples_by_id.get(key, ())]

    prf = metrics.relation_f1(pairs(pred_map), pairs(gt_map))
    return {name: _percent(value) for name, value in prf._asdict().items()}


def _text_gen_metrics(args, value_key: str) -> tuple[dict[str, float], int]:
    preds = fileio.load_text_eval(args.preds, value_key, as_list=False)
    gts = fileio.load_text_eval(args.gts, "references", as_list=True)
    ids = _match_ids(args, preds, gts)
    candidates = [metrics.tokenize(preds[key].value) for key in ids]
    references = [[metrics.tokenize(r) for r in gts[key].value] for key in ids]
    bleus = bleu_corpus(candidates, references, n=4)
    out = {f"BLEU-{n}": _percent(score) for n, score in enumerate(bleus, 1)}
    out["ROUGE-L"] = _percent(_mean(
        max(metrics.rouge_l(cand, ref) for ref in refs)
        for cand, refs in zip(candidates, references)
    ))
    return out, len(ids)


def cmd_eval(args) -> int:
    task = TaskType(args.task)
    boxes = task in (TaskType.DETECTION, TaskType.DECOMPOSITION)
    if args.iou is not None and not boxes:
        raise SchemaError("--iou only applies to the detection and decomposition tasks")
    if args.success_radius is not None and task is not TaskType.SCHEDULING:
        raise SchemaError("--success-radius only applies to the scheduling task")
    per_class = None
    unsupported: tuple[str, ...] = ()
    if boxes:
        if task is TaskType.DETECTION:
            preds = fileio.load_det_predictions(args.preds)
            gts = fileio.load_det_ground_truth(args.gts)
            _match_ids(args, preds, gts, allow_missing=True)  # an image with no detections has no rows
            count, triple_scores = len(gts), {}
        else:
            preds, pred_triples = fileio.load_decomposition_eval(args.preds, True)
            gts, gt_triples = fileio.load_decomposition_eval(args.gts, False)
            ids = _match_ids(args, preds, gts)
            count, triple_scores = len(ids), _micro_prf(pred_triples, gt_triples, ids)
        # a ground-truth file without a single box is the file's fault, so the error names it
        iou = 0.5 if args.iou is None else args.iou
        by_class, mean_ap = fileio._names_file(lambda _: map50(preds, gts, iou))(args.gts)
        scores = {f"mAP@{iou * 100:g}": _percent(mean_ap), **triple_scores}
        per_class = {k: _percent(v) for k, v in by_class.items()}
    elif task is TaskType.RELATION:
        pred_map = fileio.load_triple_file(args.preds)
        gt_map = fileio.load_triple_file(args.gts)
        ids = _match_ids(args, pred_map, gt_map)
        count, scores = len(ids), _micro_prf(pred_map, gt_map, ids)
    elif task is TaskType.CAPTION:
        scores, count = _text_gen_metrics(args, "caption")
        unsupported = ("METEOR", "CIDEr", "SPICE")
    elif task is TaskType.DECISION:
        scores, count = _text_gen_metrics(args, "plan")
        unsupported = ("SPICE",)
    elif task in (TaskType.CLASSIFICATION, TaskType.VQA):
        value_key = "label" if task is TaskType.CLASSIFICATION else "answer"
        preds = fileio.load_text_eval(args.preds, value_key, as_list=False)
        gts = fileio.load_text_eval(args.gts, value_key, as_list=False)
        ids = _match_ids(args, preds, gts)

        def accuracy(keys) -> float:
            return _percent(metrics.accuracy([preds[k].value for k in keys],
                                             [gts[k].value for k in keys]))

        count, scores = len(ids), {"accuracy": accuracy(ids)}
        if task is TaskType.VQA:
            by_type: dict[str, list[str]] = {}
            for key in ids:
                by_type.setdefault(gts[key].question_type or "untyped", []).append(key)
            per_class = {qtype: accuracy(keys) for qtype, keys in by_type.items()}
            scores["avg_acc"] = _mean(per_class.values())
    else:  # scheduling
        if args.success_radius is None:
            raise SchemaError("--success-radius is required for scheduling evaluation")
        paths = fileio.load_path_predictions(args.preds)
        goals = fileio.load_nav_ground_truth(args.gts)
        ids = _match_ids(args, paths, goals)
        nm = nav_metrics([
            NavEpisode(
                predicted_path=paths[key],
                goal=goals[key][0],
                shortest_path_length=goals[key][1],
                success_radius=args.success_radius,
            )
            for key in ids
        ])
        count, scores = len(ids), {"NE": nm.ne, "SR": nm.sr, "OSR": nm.osr, "SPL": nm.spl}

    report = EvalReport(task=task.value, count=count, metrics=scores, per_class=per_class,
                        unsupported=unsupported)
    if args.json:
        print(json.dumps(report.to_dict(), ensure_ascii=False))
    else:
        print(report.render())
    return ExitStatus.OK


# --- decode / fit -------------------------------------------------------------------
#
# numpy and the decoder load only when one of these two commands runs.  ``decode`` and
# ``fit`` stay names on this module, so the traced benchmark run can replace them.


def decode(h_tra, weights, cfg):
    from . import trajectory

    return trajectory.decode(h_tra, weights, cfg)


def fit(h_tra, gt, cfg, lr, iters, seed):
    from . import trajectory

    return trajectory.fit(h_tra, gt, cfg, lr, iters, seed)


def cmd_decode(args) -> int:
    from .trajectory import DecoderConfig

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
    import numpy as np

    from .trajectory import DecoderConfig

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

    b = sub.add_parser("build", help="turn annotation files into instruction records")
    b.add_argument("task", choices=[t.value for t in TaskType])
    b.add_argument("input", help="annotation JSON file (layouts in docs/formats.md)")
    b.add_argument("-o", "--out", required=True, help="output JSONL path")
    b.add_argument("--modality", choices=[m.value for m in Modality], default="opt",
                   help="modality to assume when the input omits one")
    b.add_argument("--validate-captions", action="store_true",
                   help="check captions against their annotations; rejects go to OUT.rejects")
    b.add_argument("--similarity-benchmark", type=_finite_positive_float, default=None,
                   help="minimum similarity_score a caption must carry to pass validation")
    b.add_argument("--json", action="store_true")

    e = sub.add_parser("eval", help="score predictions against ground truth")
    e.add_argument("task", choices=[t.value for t in TaskType])
    e.add_argument("--preds", required=True)
    e.add_argument("--gts", required=True)
    e.add_argument("--iou", type=_unit_float, default=None,
                   help="IoU threshold for box matching (detection and decomposition only; default 0.5)")
    e.add_argument("--success-radius", type=_finite_positive_float, default=None,
                   help="scene-unit radius for navigation success (scheduling only)")
    e.add_argument("--json", action="store_true")

    d = sub.add_parser("decode", help="expand a latent embedding into trajectory states")
    d.add_argument("--weights", required=True, help="decoder weight JSON file")
    d.add_argument("--latent", required=True, help="JSON array holding the embedding")
    d.add_argument("-T", "--max-steps", type=_positive_int, required=True)
    d.add_argument("-p", "--threshold", type=_finite_positive_float, default=1e-3)
    d.add_argument("--json", action="store_true")

    f = sub.add_parser("fit", help="gradient-descent decoder weights onto target states")
    f.add_argument("--targets", required=True, help="JSON array of 6-number state rows in (0, 1)")
    f.add_argument("--weights-out", help="where to write the fitted weight JSON")
    f.add_argument("--curve-out", help="where to write the iteration,loss CSV")
    f.add_argument("--latent", help="embedding JSON array; omitted: drawn uniform [-1,1] from --seed")
    f.add_argument("--lr", type=_finite_positive_float, default=0.05)
    f.add_argument("--iters", type=_nonneg_int, default=500)
    f.add_argument("--seed", type=_nonneg_int, default=0)
    f.add_argument("--d-e", type=_positive_int, default=None,
                   help="embedding size (default: latent length, else 4)")
    f.add_argument("--d-h", type=_positive_int, default=8)
    f.add_argument("-T", "--max-steps", type=_positive_int, default=None,
                   help="unroll cap (default: number of target rows)")
    f.add_argument("-p", "--threshold", type=_finite_positive_float, default=1e-3)
    f.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a command replaced on this module after import is the one run
    command = {"validate": cmd_validate, "build": cmd_build, "eval": cmd_eval,
               "decode": cmd_decode, "fit": cmd_fit}[args.command]
    try:
        return int(command(args))
    except (DivergenceDetected, InvariantViolation) as e:
        _say(f"error: {e}")
        return int(ExitStatus.INTERNAL)
    except ToolkitError as e:
        path = getattr(e, "path", None)
        _say(f"error: {e}" + (f" (in {path})" if path else ""))
        return int(ExitStatus.BAD_INPUT)
    except OSError as e:
        _say(f"error: {e}")
        return int(ExitStatus.BAD_INPUT)
    except Exception as e:  # a bug, not bad input: one line, never a traceback or exit 1
        _say(f"error: internal: {e!r}")
        return int(ExitStatus.INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
