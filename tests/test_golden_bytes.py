"""Byte pins: SHA-256 of what the CLI prints and writes on seeded inputs.

The build inputs come from ``bench/corpus.py`` as it stands, so those digests
move only when the bytes ``rsvl build`` writes (or the report ``rsvl validate``
prints) move.  The eval, fit and decode inputs are generated here from
``EVAL_SEED``: predictions are perturbed copies of the ground truth, so no
metric sits at its floor or ceiling.  ``tests/data/golden_sha256.json`` holds
the expected values.
"""

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

from rsvl.cli import main

from conftest import write_json

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "data" / "golden_sha256.json"

DET_SEED, DET_IMAGES = 2, 300
MIXED_SEED, MIXED_PER_TASK = 1, 50
EVAL_SEED, EVAL_ITEMS = 6, 24
BUILD_GROUPS = ("det-corpus", "mixed-corpus")


def load_corpus():
    name = "rsvl_bench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "corpus.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def digests(work: Path, capsys) -> dict[str, str]:
    """Build every task from the seeded corpora; map each output to its digest."""
    corpus = load_corpus()
    out: dict[str, str] = {}

    det = corpus.det_corpus(random.Random(DET_SEED), work, DET_IMAGES)
    det_out = work / "det.jsonl"
    assert _run(capsys, "build", "detection", det.annotations, "-o", det_out)[0] == 0
    out["det-corpus/detection"] = _sha(det_out.read_bytes())

    mixed = corpus.mixed_corpus(random.Random(MIXED_SEED), work, MIXED_PER_TASK)
    built = []
    for task, path in mixed.inputs.items():
        target = work / f"{task}.jsonl"
        assert _run(capsys, "build", task, path, "-o", target)[0] == 0
        out[f"mixed-corpus/{task}"] = _sha(target.read_bytes())
        built.append(target.read_text(encoding="utf-8"))

    gated = work / "caption-gated.jsonl"
    code, _ = _run(capsys, "build", "caption", mixed.inputs["caption"], "-o", gated,
                   "--validate-captions", "--similarity-benchmark", "0.8")
    assert code == 1
    out["mixed-corpus/caption-gated"] = _sha(gated.read_bytes())
    out["mixed-corpus/caption-gated.rejects"] = _sha(Path(f"{gated}.rejects").read_bytes())

    lines = "".join(built).splitlines()
    lines, _ = corpus.plant_corruptions(random.Random(MIXED_SEED), lines, mixed.corrupt_share)
    records = work / "all.jsonl"
    records.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code, report = _run(capsys, "validate", records, "--strict", "--json")
    assert code == 1
    out["mixed-corpus/validate-strict-report"] = _sha(report.encode("utf-8"))
    return out


# --- eval / fit / decode ---------------------------------------------------------

CATS = ("plane", "ship", "harbor", "bridge", "storage-tank")
RELS = ("next to", "docked at", "crossing")
WORDS = ("two", "ships", "moored", "in", "the", "harbor", "a", "plane", "on", "runway",
         "near", "bridge", "large", "small", "3.5", "river", "crossing", "then", "land")
LABELS = ("harbor", "airport", "farmland", "river")
ANSWERS = ("yes", "no", "one", "two", "three")


def _grid_box(rng: random.Random) -> list[int]:
    x1, y1 = rng.randrange(0, 900), rng.randrange(0, 900)
    return [x1, y1, rng.randrange(x1, min(x1 + 120, 999) + 1), rng.randrange(y1, min(y1 + 120, 999) + 1)]


def _jitter(rng: random.Random, box: list[int]) -> list[int]:
    x1, y1, x2, y2 = (min(max(v + rng.randint(-6, 6), 0), 999) for v in box)
    return [min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)]


def _detections(rng: random.Random) -> tuple[list[dict], list[dict]]:
    """One image's ground truth and predictions: jittered, missed, spurious, relabelled."""
    gts = [{"category": rng.choice(CATS), "box": _grid_box(rng)} for _ in range(rng.randint(1, 5))]
    preds = []
    for gt in gts:
        if rng.random() < 0.8:
            category = gt["category"] if rng.random() < 0.85 else rng.choice(CATS)
            preds.append({"category": category, "box": _jitter(rng, gt["box"]),
                          "confidence": round(rng.random(), 3)})
    for _ in range(rng.randint(0, 2)):
        preds.append({"category": rng.choice(CATS), "box": _grid_box(rng),
                      "confidence": round(rng.random(), 3)})
    return gts, preds


def _triples(rng: random.Random) -> tuple[list[list[str]], list[list[str]]]:
    gts = [[rng.choice(CATS), rng.choice(RELS), rng.choice(CATS)] for _ in range(rng.randint(0, 4))]
    preds = [t for t in gts if rng.random() < 0.7]
    preds += [[rng.choice(CATS), rng.choice(RELS), rng.choice(CATS)] for _ in range(rng.randint(0, 2))]
    return gts, preds


def _sentence(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(4, 10)))


def _variant(rng: random.Random, text: str) -> str:
    return " ".join(w if rng.random() < 0.75 else rng.choice(WORDS) for w in text.split())


def eval_inputs(work: Path) -> dict[str, tuple]:
    """Per task: (preds, gts, extra argv) files for ``rsvl eval``."""
    rng = random.Random(EVAL_SEED)
    ids = [f"e{i:03d}" for i in range(EVAL_ITEMS)]
    rows: dict[str, tuple[list, list]] = {task: ([], []) for task in (
        "detection", "relation", "caption", "decision", "classification", "vqa",
        "decomposition", "scheduling")}

    def add(task, pred, gt):
        rows[task][0].append(pred)
        rows[task][1].append(gt)

    for key in ids:
        gts, preds = _detections(rng)  # detection rows are per box, not per image
        rows["detection"][0].extend({"image_id": key, **p} for p in preds)
        rows["detection"][1].extend({"image_id": key, **g} for g in gts)

        gt_t, pred_t = _triples(rng)
        add("relation", {"image_id": key, "triples": pred_t}, {"image_id": key, "triples": gt_t})

        for task, value_key in (("caption", "caption"), ("decision", "plan")):
            refs = [_sentence(rng) for _ in range(rng.randint(1, 3))]
            add(task, {"id": key, value_key: _variant(rng, rng.choice(refs))},
                {"id": key, "references": refs})

        label = rng.choice(LABELS)
        add("classification", {"id": key, "label": label if rng.random() < 0.7 else rng.choice(LABELS)},
            {"id": key, "label": label})

        answer = rng.choice(ANSWERS)
        gt_row = {"id": key, "answer": answer}
        if rng.random() < 0.7:  # the rest count as "untyped"
            gt_row["question_type"] = rng.choice(("existence", "count"))
        add("vqa", {"id": key, "answer": answer if rng.random() < 0.6 else rng.choice(ANSWERS)}, gt_row)

        gts, preds = _detections(rng)
        gt_t, pred_t = _triples(rng)
        add("decomposition", {"image_id": key, "detections": preds, "triples": pred_t},
            {"image_id": key, "detections": gts, "triples": gt_t})

        goal = [round(rng.uniform(0, 100), 2) for _ in range(3)]
        path = [[round(rng.uniform(0, 100), 2) for _ in range(3)] for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:  # passes the goal before it ends: counts for OSR only
            path.append([round(g + rng.uniform(-2, 2), 2) for g in goal])
        path.append([round(g + rng.uniform(-8, 8), 2) for g in goal])
        path = [p + [0.0, 0.0, round(rng.uniform(-1, 1), 3)] if rng.random() < 0.4 else p
                for p in path]  # 6-number poses, truncated to their position
        add("scheduling", {"id": key, "path": path},
            {"id": key, "goal": goal, "shortest_path_length": round(rng.uniform(5, 150), 2)})

    extra = {"scheduling": ("--success-radius", "5")}
    return {
        task: (write_json(work / f"{task}.preds.json", preds),
               write_json(work / f"{task}.gts.json", gts), extra.get(task, ()))
        for task, (preds, gts) in rows.items()
    }


def eval_decoder_digests(work: Path, capsys) -> dict[str, str]:
    """``rsvl eval`` for all eight tasks in both output forms, then fit and decode."""
    out: dict[str, str] = {}
    for task, (preds, gts, extra) in eval_inputs(work).items():
        for form, flags in (("json", ("--json",)), ("text", ())):
            code, stdout = _run(capsys, "eval", task, "--preds", preds, "--gts", gts, *extra, *flags)
            assert code == 0
            out[f"eval/{task}.{form}"] = _sha(stdout.encode("utf-8"))

    rng = random.Random(EVAL_SEED)
    targets = write_json(work / "targets.json",
                     [[round(rng.uniform(0.1, 0.9), 4) for _ in range(6)] for _ in range(5)])
    latent = write_json(work / "latent.json", [round(rng.uniform(-1, 1), 4) for _ in range(3)])
    weights, curve = work / "weights.json", work / "curve.csv"
    fit_args = ("fit", "--targets", targets, "--latent", latent, "--d-h", "5", "--iters", "60",
                "--lr", "1.5", "--seed", "11", "-p", "1e-9")
    code, stdout = _run(capsys, *fit_args, "--weights-out", weights, "--curve-out", curve, "--json")
    assert code == 0
    out["fit/json"] = _sha(stdout.encode("utf-8"))
    out["fit/curve"] = _sha(curve.read_bytes())
    out["fit/weights"] = _sha(weights.read_bytes())
    code, stdout = _run(capsys, *fit_args)
    assert code == 0
    out["fit/text"] = _sha(stdout.encode("utf-8"))

    for form, flags in (("json", ("--json",)), ("text", ())):
        code, stdout = _run(capsys, "decode", "--weights", weights, "--latent", latent,
                            "-T", "8", *flags)
        assert code == 0
        out[f"decode/{form}"] = _sha(stdout.encode("utf-8"))
    return out


def _expected(*, build: bool) -> dict[str, str]:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {k: v for k, v in golden.items() if (k.split("/")[0] in BUILD_GROUPS) == build}


def test_build_outputs_match_golden_digests(tmp_path, capsys):
    assert digests(tmp_path, capsys) == _expected(build=True)


def test_eval_fit_decode_outputs_match_golden_digests(tmp_path, capsys):
    assert eval_decoder_digests(tmp_path, capsys) == _expected(build=False)
