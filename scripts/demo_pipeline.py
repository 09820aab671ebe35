"""End-to-end demo: build, validate and score all eight tasks on synthetic data.

Writes working files under --workdir, or by default under a fresh temp
directory that is removed on exit, then drives the CLI in-process: build each
task from a small annotation fixture, validate the output strictly, and close
the loop by scoring predictions copied from ground truth. Every metric should
land at its ceiling; any nonzero exit stops the script.
"""

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from rsvl.cli import main as rsvl

ANNOTATIONS = [
    {
        "image_id": "img-001",
        "width": 1000,
        "height": 1000,
        "scene_label": "harbor",
        "objects": [
            {"category": "ship", "box": [0, 0, 100, 100], "shape": "small"},
            {"category": "ship", "box": [400, 400, 500, 500], "shape": "small"},
            {"category": "plane", "box": [200, 200, 300, 300]},
        ],
    },
    {
        "image_id": "img-002",
        "width": 800,
        "height": 600,
        "scene_label": "industrial area",
        "objects": [
            {"category": "storage tank", "box": [10, 10, 200, 200], "shape": "round"},
        ],
    },
]

VQA_ITEMS = [
    {"image_id": "img-001", "question": "Is there a ship in the image?", "answer": "yes"},
    {"image_id": "img-002", "question": "How many tanks are visible?", "answer": "one"},
]

RELATION_ITEMS = [
    {
        "image_id": "img-003",
        "width": 1000,
        "height": 1000,
        "subject": {"category": "car", "box": [100, 500, 160, 800]},
        "object": {"category": "road", "box": [0, 400, 999, 900]},
        "relation": "driving on",
    },
]

DECOMPOSITION_ITEMS = [
    {
        "image": {
            "image_id": "img-004",
            "width": 1000,
            "height": 1000,
            "objects": [
                {"category": "car", "box": [100, 100, 200, 200]},
                {"category": "road", "box": [50, 50, 450, 450]},
            ],
        },
        "region": [0, 0, 500, 500],
        "relations": [{"subject": 0, "object": 1, "relation": "driving on"}],
    },
]

DECISION_ITEMS = [
    {
        "start": [0, 0, 10, 0, 0, 0],
        "goal": [50, 50, 10, 0, 0, 0],
        "steps": ["lift off", "turn left", "land"],
        "image_ids": ["img-005"],
    },
]

SCENE_ITEMS = [
    {
        "image_id": "img-006",
        "description": "a tall tower north of the river bend",
        "landmark_name": "bridge",
        "landmark_pos": [12, 34, 5],
        "target_name": "tower",
        "target_pos": [56, 78, 9],
        "surroundings": ["river", "park"],
        "trajectory": [[0, 0, 10, 0, 0, 0], [10, 10, 10, 0, 0, 0], [56, 78, 9, 0, 0, 0]],
    },
]


def dump(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


def run(*argv) -> None:
    shown = " ".join(str(a) for a in argv)
    print(f"$ rsvl {shown}")
    code = rsvl([str(a) for a in argv])
    if code != 0:
        sys.exit(f"step failed with exit code {code}: rsvl {shown}")


def response_of(record_file: Path, index: int = 0) -> str:
    line = record_file.read_text(encoding="utf-8").splitlines()[index]
    return json.loads(line)["response"]


def build_and_validate(work: Path) -> dict[str, Path]:
    inputs = {
        "detection": dump(work / "annotations.json", ANNOTATIONS),
        "caption": dump(work / "annotations_cap.json", ANNOTATIONS),
        "classification": dump(work / "annotations_cls.json", ANNOTATIONS),
        "vqa": dump(work / "vqa.json", VQA_ITEMS),
        "relation": dump(work / "relation.json", RELATION_ITEMS),
        "decomposition": dump(work / "decomposition.json", DECOMPOSITION_ITEMS),
        "decision": dump(work / "decision.json", DECISION_ITEMS),
        "scheduling": dump(work / "scene.json", SCENE_ITEMS),
    }
    records = {}
    for task, source in inputs.items():
        out = work / f"{task}.jsonl"
        run("build", task, source, "-o", out)
        run("validate", out, "--strict")
        records[task] = out
    return records


def score_round_trip(work: Path, records: dict[str, Path]) -> None:
    """Evaluate each task with predictions copied from its own ground truth."""
    det_gt = [
        {"image_id": ann["image_id"], "category": obj["category"], "box": obj["box"]}
        for ann in ANNOTATIONS
        for obj in ann["objects"]
    ]
    det_pred = [dict(row, confidence=0.9) for row in det_gt]
    run("eval", "detection",
        "--preds", dump(work / "det_pred.json", det_pred),
        "--gts", dump(work / "det_gt.json", det_gt))

    labels = [{"id": a["image_id"], "label": a["scene_label"]} for a in ANNOTATIONS]
    run("eval", "classification",
        "--preds", dump(work / "cls_pred.json", labels),
        "--gts", dump(work / "cls_gt.json", labels))

    answers = [{"id": it["image_id"], "answer": it["answer"]} for it in VQA_ITEMS]
    run("eval", "vqa",
        "--preds", dump(work / "vqa_pred.json", answers),
        "--gts", dump(work / "vqa_gt.json",
                      [dict(row, question_type="existence") for row in answers]))

    caption = response_of(records["caption"])
    run("eval", "caption",
        "--preds", dump(work / "cap_pred.json", [{"id": "img-001", "caption": caption}]),
        "--gts", dump(work / "cap_gt.json", [{"id": "img-001", "references": [caption]}]))

    plan = response_of(records["decision"])
    run("eval", "decision",
        "--preds", dump(work / "plan_pred.json", [{"id": "d0", "plan": plan}]),
        "--gts", dump(work / "plan_gt.json", [{"id": "d0", "references": [plan]}]))

    triples = [{
        "image_id": it["image_id"],
        "triples": [[it["subject"]["category"], it["relation"], it["object"]["category"]]],
    } for it in RELATION_ITEMS]
    run("eval", "relation",
        "--preds", dump(work / "rel_pred.json", triples),
        "--gts", dump(work / "rel_gt.json", triples))

    decomp_gt = [{
        "image_id": item["image"]["image_id"],
        "detections": [
            {"category": obj["category"], "box": obj["box"]}
            for obj in item["image"]["objects"]
        ],
        "triples": [[
            item["image"]["objects"][rel["subject"]]["category"],
            rel["relation"],
            item["image"]["objects"][rel["object"]]["category"],
        ] for rel in item["relations"]],
    } for item in DECOMPOSITION_ITEMS]
    decomp_pred = [
        dict(row, detections=[dict(d, confidence=0.75) for d in row["detections"]])
        for row in decomp_gt
    ]
    run("eval", "decomposition",
        "--preds", dump(work / "decomp_pred.json", decomp_pred),
        "--gts", dump(work / "decomp_gt.json", decomp_gt))

    scene = SCENE_ITEMS[0]
    start, goal = scene["trajectory"][0][:3], scene["target_pos"]
    shortest = math.dist(start, goal)
    run("eval", "scheduling",
        "--preds", dump(work / "nav_pred.json", [
            {"id": scene["image_id"], "path": [pose[:3] for pose in scene["trajectory"]]},
        ]),
        "--gts", dump(work / "nav_gt.json", [
            {"id": scene["image_id"], "goal": goal, "shortest_path_length": shortest},
        ]),
        "--success-radius", 3.0)


def run_demo(work: Path) -> None:
    print(f"working directory: {work}")
    records = build_and_validate(work)
    score_round_trip(work, records)
    print("demo complete: all eight tasks built, validated and scored")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="directory for generated files, kept (default: a temp dir, removed)")
    args = parser.parse_args(argv)

    if args.workdir:
        work = Path(args.workdir)
        work.mkdir(parents=True, exist_ok=True)
        run_demo(work)
    else:
        with tempfile.TemporaryDirectory(prefix="rsvl_demo_") as tmp:
            run_demo(Path(tmp))


if __name__ == "__main__":
    main()
