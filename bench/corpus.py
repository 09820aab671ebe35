"""Seeded synthetic inputs for the benchmark workloads, with their expected outcomes.

Each generator writes the files one workload feeds to the ``rsvl`` CLI into a
work directory and returns what the benchmark needs to check the CLI's
answers: record counts, the planted caption rejections and corrupted record
lines, and, for detection, the record bytes rendered here independently of
``rsvl.builders``.  The same seed always gives the same files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# DOTA v1.0 category names: hyphenated, lower case, as real annotation files carry them
CATEGORIES = (
    "plane", "ship", "storage-tank", "baseball-diamond", "tennis-court",
    "basketball-court", "ground-track-field", "harbor", "bridge", "large-vehicle",
    "small-vehicle", "helicopter", "roundabout", "soccer-ball-field", "swimming-pool",
)
# one-word categories, whose caption claims the caption validator reads and checks
CAPTION_CATEGORIES = ("plane", "ship", "harbor", "bridge", "helicopter", "roundabout", "vehicle", "tank")
SHAPES = ("small", "medium", "large")
SCENES = (
    "harbor", "airport", "parking lot", "industrial area", "farmland",
    "residential area", "river", "forest", "stadium", "railway station",
)
RELATIONS = ("parked alongside", "driving on", "next to", "crossing", "docked at", "near")
MODALITIES = ("opt", "sar", "ir")
# image extents from 512 x 512 up to 4000 x 3000, both orientations
EXTENTS = (
    (512, 512), (800, 600), (1024, 1024), (1280, 720), (2048, 2048),
    (3000, 2000), (2000, 3000), (4000, 3000),
)
GRID = 1000
DETECTION_PROMPT = "Detect all objects shown in the remote sensing image and describe using HBBs."


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    return str(path)


def _px_box(rng: random.Random, width: int, height: int) -> list[int]:
    # at least 1/200 of the extent on each side, so every box stays at least
    # four cells wide on the 0..999 grid
    w = rng.randint(max(2, width // 200), max(3, width * 2 // 5))
    h = rng.randint(max(2, height // 200), max(3, height * 2 // 5))
    x1 = rng.randint(0, width - w)
    y1 = rng.randint(0, height - h)
    return [x1, y1, x1 + w, y1 + h]


def _image(rng: random.Random, index: int, categories=CATEGORIES, max_objects: int = 12) -> dict:
    width, height = rng.choice(EXTENTS)
    objects = []
    for _ in range(rng.randint(1, max_objects)):
        obj = {"category": rng.choice(categories), "box": _px_box(rng, width, height)}
        if rng.random() < 0.6:
            obj["shape"] = rng.choice(SHAPES)
        objects.append(obj)
    return {
        "image_id": f"img-{index:06d}",
        "width": width,
        "height": height,
        "modality": rng.choice(MODALITIES),
        "scene_label": rng.choice(SCENES),
        "objects": objects,
    }


# --- det-corpus ---------------------------------------------------------------


def _grid(v: int, extent: int) -> int:
    return min(GRID - 1, v * GRID // extent)


def detection_line(ann: dict) -> str:
    """The JSONL line ``rsvl build detection`` must write for ``ann``."""
    groups: dict[str, list] = {}
    for obj in ann["objects"]:
        groups.setdefault(obj["category"], []).append(obj["box"])
    w, h = ann["width"], ann["height"]
    parts = []
    for category, boxes in groups.items():
        body = ", ".join(
            f"[{_grid(x1, w)},{_grid(y1, h)},{_grid(x2, w)},{_grid(y2, h)}]"
            for x1, y1, x2, y2 in boxes
        )
        parts.append(f"{len(boxes)} <|ref|>{category}<|/ref|><|det|>[{body}]<|/det|>")
    verb = "is" if len(ann["objects"]) == 1 else "are"
    record = {
        "image_refs": [ann["image_id"]],
        "modality": ann["modality"],
        "task": "detection",
        "prompt": DETECTION_PROMPT,
        "response": f"There {verb} " + ", ".join(parts) + " in the image.",
    }
    return json.dumps(record, ensure_ascii=False)


@dataclass
class DetCorpus:
    annotations: str
    records: int
    expected_bytes: bytes


def det_corpus(rng: random.Random, work: Path, n_images: int) -> DetCorpus:
    anns = [_image(rng, i) for i in range(n_images)]
    expected = "".join(detection_line(a) + "\n" for a in anns).encode("utf-8")
    return DetCorpus(write_json(work / "det_annotations.json", anns), n_images, expected)


# --- mixed-corpus ---------------------------------------------------------------


def _pose(rng: random.Random) -> list[float]:
    return [round(rng.uniform(-500.0, 500.0), rng.randint(0, 4)) for _ in range(3)] + [
        round(rng.uniform(-180.0, 180.0), rng.randint(0, 3)) for _ in range(3)
    ]


def _point(rng: random.Random) -> list[float]:
    return [round(rng.uniform(-500.0, 500.0), rng.randint(0, 4)) for _ in range(3)]


_WORDS = (
    "north", "south", "east", "west", "of", "the", "river", "bend", "tall", "red",
    "tower", "road", "bridge", "park", "roof", "field", "beside", "large", "white",
)
_STEPS = (
    "lift off", "climb to 40 meters", "turn left", "turn right", "fly north",
    "fly east along the road", "hold position", "descend slowly", "land",
)


def _phrase(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(lo, hi)))


@dataclass
class Corruption:
    line: int
    field: str
    offset: int  # UTF-8 byte offset the validator must report


@dataclass
class MixedCorpus:
    inputs: dict[str, str]          # task -> input file
    built: dict[str, int]           # task -> records the build must write
    caption_rejected: list[str]     # image ids whose caption must be rejected
    corrupt_share: float
    records: int = 0
    corruptions: list[Corruption] = field(default_factory=list)


def mixed_corpus(rng: random.Random, work: Path, n_per_task: int) -> MixedCorpus:
    n_det = max(1, n_per_task * 2 // 5)  # detection is the minority task here
    det = [_image(rng, i) for i in range(n_det)]

    captions = [_image(rng, i, CAPTION_CATEGORIES, 6) for i in range(n_per_task)]
    low = set(rng.sample(range(n_per_task), max(1, n_per_task // 6)))
    for i, ann in enumerate(captions):
        ann["similarity_score"] = round(
            rng.uniform(0.05, 0.75) if i in low else rng.uniform(0.82, 1.0), 4
        )

    classification = [_image(rng, i, max_objects=3) for i in range(n_per_task)]
    vqa = []
    for i in range(n_per_task):
        cat = rng.choice(CATEGORIES)
        q, a = rng.choice((
            (f"How many {cat} objects are in the image?", str(rng.randint(0, 12))),
            (f"Is there a {cat} in the image?", rng.choice(("yes", "no"))),
            ("What kind of scene is shown?", rng.choice(SCENES)),
        ))
        vqa.append({"image_id": f"img-{i:06d}", "question": q, "answer": a,
                    "modality": rng.choice(MODALITIES)})
    relation = []
    for i in range(n_per_task):
        width, height = rng.choice(EXTENTS)
        relation.append({
            "image_id": f"img-{i:06d}", "width": width, "height": height,
            "subject": {"category": rng.choice(CATEGORIES), "box": _px_box(rng, width, height)},
            "object": {"category": rng.choice(CATEGORIES), "box": _px_box(rng, width, height)},
            "relation": rng.choice(RELATIONS),
        })
    decomposition = []
    for i in range(n_per_task):
        image = _image(rng, i, max_objects=10)
        n_obj = len(image["objects"])
        rels = [
            {"subject": rng.randrange(n_obj), "object": rng.randrange(n_obj),
             "relation": rng.choice(RELATIONS)}
            for _ in range(rng.randint(0, 4))
        ]
        decomposition.append({
            "image": image,
            "region": _px_box(rng, image["width"], image["height"]) if rng.random() < 0.7
            else [0, 0, image["width"], image["height"]],
            "relations": rels,
        })
    decision = [
        {"start": _pose(rng), "goal": _pose(rng),
         "steps": [rng.choice(_STEPS) for _ in range(rng.randint(2, 7))],
         "image_ids": [f"img-{i:06d}"], "modality": rng.choice(MODALITIES)}
        for i in range(n_per_task)
    ]
    scheduling = []
    for i in range(n_per_task):
        trajectory = [_pose(rng) for _ in range(rng.randint(2, 8))]
        scheduling.append({
            "image_id": f"img-{i:06d}",
            "description": _phrase(rng, 4, 12),
            "landmark_name": rng.choice(("bridge", "tower", "stadium", "water tank")),
            "landmark_pos": _point(rng),
            "target_name": rng.choice(("tower", "depot", "school", "hangar")),
            "target_pos": _point(rng),
            "surroundings": [_phrase(rng, 1, 2) for _ in range(rng.randint(1, 4))],
            "trajectory": trajectory,
        })

    payloads = {
        "detection": det, "caption": captions, "classification": classification,
        "vqa": vqa, "relation": relation, "decomposition": decomposition,
        "decision": decision, "scheduling": scheduling,
    }
    inputs = {task: write_json(work / f"mixed_{task}.json", rows) for task, rows in payloads.items()}
    built = {task: len(rows) for task, rows in payloads.items()}
    built["caption"] -= len(low)
    return MixedCorpus(
        inputs=inputs,
        built=built,
        caption_rejected=sorted(captions[i]["image_id"] for i in low),
        corrupt_share=0.04,
    )


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def _corrupt(text: str, kind: int) -> tuple[str, int]:
    """Break one markup field; returns the new text and the error's byte offset."""
    det = text.index("<|det|>")
    first_box = det + len("<|det|>") + 1  # the inner '[' of the first box
    if kind == 0:  # unknown tag
        return text[:det] + "<|mask|>" + text[det:], _byte_offset(text, det)
    if kind == 1:  # coordinate off the grid
        comma = text.index(",", first_box)
        return text[: first_box + 1] + "1000" + text[comma:], _byte_offset(text, first_box)
    if kind == 2:  # unbalanced: the <|ref|> payload loses its closing tag
        close = text.index("<|/ref|>")
        return text[:close] + text[close + len("<|/ref|>"):], _byte_offset(text, close)
    # inverted box: swap x1 and x2 of the first box (generated boxes have x1 < x2)
    end = text.index("]", first_box)
    x1, y1, x2, y2 = text[first_box + 1 : end].split(",")
    return text[: first_box + 1] + ",".join((x2, y1, x1, y2)) + text[end:], _byte_offset(text, first_box)


def plant_corruptions(rng: random.Random, lines: list[str], share: float) -> tuple[list[str], list[Corruption]]:
    """Corrupt a seeded share of the lines whose markup carries a <|ref|> and a <|det|>.

    Each corrupted line must fail validation with exactly one problem, reported
    at the returned byte offset of the named field.
    """
    candidates = []
    for index, line in enumerate(lines):
        record = json.loads(line)
        for name in ("response", "prompt"):
            text = record[name]
            if "<|/ref|><|det|>" in text:
                candidates.append((index, name))
                break
    picked = sorted(rng.sample(candidates, max(4, round(share * len(lines)))))
    out = list(lines)
    corruptions = []
    for kind, (index, name) in enumerate(picked):
        record = json.loads(lines[index])
        text, offset = _corrupt(record[name], kind % 4)
        record[name] = text
        out[index] = json.dumps(record, ensure_ascii=False)
        corruptions.append(Corruption(index, name, offset))
    return out, corruptions


# --- eval-dense -----------------------------------------------------------------

_CAPTION_WORDS = (
    "a", "the", "two", "three", "several", "large", "small", "white", "grey", "red",
    "ship", "ships", "boat", "harbor", "dock", "runway", "plane", "planes", "road",
    "car", "cars", "parked", "moored", "along", "near", "beside", "next", "to", "of",
    "field", "buildings", "trees", "river", "bridge", "across", "green", "area", "with",
    "tank", "tanks", "storage", "round", "lot", "parking", "many", "some", "is", "are",
)


def _sentence(rng: random.Random, n: int) -> str:
    words = [rng.choice(_CAPTION_WORDS) for _ in range(n)]
    for i in range(3, n - 1, rng.randint(7, 11)):
        words[i] += ","
    if rng.random() < 0.3:
        words.insert(rng.randrange(len(words)), f"{rng.randint(1, 9)}.{rng.randint(0, 9)}")
    return " ".join(words) + "."


def _variant(rng: random.Random, base: list[str], rate: float) -> str:
    out = []
    for word in base:
        r = rng.random()
        if r < rate / 2:
            continue
        out.append(rng.choice(_CAPTION_WORDS) if r < rate else word)
    return " ".join(out)


@dataclass
class EvalDense:
    det_preds: str
    det_gts: str
    n_preds: int
    n_images: int
    oracle_preds: str      # the seeded subsample checked against the exact oracle
    oracle_gts: str
    captions: str
    references: str
    n_segments: int
    ident_captions: str    # the segments whose caption is one of its references
    ident_references: str


def _grid_box(rng: random.Random, lo: int, hi: int) -> list[int]:
    w, h = rng.randint(lo, hi), rng.randint(lo, hi)
    x1, y1 = rng.randint(0, GRID - 1 - w), rng.randint(0, GRID - 1 - h)
    return [x1, y1, x1 + w, y1 + h]


def _jitter(rng: random.Random, box: list[int]) -> list[int]:
    x1, y1, x2, y2 = box
    j = max(1, (x2 - x1) // 6)
    x1 = min(max(0, x1 + rng.randint(-j, j)), GRID - 1)
    y1 = min(max(0, y1 + rng.randint(-j, j)), GRID - 1)
    x2 = min(max(x1, x2 + rng.randint(-j, j)), GRID - 1)
    y2 = min(max(y1, y2 + rng.randint(-j, j)), GRID - 1)
    return [x1, y1, x2, y2]


def eval_dense(rng: random.Random, work: Path, n_images: int, gts_per_image: int,
               preds_per_image: int, n_segments: int) -> EvalDense:
    categories = CATEGORIES[:8]
    gts, preds = [], []
    for i in range(n_images):
        image_id = f"img-{i:04d}"
        # a fixed count, since map50 scans every ground-truth box of the image per prediction
        image_gts = [(rng.choice(categories), _grid_box(rng, 8, 80)) for _ in range(gts_per_image)]
        gts += [{"image_id": image_id, "category": c, "box": b} for c, b in image_gts]
        image_preds = [
            (c, _jitter(rng, b), rng.uniform(0.3, 1.0)) for c, b in image_gts if rng.random() < 0.85
        ]
        while len(image_preds) < preds_per_image:
            if rng.random() < 0.2:  # a duplicate detection of a real object
                c, b = rng.choice(image_gts)
                image_preds.append((c, _jitter(rng, b), rng.uniform(0.0, 0.8)))
            else:
                image_preds.append((rng.choice(categories), _grid_box(rng, 8, 80), rng.uniform(0.0, 0.7)))
        rng.shuffle(image_preds)
        preds += [{"image_id": image_id, "category": c, "box": b, "confidence": s}
                  for c, b, s in image_preds]

    sub_image = "img-0000"
    sub_gts = [g for g in gts if g["image_id"] == sub_image]
    image_preds = [p for p in preds if p["image_id"] == sub_image]
    sub_preds = [image_preds[k] for k in sorted(rng.sample(range(len(image_preds)), 40))]

    captions, references, ident = [], [], []
    for s in range(n_segments):
        base = _sentence(rng, rng.randint(24, 34)).split()
        refs = [_variant(rng, base, 0.25) for _ in range(rng.randint(3, 5))]
        if rng.random() < 0.1:
            caption = rng.choice(refs)
            ident.append(s)
        else:
            caption = _variant(rng, base, 0.35)
        captions.append({"id": f"seg-{s:05d}", "caption": caption})
        references.append({"id": f"seg-{s:05d}", "references": refs})
    if not ident:  # keep the identity check meaningful on every seed
        captions[0]["caption"] = references[0]["references"][0]
        ident.append(0)

    return EvalDense(
        det_preds=write_json(work / "eval_preds.json", preds),
        det_gts=write_json(work / "eval_gts.json", gts),
        n_preds=len(preds),
        n_images=n_images,
        oracle_preds=write_json(work / "oracle_preds.json", sub_preds),
        oracle_gts=write_json(work / "oracle_gts.json", sub_gts),
        captions=write_json(work / "captions.json", captions),
        references=write_json(work / "references.json", references),
        n_segments=n_segments,
        ident_captions=write_json(work / "ident_captions.json", [captions[s] for s in ident]),
        ident_references=write_json(work / "ident_references.json", [references[s] for s in ident]),
    )


# --- decoder -------------------------------------------------------------------


@dataclass
class DecoderInputs:
    targets: str
    latents: list[str]


def decoder_inputs(rng: random.Random, work: Path, steps: int, n_latents: int, d_e: int) -> DecoderInputs:
    phases = [rng.uniform(0.0, 2 * math.pi) for _ in range(6)]
    rates = [rng.uniform(0.05, 0.3) for _ in range(6)]
    targets = [
        [0.5 + 0.35 * math.sin(p + r * t) for p, r in zip(phases, rates)] for t in range(steps)
    ]
    latents = [
        write_json(work / f"latent_{k:03d}.json", [rng.uniform(-2.0, 2.0) for _ in range(d_e)])
        for k in range(n_latents)
    ]
    return DecoderInputs(write_json(work / "targets.json", targets), latents)
