"""Shared generators for the test suite.

The doc generator is deliberately independent of the library's own
serialization logic: it assembles node tuples directly so roundtrip tests
exercise parse/emit rather than mirroring them.
"""

import random

from rsvl.markup import (
    Box,
    Det,
    MarkupDoc,
    Pos,
    Pos3,
    Pose6,
    PoseSeq,
    Ref,
    Rel,
    Task,
    TaskKind,
    Text,
)

_WORDS = (
    "ship", "harbor", "runway", "aircraft", "bridge", "tank", "vehicle",
    "the", "a", "two", "near", "left", "crossing", "Übergang", "路口",
)


def _text_value(rng: random.Random) -> str:
    n = rng.randint(1, 5)
    value = " ".join(rng.choice(_WORDS) for _ in range(n))
    return value + rng.choice(["", " ", ".", ", ", "\n"])


def _float(rng: random.Random) -> float:
    kind = rng.random()
    if kind < 0.3:
        return float(rng.randint(-50, 50))
    if kind < 0.6:
        return round(rng.uniform(-100.0, 100.0), rng.randint(1, 6))
    return rng.uniform(-1e6, 1e6)


def _box(rng: random.Random) -> Box:
    x1 = rng.randint(0, 999)
    y1 = rng.randint(0, 999)
    return Box(x1, y1, rng.randint(x1, 999), rng.randint(y1, 999))


def _node(rng: random.Random):
    pick = rng.randrange(7)
    if pick == 0:
        return Text(_text_value(rng))
    if pick == 1:
        return Ref(" ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3))))
    if pick == 2:
        return Rel(rng.choice(["near", "driving on", "parked alongside", "intersects with"]))
    if pick == 3:
        return Task(rng.choice(list(TaskKind)))
    if pick == 4:
        return Pos(Pos3(_float(rng), _float(rng), _float(rng)))
    if pick == 5:
        poses = tuple(
            Pose6(*(_float(rng) for _ in range(6)))
            for _ in range(rng.randint(1, 3))
        )
        return PoseSeq(poses)
    return Det(tuple(_box(rng) for _ in range(rng.randint(1, 4))))


def random_doc(rng: random.Random, max_nodes: int = 6) -> MarkupDoc:
    """A structurally valid doc: no adjacent Text nodes, all payloads legal."""
    nodes = []
    for _ in range(rng.randint(0, max_nodes)):
        node = _node(rng)
        while isinstance(node, Text) and nodes and isinstance(nodes[-1], Text):
            node = _node(rng)
        nodes.append(node)
    return MarkupDoc(tuple(nodes))


# --- detection oracle -------------------------------------------------------
#
# Exact-arithmetic re-derivation of mean average precision: IoU by
# enumerating integer grid cells into sets, matching and AP with Fractions.
# Slow and obvious on purpose.

from collections import Counter
from fractions import Fraction

from rsvl.metrics import DetGroundTruth, DetPrediction


def _cells(box: Box) -> set:
    return {
        (x, y)
        for x in range(box.x1, box.x2 + 1)
        for y in range(box.y1, box.y2 + 1)
    }


def iou_exact(a: Box, b: Box) -> Fraction:
    ca, cb = _cells(a), _cells(b)
    return Fraction(len(ca & cb), len(ca | cb))


def oracle_map(preds_by_img, gts_by_img, threshold=Fraction(1, 2)):
    """Per-class AP and mean as exact Fractions."""
    classes = sorted({g.category for gs in gts_by_img.values() for g in gs})
    matched = {img: [False] * len(gs) for img, gs in gts_by_img.items()}
    per_class = {}
    for cat in classes:
        ranked = sorted(
            (
                (img, p)
                for img, ps in preds_by_img.items()
                for p in ps
                if p.category == cat
            ),
            key=lambda row: -row[1].confidence,
        )
        n_gt = sum(
            1 for gs in gts_by_img.values() for g in gs if g.category == cat
        )
        hits = []
        for img, p in ranked:
            best, best_iou = None, None
            for gi, g in enumerate(gts_by_img.get(img, ())):
                if g.category != cat or matched[img][gi]:
                    continue
                v = iou_exact(p.box, g.box)
                if v >= threshold and (best_iou is None or v > best_iou):
                    best, best_iou = gi, v
            if best is not None:
                matched[img][best] = True
            hits.append(best is not None)
        precisions, recalls, tp = [], [], 0
        for k, hit in enumerate(hits, start=1):
            tp += hit
            precisions.append(Fraction(tp, k))
            recalls.append(Fraction(tp, n_gt))
        ap, prev_r = Fraction(0), Fraction(0)
        for i, r in enumerate(recalls):
            if r > prev_r:
                ap += (r - prev_r) * max(precisions[i:])
                prev_r = r
        per_class[cat] = ap
    mean = (
        sum(per_class.values(), Fraction(0)) / len(per_class)
        if per_class
        else Fraction(0)
    )
    return per_class, mean


# The quadratic greedy scan in floats: every prediction scans all
# ground-truth boxes of its image, and the outcomes are re-scanned once per
# category.  ``metrics.map50`` must agree with it exactly.

from rsvl.errors import EmptyGroundTruth
from rsvl.metrics import _interpolated_ap, iou


def map50_scan(preds, gts, iou_threshold=0.5):
    """Per-category AP and their mean, by the quadratic scan."""
    gt_boxes = {img: list(seq) for img, seq in gts.items()}
    n_gt = Counter(g.category for seq in gt_boxes.values() for g in seq)
    if not n_gt:
        raise EmptyGroundTruth("no ground-truth boxes to evaluate against")

    flat = [(img, p) for img, seq in preds.items() for p in seq]
    order = sorted(range(len(flat)), key=lambda i: (-flat[i][1].confidence, i))

    matched = {img: [False] * len(seq) for img, seq in gt_boxes.items()}
    outcomes = []
    for i in order:
        img, pred = flat[i]
        best_j = -1
        best_iou = 0.0
        for j, g in enumerate(gt_boxes.get(img, ())):
            if matched[img][j] or g.category != pred.category:
                continue
            v = iou(pred.box, g.box)
            if v > best_iou:
                best_iou = v
                best_j = j
        hit = best_j >= 0 and best_iou >= iou_threshold
        if hit:
            matched[img][best_j] = True
        outcomes.append((pred.category, hit))

    per_class = {}
    for category in sorted(n_gt):
        tp = 0
        fp = 0
        recalls = []
        precisions = []
        for cat, hit in outcomes:
            if cat != category:
                continue
            if hit:
                tp += 1
            else:
                fp += 1
            recalls.append(tp / n_gt[category])
            precisions.append(tp / (tp + fp))
        per_class[category] = _interpolated_ap(recalls, precisions)
    mean_ap = sum(per_class.values()) / len(per_class)
    return per_class, mean_ap


def random_det_instance(rng: random.Random):
    """Small random detection problem with distinct confidences."""

    def box():
        x1 = rng.randint(0, 24)
        y1 = rng.randint(0, 24)
        return Box(x1, y1, x1 + rng.randint(0, 11), y1 + rng.randint(0, 11))

    images = [f"im{k}" for k in range(rng.randint(1, 2))]
    classes = ["c0", "c1"][: rng.randint(1, 2)]
    confs = iter(rng.sample(range(1, 100000), 60))
    preds, gts = {}, {}
    for img in images:
        preds[img] = []
        gts[img] = []
        for cat in classes:
            for _ in range(rng.randint(0, 5)):
                gts[img].append(DetGroundTruth(cat, box()))
            for _ in range(rng.randint(0, 5)):
                preds[img].append(
                    DetPrediction(cat, box(), next(confs) / 100000.0)
                )
    if not any(gts.values()):
        img = images[0]
        gts[img].append(DetGroundTruth(classes[0], box()))
    return preds, gts


# --- text metric oracles --------------------------------------------------------
#
# The straightforward forms the library's text kernels replaced: a character
# loop for the tokenizer, the quadratic LCS table, and corpus BLEU counting
# every reference n-gram into a Counter.  The kernels must agree with them
# exactly.

import math
import unicodedata


def tokenize_per_char(text: str) -> tuple:
    folded = text.casefold()
    kept = []
    for i, ch in enumerate(folded):
        if unicodedata.category(ch).startswith("P"):
            between_digits = (
                i > 0 and folded[i - 1].isdigit()
                and i + 1 < len(folded) and folded[i + 1].isdigit()
            )
            if not between_digits:
                continue
        kept.append(ch)
    return tuple("".join(kept).split())


def lcs_table(a, b) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _counter_ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_corpus_counters(candidates, references, n: int = 4) -> float:
    clipped = [0] * n
    total = [0] * n
    c_len = 0
    r_len = 0
    for cand, refs in zip(candidates, references):
        cand_tokens = tuple(cand)
        ref_tokens = [tuple(r) for r in refs]
        c_len += len(cand_tokens)
        r_len += min((len(r) for r in ref_tokens), key=lambda r: (abs(r - len(cand_tokens)), r))
        for i in range(1, n + 1):
            counts = _counter_ngrams(cand_tokens, i)
            if not counts:
                continue
            max_ref: Counter = Counter()
            for rt in ref_tokens:
                for gram, cnt in _counter_ngrams(rt, i).items():
                    if cnt > max_ref[gram]:
                        max_ref[gram] = cnt
            total[i - 1] += sum(counts.values())
            clipped[i - 1] += sum(min(cnt, max_ref[gram]) for gram, cnt in counts.items())
    if c_len == 0 or any(t == 0 for t in total) or any(cl == 0 for cl in clipped):
        return 0.0
    log_prec = sum(math.log(cl / t) for cl, t in zip(clipped, total)) / n
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_prec)



# ``metrics.bleu_corpus`` as it was when it scored one order n per call, each
# call recounting every order up to n.  The one-pass kernel must return
# exactly the tuple of its BLEU-1..n, and raise the same errors.

from itertools import repeat

from rsvl.errors import InvariantViolation, LengthMismatch
from rsvl.metrics import _closest_ref_length, _ngrams, _token_list


def bleu_corpus_per_order(
    candidates,
    references,
    n: int = 4,
) -> float:
    """Corpus BLEU-n over token lists: pooled clipped precisions, geometric mean, brevity penalty."""
    if len(candidates) != len(references):
        raise LengthMismatch(
            f"{len(candidates)} candidates against {len(references)} reference sets"
        )
    if n < 1:
        raise InvariantViolation("n-gram order must be at least 1")
    clipped = [0] * n
    total = [0] * n
    c_len = 0
    r_len = 0
    for cand, refs in zip(candidates, references):
        if not refs:
            raise InvariantViolation("every segment needs at least one reference")
        cand_tokens = _token_list(cand, "candidate")
        ref_tokens = [_token_list(r, "reference") for r in refs]
        c_len += len(cand_tokens)
        r_len += _closest_ref_length(len(cand_tokens), [len(r) for r in ref_tokens])
        # an order longer than the candidate has no n-grams and adds nothing
        for k in range(1, min(n, len(cand_tokens)) + 1):
            ref_grams = [list(_ngrams(rt, k)) for rt in ref_tokens]
            in_refs = set().union(*ref_grams)
            hits = 0
            for gram, cnt in Counter(_ngrams(cand_tokens, k)).items():
                if gram in in_refs:
                    # clipped at its largest count in any one reference
                    hits += 1 if cnt == 1 else min(cnt, max(map(list.count, ref_grams, repeat(gram))))
            clipped[k - 1] += hits
            total[k - 1] += len(cand_tokens) - k + 1
    if c_len == 0 or any(t == 0 for t in total) or any(cl == 0 for cl in clipped):
        return 0.0
    log_prec = sum(math.log(cl / t) for cl, t in zip(clipped, total)) / n
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_prec)

# --- pixel box oracle -------------------------------------------------------------
#
# ``normalize_box`` as it was before its all-int path: every check one by one,
# then each coordinate mapped on its own.  Float pixels on an extent beyond the
# float range map exactly through Fractions.  The library must agree with it on
# every box, error class and message.

from rsvl.errors import CoordOutOfRange, InvalidExtent, InvariantViolation, InvertedBox
from rsvl.markup import GRID


def _norm_coord_checked(v, extent: int) -> int:
    if isinstance(v, int):
        q = v * GRID // extent
    else:
        try:
            q = math.floor(v * GRID / extent)
        except OverflowError:
            q = math.floor(Fraction(v) * GRID / extent)
    return max(0, min(GRID - 1, q))


def normalize_box_checked(px_box, width, height) -> Box:
    if (isinstance(width, bool) or isinstance(height, bool)
            or not isinstance(width, int) or not isinstance(height, int)):
        raise InvalidExtent(f"extent must be integral, got {width!r} x {height!r}")
    if width < 1 or height < 1:
        raise InvalidExtent(f"extent must be at least 1x1, got {width} x {height}")
    try:
        x1, y1, x2, y2 = px_box
    except (TypeError, ValueError):
        raise InvariantViolation(f"pixel box must have 4 coordinates, got {px_box!r}") from None
    for v, extent in ((x1, width), (x2, width), (y1, height), (y2, height)):
        if type(v) is not int and (
            isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
        ):
            raise InvariantViolation(f"pixel coordinate {v!r} is not a finite number")
        if not 0 <= v <= extent:
            raise CoordOutOfRange(v, upper=extent)
    if x2 < x1 or y2 < y1:
        raise InvertedBox((x1, y1, x2, y2))
    return Box(_norm_coord_checked(x1, width), _norm_coord_checked(y1, height),
               _norm_coord_checked(x2, width), _norm_coord_checked(y2, height))


# --- decoder oracle ---------------------------------------------------------------
#
# The decoder kernels as they were before the whole-sequence rewrite: a sigmoid
# split by sign with boolean masks, one sigmoid call per gate, the trace kept in
# a dict of lists, and every weight gradient accumulated with one ``np.outer``
# per step.  ``rsvl.trajectory`` must agree with them bit for bit, signs of
# zeros included.

import numpy as np

from rsvl.errors import DimensionMismatch
from rsvl.trajectory import (
    STATE_DIM,
    Termination,
    _S_HI,
    _S_LO,
    _map_params,
    _mse,
    latent_projection,
)


def sigmoid_split(x: np.ndarray) -> np.ndarray:
    # split by sign so exp never overflows
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _gated_update_split(f: np.ndarray, h: np.ndarray, weights):
    """The gates z, r, the candidate c and the next hidden state, for the backward pass."""
    z = sigmoid_split(weights.W_z @ f + weights.U_z @ h + weights.b_z)
    r = sigmoid_split(weights.W_r @ f + weights.U_r @ h + weights.b_r)
    c = np.tanh(weights.W_c @ f + weights.U_c @ (r * h) + weights.b_c)
    return z, r, c, (1.0 - z) * h + z * c


def forward_steps(h_tra: np.ndarray, weights, cfg) -> dict:
    """Unrolled forward pass keeping every intermediate for the backward pass."""
    x = np.asarray(h_tra, dtype=np.float64)
    if x.shape != (cfg.d_e,):
        raise DimensionMismatch(f"h_tra: expected ({cfg.d_e},), got {x.shape}")
    weights.check(cfg)

    h = latent_projection(x, weights)
    trace = {"x": x, "h": [h], "f": [], "z": [], "r": [], "c": [], "S": []}
    terminated = Termination.MAX_STEPS
    for _ in range(cfg.max_steps):
        f = weights.W_state @ h + weights.b_state
        z, r, c, h = _gated_update_split(f, h, weights)
        s = np.clip(sigmoid_split(weights.W_out @ h + weights.b_out), _S_LO, _S_HI)
        for key, value in (("f", f), ("z", z), ("r", r), ("c", c), ("S", s), ("h", h)):
            trace[key].append(value)
        if len(trace["S"]) >= 2 and float(np.linalg.norm(s - trace["S"][-2])) < cfg.termination_threshold:
            terminated = Termination.THRESHOLD
            break
    trace["terminated_by"] = terminated
    return trace


def loss_and_grads_outer(h_tra: np.ndarray, weights, cfg, gt: np.ndarray):
    trace = forward_steps(h_tra, weights, cfg)
    S = trace["S"]
    n = len(S)
    k = min(n, len(gt))
    loss = _mse(S, gt)

    g = _map_params(np.zeros_like, weights)
    dh_next = np.zeros(cfg.d_h)
    for t in range(n, 0, -1):
        s_t = S[t - 1]
        if t <= k:
            ds = 2.0 * (s_t - gt[t - 1]) / (STATE_DIM * k)
        else:
            ds = np.zeros(STATE_DIM)
        da_out = ds * s_t * (1.0 - s_t)
        h_t = trace["h"][t]
        h_prev = trace["h"][t - 1]
        g.W_out += np.outer(da_out, h_t)
        g.b_out += da_out
        dh = dh_next + weights.W_out.T @ da_out

        z = trace["z"][t - 1]
        r = trace["r"][t - 1]
        c = trace["c"][t - 1]
        f = trace["f"][t - 1]

        dz = dh * (c - h_prev)
        dc = dh * z
        dh_prev = dh * (1.0 - z)

        da_c = dc * (1.0 - c * c)
        g.W_c += np.outer(da_c, f)
        g.U_c += np.outer(da_c, r * h_prev)
        g.b_c += da_c
        df = weights.W_c.T @ da_c
        d_rh = weights.U_c.T @ da_c
        dr = d_rh * h_prev
        dh_prev += d_rh * r

        da_r = dr * r * (1.0 - r)
        g.W_r += np.outer(da_r, f)
        g.U_r += np.outer(da_r, h_prev)
        g.b_r += da_r
        df += weights.W_r.T @ da_r
        dh_prev += weights.U_r.T @ da_r

        da_z = dz * z * (1.0 - z)
        g.W_z += np.outer(da_z, f)
        g.U_z += np.outer(da_z, h_prev)
        g.b_z += da_z
        df += weights.W_z.T @ da_z
        dh_prev += weights.U_z.T @ da_z

        g.W_state += np.outer(df, h_prev)
        g.b_state += df
        dh_prev += weights.W_state.T @ df
        dh_next = dh_prev

    g.W_latent += np.outer(dh_next, trace["x"])
    g.b_latent += dh_next
    return loss, g


# --- row loader oracles -----------------------------------------------------------
#
# The row checks of ``rsvl.fileio`` as they were before each row kind got one
# check path: every field checked one by one, then the public constructors
# (``InstructionRecord``, ``ImageAnnotation``, ``ObjectAnnotation``, ``Box``,
# ``DetPrediction``) check the row again.  The library must give the same row,
# field types, error class, message and warnings for every input.

from rsvl.builders import ImageAnnotation, InstructionRecord, ObjectAnnotation, TaskType
from rsvl.errors import SchemaError
from rsvl.fileio import (
    RECORD_KEYS,
    _as_int,
    _as_int4,
    _as_number,
    _as_str,
    _as_str_list,
    _loads,
    _require_keys,
    _wrap,
)
from rsvl.markup import Modality


def _modality_checked(obj: dict, default: str = "opt") -> Modality:
    raw = obj.get("modality", default)
    if not isinstance(raw, str):
        raise SchemaError(f"'modality' must be a string, got {type(raw).__name__}")
    try:
        return Modality(raw)
    except ValueError:
        raise SchemaError(
            f"unknown modality {raw!r} (expected one of {[m.value for m in Modality]})"
        ) from None


def parse_record_line_checked(line, index):
    with _wrap(index):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as e:
                raise SchemaError(f"invalid UTF-8: {e.reason} (byte offset {e.start})") from None
        if line.endswith("\r"):
            line = line[:-1]
        if not line:
            raise SchemaError("blank line in record stream")
        obj = _loads(line)  # a bad line is one record's failure, not the file's
        _require_keys(obj, RECORD_KEYS, (), index, reject_unknown=True)
        refs = _as_str_list(obj, "image_refs", allow_empty=False)
        modality = _modality_checked(obj)
        raw_task = _as_str(obj, "task")
        try:
            task = TaskType(raw_task)
        except ValueError:
            raise SchemaError(f"unknown task {raw_task!r}") from None
        return InstructionRecord(
            image_refs=refs,
            modality=modality,
            task=task,
            prompt=_as_str(obj, "prompt"),
            response=_as_str(obj, "response"),
        )


def _parse_object_checked(value, index: int) -> ObjectAnnotation:
    _require_keys(value, ("category", "box"), ("shape",), index)
    box = _as_int4(value["box"], "'box'")
    shape = value.get("shape")
    if shape is not None and not isinstance(shape, str):
        raise SchemaError(f"'shape' must be a string, got {type(shape).__name__}")
    return ObjectAnnotation(
        category=_as_str(value, "category"),
        px_box=box,
        shape_attr=shape,
    )


_IMAGE_REQUIRED = ("image_id", "width", "height")
_IMAGE_OPTIONAL = ("modality", "objects", "scene_label")


def parse_image_annotation_checked(obj, index, extra_optional=(), default_modality="opt"):
    _require_keys(obj, _IMAGE_REQUIRED, (*_IMAGE_OPTIONAL, *extra_optional), index)
    raw_objects = obj.get("objects", [])
    if not isinstance(raw_objects, list):
        raise SchemaError("'objects' must be a list")
    scene = obj.get("scene_label")
    if scene is not None and not isinstance(scene, str):
        raise SchemaError(f"'scene_label' must be a string, got {type(scene).__name__}")
    return ImageAnnotation(
        image_id=_as_str(obj, "image_id"),
        modality=_modality_checked(obj, default_modality),
        width=_as_int(obj["width"], "'width'"),
        height=_as_int(obj["height"], "'height'"),
        objects=tuple(_parse_object_checked(o, index) for o in raw_objects),
        scene_label=scene,
    )


def det_row_checked(obj, index, keys, with_confidence):
    _require_keys(obj, keys, (), index)
    category = _as_str(obj, "category")
    box = Box(*_as_int4(obj["box"], "'box'"))
    if with_confidence:
        return DetPrediction(category, box, _as_number(obj["confidence"], "'confidence'"))
    return DetGroundTruth(category, box)


# --- markup builder oracle ----------------------------------------------------
#
# The chained builder the record builders used before ``builders._markup``,
# kept verbatim as the differential oracle for it.

from rsvl.markup import emit


class _DocBuilder:
    """Accumulates nodes, merging adjacent text, and emits canonical markup (no ``<|`` in text)."""

    def __init__(self):
        self._nodes: list = []

    def text(self, piece: str) -> "_DocBuilder":
        if piece:
            if self._nodes and isinstance(self._nodes[-1], Text):
                self._nodes[-1] = Text(self._nodes[-1].value + piece)
            else:
                self._nodes.append(Text(piece))
        return self

    def add(self, node) -> "_DocBuilder":
        self._nodes.append(node)
        return self

    def build(self) -> str:
        return emit(MarkupDoc(tuple(self._nodes)))
