"""Evaluation metrics: detection mAP, relation F1, text overlap scores, navigation rates.

Detection follows the greedy matching convention: predictions are visited in
order of descending confidence (input order breaks ties) and each one claims
the not-yet-matched ground-truth box of the same image and category with the
highest IoU (the first listed on equal IoU), counting as a true positive when
that IoU reaches the threshold.
Average precision is the all-points interpolated area under the resulting
precision/recall curve, and mAP averages it over the categories present in
the ground truth.

Box IoU treats coordinates as inclusive integer cell indices, so a box covers
(x2 - x1 + 1) * (y2 - y1 + 1) cells.

Text metrics operate on a shared tokenizer: casefold, strip punctuation
unless it sits between two digits (keeping "3.5" intact), split on
whitespace.  BLEU uses clipped n-gram precision with the standard brevity
penalty and no smoothing; any empty n-gram order zeroes the score.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from numbers import Real
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    EmptyEpisodeSet,
    EmptyGroundTruth,
    InvariantViolation,
    LengthMismatch,
)
from .markup import Box, Pos3, _require, _require_finite_float, _require_items

__all__ = [
    "DetPrediction",
    "DetGroundTruth",
    "iou",
    "map50",
    "RelationTriple",
    "relation_overlap",
    "relation_f1",
    "PRF1",
    "tokenize",
    "bleu",
    "bleu_corpus",
    "rouge_l",
    "accuracy",
    "NavEpisode",
    "NavMetrics",
    "nav_metrics",
    "EvalReport",
]


# --- Detection ------------------------------------------------------------


@dataclass(unsafe_hash=True)
class DetPrediction:
    category: str
    box: Box
    confidence: float

    def __post_init__(self):
        category, box, c = self.category, self.box, self.confidence
        if not (type(category) is str and type(box) is Box and type(c) is float and 0.0 <= c <= 1.0):
            _require("category", category, str)
            _require("box", box, Box)
            self.confidence = c = _require_finite_float(c, "confidence")
            if not 0.0 <= c <= 1.0:
                raise InvariantViolation(f"confidence {c!r} outside [0, 1]")


@dataclass(unsafe_hash=True)
class DetGroundTruth:
    category: str
    box: Box

    def __post_init__(self):
        if type(self.category) is not str or type(self.box) is not Box:
            _require("category", self.category, str)
            _require("box", self.box, Box)


def iou(a: Box, b: Box) -> float:
    """Intersection over union with inclusive integer extents."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    inter = max(0, ix2 - ix1 + 1) * max(0, iy2 - iy1 + 1)
    if inter == 0:
        return 0.0
    area_a = (a.x2 - a.x1 + 1) * (a.y2 - a.y1 + 1)
    area_b = (b.x2 - b.x1 + 1) * (b.y2 - b.y1 + 1)
    return inter / (area_a + area_b - inter)


def _interpolated_ap(recalls: list[float], precisions: list[float]) -> float:
    # all-points interpolation: precision envelope from the right,
    # summed over recall increments
    mrec = [0.0, *recalls, 1.0]
    mpre = [0.0, *precisions, 0.0]
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    return sum(
        (mrec[i + 1] - mrec[i]) * mpre[i + 1]
        for i in range(len(mrec) - 1)
        if mrec[i + 1] != mrec[i]
    )


def map50(
    preds: Mapping[str, Sequence[DetPrediction]],
    gts: Mapping[str, Sequence[DetGroundTruth]],
    iou_threshold: float = 0.5,
) -> tuple[dict[str, float], float]:
    """Per-category AP and their mean, both as fractions in [0, 1].

    ``preds`` and ``gts`` map image ids to box lists.  Categories that only
    appear in predictions are ignored; categories with ground truth but no
    predictions score zero.  Raises EmptyGroundTruth when no image has any
    ground-truth box.
    """
    # ground truth by (image, category), in input order: corners and cell area
    index: dict[tuple[str, str], list[tuple[int, int, int, int, int]]] = {}
    n_gt: Counter[str] = Counter()
    for img, seq in gts.items():
        for g in seq:
            b = g.box
            index.setdefault((img, g.category), []).append(
                (b.x1, b.y1, b.x2, b.y2, (b.x2 - b.x1 + 1) * (b.y2 - b.y1 + 1))
            )
            n_gt[g.category] += 1
    if not n_gt:
        raise EmptyGroundTruth("no ground-truth boxes to evaluate against")

    # a stable sort: descending confidence, input order on ties
    ranked = sorted(
        ((p, img) for img, seq in preds.items() for p in seq),
        key=lambda row: row[0].confidence,
        reverse=True,
    )
    hits: dict[str, list[bool]] = {category: [] for category in n_gt}
    for pred, img in ranked:
        category = pred.category
        outcomes = hits.get(category)
        if outcomes is None:  # no ground truth of this category anywhere
            continue
        # matched boxes leave the list, so the rest keep their input order
        boxes = index.get((img, category))
        best_j = -1
        best_iou = 0.0
        if boxes:
            b = pred.box
            px1, py1, px2, py2 = b.x1, b.y1, b.x2, b.y2
            area = (px2 - px1 + 1) * (py2 - py1 + 1)
            for j, (gx1, gy1, gx2, gy2, gt_area) in enumerate(boxes):
                w = (px2 if px2 < gx2 else gx2) - (px1 if px1 > gx1 else gx1) + 1
                if w <= 0:
                    continue
                h = (py2 if py2 < gy2 else gy2) - (py1 if py1 > gy1 else gy1) + 1
                if h <= 0:
                    continue
                inter = w * h
                # the same integers and division as iou(), so the same float
                v = inter / (area + gt_area - inter)
                if v > best_iou:  # strict: the first-listed box wins a tie
                    best_iou = v
                    best_j = j
        hit = best_j >= 0 and best_iou >= iou_threshold
        if hit:
            del boxes[best_j]
        outcomes.append(hit)

    per_class: dict[str, float] = {}
    for category in sorted(n_gt):
        total = n_gt[category]
        tp = 0
        recalls: list[float] = []
        precisions: list[float] = []
        for k, hit in enumerate(hits[category], 1):
            tp += hit
            recalls.append(tp / total)
            precisions.append(tp / k)
        per_class[category] = _interpolated_ap(recalls, precisions)
    mean_ap = sum(per_class.values()) / len(per_class)
    return per_class, mean_ap


# --- Relations -------------------------------------------------------------


@dataclass(unsafe_hash=True)
class RelationTriple:
    """A (subject category, object category, relation) assertion.

    Fields are trimmed and case-folded on construction so equality means
    semantic equality; none may end up empty.
    """

    subject_cat: str
    object_cat: str
    relation: str

    def __post_init__(self):
        names = ("subject_cat", "object_cat", "relation")
        for name in names:
            _require(name, getattr(self, name), str)
        for name in names:
            value = getattr(self, name).strip().casefold()
            if not value:
                raise InvariantViolation(f"triple field {name!r} is empty")
            setattr(self, name, value)


class PRF1(NamedTuple):
    precision: float
    recall: float
    f1: float


def relation_overlap(
    preds: Sequence[RelationTriple], gts: Sequence[RelationTriple]
) -> tuple[int, int, int]:
    """Multiset overlap: (matched count, prediction count, ground-truth count)."""
    common = Counter(preds) & Counter(gts)
    return sum(common.values()), len(preds), len(gts)


def relation_f1(preds: Sequence[RelationTriple], gts: Sequence[RelationTriple]) -> PRF1:
    tp, n_pred, n_gt = relation_overlap(preds, gts)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gt if n_gt else 0.0
    # 2PR/(P+R) reduced to counts: exact where the quotient is representable
    f1 = 2 * tp / (n_pred + n_gt) if n_pred + n_gt else 0.0
    return PRF1(precision, recall, f1)


# --- Text overlap ------------------------------------------------------------


# Every P* character lies outside \w and \s except the connector "_", so this
# scan finds all punctuation; the category test then skips the symbols and
# marks it also finds.
_PUNCT_CANDIDATE = re.compile(r"[^\w\s]|_")


def tokenize(text: str) -> tuple[str, ...]:
    folded = text.casefold()
    last = len(folded) - 1
    kept = []
    start = 0
    for match in _PUNCT_CANDIDATE.finditer(folded):
        i = match.start()
        if unicodedata.category(folded[i])[0] != "P":
            continue
        if 0 < i < last and folded[i - 1].isdigit() and folded[i + 1].isdigit():
            continue
        kept.append(folded[start:i])
        start = i + 1
    if start:
        kept.append(folded[start:])
        folded = "".join(kept)
    return tuple(folded.split())


def _token_list(value, what: str) -> tuple[str, ...]:
    # a bare string here means someone skipped tokenize(); iterating it would
    # silently score characters
    if isinstance(value, str):
        raise InvariantViolation(f"{what} must be a token sequence; run tokenize() first")
    return tuple(value)


def _length(value, what: str) -> int:
    """``len(value)``; InvariantViolation naming the argument when it has none, as an iterator."""
    try:
        return len(value)
    except TypeError:
        raise InvariantViolation(f"{what} must be a sequence, got {type(value).__name__}") from None


def _ngrams(tokens: tuple[str, ...], n: int):
    """The n-grams of ``tokens`` in order, as tuples."""
    return zip(*[tokens[i:] for i in range(n)])


def _closest_ref_length(c: int, ref_lengths: Sequence[int]) -> int:
    # ties go to the shorter reference
    return min(ref_lengths, key=lambda r: (abs(r - c), r))


def bleu_corpus(
    candidates: Sequence[Sequence[str]],
    references: Sequence[Sequence[Sequence[str]]],
    n: int = 4,
) -> tuple[float, ...]:
    """Corpus BLEU-1..n over token lists: pooled clipped precisions, geometric mean, brevity penalty.

    Each order is counted once per segment; BLEU-m uses the pooled counts of
    orders 1..m.
    """
    n_cands, n_refs = _length(candidates, "candidates"), _length(references, "references")
    if n_cands != n_refs:
        raise LengthMismatch(f"{n_cands} candidates against {n_refs} reference sets")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvariantViolation(f"n-gram order n must be an int, got {n!r}")
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
        c = len(cand_tokens)
        c_len += c
        r_len += _closest_ref_length(c, [len(r) for r in ref_tokens])
        # order 1 counts the tokens themselves; an order longer than the
        # candidate has no n-grams and adds nothing
        cand_grams, ref_grams = cand_tokens, ref_tokens
        for k in range(1, min(n, c) + 1):
            if k > 1:
                cand_grams = tuple(_ngrams(cand_tokens, k))
                ref_grams = [tuple(_ngrams(rt, k)) for rt in ref_tokens]
            distinct = set(cand_grams)
            common = distinct.intersection(chain.from_iterable(ref_grams))
            hits = len(common)
            if len(distinct) < len(cand_grams):
                counts = Counter(cand_grams)
                for gram in common:
                    if counts[gram] > 1:
                        # a repeated gram is clipped at its largest count in any one reference
                        hits += min(counts[gram], max(ref.count(gram) for ref in ref_grams)) - 1
            clipped[k - 1] += hits
            total[k - 1] += c - k + 1
    scores = [0.0] * n
    if c_len == 0:
        return tuple(scores)
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    logs: list[float] = []
    for m, (cl, t) in enumerate(zip(clipped, total), 1):
        # an empty order zeroes its score and every higher one
        if t == 0 or cl == 0:
            break
        logs.append(math.log(cl / t))
        scores[m - 1] = bp * math.exp(sum(logs) / m)
    return tuple(scores)


def bleu(candidate: Sequence[str], references: Sequence[Sequence[str]], n: int = 4) -> float:
    """Single-segment BLEU-n (the last score of a corpus of one segment)."""
    return bleu_corpus([candidate], [references], n=n)[-1]


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004).

    Bit j of ``v`` stands for position j of the shorter sequence and is
    cleared once the DP row steps up there, so the zero bits count the LCS.
    """
    if len(a) < len(b):
        a, b = b, a
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        m = masks.get(token)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Plain LCS-based F1 over token lists."""
    cand = _token_list(candidate, "candidate")
    ref = _token_list(reference, "reference")
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2 * precision * recall / (precision + recall)


def _normalize_answer(text: str) -> str:
    return text.strip().casefold().rstrip(".")


def accuracy(preds: Sequence[str], gts: Sequence[str]) -> float:
    """Exact-match rate after trimming, casefolding and dropping trailing periods."""
    n_preds, n_gts = _length(preds, "preds"), _length(gts, "gts")
    if n_preds != n_gts:
        raise LengthMismatch(f"{n_preds} predictions against {n_gts} answers")
    if not preds:
        return 0.0
    hits = sum(_normalize_answer(p) == _normalize_answer(g) for p, g in zip(preds, gts))
    return hits / len(preds)


# --- Navigation ----------------------------------------------------------------


def _dist(a: Pos3, b: Pos3) -> float:
    return math.dist(a.as_tuple(), b.as_tuple())


@dataclass(unsafe_hash=True)
class NavEpisode:
    predicted_path: tuple[Pos3, ...]
    goal: Pos3
    shortest_path_length: float
    success_radius: float

    def __post_init__(self):
        path, goal = self.predicted_path, self.goal
        length, radius = self.shortest_path_length, self.success_radius
        if not (type(path) is tuple and all(map(Pos3.__instancecheck__, path)) and type(goal) is Pos3
                and type(length) is float and type(radius) is float):
            self.predicted_path = path = _require_items("predicted_path", path, Pos3, "Pos3 waypoints")
            _require("goal", goal, Pos3)
            _require("shortest_path_length", length, Real)
            _require("success_radius", radius, Real)
        if not path:
            raise InvariantViolation("predicted path must hold at least one waypoint")
        if not 0 <= length < math.inf:  # NaN fails too
            raise InvariantViolation(
                f"shortest_path_length must be finite and non-negative, got {length!r}")
        if not 0 < radius < math.inf:
            raise InvariantViolation(f"success_radius must be finite and positive, got {radius!r}")

    def path_length(self) -> float:
        pts = self.predicted_path
        return sum(_dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1))


class NavMetrics(NamedTuple):
    ne: float
    sr: float
    osr: float
    spl: float


def nav_metrics(episodes: Sequence[NavEpisode]) -> NavMetrics:
    """Navigation error (scene units) plus success, oracle-success and SPL rates (percent).

    Success means the final waypoint lies within the episode radius of the
    goal; oracle success relaxes that to any waypoint.  SPL scales success by
    shortest/max(taken, shortest) path length, and a degenerate episode with
    both lengths zero scores its plain success.
    """
    if not episodes:
        raise EmptyEpisodeSet("no episodes to aggregate")
    ne_sum = sr_sum = osr_sum = spl_sum = 0.0
    for ep in episodes:
        ne = _dist(ep.predicted_path[-1], ep.goal)
        success = ne <= ep.success_radius
        oracle = any(_dist(p, ep.goal) <= ep.success_radius for p in ep.predicted_path)
        taken = ep.path_length()
        best = ep.shortest_path_length
        if success:
            spl = 1.0 if max(taken, best) == 0.0 else best / max(taken, best)
        else:
            spl = 0.0
        ne_sum += ne
        sr_sum += success
        osr_sum += oracle
        spl_sum += spl
    n = len(episodes)
    return NavMetrics(ne_sum / n, 100.0 * sr_sum / n, 100.0 * osr_sum / n, 100.0 * spl_sum / n)


# --- Reporting ------------------------------------------------------------------


@dataclass
class EvalReport:
    """Result bundle for one task: headline metrics plus optional per-class detail."""

    task: str
    count: int
    metrics: dict[str, float] = field(default_factory=dict)
    per_class: dict[str, float] | None = None
    unsupported: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out: dict = {"task": self.task, "count": self.count, "metrics": self.metrics}
        if self.per_class is not None:
            out["per_class"] = self.per_class
        if self.unsupported:
            out["unsupported"] = list(self.unsupported)
        return out

    def render(self) -> str:
        lines = [f"task: {self.task}", f"records: {self.count}"]
        for name, value in self.metrics.items():
            lines.append(f"{name}: {value:.4f}")
        if self.per_class is not None:
            lines.append("per-type accuracy:" if self.task == "vqa" else "per-class AP:")
            for name, value in sorted(self.per_class.items()):
                lines.append(f"  {name}: {value:.4f}")
        if self.unsupported:
            lines.append("not computed here: " + ", ".join(self.unsupported))
        return "\n".join(lines)
