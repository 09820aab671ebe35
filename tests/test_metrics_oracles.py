"""Randomized cross-checks of the metrics against independent oracles."""

import math
import random
import sys
import unicodedata
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    bleu_corpus_counters,
    bleu_corpus_per_order,
    lcs_table,
    map50_scan,
    oracle_map,
    random_det_instance,
    tokenize_per_char,
)
from rsvl.errors import EmptyGroundTruth, InvariantViolation, LengthMismatch
from rsvl.markup import Box, Pos3
from rsvl.metrics import (
    _PUNCT_CANDIDATE,
    DetGroundTruth,
    DetPrediction,
    NavEpisode,
    RelationTriple,
    _lcs_length,
    bleu,
    bleu_corpus,
    iou,
    map50,
    nav_metrics,
    relation_f1,
    rouge_l,
    tokenize,
)


# --- detection ---------------------------------------------------------------


def test_map50_agrees_with_exhaustive_oracle_on_1000_instances():
    rng = random.Random(1234)
    for i in range(1000):
        preds, gts = random_det_instance(rng)
        per_class, mean = map50(preds, gts)
        oracle_pc, oracle_mean = oracle_map(preds, gts)
        assert set(per_class) == set(oracle_pc), i
        for cat in per_class:
            assert abs(per_class[cat] - float(oracle_pc[cat])) <= 1e-12, (i, cat)
        assert abs(mean - float(oracle_mean)) <= 1e-12, i


def test_iou_agrees_with_cell_enumeration():
    from helpers import iou_exact

    rng = random.Random(5)
    for _ in range(300):
        def mk():
            x1, y1 = rng.randint(0, 20), rng.randint(0, 20)
            return Box(x1, y1, x1 + rng.randint(0, 9), y1 + rng.randint(0, 9))

        a, b = mk(), mk()
        assert iou(a, b) == pytest.approx(float(iou_exact(a, b)), abs=1e-15)


def test_map50_invariant_under_input_order():
    rng = random.Random(77)
    for _ in range(50):
        preds, gts = random_det_instance(rng)
        baseline = map50(preds, gts)
        shuffled_preds = {}
        for img, ps in preds.items():
            ps = list(ps)
            rng.shuffle(ps)
            shuffled_preds[img] = ps
        reordered = dict(reversed(list(shuffled_preds.items())))
        got = map50(reordered, gts)
        assert got[1] == pytest.approx(baseline[1], abs=1e-12)
        for cat, ap in baseline[0].items():
            assert got[0][cat] == pytest.approx(ap, abs=1e-12)


# Ties everywhere: few distinct confidences, a small pool of boxes reused
# verbatim (equal IoU against identical ground truth), a category and an image
# with predictions only, and ground-truth images nobody predicts on.
_IMAGES = ("a", "b", "c")
_CATEGORIES = ("c0", "c1", "c2")


@st.composite
def _small_boxes(draw):
    x1, y1 = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    return Box(x1, y1, x1 + draw(st.integers(0, 6)), y1 + draw(st.integers(0, 6)))


@st.composite
def det_instances(draw):
    pool = draw(st.lists(_small_boxes(), min_size=1, max_size=4))
    boxes = st.one_of(st.sampled_from(pool), _small_boxes())
    confidence = st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0, allow_subnormal=False)
    )
    gts = {
        img: draw(st.lists(st.builds(DetGroundTruth, st.sampled_from(_CATEGORIES), boxes), max_size=8))
        for img in draw(st.lists(st.sampled_from(_IMAGES), unique=True, max_size=3))
    }
    preds = {
        img: draw(st.lists(
            st.builds(DetPrediction, st.sampled_from(_CATEGORIES + ("only-predicted",)), boxes, confidence),
            max_size=10,
        ))
        for img in draw(st.lists(st.sampled_from(_IMAGES + ("unlabelled",)), unique=True, max_size=4))
    }
    return preds, gts


iou_thresholds = st.one_of(
    st.sampled_from([1.0, 0.5, 1 / 7, 5e-324]),
    st.floats(0.0, 1.0, exclude_min=True),
)


# the prediction meets A and B at IoU 1/2 each; the first-listed A must win,
# which leaves B for nobody and costs the later prediction on A its hit
_EQUAL_IOU_TIE = (
    {"a": [DetPrediction("c0", Box(0, 0, 1, 0), 0.9), DetPrediction("c0", Box(0, 0, 0, 0), 0.1)]},
    {"a": [DetGroundTruth("c0", Box(0, 0, 0, 0)), DetGroundTruth("c0", Box(1, 0, 1, 0))]},
)


@settings(max_examples=200, deadline=None)
@given(det_instances(), iou_thresholds)
@example(_EQUAL_IOU_TIE, 0.5)
def test_map50_equals_the_quadratic_scan(instance, iou_threshold):
    preds, gts = instance
    try:
        want = map50_scan(preds, gts, iou_threshold)
    except EmptyGroundTruth:
        with pytest.raises(EmptyGroundTruth):
            map50(preds, gts, iou_threshold)
        return
    per_class, mean = map50(preds, gts, iou_threshold)
    assert list(per_class.items()) == list(want[0].items())
    assert mean == want[1]


@pytest.mark.parametrize("gts", [{}, {"a": []}, {"a": [], "b": []}])
def test_map50_without_ground_truth_raises_like_the_scan(gts):
    preds = {"a": [DetPrediction("c0", Box(0, 0, 1, 1), 0.5)]}
    for score in (map50, map50_scan):
        with pytest.raises(EmptyGroundTruth):
            score(preds, gts)


# --- relations -----------------------------------------------------------------


def _random_triples(rng, n):
    cats = ["car", "road", "tree", "ship"]
    rels = ["on", "beside", "near"]
    return [
        RelationTriple(rng.choice(cats), rng.choice(cats), rng.choice(rels))
        for _ in range(n)
    ]


def test_relation_f1_matches_counter_oracle():
    rng = random.Random(9)
    for _ in range(300):
        preds = _random_triples(rng, rng.randint(0, 8))
        gts = _random_triples(rng, rng.randint(0, 8))
        got = relation_f1(preds, gts)
        tp = sum((Counter(preds) & Counter(gts)).values())
        precision = tp / len(preds) if preds else 0.0
        recall = tp / len(gts) if gts else 0.0
        f1 = 2 * tp / (len(preds) + len(gts)) if preds or gts else 0.0
        assert got.precision == pytest.approx(precision, abs=1e-15)
        assert got.recall == pytest.approx(recall, abs=1e-15)
        assert got.f1 == pytest.approx(f1, abs=1e-15)


def test_relation_f1_is_order_invariant():
    rng = random.Random(10)
    preds = _random_triples(rng, 6)
    gts = _random_triples(rng, 6)
    base = relation_f1(preds, gts)
    for _ in range(10):
        rng.shuffle(preds)
        rng.shuffle(gts)
        assert relation_f1(preds, gts) == base


# --- text ------------------------------------------------------------------------


def _lcs_oracle(a, b):
    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def test_rouge_l_matches_recursive_lcs():
    rng = random.Random(3)
    vocab = ["a", "b", "c", "d"]
    for _ in range(200):
        cand = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        ref = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        got = rouge_l(cand, ref)
        lcs = _lcs_oracle(cand, ref)
        if lcs == 0:
            assert got == 0.0
        else:
            p = Fraction(lcs, len(cand))
            r = Fraction(lcs, len(ref))
            want = 2 * p * r / (p + r)
            assert got == pytest.approx(float(want), abs=1e-12)


def _bleu_oracle(cands, refs_per_cand, n):
    # pooled clipped n-gram precisions in exact arithmetic
    num = [0] * n
    den = [0] * n
    c_total, r_total = 0, 0
    for cand, refs in zip(cands, refs_per_cand):
        c_total += len(cand)
        # closest reference length, ties to the shorter one
        r_total += min((len(r) for r in refs), key=lambda L: (abs(L - len(cand)), L))
        for k in range(1, n + 1):
            grams = Counter(tuple(cand[i:i + k]) for i in range(len(cand) - k + 1))
            best = Counter()
            for ref in refs:
                rg = Counter(tuple(ref[i:i + k]) for i in range(len(ref) - k + 1))
                for g, c in rg.items():
                    best[g] = max(best[g], c)
            num[k - 1] += sum(min(c, best[g]) for g, c in grams.items())
            den[k - 1] += sum(grams.values())
    if any(d == 0 for d in den) or any(v == 0 for v in num):
        return 0.0
    log_mean = sum(math.log(v / d) for v, d in zip(num, den)) / n
    bp = 1.0 if c_total > r_total else math.exp(1 - r_total / c_total)
    return bp * math.exp(log_mean)


def _per_order(oracle, cands, refs, n):
    """The tuple of BLEU-1..n, one ``oracle`` call per order."""
    return tuple(oracle(cands, refs, m) for m in range(1, n + 1))


def test_bleu_corpus_matches_oracle():
    rng = random.Random(8)
    vocab = ["the", "ship", "dock", "a", "near", "two"]
    for _ in range(200):
        n = rng.randint(1, 4)
        cands, refs = [], []
        for _ in range(rng.randint(1, 3)):
            cands.append(tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8))))
            refs.append([
                tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
                for _ in range(rng.randint(1, 2))
            ])
        got = bleu_corpus(cands, refs, n=n)
        assert got == _per_order(bleu_corpus_counters, cands, refs, n)
        assert got == _per_order(bleu_corpus_per_order, cands, refs, n)
        assert got == pytest.approx(_per_order(_bleu_oracle, cands, refs, n), rel=1e-9, abs=1e-12)


def test_single_sentence_bleu_is_corpus_of_one():
    rng = random.Random(4)
    vocab = ["x", "y", "z", "w"]
    for _ in range(100):
        cand = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
        refs = [tuple(rng.choice(vocab) for _ in range(rng.randint(1, 6)))]
        assert bleu(cand, refs, n=2) == bleu_corpus([cand], [refs], n=2)[-1]


SEGMENT = (("a", "b"), [("a", "b")])

# each row: candidates, references, n; the checks run in this order: lengths,
# n, a segment without references, a bare string
BLEU_ERRORS = [
    ("length-mismatch", [SEGMENT[0]], [], 4),
    ("length-mismatch-before-n", [SEGMENT[0]], [], 0),
    ("n-zero", [SEGMENT[0]], [SEGMENT[1]], 0),
    ("n-negative", [], [], -1),
    ("n-before-no-references", [SEGMENT[0]], [[]], 0),
    ("no-references", [SEGMENT[0]], [[]], 2),
    ("no-references-before-bare-string", ["a b"], [[]], 2),
    ("bare-string-candidate", ["a b"], [SEGMENT[1]], 2),
    ("bare-string-reference", [SEGMENT[0]], [["a b"]], 2),
    ("second-segment-no-references", [SEGMENT[0], SEGMENT[0]], [SEGMENT[1], []], 1),
]


@pytest.mark.parametrize("cands, refs, n", [row[1:] for row in BLEU_ERRORS],
                         ids=[row[0] for row in BLEU_ERRORS])
def test_bleu_corpus_errors_match_the_per_order_kernel(cands, refs, n):
    with pytest.raises(Exception) as want:
        bleu_corpus_per_order(cands, refs, n)
    with pytest.raises(type(want.value)) as got:
        bleu_corpus(cands, refs, n)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [2.0, "2", None, True, False, 4.5])
def test_bleu_corpus_takes_only_an_int_order(n):
    for call in (lambda: bleu_corpus([SEGMENT[0]], [SEGMENT[1]], n), lambda: bleu(*SEGMENT, n=n)):
        with pytest.raises(InvariantViolation) as raised:
            call()
        assert str(raised.value) == f"n-gram order n must be an int, got {n!r}"
    # the lengths are still checked first
    with pytest.raises(LengthMismatch):
        bleu_corpus([SEGMENT[0]], [], n)


def _token_seqs(vocab_size: int, max_size: int):
    return st.lists(st.sampled_from([f"w{i}" for i in range(vocab_size)]), max_size=max_size).map(tuple)


# a small vocabulary makes long common subsequences, a large one short ones
token_pairs = st.sampled_from([2, 4, 50]).flatmap(
    lambda v: st.tuples(_token_seqs(v, 200), _token_seqs(v, 200))
)


@settings(deadline=None)
@given(token_pairs)
def test_lcs_and_rouge_l_equal_the_dp_table(pair):
    cand, ref = pair
    lcs = lcs_table(cand, ref)
    assert _lcs_length(cand, ref) == lcs
    assert _lcs_length(ref, cand) == lcs
    if lcs == 0:
        want = 0.0
    else:
        precision = lcs / len(cand)
        recall = lcs / len(ref)
        want = 2 * precision * recall / (precision + recall)
    assert rouge_l(cand, ref) == want


def test_lcs_equals_the_dp_table_on_seeded_pairs():
    rng = random.Random(11)
    for _ in range(300):
        vocab = [f"w{i}" for i in range(rng.choice([2, 4, 50]))]
        a = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 150)))
        b = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 150)))
        assert _lcs_length(a, b) == lcs_table(a, b)


# digits of several kinds (isdigit but not decimal, non-ASCII decimal), marks,
# symbols, connector punctuation and case folds that change the length
tricky_text = st.text(alphabet=st.sampled_from(
    "09²٣a zß İ.,;:_-‿'\"$+^`|~\u0301\u00a0\t\n!?¿。、…"
))


@given(st.one_of(st.text(), tricky_text))
def test_tokenize_equals_the_per_character_scan(text):
    assert tokenize(text) == tokenize_per_char(text)


def test_punctuation_scan_finds_every_p_category_code_point():
    missed = [
        hex(cp) for cp in range(sys.maxunicode + 1)
        if unicodedata.category(chr(cp)).startswith("P") and not _PUNCT_CANDIDATE.fullmatch(chr(cp))
    ]
    assert missed == []


@st.composite
def bleu_corpora(draw):
    # short sequences make empty candidates, candidates shorter than n and
    # references that tokenize to nothing; a one-word vocabulary repeats a
    # gram at every order
    vocab_size = draw(st.sampled_from([1, 2, 4, 50]))
    tokens = st.one_of(_token_seqs(vocab_size, 3), _token_seqs(vocab_size, 30))
    segments = draw(st.lists(
        st.tuples(tokens, st.lists(tokens, min_size=1, max_size=4)),
        max_size=5,
    ))
    return [cand for cand, _ in segments], [refs for _, refs in segments]


@given(bleu_corpora(), st.integers(1, 4))
@example(([()], [[("a", "b")]]), 4)  # an empty candidate
@example(([("a", "b")], [[("a", "b")]]), 4)  # a candidate shorter than n
@example(([("a", "b"), ("a",)], [[()], [(), ("a",)]]), 2)  # references with no tokens
@example(([("a",) * 7], [[("a",) * 5, ("a",) * 3]]), 4)  # a gram repeated at every order
@example(([("a", "b", "a", "b", "a")], [[("a", "b", "a"), ("b", "a", "b", "a")]]), 4)
def test_bleu_corpus_equals_the_counter_implementation(corpus, n):
    candidates, references = corpus
    got = bleu_corpus(candidates, references, n=n)
    assert got == _per_order(bleu_corpus_counters, candidates, references, n)
    assert got == _per_order(bleu_corpus_per_order, candidates, references, n)


# --- navigation --------------------------------------------------------------------


def _random_episode(rng):
    path = tuple(
        Pos3(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0, 30))
        for _ in range(rng.randint(1, 6))
    )
    goal = Pos3(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0, 30))
    return NavEpisode(path, goal, rng.uniform(0, 120), rng.uniform(1, 15))


def test_nav_orderings_hold_on_1000_random_episodes():
    rng = random.Random(2025)
    episodes = [_random_episode(rng) for _ in range(1000)]
    for ep in episodes:
        single = nav_metrics([ep])
        assert single.sr <= single.osr + 1e-12
        assert single.spl <= single.sr + 1e-12
        assert single.ne >= 0.0
    agg = nav_metrics(episodes)
    assert agg.sr <= agg.osr + 1e-12
    assert agg.spl <= agg.sr + 1e-12


def test_nav_aggregate_is_mean_of_singles():
    rng = random.Random(31)
    episodes = [_random_episode(rng) for _ in range(50)]
    singles = [nav_metrics([ep]) for ep in episodes]
    agg = nav_metrics(episodes)
    for field in ("ne", "sr", "osr", "spl"):
        want = sum(getattr(s, field) for s in singles) / len(singles)
        assert getattr(agg, field) == pytest.approx(want, abs=1e-9)
