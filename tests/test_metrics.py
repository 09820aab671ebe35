"""Evaluation metrics: detection AP, relation F1, text overlap, navigation."""

import math

import pytest

from rsvl.errors import (
    EmptyEpisodeSet,
    EmptyGroundTruth,
    InvariantViolation,
    LengthMismatch,
)
from rsvl.markup import Box, Pos3
from rsvl.metrics import (
    DetGroundTruth,
    DetPrediction,
    EvalReport,
    NavEpisode,
    PRF1,
    RelationTriple,
    accuracy,
    bleu,
    bleu_corpus,
    iou,
    map50,
    nav_metrics,
    relation_f1,
    relation_overlap,
    rouge_l,
    tokenize,
)


# --- iou -------------------------------------------------------------------


def test_iou_offset_squares():
    # 10x10 squares overlapping in a 5x5 patch: 25 / (100 + 100 - 25)
    assert iou(Box(0, 0, 9, 9), Box(5, 5, 14, 14)) == pytest.approx(1 / 7, abs=1e-15)


def test_iou_identity_and_disjoint():
    b = Box(10, 10, 20, 30)
    assert iou(b, b) == 1.0
    assert iou(Box(0, 0, 4, 4), Box(10, 10, 14, 14)) == 0.0


def test_iou_is_symmetric():
    a, b = Box(0, 0, 9, 9), Box(3, 4, 20, 18)
    assert iou(a, b) == iou(b, a)


def test_iou_counts_boundary_pixels():
    # integer boxes are inclusive: a zero-thickness touch still shares a row
    assert iou(Box(0, 0, 10, 10), Box(10, 10, 20, 20)) > 0.0
    assert iou(Box(0, 0, 10, 10), Box(11, 11, 20, 20)) == 0.0


# --- detection mAP ------------------------------------------------------------


def _dp(cat, box, conf):
    return DetPrediction(cat, box, conf)


def _dg(cat, box):
    return DetGroundTruth(cat, box)


def test_map50_perfect_predictions():
    gts = {
        "a": [_dg("ship", Box(0, 0, 10, 10)), _dg("plane", Box(50, 50, 80, 80))],
        "b": [_dg("ship", Box(5, 5, 25, 25))],
    }
    preds = {
        "a": [_dp("ship", Box(0, 0, 10, 10), 0.9), _dp("plane", Box(50, 50, 80, 80), 0.8)],
        "b": [_dp("ship", Box(5, 5, 25, 25), 0.95)],
    }
    per_class, mean = map50(preds, gts)
    assert per_class == {"plane": 1.0, "ship": 1.0}
    assert mean == 1.0


def test_map50_hand_computed_ap():
    # ranked hits: match, miss, match -> PR points (1, .5), (.5, .5), (2/3, 1)
    # all-points interpolation: 0.5 * 1 + 0.5 * 2/3 = 5/6
    preds = {"i": [
        _dp("c", Box(0, 0, 10, 10), 0.9),
        _dp("c", Box(500, 500, 510, 510), 0.8),
        _dp("c", Box(100, 100, 110, 110), 0.7),
    ]}
    gts = {"i": [_dg("c", Box(0, 0, 10, 10)), _dg("c", Box(100, 100, 110, 110))]}
    per_class, mean = map50(preds, gts)
    assert per_class["c"] == pytest.approx(5 / 6, rel=1e-12)
    assert mean == per_class["c"]


def test_map50_no_predictions_scores_zero():
    gts = {"i": [_dg("c", Box(0, 0, 10, 10))]}
    assert map50({"i": []}, gts) == ({"c": 0.0}, 0.0)


def test_map50_requires_ground_truth():
    with pytest.raises(EmptyGroundTruth):
        map50({"i": [_dp("c", Box(0, 0, 1, 1), 0.5)]}, {"i": []})


def test_map50_below_threshold_pair_never_matches():
    # the 1/7 pair sits below the 0.5 gate
    preds = {"i": [_dp("c", Box(0, 0, 9, 9), 0.9)]}
    gts = {"i": [_dg("c", Box(5, 5, 14, 14))]}
    _, mean = map50(preds, gts)
    assert mean == 0.0
    _, mean_loose = map50(preds, gts, iou_threshold=1 / 8)
    assert mean_loose == 1.0


def test_map50_cross_image_and_cross_class_isolation():
    # a perfect box on the wrong image or class must not match
    gts = {"a": [_dg("c", Box(0, 0, 10, 10))], "b": [_dg("d", Box(0, 0, 10, 10))]}
    preds = {"a": [_dp("d", Box(0, 0, 10, 10), 0.9)], "b": [_dp("c", Box(0, 0, 10, 10), 0.9)]}
    per_class, mean = map50(preds, gts)
    assert per_class == {"c": 0.0, "d": 0.0}
    assert mean == 0.0


def test_map50_each_gt_matched_once():
    # two copies of the same predicted box: only one can claim the ground truth
    preds = {"i": [_dp("c", Box(0, 0, 10, 10), 0.9), _dp("c", Box(0, 0, 10, 10), 0.8)]}
    gts = {"i": [_dg("c", Box(0, 0, 10, 10))]}
    per_class, _ = map50(preds, gts)
    # PR points: (1, 1), (0.5, 1) -> AP = 1.0 reached at the first hit
    assert per_class["c"] == 1.0


def test_map50_mean_covers_ground_truth_classes_only():
    gts = {"i": [_dg("c", Box(0, 0, 10, 10))]}
    preds = {"i": [
        _dp("c", Box(0, 0, 10, 10), 0.9),
        _dp("ghost", Box(50, 50, 60, 60), 0.9),
    ]}
    per_class, mean = map50(preds, gts)
    assert set(per_class) == {"c"}
    assert mean == 1.0


def test_map50_confidence_is_not_iou():
    # low confidence, perfect geometry still matches; order only shapes the PR curve
    preds = {"i": [_dp("c", Box(0, 0, 10, 10), 0.01)]}
    gts = {"i": [_dg("c", Box(0, 0, 10, 10))]}
    assert map50(preds, gts)[1] == 1.0


def test_det_prediction_validates_confidence():
    with pytest.raises(InvariantViolation):
        _dp("c", Box(0, 0, 1, 1), 1.5)
    with pytest.raises(InvariantViolation):
        _dp("c", Box(0, 0, 1, 1), -0.1)


# --- relation F1 -----------------------------------------------------------------


def _t(s, o, r):
    return RelationTriple(s, o, r)


def test_relation_f1_exact_four_sevenths():
    preds = [
        _t("car", "road", "driving on"),
        _t("car", "road", "parked on"),
        _t("tree", "road", "beside"),
    ]
    gts = [
        _t("car", "road", "driving on"),
        _t("tree", "road", "beside"),
        _t("ship", "dock", "moored at"),
        _t("plane", "runway", "taxiing on"),
    ]
    got = relation_f1(preds, gts)
    assert got.precision == pytest.approx(2 / 3, abs=1e-15)
    assert got.recall == 0.5
    assert got.f1 == 4 / 7  # exact equality, no tolerance


def test_relation_overlap_is_a_multiset():
    a = _t("car", "road", "on")
    assert relation_overlap([a, a], [a]) == (1, 2, 1)
    assert relation_overlap([a], [a, a]) == (1, 1, 2)
    assert relation_overlap([a, a], [a, a]) == (2, 2, 2)


def test_relation_f1_empty_sets():
    assert relation_f1([], []) == PRF1(0.0, 0.0, 0.0)
    assert relation_f1([], [_t("a", "b", "c")]).f1 == 0.0
    assert relation_f1([_t("a", "b", "c")], []).f1 == 0.0


def test_relation_triple_normalizes_case_and_space():
    assert _t(" Car ", "ROAD", "Driving On") == _t("car", "road", "driving on")


def test_relation_triple_rejects_empty_fields():
    for bad in [("", "b", "c"), ("a", " ", "c"), ("a", "b", "")]:
        with pytest.raises(InvariantViolation):
            _t(*bad)


def test_relation_recall_monotone_in_matching_preds():
    gts = [_t("car", "road", "on"), _t("tree", "road", "beside")]
    partial = relation_f1([_t("car", "road", "on")], gts)
    fuller = relation_f1([_t("car", "road", "on"), _t("tree", "road", "beside")], gts)
    assert fuller.recall >= partial.recall


# --- text metrics ------------------------------------------------------------------


def test_tokenize_casefolds_and_strips_punctuation():
    assert tokenize("The cat sat.") == ("the", "cat", "sat")
    assert tokenize("IT'S night-time!") == ("its", "nighttime")


def test_tokenize_keeps_digit_flanked_punctuation():
    assert tokenize("3.5 km, then 1,000 m.") == ("3.5", "km", "then", "1,000", "m")


def test_tokenize_empty():
    assert tokenize("") == ()
    assert tokenize("  ...  ") == ()


def test_bleu_identity_and_disjoint():
    cand = tokenize("two ships moored at the dock")
    assert bleu(cand, [cand]) == 1.0
    assert bleu(tokenize("alpha beta gamma delta"), [tokenize("epsilon zeta eta theta")]) == 0.0


def test_bleu1_brevity_penalty():
    # unigram precision 1 with c=3 against r=4: BP = exp(1 - 4/3)
    got = bleu(tokenize("the cat sat"), [tokenize("the cat sat down")], n=1)
    assert got == pytest.approx(math.exp(-1 / 3), abs=1e-12)


def test_bleu_clipping():
    # "the the the" against "the cat": clipped unigram count is 1 of 3
    got = bleu(("the", "the", "the"), [("the", "cat")], n=1)
    assert got == pytest.approx(1 / 3, abs=1e-15)


def test_bleu_short_candidate_lacks_high_order_ngrams():
    assert bleu(tokenize("the cat sat"), [tokenize("the cat sat")], n=4) == 0.0


def test_bleu_closest_reference_length_ties_go_shorter():
    # candidate length 3; refs of length 2 and 4 tie on distance -> r = 2, BP = 1
    cand = ("a", "b", "c")
    refs = [("a", "b"), ("a", "b", "c", "d")]
    got = bleu(cand, refs, n=1)
    assert got == 1.0


def test_bleu_corpus_pools_counts():
    c1, r1 = ("a", "b"), ("a", "b")
    c2, r2 = ("x", "y"), ("x", "z")
    pooled = bleu_corpus([c1, c2], [[r1], [r2]], n=1)[0]
    # 2/2 + 1/2 pooled into 3/4; both lengths match so BP = 1
    assert pooled == pytest.approx(0.75, abs=1e-15)


def test_bleu_rejects_bare_strings():
    with pytest.raises(InvariantViolation):
        bleu("the cat sat", [("the", "cat")])
    with pytest.raises(InvariantViolation):
        bleu(("ok",), ["not tokenized"])


def test_rouge_l_six_sevenths():
    # LCS("a b c d", "a c d") = 3; P = 3/4, R = 1 -> F1 = 6/7
    got = rouge_l(("a", "b", "c", "d"), ("a", "c", "d"))
    assert got == pytest.approx(6 / 7, abs=1e-15)


def test_rouge_l_identity_disjoint_empty():
    t = ("remote", "sensing", "scene")
    assert rouge_l(t, t) == 1.0
    assert rouge_l(("a", "b"), ("c", "d")) == 0.0
    assert rouge_l((), ("a",)) == 0.0
    assert rouge_l((), ()) == 0.0


def test_rouge_l_rejects_bare_strings():
    with pytest.raises(InvariantViolation):
        rouge_l("a b c", ("a", "b"))


def test_accuracy_normalization():
    assert accuracy(["Yes."], ["yes"]) == 1.0
    assert accuracy(["Yes.", "no", "4"], ["yes", "No", "5"]) == pytest.approx(2 / 3)
    assert accuracy([], []) == 0.0


def test_accuracy_length_mismatch():
    with pytest.raises(LengthMismatch):
        accuracy(["a"], ["a", "b"])


@pytest.mark.parametrize("call, message", [
    (lambda: bleu_corpus(iter([("a",)]), iter([[("a",)]])),
     "candidates must be a sequence, got list_iterator"),
    (lambda: bleu_corpus([("a",)], (r for r in [[("a",)]])),
     "references must be a sequence, got generator"),
    (lambda: accuracy(iter(["a"]), iter(["a"])), "preds must be a sequence, got list_iterator"),
    (lambda: accuracy(["a"], iter(["a"])), "gts must be a sequence, got list_iterator"),
], ids=["bleu-candidates", "bleu-references", "accuracy-preds", "accuracy-gts"])
def test_an_iterator_argument_is_named(call, message):
    with pytest.raises(InvariantViolation) as raised:
        call()
    assert type(raised.value) is InvariantViolation
    assert str(raised.value) == message


# --- navigation ----------------------------------------------------------------------


def NavMetrics_approx(ne, sr, osr, spl):
    from rsvl.metrics import NavMetrics

    return NavMetrics(
        pytest.approx(ne, abs=1e-12),
        pytest.approx(sr, abs=1e-12),
        pytest.approx(osr, abs=1e-12),
        pytest.approx(spl, abs=1e-12),
    )


def test_nav_perfect_episode():
    ep = NavEpisode((Pos3(0, 0, 0), Pos3(5, 0, 0), Pos3(10, 0, 0)), Pos3(10, 0, 0), 10.0, 3.0)
    assert nav_metrics([ep]) == NavMetrics_approx(0.0, 100.0, 100.0, 100.0)


def test_nav_never_near_goal():
    ep = NavEpisode((Pos3(0, 0, 0), Pos3(100, 0, 0)), Pos3(50, 50, 50), 10.0, 3.0)
    got = nav_metrics([ep])
    assert got.sr == 0.0 and got.osr == 0.0 and got.spl == 0.0
    assert got.ne == pytest.approx(math.dist((100, 0, 0), (50, 50, 50)))


def test_nav_spl_halves_on_doubled_path():
    ep = NavEpisode(
        (Pos3(0, 0, 0), Pos3(10, 0, 0), Pos3(10, 10, 0)), Pos3(10, 10, 0), 10.0, 3.0
    )
    got = nav_metrics([ep])
    assert got.sr == 100.0
    assert got.spl == pytest.approx(50.0)


def test_nav_oracle_success_without_final_success():
    # passes through the goal radius mid-flight, ends far away
    ep = NavEpisode(
        (Pos3(0, 0, 0), Pos3(50, 50, 50), Pos3(100, 0, 0)), Pos3(50, 50, 50), 10.0, 3.0
    )
    got = nav_metrics([ep])
    assert got.osr == 100.0 and got.sr == 0.0


def test_nav_degenerate_stay_put():
    # zero-length optimum reached by a zero-length path counts as clean success
    ep = NavEpisode((Pos3(0, 0, 0),), Pos3(0, 0, 0), 0.0, 1.0)
    assert nav_metrics([ep]).spl == 100.0


def test_nav_aggregates_are_means():
    near = NavEpisode((Pos3(0, 0, 0), Pos3(10, 0, 0)), Pos3(10, 0, 0), 10.0, 3.0)
    far = NavEpisode((Pos3(0, 0, 0), Pos3(100, 0, 0)), Pos3(50, 50, 50), 10.0, 3.0)
    got = nav_metrics([near, far])
    assert got.sr == 50.0
    assert got.ne == pytest.approx((0.0 + math.dist((100, 0, 0), (50, 50, 50))) / 2)


def test_nav_empty_episode_set():
    with pytest.raises(EmptyEpisodeSet):
        nav_metrics([])


def test_nav_episode_validation():
    with pytest.raises(InvariantViolation):
        NavEpisode((), Pos3(0, 0, 0), 1.0, 1.0)
    with pytest.raises(InvariantViolation):
        NavEpisode((Pos3(0, 0, 0),), Pos3(0, 0, 0), -1.0, 1.0)
    with pytest.raises(InvariantViolation):
        NavEpisode((Pos3(0, 0, 0),), Pos3(0, 0, 0), 1.0, 0.0)


# --- report ------------------------------------------------------------------------


def test_eval_report_round_trips_to_dict():
    rep = EvalReport("detection", 3, {"mAP@50": 83.33}, per_class={"ship": 83.33})
    d = rep.to_dict()
    assert d["task"] == "detection"
    assert d["count"] == 3
    assert d["metrics"]["mAP@50"] == 83.33
    assert d["per_class"] == {"ship": 83.33}


def test_eval_report_render_mentions_unsupported():
    rep = EvalReport("caption", 2, {"BLEU-1": 50.0}, unsupported=("METEOR", "CIDEr"))
    text = rep.render()
    assert "caption" in text
    assert "BLEU-1" in text
    assert "METEOR" in text
