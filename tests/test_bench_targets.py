"""The traced benchmark run patches rsvl functions by name; those names must exist.

``bench/spans.py`` swaps each ``(module, attr)`` in its ``TARGETS`` for a timed
wrapper, so a rename under ``src/`` would otherwise only show when someone runs
``bench/run.py --trace 1``.
"""

import hashlib
import importlib.util
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from rsvl import builders, fileio, markup
from rsvl.cli import main

from conftest import ANNOTATIONS, write_json
from test_golden_bytes import DET_IMAGES, DET_SEED, GOLDEN, load_corpus

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return _load("rsvl_bench_spans", BENCH / "spans.py")


RUN = _load("rsvl_bench_run", BENCH / "run.py")


def test_every_traced_target_resolves():
    """A renamed or dropped name fails here with its entry, not as a crashed traced run."""
    spans = load_spans()
    missing = [f"({module.__name__}, {attr!r}) traced as {name!r}"
               for module, attr, name, _ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert not missing, "bench/spans.py TARGETS entries that are not callables: " + "; ".join(missing)


def test_traced_eval_records_loader_and_metric_spans(tmp_path, capsys):
    spans = load_spans()
    rows = [{"image_id": "i", "category": "car", "box": [0, 0, 10, 10], "confidence": 0.9}]
    preds = write_json(tmp_path / "preds.json", rows)
    gts = write_json(tmp_path / "gts.json", [{k: v for k, v in rows[0].items() if k != "confidence"}])
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert main(["eval", "detection", "--preds", preds, "--gts", gts]) == 0
    capsys.readouterr()
    names = {span[1] for span in tracer.spans}
    assert {"fileio.load_eval", "metrics.map50"} <= names


def test_traced_build_and_strict_validate_record_front_end_spans(task_inputs, tmp_path, capsys):
    spans = load_spans()
    out = str(tmp_path / "det.jsonl")
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert main(["build", "detection", task_inputs["detection"], "-o", out]) == 0
        assert main(["validate", "--strict", out]) == 0
    capsys.readouterr()
    names = Counter(span[1] for span in tracer.spans)
    records = names["builders.build_record.detection"]
    assert records == 3
    assert names["markup.parse"] == 2 * records  # prompt and response, through cli.parse
    assert names["markup.emit"] == 3 * records  # one per built record, two per validated one
    assert names["markup.normalize_box"] == sum(len(row["objects"]) for row in ANNOTATIONS)
    assert tracer.counts["fileio.load_annotations.records"] == len(ANNOTATIONS)


def test_det_build_takes_the_one_test_paths(tmp_path, capsys, monkeypatch):
    """Building and validating the golden det corpus checks each value in one combined test.

    The loader words no fault with ``_as_int4`` and ``_require_keys``, the
    constructors of annotations, records, boxes and markup nodes word none with
    their ``_require`` helpers, and ``normalize_box`` maps every all-int box
    without ``_norm_coord``.
    """
    def unused(*args, **kwargs):
        raise AssertionError("a well-formed row took a path that words a fault")

    for helper in ("_require", "_require_items", "_require_finite_float"):
        monkeypatch.setattr(markup, helper, unused)
    for helper in ("_require", "_require_items", "_require_member"):  # builders' own references
        monkeypatch.setattr(builders, helper, unused)
    monkeypatch.setattr(fileio, "_as_int4", unused)
    monkeypatch.setattr(fileio, "_require_keys", unused)
    monkeypatch.setattr(markup, "_norm_coord", unused)
    det = load_corpus().det_corpus(random.Random(DET_SEED), tmp_path, DET_IMAGES)
    out = tmp_path / "det.jsonl"
    assert main(["build", "detection", str(det.annotations), "-o", str(out)]) == 0
    assert main(["validate", "--strict", str(out)]) == 0
    capsys.readouterr()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["det-corpus/detection"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden


def test_traced_eval_caption_keeps_one_span_per_metric_call(tmp_path, capsys):
    """One corpus BLEU call for BLEU-1..4, one ROUGE-L per reference, one tokenize per text."""
    spans = load_spans()
    references = {"a": ["a ship in port.", "two ships."], "b": ["a runway, 3.5 km long."],
                  "c": ["planes", "a plane on the apron", "an aircraft"]}
    preds = write_json(tmp_path / "p.json", [{"id": k, "caption": v[0]} for k, v in references.items()])
    gts = write_json(tmp_path / "g.json", [{"id": k, "references": v} for k, v in references.items()])
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert main(["eval", "caption", "--preds", preds, "--gts", gts]) == 0
    capsys.readouterr()
    names = Counter(span[1] for span in tracer.spans)
    n_refs = sum(map(len, references.values()))
    assert names["metrics.bleu_corpus"] == 1
    assert tracer.counts["metrics.rouge_l.calls"] == names["metrics.rouge_l"] == n_refs
    assert names["metrics.tokenize"] == len(references) + n_refs


def test_traced_fit_and_decode_record_their_spans_through_the_cli_shims(tmp_path, capsys):
    """``cmd_fit`` and ``cmd_decode`` reach the decoder through ``cli.fit`` and ``cli.decode``.

    Those two names import the decoder on first use and are what the tracer
    replaces; a command that called ``trajectory`` directly would record no span.
    """
    spans = load_spans()
    targets = write_json(tmp_path / "targets.json", [[0.3, 0.4, 0.5, 0.6, 0.5, 0.4]] * 3)
    latent = write_json(tmp_path / "latent.json", [0.1, -0.2, 0.3, 0.4])
    weights = str(tmp_path / "weights.json")
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert main(["fit", "--targets", targets, "--latent", latent, "--iters", "3",
                     "--weights-out", weights]) == 0
        assert main(["decode", "--weights", weights, "--latent", latent, "-T", "4"]) == 0
    capsys.readouterr()
    names = Counter(span[1] for span in tracer.spans)
    assert (names["trajectory.fit"], names["trajectory.decode"]) == (1, 1)
    assert tracer.counts["trajectory.fit.iters"] == 3
    assert tracer.counts["trajectory.decode.calls"] == 1
    assert tracer.counts["trajectory.decode.steps"] >= 1


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_one_traced_pass_reaches_every_roadmap_layer(name, tmp_path, monkeypatch, capsys):
    """A traced pass of each workload checks out and feeds every per-layer rate it prints.

    ``bench/run.py --trace 1`` divides one per-layer value by another for its
    ROADMAP rows, so a layer the workload no longer reaches would crash it.
    """
    spans = load_spans()
    monkeypatch.setitem(sys.modules, "spans", spans)  # what ``run.measure`` imports
    workload = RUN.WORKLOADS[name](load_corpus(), random.Random(f"{name}:1"), tmp_path,
                                   RUN.Checks(), RUN.Cli(main), 1)
    tracer = spans.Tracer()
    passes = RUN.measure(workload, 0, tracer)
    capsys.readouterr()
    assert [traced for _, _, traced in passes] == [False, True]
    assert workload.checks.failed == 0, workload.checks.notes
    names = [n for row in RUN.ROADMAP_ROWS if row[0] == name and not isinstance(row[5], int)
             for n in row[5]]
    values = RUN.per_layer(tracer, 1, names)
    assert [n for n in names if not values[n] > 0] == []
