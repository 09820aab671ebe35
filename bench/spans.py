"""In-memory spans and counters around the public functions of each rsvl layer.

The traced run replaces each function where its caller looks it up: names
that ``rsvl.cli`` and ``rsvl.builders`` import directly are patched in those
modules, the rest as attributes of ``rsvl.fileio``, ``rsvl.builders`` and
``rsvl.metrics``.  Nothing under ``src/`` changes, and the traced run takes the
same CLI path as the untraced one.

Span stacks are kept per thread because ``rsvl build`` and ``rsvl validate``
run per-record work on a thread pool; a span opened on a worker thread with an
empty stack takes the CLI invocation's root span as its parent.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from rsvl import builders, cli, fileio, metrics
from rsvl.errors import MarkupError

TASKS = tuple(task.value for task in builders.TaskType)


class Tracer:
    """Spans as (id, name, start, end, parent id, run id) plus named counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else (None if root else self._root)
        if root:
            self.run_id += 1
            self._root = span_id
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            if root:
                self._root = None
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the union of its children."""
        children = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += end - start - covered
        return dict(totals)

    def write(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent, run_id in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


# --- counters fed from each traced call: (tracer, args, result, error) ----------


def _calls(name):
    return lambda t, args, result, error: t.count(f"{name}.calls")


def _parse(t, args, result, error):
    t.count("markup.parse.calls")
    t.count("markup.parse.bytes", len(args[0].encode("utf-8")))
    if isinstance(error, MarkupError):
        t.count("markup.parse.errors")


def _loaded_records(t, args, result, error):
    if result is not None:
        t.count("fileio.load_annotations.records", len(result))


def _file_bytes(name):
    def counter(t, args, result, error):
        if not hasattr(args[0], "write"):  # the outer call of write_records names a path
            t.count(f"{name}.bytes", os.path.getsize(args[0]))
    return counter


def _validate_caption(t, args, result, error):
    t.count("builders.validate_caption.calls")
    if result is not None and not result.passed:
        t.count("builders.validate_caption.rejected")


def _map50(t, args, result, error):
    t.count("metrics.map50.preds", sum(len(v) for v in args[0].values()))


def _decode(t, args, result, error):
    t.count("trajectory.decode.calls")
    if result is not None:
        t.count("trajectory.decode.steps", len(result.states))
        t.count("trajectory.decode.stopped_by_threshold", result.terminated_by.value == "threshold")


def _fit(t, args, result, error):
    if result is not None:
        t.count("trajectory.fit.iters", len(result[1]) - 1)  # the curve holds iters + 1 losses


def _build_record(task):
    def counter(t, args, result, error):
        t.count("builders.build_record.calls")
        t.count(f"builders.build_record.{task}.calls")
    return counter


# (module, attribute, span name, counter)
TARGETS = [
    (cli, "parse", "markup.parse", _parse),
    (cli, "emit", "markup.emit", _calls("markup.emit")),
    (builders, "emit", "markup.emit", _calls("markup.emit")),
    (cli, "normalize_box", "markup.normalize_box", _calls("markup.normalize_box")),
    (builders, "normalize_box", "markup.normalize_box", _calls("markup.normalize_box")),
    (cli, "validate_caption", "builders.validate_caption", _validate_caption),
    (cli, "map50", "metrics.map50", _map50),
    (cli, "bleu_corpus", "metrics.bleu_corpus", None),
    (metrics, "tokenize", "metrics.tokenize", None),
    (metrics, "rouge_l", "metrics.rouge_l", _calls("metrics.rouge_l")),
    (cli, "decode", "trajectory.decode", _decode),
    (cli, "fit", "trajectory.fit", _fit),
    (fileio, "write_records", "fileio.write_records", _file_bytes("fileio.write_records")),
    (fileio, "read_record_lines", "fileio.read_record_lines", _file_bytes("fileio.read_record_lines")),
    (fileio, "parse_record_line", "fileio.parse_record_line", _calls("fileio.parse_record_line")),
    (fileio, "load_weights", "fileio.load_weights", _calls("fileio.load_weights")),
    (fileio, "load_similarity_scores", "fileio.load_annotations", None),
    *((fileio, name, "fileio.load_annotations", _loaded_records) for name in (
        "load_image_annotations", "load_vqa_items", "load_relation_items",
        "load_decomposition_items", "load_decision_items", "load_scene_records")),
    *((fileio, name, "fileio.load_eval", None) for name in (
        "load_det_predictions", "load_det_ground_truth", "load_text_eval")),
    *((fileio, name, "fileio.decoder_io", None) for name in (
        "load_latent", "load_targets", "save_weights", "write_loss_curve")),
    *((builders, f"build_{task}_record", f"builders.build_record.{task}", _build_record(task))
      for task in TASKS),
]


def _traced(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        result = error = None
        try:
            with tracer.span(name):
                result = fn(*args, **kwargs)
            return result
        except Exception as e:
            error = e
            raise
        finally:
            if counter is not None:
                counter(tracer, args, result, error)
    return call


@contextmanager
def installed(tracer: Tracer):
    """Patch every target to record spans into ``tracer``; restore on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
    try:
        for (module, attr, name, counter), (_, _, fn) in zip(TARGETS, saved):
            setattr(module, attr, _traced(tracer, name, fn, counter))
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
