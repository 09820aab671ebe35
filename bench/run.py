"""End-to-end benchmark of the rsvl CLI on seeded synthetic inputs.

Run from the root of a checkout:

    python3 bench/run.py --workload det-corpus --seed 1 --seconds 25 --trace 0

The benchmark generates its inputs from ``--seed``, drives ``rsvl.cli.main``
in-process in a closed loop with one client (each invocation starts after the
previous one returns) for ``--seconds`` seconds, and checks every answer
against a value known from the generator.  ``RSVL_THREADS`` is removed from
the environment, so build and validate use the default thread pool on every
CPU the process may run on, as a user gets it.

Each workload repeats a pass of two CLI stages.  ``stage1_per_cpu_s`` and
``stage2_per_cpu_s`` are the medians over passes of the items a stage handled
per CPU second of the process (all its threads, from ``time.process_time``).
On a virtual machine whose host lends its CPUs to other guests, wall time
moves with the host's load, most of all for the thread pool, while the CPU
time the program itself uses moves far less; the wall-clock rates are printed
beside the CPU ones.

With ``--trace 1`` the passes alternate between untraced and traced, the
traced ones with spans around every layer's public functions (``spans.py``);
the per-layer numbers are totals per traced pass.  The last line of stdout is
one JSON object with the metrics ``BENCHMARK.json`` declares for the mode; the
lines above it give each metric's median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


# --- checks and CLI calls -----------------------------------------------------


class Checks:
    """Operations attempted and failed: CLI invocations and per-record verdicts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(f"{what}: {failed} of {attempted} wrong")

    def expect(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)


class Stage:
    """Wall and CPU seconds of the CLI invocations one stage of a pass made."""

    def __init__(self):
        self.calls: list[float] = []
        self.cpu_calls: list[float] = []

    @property
    def wall(self) -> float:
        return sum(self.calls)

    @property
    def cpu(self) -> float:
        return sum(self.cpu_calls)


class Cli:
    """Runs ``rsvl.cli.main`` in-process and times it; a root span when traced."""

    def __init__(self, main):
        self.main = main
        self.tracer = None

    def run(self, stage: Stage, *argv) -> tuple[int, str]:
        argv = [str(a) for a in argv]
        out = io.StringIO()
        root = nullcontext() if self.tracer is None else self.tracer.span(f"cli.{argv[0]}", root=True)
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start, cpu_start = perf_counter(), process_time()
            with root:
                code = self.main(argv)
            stage.cpu_calls.append(process_time() - cpu_start)
            stage.calls.append(perf_counter() - start)
        return code, out.getvalue()


def _json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {}


# --- workloads ------------------------------------------------------------------
#
# Each workload generates its inputs in __init__ (not timed); stage1 and stage2
# each run one stage of a pass and check its answers outside the timed calls.


class DetCorpus:
    stages = (("build_rps", "records built per second by rsvl build detection"),
              ("validate_rps", "records checked per second by rsvl validate --strict"))

    def __init__(self, corpus, rng, work, checks, cli, seed):
        self.data = corpus.det_corpus(rng, work, n_images=1000)
        self.expected_lines = self.data.expected_bytes.decode("utf-8").splitlines()
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())
        self.reference_sha = reference["det-corpus"].get(str(seed))
        self.out = work / "detection.jsonl"
        self.items = (self.data.records, self.data.records)
        self.checks, self.cli = checks, cli
        self.inputs = (f"{self.data.records} images, 1-12 objects of {len(corpus.CATEGORIES)} "
                       f"categories, extents 512x512 to 4000x3000")

    def stage1(self) -> Stage:
        checks, build = self.checks, Stage()
        code, out = self.cli.run(build, "build", "detection", self.data.annotations,
                                 "-o", self.out, "--json")
        checks.expect(code == 0 and _json(out).get("built") == self.data.records, "build detection")
        written = self.out.read_bytes()
        got = written.decode("utf-8").splitlines()
        wrong = sum(a != b for a, b in zip(got, self.expected_lines)) + abs(len(got) - len(self.expected_lines))
        checks.tally(len(self.expected_lines), wrong, "detection records differ from the expected bytes")
        checks.expect(written == self.data.expected_bytes, "detection JSONL bytes, line ends included")
        if self.reference_sha is not None:
            checks.expect(hashlib.sha256(written).hexdigest() == self.reference_sha,
                          "detection JSONL SHA-256 against reference.json")
        return build

    def stage2(self) -> Stage:
        checks, validate = self.checks, Stage()
        code, out = self.cli.run(validate, "validate", self.out, "--strict", "--json")
        report = _json(out)
        checks.expect(code == 0 and report.get("checked") == self.data.records, "validate --strict")
        failing = {f["record"] for f in report.get("failures", ())}
        checks.tally(self.data.records, len(failing), "records failing validation")
        return validate

    def final_checks(self):
        pass


class MixedCorpus:
    stages = (("build_rps", "records written per second by rsvl build over all eight tasks"),
              ("validate_rps", "records checked per second by rsvl validate --strict"))

    def __init__(self, corpus, rng, work, checks, cli, seed):
        self.corpus = corpus
        self.data = corpus.mixed_corpus(rng, work, n_per_task=100)
        self.plant_rng = random.Random(rng.random())
        self.work = work
        self.records = work / "mixed_all.jsonl"
        self.checks, self.cli = checks, cli
        self.built_bytes = None
        self.items = (sum(self.data.built.values()), None)
        self.inputs = (", ".join(f"{t} {n}" for t, n in self.data.built.items())
                       + f" records; {len(self.data.caption_rejected)} planted caption rejections")

    def stage1(self) -> Stage:
        checks, data, build = self.checks, self.data, Stage()
        outputs = []
        for task, path in data.inputs.items():
            out_path = self.work / f"mixed_{task}.jsonl"
            argv = ["build", task, path, "-o", out_path, "--json"]
            if task == "caption":
                argv += ["--validate-captions", "--similarity-benchmark", "1.0"]
            code, out = self.cli.run(build, *argv)
            checks.expect(code == (1 if task == "caption" else 0), f"build {task} exit code")
            built = _json(out).get("built", -1)
            checks.tally(data.built[task], abs(built - data.built[task]), f"build {task} record count")
            if task == "caption":
                rejected = [_json(line).get("image_id") for line in
                            Path(f"{out_path}.rejects").read_text(encoding="utf-8").splitlines()]
                wrong = len(set(rejected) ^ set(data.caption_rejected)) + len(rejected) - len(set(rejected))
                checks.tally(len(data.caption_rejected), wrong, "caption rejections")
            outputs.append(out_path.read_bytes())

        built = b"".join(outputs)
        if self.built_bytes is None:  # first pass: plant the corrupted lines once
            self.built_bytes = built
            lines, data.corruptions = self.corpus.plant_corruptions(
                self.plant_rng, built.decode("utf-8").splitlines(), data.corrupt_share)
            self.records.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            data.records = len(lines)
            self.items = (self.items[0], data.records)
            self.inputs += f"; {len(data.corruptions)} corrupted of {data.records} validated lines"
        checks.expect(built == self.built_bytes, "mixed build output identical across passes")
        return build

    def stage2(self) -> Stage:
        checks, data, validate = self.checks, self.data, Stage()
        code, out = self.cli.run(validate, "validate", self.records, "--strict", "--json")
        report = _json(out)
        checks.expect(code == 1 and report.get("checked") == data.records, "validate --strict exit and count")
        messages: dict[int, list[str]] = {}
        for failure in report.get("failures", ()):
            messages.setdefault(failure["record"], []).append(failure["message"])
        planted = {c.line: c for c in data.corruptions}
        wrong = len(set(messages) - set(planted))
        for line, c in planted.items():
            got = messages.get(line, [])
            wrong += not (len(got) == 1 and got[0].startswith(f"{c.field}: ")
                          and got[0].endswith(f"(byte offset {c.offset})"))
        checks.tally(data.records, wrong, "validate verdicts against the planted corruptions")
        return validate

    def final_checks(self):
        pass


class EvalDense:
    stages = (("eval_det_preds_per_s", "predictions scored per second by rsvl eval detection"),
              ("eval_text_segs_per_s", "segments scored per second by rsvl eval caption"))

    def __init__(self, corpus, rng, work, checks, cli, seed):
        self.data = corpus.eval_dense(rng, work, n_images=25, gts_per_image=120, preds_per_image=200,
                                      n_segments=150)
        self.items = (self.data.n_preds, self.data.n_segments)
        self.checks, self.cli = checks, cli
        self.first: dict[str, dict] = {}
        self.inputs = (f"{self.data.n_preds} predictions over {self.data.n_images} images "
                       f"(200 per image, 120 ground-truth boxes each); "
                       f"{self.data.n_segments} caption segments with 3-5 references")

    def stage1(self) -> Stage:
        data, stage = self.data, Stage()
        code, out = self.cli.run(stage, "eval", "detection", "--preds", data.det_preds,
                                 "--gts", data.det_gts, "--json")
        self._check("detection", code, _json(out), data.n_images, 1)
        return stage

    def stage2(self) -> Stage:
        data, stage = self.data, Stage()
        code, out = self.cli.run(stage, "eval", "caption", "--preds", data.captions,
                                 "--gts", data.references, "--json")
        self._check("caption", code, _json(out), data.n_segments, 5)
        return stage

    def _check(self, task: str, code: int, report: dict, count: int, n_scores: int) -> None:
        scores = report.get("metrics", {})
        self.checks.expect(code == 0 and report.get("count") == count and len(scores) == n_scores
                           and all(0.0 <= v <= 100.0 for v in scores.values()),
                           f"eval {task}: exit code, count and scores within [0, 100]")
        first = self.first.setdefault(task, scores)
        self.checks.expect(scores == first, f"eval {task} scores identical across passes")

    def final_checks(self):
        """Exact-oracle mAP on the subsample and perfect scores on identical captions."""
        from fractions import Fraction
        from importlib.util import module_from_spec, spec_from_file_location

        from rsvl.markup import Box
        from rsvl.metrics import DetGroundTruth, DetPrediction

        spec = spec_from_file_location("rsvl_test_helpers", ROOT / "tests" / "helpers.py")
        helpers = module_from_spec(spec)
        spec.loader.exec_module(helpers)

        data, checks = self.data, self.checks
        preds, gts = {}, {}
        for row in json.loads(Path(data.oracle_preds).read_text()):
            preds.setdefault(row["image_id"], []).append(
                DetPrediction(row["category"], Box(*row["box"]), row["confidence"]))
        for row in json.loads(Path(data.oracle_gts).read_text()):
            gts.setdefault(row["image_id"], []).append(DetGroundTruth(row["category"], Box(*row["box"])))
        oracle_per_class, oracle_mean = helpers.oracle_map(preds, gts, Fraction(1, 2))
        code, out = self.cli.run(Stage(), "eval", "detection", "--preds", data.oracle_preds,
                                 "--gts", data.oracle_gts, "--json")
        report = _json(out)
        got = [report.get("metrics", {}).get("mAP@50", math.nan)]
        want = [oracle_mean]
        for cat, ap in oracle_per_class.items():
            got.append(report.get("per_class", {}).get(cat, math.nan))
            want.append(ap)
        checks.expect(code == 0 and all(abs(g / 100.0 - float(w)) <= 1e-12 for g, w in zip(got, want)),
                      "mAP@50 against the exact oracle on the subsample")

        code, out = self.cli.run(Stage(), "eval", "caption", "--preds", data.ident_captions,
                                 "--gts", data.ident_references, "--json")
        scores = _json(out).get("metrics", {})
        checks.expect(code == 0 and len(scores) == 5 and all(abs(v - 100.0) <= 1e-9 for v in scores.values()),
                      "BLEU-1..4 and ROUGE-L of identical captions")


class Decoder:
    stages = (("fit_iters_per_s", "gradient steps per second of rsvl fit"),
              ("decodes_per_s", "rsvl decode invocations per second"))
    ITERS = 200
    LR = 2.0  # the rate the README's fit example uses
    DECODES = 100
    STEPS = 20
    # Unroll all STEPS in fit and decode: where the default threshold stops a
    # decode early depends on the fitted weights, so the work per pass, and with
    # it the rates, would vary with the seed by more than the bounds allow.
    THRESHOLD = 1e-9

    def __init__(self, corpus, rng, work, checks, cli, seed):
        self.data = corpus.decoder_inputs(rng, work, steps=self.STEPS, n_latents=32, d_e=4)
        self.seed = seed % 2**32
        self.weights = work / "weights.json"
        self.curve = work / "curve.csv"
        self.items = (self.ITERS, self.DECODES)
        self.checks, self.cli = checks, cli
        self.first_weights = None
        self.inputs = (f"fit at d_h=8 (the default), T={self.STEPS}, {self.ITERS} iterations, lr {self.LR}, "
                       f"p {self.THRESHOLD:g}; {self.DECODES} decodes per pass over {len(self.data.latents)} "
                       f"latents, same T and p")

    def stage1(self) -> Stage:
        checks, fit = self.checks, Stage()
        code, out = self.cli.run(fit, "fit", "--targets", self.data.targets, "--weights-out", self.weights,
                                 "--curve-out", self.curve, "--iters", self.ITERS, "--lr", self.LR,
                                 "-p", self.THRESHOLD, "--seed", self.seed, "--json")
        losses = [float(line.split(",")[1]) for line in self.curve.read_text().splitlines()[1:]]
        checks.expect(code == 0 and len(losses) == self.ITERS + 1
                      and all(math.isfinite(v) for v in losses) and losses[-1] < losses[0],
                      "fit loss curve finite, final loss below the initial one")
        weights = self.weights.read_bytes()
        if self.first_weights is None:
            self.first_weights = weights
        checks.expect(weights == self.first_weights, "fitted weights identical across passes")
        return fit

    def stage2(self) -> Stage:
        checks, decode = self.checks, Stage()
        latents = self.data.latents
        for k in range(self.DECODES):
            code, out = self.cli.run(decode, "decode", "--weights", self.weights, "--latent",
                                     latents[k % len(latents)], "-T", self.STEPS, "-p", self.THRESHOLD,
                                     "--json")
            result = _json(out)
            steps = result.get("steps", [])
            by = result.get("terminated_by")
            checks.expect(
                code == 0 and 1 <= len(steps) <= self.STEPS
                and all(len(s) == 6 and all(0.0 < v < 1.0 for v in s) for s in steps)
                and (by == "max_steps" and len(steps) == self.STEPS
                     or by == "threshold" and len(steps) >= 2),
                "decode returns 1..T states inside (0, 1)")
        return decode

    def final_checks(self):
        pass


WORKLOADS = {"det-corpus": DetCorpus, "mixed-corpus": MixedCorpus,
             "eval-dense": EvalDense, "decoder": Decoder}


# --- measurement ---------------------------------------------------------------------

def measure(workload, seconds: float, tracer=None) -> list[tuple[Stage, Stage, bool]]:
    """Passes until ``seconds`` have gone by, as (stage 1, stage 2, traced).

    With a tracer, every second pass runs traced, so both halves see the same
    machine; there are at least two passes then.
    """
    import spans

    passes = []
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()  # start each pass from a collected heap, as a fresh process would
        workload.cli.tracer = tracer if traced else None
        with spans.installed(tracer) if traced else nullcontext():
            first = workload.stage1()
            second = workload.stage2()
        workload.cli.tracer = None
        passes.append((first, second, traced))
        if perf_counter() >= deadline and (tracer is None or len(passes) >= 2):
            return passes


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[math.ceil(pct * n / 100) - 1]


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_times(repeats: int) -> tuple[list[float], list[float]]:
    """CPU and wall seconds of a fresh interpreter that imports rsvl.cli and builds its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("RSVL_THREADS", None)
    cmd = [sys.executable, "-c", "import rsvl.cli; rsvl.cli.build_parser()"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills the bytecode cache
    cpu, wall = [], []
    for _ in range(repeats):
        start, cpu_start = perf_counter(), children_cpu()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        wall.append(perf_counter() - start)
        cpu.append(children_cpu() - cpu_start)
    return cpu, wall


def cpu_ticks() -> tuple[int, int] | None:
    """Steal and total ticks of all CPUs from /proc/stat, where the system has it."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_pct(before, after) -> float | None:
    """Percent of CPU time the hypervisor gave to other guests: the host's load."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return round(100.0 * (after[0] - before[0]) / (after[1] - before[1]), 2)


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "rsvl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "src_sha256": digest.hexdigest(),
            "RSVL_THREADS": "unset"}


# Rows of the ROADMAP baseline table (2 vCPUs, Python 3.11, numpy 2.4) as
# (workload, row, baseline, baseline rate or None where the shapes differ,
# unit, source); a source names an end-to-end stage or a (numerator,
# denominator) pair of per-layer metrics.
ROADMAP_ROWS = (
    ("det-corpus", "rsvl build detection 20k, RSVL_THREADS=2", "8.4 s", 20000 / 8.4, "records/s", 0),
    ("det-corpus", "rsvl validate --strict 20k, RSVL_THREADS=2", "8.6 s", 20000 / 8.6, "records/s", 1),
    ("det-corpus", "markup.parse on detection responses", "~5,000 docs/s", 5000.0, "docs/s",
     ("markup.parse.calls", "markup.parse.s")),
    ("det-corpus", "emit", "~67,000 docs/s", 67000.0, "docs/s", ("markup.emit.calls", "markup.emit.s")),
    ("eval-dense", "map50, 20k preds in 100 images", "1.9 s", 20000 / 1.9, "preds/s",
     ("metrics.map50.preds", "metrics.map50.s")),
    ("eval-dense", "rouge_l, 30x30 tokens", "~3,100 pairs/s", 3100.0, "pairs/s",
     ("metrics.rouge_l.calls", "metrics.rouge_l.s")),
    ("decoder", "fit iteration, d_h=8 T=3 / d_h=64 T=20", "0.55 ms / 5.0 ms", None, "s/iter",
     ("trajectory.fit.s", "trajectory.fit.iters")),
)


def per_layer(tracer, passes: int, names: list[str]) -> dict[str, float]:
    """Per traced pass: self seconds for ``*.s`` and ``*.self_s``, plain counts otherwise."""
    self_times = tracer.self_times()
    out = {}
    for name in names:
        if name.endswith(".s") or name.endswith(".self_s"):
            span = name.rsplit(".", 1)[0]
            total = sum(v for k, v in self_times.items() if k == span or k.startswith(span + "."))
        else:
            total = tracer.counts.get(name, 0)
        out[name] = total / passes
    return out


def row(name: str, unit: str, values: list[float], note: str = "") -> str:
    med, q1, q3 = summary(values)
    return f"# {name:<22} {unit:>7} {med:12.6g} {q1:12.6g} {q3:12.6g} {len(values):5d}  {note}"


# --- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import rsvl
    if Path(rsvl.__file__).resolve().parent != SRC / "rsvl":
        raise SystemExit(f"rsvl was imported from {rsvl.__file__}, not from {SRC}")
    import rsvl.cli

    import corpus
    import spans

    os.environ.pop("RSVL_THREADS", None)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    tracer = spans.Tracer() if args.trace else None
    try:
        setup, setup_wall = setup_times(repeats=9)
        rng = random.Random(f"{args.workload}:{args.seed}")
        workload = WORKLOADS[args.workload](corpus, rng, work, checks, Cli(rsvl.cli.main), args.seed)
        workload.stage1()  # warm-up: caches fill, lazy imports finish
        workload.stage2()
        workload.final_checks()
        ticks = cpu_ticks()
        passes = measure(workload, args.seconds, tracer)
        steal = steal_pct(ticks, cpu_ticks())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment() | {"steal_pct_while_measuring": steal}

    plain = [(a, b) for a, b, traced in passes if not traced]
    traced = [(a, b) for a, b, t in passes if t]
    items = workload.items
    rates = ([items[0] / a.cpu for a, _ in plain], [items[1] / b.cpu for _, b in plain])
    wall_rates = ([items[0] / a.wall for a, _ in plain], [items[1] / b.wall for _, b in plain])
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# env {json.dumps(env)}")
    print(f"# inputs: {workload.inputs}")
    print("# closed loop, one client; gated rates are items per CPU second of the process,"
          " wall-clock rates beside them")
    print(f"# {'metric':<22} {'unit':>7} {'median':>12} {'q1':>12} {'q3':>12} {'n':>5}")
    for (name, what), values, wall_values in zip(workload.stages, rates, wall_rates):
        print(row(name, "1/cpu_s", values, what))
        print(row(name, "1/s", wall_values, "the same, per second of wall time"))
    print(row("setup_s", "cpu_s", setup, "fresh interpreter: import rsvl.cli, build_parser()"))
    print(row("setup_s", "s", setup_wall, "the same, wall time"))
    if isinstance(workload, Decoder):
        latencies = [1000.0 * t for _, b in plain for t in b.calls]
        print(row("decode_ms_p50", "ms", latencies, "wall time of one rsvl decode"))
        found = tail(latencies)
        if found is not None:
            print(f"# {'decode_ms_tail':<22} {'ms':>7} {found[1]:12.6g}  p{found[0]} of {len(latencies)} samples")
    print(f"# {'peak_rss_mb':<22} {'MB':>7} {rss_mb:12.6g}")
    print(f"# failed_ops {checks.failed}/{checks.attempted} = {checks.failed / checks.attempted:.6g}")
    for note in checks.notes:
        print(f"# FAILED {note}")

    if tracer is not None:
        names = [m["name"] for m in declared["per_layer"] if not m["name"].startswith("trace.")]
        values = per_layer(tracer, len(traced), names)
        plain_pass = statistics.median(a.cpu + b.cpu for a, b in plain)
        traced_pass = statistics.median(a.cpu + b.cpu for a, b in traced)
        values["trace.overhead_pct"] = 100.0 * (traced_pass - plain_pass) / plain_pass
        print(f"# tracing overhead: median pass {plain_pass:.6g} CPU s untraced, {traced_pass:.6g} traced"
              f" ({len(plain)} and {len(traced)} alternating passes): {values['trace.overhead_pct']:+.2f}%")
        print("# ROADMAP baseline rows, measured now (wall-clock stage rates from untraced passes,"
              " per-layer rates from traced ones):")
        for workload_name, label, text, base, unit, source in ROADMAP_ROWS:
            if workload_name != args.workload:
                continue
            if isinstance(source, int):
                now = summary(wall_rates[source])[0]
            else:
                now = values[source[0]] / values[source[1]]
            ratio = f" ({now / base:.2f}x)" if base else ""
            print(f"#   {label:<44} baseline {text:<17} now {now:12.6g} {unit}{ratio}")
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "env": env,
                                  "traced_passes": len(traced)})
        print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        declared_metrics = declared["per_layer"]
    else:
        values = {"stage1_per_cpu_s": summary(rates[0])[0], "stage2_per_cpu_s": summary(rates[1])[0],
                  "setup_s": summary(setup)[0], "peak_rss_mb": rss_mb}
        declared_metrics = declared["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
