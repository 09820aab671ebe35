"""Byte pins: SHA-256 of every build task's output on the benchmark's seeded inputs.

The inputs come from ``bench/corpus.py`` as it stands, so these digests move
only when the bytes ``rsvl build`` writes (or the report ``rsvl validate``
prints) move.  ``tests/data/golden_sha256.json`` holds the expected values.
"""

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

from rsvl.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "data" / "golden_sha256.json"

DET_SEED, DET_IMAGES = 2, 300
MIXED_SEED, MIXED_PER_TASK = 1, 50


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


def test_build_outputs_match_golden_digests(tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests(tmp_path, capsys) == expected
