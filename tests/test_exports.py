"""Package-level names: ``from rsvl import X`` and what it costs to import."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsvl
from rsvl.cli import main

from conftest import ANNOTATIONS, write_json

SRC = Path(__file__).resolve().parents[1] / "src"

# every name ``rsvl/__init__.py`` re-exported before names resolved lazily,
# less the deleted normalize_point, check_rel_vocabulary, combined_loss, LossWeights,
# relation_f1_localized and LocalizedTriple
EXPORTED = {
    "errors": [
        "CoordOutOfRange", "DimensionMismatch", "DivergenceDetected", "EmptyAnnotation",
        "EmptyEpisodeSet", "EmptyGroundTruth", "EmptyLabel", "EmptyList", "EmptySteps",
        "InvalidExtent", "InvariantViolation", "InvertedBox", "LengthMismatch",
        "MalformedNumber", "MarkupError", "SchemaError", "ToolkitError", "UnbalancedTag",
        "UnknownTag",
    ],
    "markup": [
        "GRID", "Box", "Det", "MarkupDoc", "Modality", "Pos", "Pos3", "Pose6", "PoseSeq", "Ref",
        "Rel", "Task", "TaskKind", "Text", "canonical", "denormalize_box", "emit",
        "normalize_box", "parse",
    ],
    "builders": [
        "ImageAnnotation", "InstructionRecord", "ObjectAnnotation", "RelationAnnotation",
        "SceneRecord", "TaskType", "TilingPlan", "build_caption_record",
        "build_classification_record", "build_decision_record", "build_decomposition_record",
        "build_detection_record", "build_relation_record", "build_scheduling_record",
        "build_vqa_record", "plan_tiling", "region_direction", "validate_caption",
    ],
    "trajectory": [
        "DecoderConfig", "DecoderWeights", "Termination", "TrajState", "Trajectory", "backward",
        "decode", "fit", "grad_fd", "gru_step", "init_weights", "latent_projection", "mse_loss",
        "zero_weights",
    ],
    "metrics": [
        "DetGroundTruth", "DetPrediction", "EvalReport", "NavEpisode", "NavMetrics",
        "RelationTriple", "accuracy", "bleu", "bleu_corpus", "iou", "map50", "nav_metrics",
        "relation_f1", "rouge_l", "tokenize",
    ],
}


def test_package_names_are_the_module_objects():
    for module_name, names in EXPORTED.items():
        module = importlib.import_module(f"rsvl.{module_name}")
        assert set(names) <= set(module.__all__), module_name
        assert [n for n in names if getattr(rsvl, n) is not getattr(module, n)] == [], module_name


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'normalize_point'"):
        rsvl.normalize_point


# modules that no record-side command needs: numpy is the decoder's, and the others were
# the imports of statistics.fmean and of markup's overflow path
HEAVY = ("numpy", "statistics", "fractions", "decimal")


def heavy_modules_after(code: str) -> list[str]:
    """The ``HEAVY`` modules in ``sys.modules`` once ``code`` ran in a fresh interpreter."""
    probe = (f"{code}\nimport sys, rsvl\nprint(rsvl.__file__)\n"
             f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *_, where, loaded = done.stdout.splitlines()  # after whatever the command printed
    assert Path(where).parent == SRC / "rsvl"
    return loaded.split()


def command(*argv) -> str:
    return f"from rsvl.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"


def test_record_side_imports_leave_numpy_unloaded(tmp_path, capsys):
    """Each command imports only what it runs: numpy and the decoder wait for decode and fit."""
    annotations = write_json(tmp_path / "annotations.json", ANNOTATIONS)
    records = tmp_path / "det.jsonl"
    targets = write_json(tmp_path / "targets.json", [[0.3, 0.4, 0.5, 0.6, 0.5, 0.4]] * 3)
    latent = write_json(tmp_path / "latent.json", [0.1, -0.2, 0.3, 0.4])
    weights = tmp_path / "weights.json"
    assert main(["build", "detection", annotations, "-o", str(records)]) == 0
    assert main(["fit", "--targets", targets, "--iters", "1", "--weights-out", str(weights)]) == 0
    capsys.readouterr()
    box = {"image_id": "i", "category": "car", "box": [0, 0, 10, 10]}
    det_preds = write_json(tmp_path / "det_preds.json", [{**box, "confidence": 0.9}])
    det_gts = write_json(tmp_path / "det_gts.json", [box])
    cap_preds = write_json(tmp_path / "cap_preds.json", [{"id": "a", "caption": "a ship"}])
    cap_gts = write_json(tmp_path / "cap_gts.json", [{"id": "a", "references": ["a ship in port"]}])

    light = {
        "record side": "import rsvl.errors, rsvl.markup, rsvl.builders, rsvl.metrics\n"
                       "from rsvl import parse, Box, TaskType, map50, ToolkitError, GRID",
        "import rsvl.cli": "import rsvl.cli",
        "from rsvl import fileio, cli": "from rsvl import fileio, cli",
        "validate --strict": command("validate", "--strict", records),
        "build detection": command("build", "detection", annotations, "-o", tmp_path / "b.jsonl"),
        "eval detection": command("eval", "detection", "--preds", det_preds, "--gts", det_gts),
        "eval caption": command("eval", "caption", "--preds", cap_preds, "--gts", cap_gts),
    }
    assert {name: heavy_modules_after(code) for name, code in light.items()} == \
        {name: [] for name in light}
    decoder = {
        "from rsvl import decode, DecoderConfig": "from rsvl import decode, DecoderConfig",
        "fit": command("fit", "--targets", targets, "--iters", "1"),
        "decode": command("decode", "--weights", weights, "--latent", latent, "-T", "3"),
    }
    assert [name for name, code in decoder.items() if "numpy" not in heavy_modules_after(code)] == []
