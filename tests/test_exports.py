"""Package-level names: ``from rsvl import X`` and what it costs to import."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsvl

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


def test_record_side_imports_leave_numpy_unloaded():
    code = (
        "import sys\n"
        "import rsvl.errors, rsvl.markup, rsvl.builders, rsvl.metrics\n"
        "from rsvl import parse, Box, TaskType, map50, ToolkitError, GRID\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by the record side'\n"
        "from rsvl import decode, DecoderConfig\n"
        "assert 'numpy' in sys.modules\n"
        "print(rsvl.__file__)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()).parent == SRC / "rsvl"
