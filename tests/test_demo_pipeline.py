"""scripts/demo_pipeline.py runs end to end and cleans up after itself."""

import tempfile
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "demo_pipeline.py"


@pytest.fixture
def demo():
    spec = spec_from_file_location("demo_pipeline", SCRIPT)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_run_leaves_no_temp_directory(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    demo.main([])
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "demo complete: all eight tasks built, validated and scored"
    assert f"working directory: {tmp_path}" in out
    assert list(tmp_path.iterdir()) == []


def test_workdir_keeps_its_files(demo, tmp_path, capsys):
    work = tmp_path / "work"
    demo.main(["--workdir", str(work)])
    assert capsys.readouterr().out.splitlines()[-1].startswith("demo complete")
    assert (work / "det_pred.json").is_file()
    assert sorted(p.name for p in work.glob("*.jsonl"))
