"""The performance-record tool refuses a stale tree and a bad run."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def tool(tmp_path, monkeypatch):
    """The tool's module, rooted at a scratch tree with the repository's BENCHMARK.json."""
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text(
        (TOOL.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def _harness(correct, gates, seen, traced_sha="0"):
    """A stand-in for the harness that prints one run's two JSON lines; the
    traced run's stamp reports the sources ``traced_sha``."""
    def fake_run(argv, **kwargs):
        seen.append(kwargs["env"].get("PYTHONDONTWRITEBYTECODE"))
        sha = traced_sha if argv[argv.index("--trace") + 1] == "1" else "0"
        detail = {"stamp": {"seed": 1, "source_sha256": sha}, "counts": {},
                  "failures": [] if correct else ["wrong answer"], "gates": gates}
        result = {"correct": correct and not gates, "attempted": 1, "failed": 0,
                  "metrics": {}}
        return SimpleNamespace(stdout=json.dumps(detail) + "\n" + json.dumps(result) + "\n")
    return fake_run


@pytest.mark.parametrize("correct, gates", [(False, []), (True, ["psd calls 1 != 2"])])
def test_a_bad_run_writes_no_record(tool, tmp_path, monkeypatch, correct, gates):
    seen = []
    monkeypatch.setattr(subprocess, "run", _harness(correct, gates, seen))
    with pytest.raises(SystemExit) as exc:
        tool.main(["phantom-s8"])
    assert "no record written" in str(exc.value.code)
    assert seen and set(seen) == {"1"}
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_a_source_change_before_the_traced_run_writes_no_record(tool, tmp_path,
                                                               monkeypatch):
    seen = []
    monkeypatch.setattr(subprocess, "run", _harness(True, [], seen, traced_sha="1"))
    with pytest.raises(SystemExit) as exc:
        tool.main(["phantom-s8"])
    assert "the sources changed during the runs" in str(exc.value.code)
    assert len(seen) == len(tool.DEFAULT_SEEDS) + 1
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_a_tree_with_bytecode_is_refused(tool, tmp_path, monkeypatch):
    (tmp_path / "src" / "qbp" / "__pycache__").mkdir(parents=True)
    seen = []
    monkeypatch.setattr(subprocess, "run", _harness(True, [], seen))
    assert tool.main(["phantom-s8"]) == 2
    assert not seen
    assert not list(tmp_path.glob("BENCH_*.json"))
