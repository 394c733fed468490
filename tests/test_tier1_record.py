"""The Tier-1 timer runs both trees in the recorder's alternating order, parses
pytest's summary and durations, and writes the pair to the after tree only."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

OUTPUT = """\
.....F..
============================= slowest 10 durations =============================
4.01s call     tests/test_generators.py::test_truncate_fourier_matches_the_visited_set_walk
3.44s setup    tests/test_acceptance.py::test_criterion_1_benchmark_success_rates
0.30s call     tests/test_readme.py::test_readme_command_parses[phantom --side 8]
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::test_criterion_2_unique_recovery_regime - As...
1 failed, 584 passed in 25.92s
"""


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("tier1_record", TOOLS / "tier1_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair(tmp_path):
    """Two trees, BEFORE and AFTER, whose one source file differs."""
    trees = [tmp_path / "before", tmp_path / "after"]
    for tree in trees:
        (tree / "tests").mkdir(parents=True)
        (tree / "tests" / "test_x.py").write_text(f"# {tree.name}\n")
    return trees


def _suite(seen, output=OUTPUT):
    """A stand-in for subprocess.run: the suite prints ``output``."""
    def fake_run(argv, cwd, env, **kwargs):
        seen.append((Path(cwd).name, argv[1:], {k: env[k] for k in (
            "PYTHONPATH", "OPENBLAS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")}))
        return SimpleNamespace(returncode=1, stdout=output)
    return fake_run


def test_a_pair_alternates_and_writes_both_halves_to_the_after_tree(tool, tmp_path,
                                                                     monkeypatch, capsys):
    trees = _pair(tmp_path)
    seen = []
    monkeypatch.setattr(subprocess, "run", _suite(seen))
    assert tool.main([str(t) for t in trees]) == 0
    assert [name for name, _, _ in seen] == ["before", "after", "after", "before",
                                            "before", "after"]
    assert all(argv == tool.COMMAND and env == tool.ENV for _, argv, env in seen)
    assert tool.COMMAND[-1] == "--durations=10" and tool.ENV["OPENBLAS_NUM_THREADS"] == "1"
    assert not (trees[0] / "BENCH_tier1.json").exists()
    doc = json.loads((trees[1] / "BENCH_tier1.json").read_text())
    for name, orders in (("before", ["first", "second", "first"]),
                         ("after", ["second", "first", "second"])):
        half = doc[name]
        assert [r["order"] for r in half["runs"]] == orders
        walls = [r["wall_s"] for r in half["runs"]]
        assert half["wall_s"]["values"] == walls
        assert half["wall_s"]["q1"] <= half["wall_s"]["median"] <= half["wall_s"]["q3"]
        run = half["runs"][0]
        assert run["counts"] == {"failed": 1, "passed": 584}
        assert list(run["slowest"].values()) == [4.01, 3.44, 0.30]
        assert "call tests/test_readme.py::test_readme_command_parses[phantom --side 8]" \
            in run["slowest"]
    assert doc["before"]["source_sha256"] != doc["after"]["source_sha256"]
    assert doc["after"]["source_sha256"] == tool.sources(trees[1])
    out = capsys.readouterr().out
    assert "test_truncate_fourier_matches_the_visited_set_walk: before 4.01 4.01 4.01" in out


def test_a_run_records_the_ids_that_failed_or_errored(tool, tmp_path, monkeypatch, capsys):
    # ids with spaces in their parameters, a failure without a message and an
    # error at collection; the passing test named in the durations is no failure
    output = OUTPUT.replace("1 failed, 584 passed", "\n".join([
        "FAILED tests/test_readme.py::test_readme_command_parses[phantom --side 8] - a - b",
        "FAILED tests/test_cli.py::test_x[solve -o x]",
        "ERROR tests/test_model.py - ImportError: no module",
        "3 failed, 582 passed, 1 error",
    ]))
    trees = _pair(tmp_path)
    seen = []
    monkeypatch.setattr(subprocess, "run", _suite(seen, output))
    assert tool.main([str(t) for t in trees]) == 0
    failed = ["tests/test_acceptance.py::test_criterion_2_unique_recovery_regime",
              "tests/test_readme.py::test_readme_command_parses[phantom --side 8]",
              "tests/test_cli.py::test_x[solve -o x]", "tests/test_model.py"]
    doc = json.loads((trees[1] / "BENCH_tier1.json").read_text())
    for name in ("before", "after"):
        assert all(run["failed"] == failed for run in doc[name]["runs"])
        assert doc[name]["runs"][0]["counts"] == {"failed": 3, "passed": 582, "error": 1}
    out = capsys.readouterr().out
    for name in ("before", "after"):
        for test in failed:
            assert f"{name:<6} failed in 3 of 3 runs: {test}\n" in out


def test_a_run_without_a_summary_writes_no_record(tool, tmp_path, monkeypatch):
    trees = _pair(tmp_path)
    seen = []
    monkeypatch.setattr(subprocess, "run", _suite(seen, "ImportError: no numpy\n"))
    with pytest.raises(SystemExit) as exc:
        tool.main([str(t) for t in trees])
    assert "no summary line" in str(exc.value.code)
    assert len(seen) == 1
    assert not list(tmp_path.glob("**/BENCH_*.json"))


@pytest.mark.parametrize("cache", ["src/qbp/__pycache__", "tests/__pycache__"])
def test_a_tree_with_bytecode_or_one_tree_twice_is_refused(tool, tmp_path, monkeypatch,
                                                          capsys, cache):
    trees = _pair(tmp_path)
    seen = []
    monkeypatch.setattr(subprocess, "run", _suite(seen))
    assert tool.main([str(trees[0]), str(trees[0] / ".." / "before")]) == 2
    assert "are one tree" in capsys.readouterr().err
    (trees[1] / cache).mkdir(parents=True)
    assert tool.main([str(t) for t in trees]) == 2
    assert "record in a fresh clone" in capsys.readouterr().err
    assert not seen
    assert not list(tmp_path.glob("**/BENCH_*.json"))
