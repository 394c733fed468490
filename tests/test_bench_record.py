"""The performance-record tool refuses a stale tree and a bad run; the
comparison tool reads two sets of records."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
COMPARE = TOOL.parent / "bench_compare.py"


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


def _synthetic_record(bench, medians):
    """A record whose every end-to-end metric has the given median and the
    quartiles median -/+ 1."""
    return {"end_to_end": {m["name"]: {"median": medians.get(m["name"], 1.0),
                                       "q1": medians.get(m["name"], 1.0) - 1.0,
                                       "q3": medians.get(m["name"], 1.0) + 1.0}
                           for m in bench["end_to_end"]}}


def test_the_comparison_reads_direction_and_quartiles(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_compare", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    bench = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    before, after = tmp_path / "before", tmp_path / "after"
    for directory, medians in ((before, {"trials_per_s": 10.0, "solve_s_p50": 4.0}),
                               (after, {"trials_per_s": 12.0, "solve_s_p50": 4.5})):
        directory.mkdir()
        for workload in workloads:
            (directory / f"BENCH_{workload}.json").write_text(
                json.dumps(_synthetic_record(bench, medians)))
    assert module.main([str(before), str(after)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[1:]}
    assert len(rows) == len(workloads) * len(bench["end_to_end"])
    for workload in workloads:
        # higher is better and 12 is above the quartiles [9, 11]
        assert rows[workload, "trials_per_s"] == ["10", "12", "1.2000", "better", "yes"]
        # lower is better and 4.5 is inside [3, 5]
        assert rows[workload, "solve_s_p50"] == ["4", "4.5", "1.1250", "worse", "no"]
        assert rows[workload, "peak_rss_mb"] == ["1", "1", "1.0000", "same", "no"]
    (after / f"BENCH_{workloads[0]}.json").unlink()
    assert module.main([str(before), str(after)]) == 2
    assert module.main([str(before)]) == 2
