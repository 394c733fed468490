"""The performance-record tool records two trees seed by seed and refuses
one tree named twice, a stale tree and a bad run; the comparison tool reads
the two halves of a pair."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
COMPARE = TOOL.parent / "bench_compare.py"


BENCH = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool(tmp_path, monkeypatch):
    """The tool's module, rooted at a scratch tree with the repository's BENCHMARK.json."""
    module = _load(TOOL)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
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


def _pair(tmp_path):
    """Two empty trees, BEFORE and AFTER, under ``tmp_path``."""
    trees = [tmp_path / "before", tmp_path / "after"]
    for tree in trees:
        tree.mkdir()
    return [str(tree) for tree in trees]


@pytest.mark.parametrize("correct, gates", [(False, []), (True, ["psd calls 1 != 2"])])
def test_a_bad_run_writes_no_record(tool, tmp_path, monkeypatch, correct, gates):
    seen = []
    monkeypatch.setattr(subprocess, "run", _harness(correct, gates, seen))
    with pytest.raises(SystemExit) as exc:
        tool.main([*_pair(tmp_path), "phantom-s8"])
    assert "no record written" in str(exc.value.code)
    assert seen and set(seen) == {"1"}
    assert not list(tmp_path.glob("**/BENCH_*.json"))


def test_a_source_change_before_the_traced_run_writes_no_record(tool, tmp_path,
                                                               monkeypatch):
    seen = []
    monkeypatch.setattr(subprocess, "run", _harness(True, [], seen, traced_sha="1"))
    with pytest.raises(SystemExit) as exc:
        tool.main([*_pair(tmp_path), "phantom-s8"])
    assert "the sources changed during the runs" in str(exc.value.code)
    assert len(seen) == 2 * (len(tool.DEFAULT_SEEDS) + 1)
    assert not list(tmp_path.glob("**/BENCH_*.json"))


@pytest.mark.parametrize("stale", ["before", "after"])
def test_a_pair_with_bytecode_in_either_tree_is_refused(tool, tmp_path, monkeypatch, stale):
    trees = [tmp_path / "before", tmp_path / "after"]
    (tmp_path / stale / "src" / "qbp" / "__pycache__").mkdir(parents=True)
    seen = []
    monkeypatch.setattr(subprocess, "run", _harness(True, [], seen))
    assert tool.main([*map(str, trees), "phantom-s8"]) == 2
    assert not seen
    assert not list(tmp_path.glob("**/BENCH_*.json"))


def test_a_bad_run_in_a_pair_writes_no_record(tool, tmp_path, monkeypatch):
    # the before tree's first run is correct, the after tree's is not: neither
    # tree gets a record
    seen = []
    good, bad = _harness(True, [], seen), _harness(False, [], seen)
    monkeypatch.setattr(subprocess, "run", lambda argv, cwd, **kwargs: (
        bad if Path(cwd).name == "after" else good)(argv, **kwargs))
    with pytest.raises(SystemExit) as exc:
        tool.main([*_pair(tmp_path), "phantom-s8"])
    assert "no record written" in str(exc.value.code)
    assert seen == ["1", "1"]
    assert not list(tmp_path.glob("**/BENCH_*.json"))


def test_one_tree_named_twice_is_refused(tool, tmp_path, monkeypatch, capsys):
    # its after record would overwrite its before record
    tree = tmp_path / "tree"
    (tree / "sub").mkdir(parents=True)
    (tmp_path / "link").symlink_to(tree)
    seen = []
    monkeypatch.setattr(subprocess, "run", _harness(True, [], seen))
    for other in (tree, tree / "sub" / "..", tmp_path / "link"):
        assert tool.main([str(tree), str(other), "phantom-s8"]) == 2
        assert "are one tree" in capsys.readouterr().err
    assert not seen
    assert not list(tmp_path.glob("**/BENCH_*.json"))


def test_the_recorder_takes_only_a_pair(tool, tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(subprocess, "run", _harness(True, [], seen))
    for argv in (["phantom-s8"], [], ["--pair", *_pair(tmp_path), "phantom-s8"]):
        with pytest.raises(SystemExit) as exc:
            tool.main(argv)
        assert exc.value.code == 2
    assert not seen
    assert not list(tmp_path.glob("**/BENCH_*.json"))


# The drifting harness: each run is DRIFT slower than the one before it, and
# the tree named "after" is 5% faster than "before" at the same moment.
DRIFT = 0.01
GAIN = 0.95


def _drifting_harness(calls):
    def fake_run(argv, cwd, **kwargs):
        value = (1.0 + DRIFT * len(calls)) * (GAIN if Path(cwd).name == "after" else 1.0)
        calls.append((Path(cwd).name, argv[argv.index("--seed") + 1]))
        detail = {"stamp": {"seed": 1, "source_sha256": Path(cwd).name, "nproc": 2},
                  "counts": {}, "failures": [], "gates": []}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {m["name"]: {"value": value} for m in BENCH["end_to_end"]}}
        return SimpleNamespace(stdout=json.dumps(detail) + "\n" + json.dumps(result) + "\n")
    return fake_run


def test_a_paired_record_recovers_a_change_under_drift(tool, tmp_path, monkeypatch):
    # the machine slows by 21% over the record, four times the change, and
    # each seed's two runs, back to back, still read the change
    compare = _load(COMPARE).compare
    trees = _pair(tmp_path)
    seeds = len(tool.DEFAULT_SEEDS)
    calls = []
    monkeypatch.setattr(subprocess, "run", _drifting_harness(calls))
    assert tool.main([*trees, "phantom-s8"]) == 0
    paired = [json.loads((Path(t) / "BENCH_phantom-s8.json").read_text()) for t in trees]
    # each seed runs in both trees back to back, the first tree alternating
    assert calls[:4] == [("before", "1"), ("after", "1"), ("after", "2"), ("before", "2")]
    assert len(calls) == 2 * (seeds + 1)
    for doc, first, then in zip(paired, ("first", "second"), ("second", "first")):
        orders = [run["order"] for run in doc["runs"]] + [doc["traced"]["order"]]
        assert orders[::2] == [first] * (seeds // 2 + 1)
        assert orders[1::2] == [then] * (seeds // 2)
    row = next(r for r in compare(BENCH, *paired) if r[0] == "solve_s_p50")
    seed_ratio, better, compared = row[4:7]
    assert seed_ratio == pytest.approx(GAIN, rel=1e-3)
    assert better == compared == seeds


def test_a_record_keeps_the_harness_cpu_count(tool, tmp_path, monkeypatch):
    trees = _pair(tmp_path)
    monkeypatch.setattr(subprocess, "run", _drifting_harness([]))
    assert tool.main([*trees, "phantom-s8"]) == 0
    for tree in trees:
        doc = json.loads((Path(tree) / "BENCH_phantom-s8.json").read_text())
        assert doc["stamp"]["nproc"] == 2
        # and every run's place in its pair
        assert all(run["order"] in ("first", "second")
                   for run in [*doc["runs"], doc["traced"]])


def _synthetic_record(bench, medians, seeds=3):
    """A record of seeds 1 to ``seeds`` whose every end-to-end metric has
    values evenly spaced from median - 1 to median + 1 (median - 1, median
    and median + 1 for three seeds), and the quartiles median -/+ 1."""
    end_to_end = {}
    for m in bench["end_to_end"]:
        median = medians.get(m["name"], 1.0)
        values = [median - 1.0 + 2.0 * j / (seeds - 1) for j in range(seeds)]
        end_to_end[m["name"]] = {"values": values, "median": median,
                                 "q1": median - 1.0, "q3": median + 1.0}
    return {"stamp": {}, "seeds": list(range(1, seeds + 1)), "end_to_end": end_to_end}


def _write_records(directory, records):
    directory.mkdir()
    for workload, record in records.items():
        (directory / f"BENCH_{workload}.json").write_text(json.dumps(record))


def test_the_comparison_prints_the_claim_columns(tmp_path, capsys):
    module = _load(COMPARE)
    workloads = [w["name"] for w in BENCH["workloads"]]
    before, after = tmp_path / "before", tmp_path / "after"
    for directory, medians in ((before, {"trials_per_s": 10.0, "solve_s_p50": 4.0}),
                               (after, {"trials_per_s": 12.0, "solve_s_p50": 4.5})):
        _write_records(directory, {w: _synthetic_record(BENCH, medians) for w in workloads})
    assert module.main([str(before), str(after)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["workload", "metric", "before", "after", "ratio",
                                "seed-ratio", "seeds-better", "verdict"]
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[1:]}
    assert len(rows) == len(workloads) * len(BENCH["end_to_end"])
    for workload in workloads:
        # higher is better; seed by seed, 11/9, 12/10 and 13/11, all better;
        # a 2 gain equals the before quartiles' spread, so it is no verdict
        assert rows[workload, "trials_per_s"] == ["10", "12", "1.2000", "1.2000", "3/3", "-"]
        # lower is better; 3.5/3, 4.5/4 and 5.5/5: 12.5% worse, within the
        # 0.25 bound
        assert rows[workload, "solve_s_p50"] == ["4", "4.5", "1.1250", "1.1250", "0/3", "-"]
        # the seed whose before value is 0 has no ratio
        assert rows[workload, "peak_rss_mb"] == ["1", "1", "1.0000", "1.0000", "0/3", "-"]
    (after / f"BENCH_{workloads[0]}.json").unlink()
    assert module.main([str(before), str(after)]) == 2
    assert module.main([str(before)]) == 2


@pytest.mark.parametrize("seeds", [[1, 2, 4], [3, 2, 1], [1, 2]])
def test_the_comparison_refuses_records_of_different_seeds(tmp_path, capsys, seeds):
    # the halves of one pair hold the same seeds in the same order, and the
    # per-seed columns pair their values by position
    module = _load(COMPARE)
    workloads = [w["name"] for w in BENCH["workloads"]]
    _write_records(tmp_path / "before",
                   {w: _synthetic_record(BENCH, {}) for w in workloads})
    _write_records(tmp_path / "after", {w: {**_synthetic_record(BENCH, {}), "seeds": seeds}
                                        for w in workloads})
    assert module.main([str(tmp_path / "before"), str(tmp_path / "after")]) == 2
    out = capsys.readouterr()
    assert "not one pair" in out.err
    assert len(out.out.splitlines()) == 1


def test_the_comparison_gives_a_verdict_per_metric():
    compare = _load(COMPARE).compare
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    before = _synthetic_record(BENCH, {"solve_s_p50": 10.0, "trials_per_s": 10.0,
                                       "peak_rss_mb": 10.0, "setup_s": 10.0})
    after = _synthetic_record(BENCH, {
        # every seed faster, and by 3, more than the before quartiles' spread of 2
        "solve_s_p50": 7.0,
        # worse by more than the bound's share of the before median
        "trials_per_s": 10.0 * (1.0 - bounds["trials_per_s"]) - 0.5,
        # every seed better, but by no more than the spread
        "peak_rss_mb": 8.0,
        # worse, but within the bound
        "setup_s": 10.0 * (1.0 + bounds["setup_s"]) - 0.5,
    })
    verdicts = {row[0]: row[-1] for row in compare(BENCH, before, after)}
    assert verdicts["solve_s_p50"] == "gain"
    assert verdicts["trials_per_s"] == "regression"
    assert verdicts["peak_rss_mb"] == verdicts["setup_s"] == "-"
    # eight seeds in ten moving the better way are no gain
    ten = {"seeds": list(range(10)), "stamp": {}}
    old = {"values": [10.0] * 10, "median": 10.0, "q1": 10.0, "q3": 10.0}
    new = {"values": [5.0] * 8 + [11.0] * 2, "median": 5.0, "q1": 5.0, "q3": 5.0}
    rows = compare({"end_to_end": [{"name": "solve_s_p50", "better": "lower",
                                    "bound": 0.25}]},
                   {**ten, "end_to_end": {"solve_s_p50": old}},
                   {**ten, "end_to_end": {"solve_s_p50": new}})
    assert rows[0][-3:] == (8, 10, "-")


@pytest.mark.parametrize("drop, verdict", [(0.03, "-"), (0.08, "gain")])
def test_an_rss_drop_within_a_layout_shift_is_no_gain(drop, verdict):
    # every seed's peak RSS falls by more than the before quartiles' spread
    # of 2 MB; only a drop beyond phantom-s8's 70-74 MB layout flip, about
    # 6% of the median, reads as a gain
    compare = _load(COMPARE).compare
    before = _synthetic_record(BENCH, {"peak_rss_mb": 70.0}, seeds=10)
    after = _synthetic_record(BENCH, {"peak_rss_mb": 70.0 * (1.0 - drop)}, seeds=10)
    row = {row[0]: row for row in compare(BENCH, before, after)}["peak_rss_mb"]
    assert 70.0 * drop > 2.0
    assert row[-3:] == (10, 10, verdict)
