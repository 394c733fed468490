"""Record two trees' benchmark metrics in their ``BENCH_<workload>.json`` and compare them.

    python3 tools/bench_record.py BEFORE_TREE AFTER_TREE [WORKLOAD ...]

Run from anywhere; the workloads default to every one in this repository's
``BENCHMARK.json``.  For each workload the harness it names runs once per
seed, untraced, for its ``run_seconds``, and once traced at TRACE_SEED, each
as a separate process, in both trees back to back.  The tree that goes
first alternates from seed to seed (BEFORE_TREE at the first), so a drift of
the machine's speed falls on both trees of a seed alike.  Each tree's record
goes to its root: the harness's environment stamp, every end-to-end metric
per seed with its median and quartiles, each run's ``order`` (``first`` or
``second``), and the traced run's per-layer metrics and exact counts.  The
harness's own files are left as it writes them.

Once both trees' records are written, one line per workload and end-to-end
metric goes to standard output: the before and after medians, their ratio,
the median of the per-seed after / before ratios (over the seeds with a
nonzero before value), the seeds that moved in the metric's ``better``
direction out of those compared, and the verdict: ``gain`` when at least
nine seeds in ten moved the better way and the medians differ by more than
the before quartiles' spread, ``regression`` when the after median is worse
than the before by more than the metric's ``BENCHMARK.json`` bound (a
fraction of the before median), else ``-``.  A ``peak_rss_mb`` move is a
``gain`` only when it also exceeds RSS_LAYOUT_SHIFT of the before median:
code layout alone moves the peak RSS further than its quartile spread, and
the largest layout-only shift on record is phantom-s8's pymalloc arenas
flipping it between 70 and 74 MB, about 6%.

Two paths that resolve to one tree are refused, since its after record would
overwrite its before record: an A/A pair is two fresh clones of one commit.
The harness runs with PYTHONDONTWRITEBYTECODE=1 and imports qbp afresh for
every set-up, so a stale ``src/qbp/__pycache__`` would lower ``setup_s``: a
tree that holds one is refused (record in a fresh clone).  A run that is not
correct, a traced run that lists a gate, or a run whose stamp reports other
sources than the first run of its tree stops the script with a nonzero exit
before any file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RSS_LAYOUT_SHIFT = 0.06

# Seeds of the untraced runs; holes-qbpd, the noisiest solve time, gets twice
# as many.
SEEDS = {"holes-qbpd": range(1, 21)}
DEFAULT_SEEDS = range(1, 11)
TRACE_SEED = 3


def run(bench: dict, tree: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One harness run in ``tree``: its detail line (stamp and counts) and its result."""
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True,
                         env=env).stdout
    detail, result = map(json.loads, out.splitlines()[-2:])
    if not result["correct"] or detail["gates"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} is not correct"
                         f" (failures {detail['failures']}, gates {detail['gates']});"
                         " no record written")
    return detail, result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def record(bench: dict, workload: str, trees: list[Path]) -> list[dict]:
    """The records of the two trees, which run each seed back to back, the
    first of them alternating from seed to seed, the traced run last."""
    seeds = list(SEEDS.get(workload, DEFAULT_SEEDS))
    runs = ([], [])
    for i, (seed, trace) in enumerate([*((seed, 0) for seed in seeds), (TRACE_SEED, 1)]):
        for order, t in zip(("first", "second"), (i % 2, 1 - i % 2)):
            detail, result = run(bench, trees[t], workload, seed, trace)
            runs[t].append((detail, result, order))
            print(f"{workload} seed {seed} trace {trace} in {trees[t]}: correct",
                  file=sys.stderr)
    return [_document(bench, workload, seeds, tree_runs) for tree_runs in runs]


def _document(bench: dict, workload: str, seeds: list[int], runs: list[tuple]) -> dict:
    """The record of one tree's runs, the traced one last."""
    # the traced run reads the same sources as the untraced ones
    if len({d["stamp"]["source_sha256"] for d, _, _ in runs}) != 1:
        raise SystemExit(f"{workload}: the sources changed during the runs;"
                         " no record written")
    *runs, (detail, result, order) = runs
    stamp = dict(runs[0][0]["stamp"])
    stamp.pop("seed")
    end_to_end = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        end_to_end[name] = {"unit": metric["unit"], "better": metric["better"],
                            **spread([r["metrics"][name]["value"] for _, r, _ in runs])}
    return {
        "workload": workload,
        "command": [*bench["command"], "--workload", workload, "--seed", "SEED",
                    "--seconds", str(bench["run_seconds"])],
        "stamp": stamp,
        "seeds": seeds,
        "runs": [{"seed": seed, "correct": r["correct"], "attempted": r["attempted"],
                  "failed": r["failed"], "counts": d["counts"], "order": o}
                 for seed, (d, r, o) in zip(seeds, runs)],
        "end_to_end": end_to_end,
        "traced": {
            "seed": TRACE_SEED,
            "order": order,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "gates": detail["gates"],
            "counts": detail["counts"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        },
    }


def compare(bench: dict, before: dict, after: dict) -> list[tuple]:
    """Rows ``(metric, before median, after median, ratio, per-seed median
    ratio, seeds better, seeds compared, verdict)`` of two records of the
    same seeds."""
    rows = []
    for metric in bench["end_to_end"]:
        name = metric["name"]
        sign = -1.0 if metric["better"] == "lower" else 1.0
        old, new = before["end_to_end"][name], after["end_to_end"][name]
        ratio = new["median"] / old["median"] if old["median"] else float("nan")
        gain = sign * (new["median"] - old["median"])
        pairs = list(zip(old["values"], new["values"]))
        ratios = [b / a for a, b in pairs if a]
        seed_ratio = statistics.median(ratios) if ratios else float("nan")
        better = sum(sign * (b - a) > 0 for a, b in pairs)
        floor = old["q3"] - old["q1"]
        if name == "peak_rss_mb":
            floor = max(floor, RSS_LAYOUT_SHIFT * abs(old["median"]))
        if pairs and 10 * better >= 9 * len(pairs) and gain > floor:
            verdict = "gain"
        elif -gain > metric["bound"] * abs(old["median"]):
            verdict = "regression"
        else:
            verdict = "-"
        rows.append((name, old["median"], new["median"], ratio, seed_ratio, better,
                     len(pairs), verdict))
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, metavar="BEFORE_TREE")
    parser.add_argument("after", type=Path, metavar="AFTER_TREE")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print(f"unknown workloads {unknown}; BENCHMARK.json has {known}", file=sys.stderr)
        return 2
    trees = [args.before, args.after]
    if trees[0].resolve() == trees[1].resolve():
        print(f"{trees[0]} and {trees[1]} are one tree; record two clones",
              file=sys.stderr)
        return 2
    for tree in trees:
        if (tree / "src" / "qbp" / "__pycache__").exists():
            print(f"{tree}/src/qbp/__pycache__ exists and would lower setup_s;"
                  " record in a fresh clone", file=sys.stderr)
            return 2
    docs = [record(bench, workload, trees) for workload in workloads]
    for workload, tree_docs in zip(workloads, docs):
        for tree, doc in zip(trees, tree_docs):
            path = tree / f"BENCH_{workload}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
    print(f"{'workload':<12} {'metric':<14} {'before':>11} {'after':>11} {'ratio':>7}"
          "  seed-ratio  seeds-better  verdict")
    for workload, (before, after) in zip(workloads, docs):
        for name, old, new, ratio, seed_ratio, better, seeds, verdict in compare(
                bench, before, after):
            print(f"{workload:<12} {name:<14} {old:>11.5g} {new:>11.5g} {ratio:>7.4f}"
                  f"  {seed_ratio:>10.4f}  {f'{better}/{seeds}':<12}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
