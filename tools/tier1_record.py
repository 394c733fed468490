"""Time the Tier-1 suite in two trees and write the pair to ``BENCH_tier1.json``.

    python3 tools/tier1_record.py BEFORE_TREE AFTER_TREE

Run from anywhere.  Each tree runs the Tier-1 command, COMMAND under ENV
(``PYTHONPATH=src``, one BLAS thread, no bytecode written), three times, in
``bench_record.py``'s order: both trees back to back, the one that goes first
alternating from round to round (BEFORE_TREE at the first).  A run's wall
time is the command's, from its start to its exit.

The record goes to AFTER_TREE's root and holds both trees: for each, the
SHA-256 of the files its suite reads (SOURCES), its runs (order, wall time,
the outcome counts of pytest's summary line, the ids its ``FAILED`` and
``ERROR`` lines name, the ``CRITERION`` lines that pytest shows for a failed
acceptance test, and its ten slowest durations) and the wall times' median
and quartiles.  One line per tree, one per test that failed in it and one
per criterion line, then one per test among the slowest, with its per-run
durations in either tree, go to standard output.

The trees must be fresh clones: two paths that resolve to one tree, or a tree
that holds bytecode under ``src/qbp`` or ``tests``, are refused.  A run whose
output has no summary line stops the script before the record is written;
failing tests do not, since the suite keeps a known failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from bench_record import alternate, pair_error, spread

COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
ENV = {"PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}

SUMMARY = re.compile(r"^=*\s*((?:\d+ \w+, )*\d+ \w+) in [\d.]+s")
DURATION = re.compile(r"^([\d.]+)s (setup|call|teardown) +(.+)$")
# a test id has no space before its parameters, which may hold spaces; the
# message after " - " is optional
FAILURE = re.compile(r"^(?:FAILED|ERROR) ([^\s\[]+(?:\[.*?\])?)(?: - .*)?$")
# an acceptance test's verdict line, printed in its captured output
CRITERION = re.compile(r"^CRITERION \d+ \(.*?\): (?:PASS|FAIL) - ")
# every file the suite reads, by glob from the tree's root; the record itself,
# BENCH_tier1.json, is the tool's output and not hashed
SOURCES = ("src/qbp/*.py", "tests/*.py", "tools/*.py", "perfbench/*", "README.md",
           "pyproject.toml", "BENCHMARK.json", "BENCH_*.json")


def run(tree: Path) -> dict:
    """One Tier-1 run in ``tree``: its wall time, outcome counts, failed ids,
    criterion lines and slowest durations."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, *COMMAND], cwd=tree, capture_output=True,
                         text=True, env={**os.environ, **ENV}).stdout
    wall = time.perf_counter() - start
    lines = out.splitlines()
    summary = next((m for m in map(SUMMARY.match, reversed(lines)) if m), None)
    if summary is None:
        raise SystemExit(f"a run in {tree} printed no summary line; no record written")
    counts = {outcome: int(count)
              for count, outcome in re.findall(r"(\d+) (\w+)", summary.group(1))}
    # "phase test id": seconds, slowest first
    slowest = {f"{m.group(2)} {m.group(3)}": float(m.group(1))
               for m in map(DURATION.match, lines) if m}
    failed = [m.group(1) for m in map(FAILURE.match, lines) if m]
    criteria = [line for line in lines if CRITERION.match(line)]
    return {"wall_s": wall, "counts": counts, "failed": failed, "criteria": criteria,
            "slowest": slowest}


def sources(tree: Path) -> str:
    """SHA-256 of the files that SOURCES names in ``tree``, each by its path."""
    digest = hashlib.sha256()
    paths = {p for pattern in SOURCES for p in tree.glob(pattern) if p.is_file()}
    for path in sorted(paths - {tree / "BENCH_tier1.json"}):
        name = path.relative_to(tree).as_posix().encode()
        digest.update(name + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, metavar="BEFORE_TREE")
    parser.add_argument("after", type=Path, metavar="AFTER_TREE")
    args = parser.parse_args(argv)
    trees = [args.before, args.after]
    error = pair_error(trees, ("src/qbp/__pycache__", "tests/__pycache__"))
    if error:
        print(error, file=sys.stderr)
        return 2
    runs = ([], [])
    for i, order, t in alternate(range(3)):
        runs[t].append({"order": order, **run(trees[t])})
        print(f"run {i} in {trees[t]}: {runs[t][-1]['wall_s']:.1f} s", file=sys.stderr)
    halves = {
        name: {"tree": str(tree), "source_sha256": sources(tree), "runs": tree_runs,
               "wall_s": spread([r["wall_s"] for r in tree_runs])}
        for name, tree, tree_runs in zip(("before", "after"), trees, runs)
    }
    doc = {"workload": "tier1", "command": ["python", *COMMAND], "env": ENV, **halves}
    path = trees[1] / "BENCH_tier1.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    for name, half in halves.items():
        wall = half["wall_s"]
        print(f"{name:<6} wall {wall['median']:.2f} s (q1 {wall['q1']:.2f},"
              f" q3 {wall['q3']:.2f})  counts {half['runs'][0]['counts']}")
        for key, label in (("failed", "failed"), ("criteria", "printed")):
            for item in dict.fromkeys(t for r in half["runs"] for t in r[key]):
                times = sum(item in r[key] for r in half["runs"])
                print(f"{name:<6} {label} in {times} of {len(half['runs'])} runs: {item}")
    for test in dict.fromkeys(t for r in runs[1] + runs[0] for t in r["slowest"]):
        cells = [" ".join(f"{r['slowest'][test]:.2f}" if test in r["slowest"] else "-"
                          for r in tree_runs) for tree_runs in runs]
        print(f"{test}: before {cells[0]}  after {cells[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
