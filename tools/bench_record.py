"""Record the benchmark's metrics over relabel seeds as a root ``BENCH_<workload>.json``.

    python3 tools/bench_record.py [WORKLOAD ...]

Run from anywhere; the workloads default to every one in ``BENCHMARK.json``.
For each workload the harness that ``BENCHMARK.json`` names runs once per
seed, untraced, for its ``run_seconds``, and once traced at TRACE_SEED, each
as a separate process, one after the other.  The file keeps the harness's
environment stamp, every end-to-end metric per seed with its median and
quartiles, and the traced run's per-layer metrics and exact counts.  The
harness's own files are left as it writes them; this script edits none.

The harness runs with PYTHONDONTWRITEBYTECODE=1 and imports qbp afresh for
every set-up, so a stale ``src/qbp/__pycache__`` would lower ``setup_s``:
the script refuses a tree that holds one (record in a fresh clone).  A run
that is not correct, a traced run that lists a gate, or a run whose stamp
reports other sources than the first run's stops it with a nonzero exit
before any file is written.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Seeds of the untraced runs; holes-qbpd, the noisiest solve time, gets twice
# as many.
SEEDS = {"holes-qbpd": range(1, 21)}
DEFAULT_SEEDS = range(1, 11)
TRACE_SEED = 3


def run(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One harness run: its detail line (stamp and counts) and its result."""
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True,
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


def record(bench: dict, workload: str) -> dict:
    seeds = list(SEEDS.get(workload, DEFAULT_SEEDS))
    runs = []
    for seed in seeds:
        detail, result = run(bench, workload, seed, 0)
        runs.append((detail, result))
        print(f"{workload} seed {seed}: correct", file=sys.stderr)
    detail, result = run(bench, workload, TRACE_SEED, 1)
    print(f"{workload} traced seed {TRACE_SEED}: correct", file=sys.stderr)
    # the traced run reads the same sources as the untraced ones
    if len({d["stamp"]["source_sha256"] for d, _ in [*runs, (detail, result)]}) != 1:
        raise SystemExit(f"{workload}: the sources changed during the runs;"
                         " no record written")
    stamp = dict(runs[0][0]["stamp"])
    stamp.pop("seed")
    end_to_end = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        end_to_end[name] = {"unit": metric["unit"], "better": metric["better"],
                            **spread([r["metrics"][name]["value"] for _, r in runs])}
    return {
        "workload": workload,
        "command": [*bench["command"], "--workload", workload, "--seed", "SEED",
                    "--seconds", str(bench["run_seconds"])],
        "stamp": stamp,
        "seeds": seeds,
        "runs": [{"seed": seed, "correct": r["correct"], "attempted": r["attempted"],
                  "failed": r["failed"], "counts": d["counts"]}
                 for seed, (d, r) in zip(seeds, runs)],
        "end_to_end": end_to_end,
        "traced": {
            "seed": TRACE_SEED,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "gates": detail["gates"],
            "counts": detail["counts"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        },
    }


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in bench["workloads"]]
    workloads = argv or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print(f"unknown workloads {unknown}; BENCHMARK.json has {known}", file=sys.stderr)
        return 2
    if (ROOT / "src" / "qbp" / "__pycache__").exists():
        print("src/qbp/__pycache__ exists and would lower setup_s; record in a fresh clone",
              file=sys.stderr)
        return 2
    docs = [record(bench, workload) for workload in workloads]
    for workload, doc in zip(workloads, docs):
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
