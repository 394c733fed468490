"""Steadiness check: run every workload on seeds 1-10, in two sets.

    python3 perfbench/steady.py --out perfbench/baseline.json

For each workload in BENCHMARK.json and each set this runs ``run.py --trace
0`` once per seed and ``run.py --trace 1`` once on the first seed, each for
BENCHMARK.json's ``run_seconds``.  It reports, per end-to-end metric, the
median, the quartiles and the spread (quartile distance over the median),
checks every spread against the metric's bound in BENCHMARK.json, and checks
that the second set's median differs from the first set's, in either
direction, by no more than the bound.  The exact counts of the same seed must
agree in both sets.  Exit code 0 means steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402

EXACT = ("admm.iterations", "admm.psd_calls", "admm.affine_calls", "admm.runs_per_solve",
         "recovery_rate", "failed_frac")
SEEDS = list(range(1, 11))
SETS = 2


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), wall


def _spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def check_spec(spec: dict) -> list[str]:
    """BENCHMARK.json must name exactly the metrics and units run.py prints."""
    problems = []
    for key, printed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != printed:
            problems.append(f"{key} in BENCHMARK.json differs from run.py: "
                            f"{sorted(set(declared.items()) ^ set(printed.items()))}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    summary: dict = {"seconds": seconds, "seeds": SEEDS, "sets": SETS, "workloads": {}}
    for w in workloads:
        summary["workloads"][w] = {"sets": []}
    stamp = None
    for set_index in range(SETS):
        for w in workloads:
            values = {name: [] for name in bounds}
            counts, walls = {}, []
            for seed in SEEDS:
                detail, result, wall = _run(w, seed, seconds, 0)
                stamp = stamp or detail["stamp"]
                walls.append(wall)
                if not result["correct"] or result["failed"]:
                    problems.append(f"{w} seed {seed}: correct={result['correct']} "
                                    f"failed={result['failed']} {detail['failures']}")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                counts[seed] = detail["counts"]
            detail, traced, wall = _run(w, SEEDS[0], seconds, 1)
            walls.append(wall)
            if not traced["correct"]:
                problems.append(f"{w} traced seed {SEEDS[0]}: {detail['gates']} {detail['failures']}")
            entry = {
                "metrics": {name: _spread(v) for name, v in values.items()},
                "counts": counts,
                "trace_counts": detail["counts"],
                "trace": {k: v["value"] for k, v in traced["metrics"].items()},
                "run_wall_s": walls,
            }
            summary["workloads"][w]["sets"].append(entry)
            for name, stats in entry["metrics"].items():
                bound = bounds[name]["bound"]
                flag = "" if stats["spread"] <= bound / 3 else " (above a third of the bound)"
                print(f"set {set_index + 1} {w:11s} {name:14s} median {stats['median']:.6g} "
                      f"spread {stats['spread']:.3f} bound {bound}{flag}", flush=True)
                if stats["spread"] > bound:
                    problems.append(f"{w} {name}: spread {stats['spread']:.3f} > bound {bound}")

    for w in workloads:
        sets = summary["workloads"][w]["sets"]
        first = sets[0]
        for later in sets[1:]:
            for name, stats in later["metrics"].items():
                change = stats["median"] / first["metrics"][name]["median"] - 1.0
                if abs(change) > bounds[name]["bound"]:
                    problems.append(f"{w} {name}: median moved by {change:+.3f} across sets")
            if later["trace_counts"] != first["trace_counts"]:
                problems.append(f"{w}: traced exact counts differ across sets")
            for seed, c in later["counts"].items():
                if c != first["counts"][seed]:
                    problems.append(f"{w} seed {seed}: exact counts differ across sets")
        summary["workloads"][w]["exact_counts"] = {k: first["trace_counts"][k] for k in EXACT}

    summary["stamp"] = stamp
    summary["problems"] = problems
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    for p in problems:
        print("PROBLEM:", p)
    print("steady" if not problems else f"not steady: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
