"""Compare the two halves of a paired record, metric by metric.

    python3 tools/bench_compare.py BEFORE_DIR AFTER_DIR

Each directory holds the ``BENCH_<workload>.json`` files that
``tools/bench_record.py`` wrote for one tree of a pair.  For every workload
and every end-to-end metric of ``BENCHMARK.json`` one line gives the before
and after medians, their ratio, the median of the per-seed after / before
ratios (over the seeds with a nonzero before value), the seeds that moved in
the metric's ``better`` direction out of those compared, and the verdict:
``gain`` when at least nine seeds in ten moved the better way and the
medians differ by more than the before quartiles' spread, ``regression``
when the after median is worse than the before by more than the metric's
``BENCHMARK.json`` bound (a fraction of the before median), else ``-``.
A ``peak_rss_mb`` move is a ``gain`` only when it also exceeds
RSS_LAYOUT_SHIFT of the before median: code layout alone moves the peak
RSS further than its quartile spread, and the largest layout-only shift on
record is phantom-s8's pymalloc arenas flipping it between 70 and 74 MB,
about 6%.
Records whose seeds differ are not the halves of one pair, and a workload
missing from either directory has no pair: both stop the script with exit
status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RSS_LAYOUT_SHIFT = 0.06


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
    if len(argv) != 2:
        print("usage: bench_compare.py BEFORE_DIR AFTER_DIR", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    dirs = [Path(arg) for arg in argv]
    print(f"{'workload':<12} {'metric':<14} {'before':>11} {'after':>11} {'ratio':>7}"
          "  seed-ratio  seeds-better  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        paths = [d / f"BENCH_{workload}.json" for d in dirs]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            print(f"no record {missing}", file=sys.stderr)
            return 2
        before, after = (json.loads(p.read_text(encoding="utf-8")) for p in paths)
        if before["seeds"] != after["seeds"]:
            print(f"{workload}: the records' seeds differ; they are not one pair",
                  file=sys.stderr)
            return 2
        for name, old, new, ratio, seed_ratio, better, seeds, verdict in compare(
                bench, before, after):
            print(f"{workload:<12} {name:<14} {old:>11.5g} {new:>11.5g} {ratio:>7.4f}"
                  f"  {seed_ratio:>10.4f}  {f'{better}/{seeds}':<12}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
