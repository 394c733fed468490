"""Compare two sets of performance records, metric by metric.

    python3 tools/bench_compare.py BEFORE_DIR AFTER_DIR

Each directory holds the ``BENCH_<workload>.json`` files that
``tools/bench_record.py`` writes.  For every workload and every end-to-end
metric of ``BENCHMARK.json`` one line gives the before and after medians,
their ratio, whether the after median moved in the metric's ``better``
direction (``better``, ``worse`` or ``same``) and whether it falls outside
the before quartiles.  A workload whose record is missing from either
directory stops the script with exit status 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def compare(bench: dict, before: dict, after: dict) -> list[tuple]:
    """Rows ``(metric, before median, after median, ratio, moved, outside)``."""
    rows = []
    for metric in bench["end_to_end"]:
        name = metric["name"]
        old, new = before["end_to_end"][name], after["end_to_end"][name]
        ratio = new["median"] / old["median"] if old["median"] else float("nan")
        gain = new["median"] - old["median"]
        if metric["better"] == "lower":
            gain = -gain
        moved = "better" if gain > 0 else "worse" if gain < 0 else "same"
        outside = not old["q1"] <= new["median"] <= old["q3"]
        rows.append((name, old["median"], new["median"], ratio, moved, outside))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: bench_compare.py BEFORE_DIR AFTER_DIR", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    dirs = [Path(arg) for arg in argv]
    print(f"{'workload':<12} {'metric':<14} {'before':>11} {'after':>11} {'ratio':>7}"
          "  moved   outside-quartiles")
    for workload in (w["name"] for w in bench["workloads"]):
        paths = [d / f"BENCH_{workload}.json" for d in dirs]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            print(f"no record {missing}", file=sys.stderr)
            return 2
        before, after = (json.loads(p.read_text(encoding="utf-8")) for p in paths)
        for name, old, new, ratio, moved, outside in compare(bench, before, after):
            print(f"{workload:<12} {name:<14} {old:>11.5g} {new:>11.5g} {ratio:>7.4f}"
                  f"  {moved:<7} {'yes' if outside else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
