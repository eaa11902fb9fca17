"""Compare two sets of benchmark results, such as a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by run.py (.perfbench/results/
after a series of runs, or a saved copy such as perfbench/baseline/).  For
every workload and metric it prints both medians with their quartiles, the
parent/change ratio, how many pairs of runs the change won, pairing the
runs of each side in the order they started, and a verdict:

  improved               the change won >= 9/10 of the pairs and the medians
                         differ by more than the parent's interquartile range
  no worse within bound  the change median is worse by at most the bound
                         BENCHMARK.json fixes for the metric
  regressed              worse by more than that bound
  unresolved             the parent's own spread is wider than the bound
                         (or the metric has no bound)
  unchanged              every run on both sides reads the same (counts)

For a fair comparison alternate the sides: parent, change, parent, ...
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import pair_wins, quartiles, verdict

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Result records grouped by (workload, trace), in the order they started."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        groups[record["workload"], record["trace"]].append(record)
    for records in groups.values():
        records.sort(key=lambda r: r["started"])
    return groups


def metric_specs() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def compare(parent: dict, change: dict, specs: dict[str, dict]) -> list[list[str]]:
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        for name, spec in specs.items():
            p = [r["metrics"][name]["value"] for r in parent[key] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[key] if name in r["metrics"]]
            if not p or not c:
                continue
            pq, cq = quartiles(p), quartiles(c)
            n, wins = pair_wins(p, c, spec["better"])
            ratio = pq[1] / cq[1] if cq[1] else float("nan")
            rows.append([
                workload,
                name,
                spec["unit"],
                f"{pq[1]:.4g} [{pq[0]:.4g}-{pq[2]:.4g}] n={len(p)}",
                f"{cq[1]:.4g} [{cq[0]:.4g}-{cq[2]:.4g}] n={len(c)}",
                f"{ratio:.3f}",
                f"{wins}/{n}",
                verdict(p, c, spec["better"], spec.get("bound")),
            ])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    parser.add_argument("parent", type=Path, help="directory of the parent's result files")
    parser.add_argument("change", type=Path, help="directory of the change's result files")
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    if not set(parent) & set(change):
        print("error: the two sets share no workload", file=sys.stderr)
        return 2
    header = ["workload", "metric", "unit", "parent median [Q1-Q3]", "change median [Q1-Q3]",
              "parent/change", "change won", "verdict"]
    rows = [header, *compare(parent, change, metric_specs())]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
