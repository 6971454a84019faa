"""Compare two sets of benchmark runs metric by metric.

Usage (from the checkout root)::

    python3 bench/compare.py A.json B.json

A and B are ``bench/run.py --out`` files (A the parent, B the change).  For
every workload and every gated end-to-end metric in ``BENCHMARK.json`` it
prints the two medians and one verdict:

- ``unresolved``: either side's run-to-run spread (interquartile range over
  median) exceeds the metric's bound, and B's runs do not all beat A's;
- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B's median is better than A's by more than A's own spread,
  and B wins at least nine tenths of the run pairs (A's i-th run against
  B's i-th run);
- ``same``: otherwise.

Exit status is 1 when any pairing is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values: list[float]) -> float:
    """Interquartile range over median (0 for fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, signed relative change of B's median, + meaning worse)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a = statistics.median(a)
    worse_by = sign * (statistics.median(b) - median_a) / abs(median_a)
    if spread(a) > bound or spread(b) > bound:
        all_better = (max(b) < min(a)) if better == "lower" \
            else (min(b) > max(a))
        return ("better" if all_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    wins = sum((y < x) if better == "lower" else (y > x)
               for x, y in zip(a, b))
    if -worse_by > spread(a) and wins >= 0.9 * min(len(a), len(b)):
        return "better", worse_by
    return "same", worse_by


def values_by_workload(path: str) -> dict[str, dict[str, list[float]]]:
    runs = json.loads(Path(path).read_text())["runs"]
    table: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        if run["trace"]:
            continue
        metrics = table.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return table


def compare(path_a: str, path_b: str) -> list[dict]:
    """One row per workload x gated metric present in both files."""
    gated = json.loads(BENCHMARK.read_text())["end_to_end"]
    a, b = values_by_workload(path_a), values_by_workload(path_b)
    rows = []
    for workload in sorted(set(a) & set(b)):
        for metric in gated:
            name = metric["name"]
            if name not in a[workload] or name not in b[workload]:
                continue
            result, change = verdict(a[workload][name], b[workload][name],
                                     metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": statistics.median(a[workload][name]),
                "b": statistics.median(b[workload][name]),
                "worse_by": change, "bound": metric["bound"],
                "spread_a": spread(a[workload][name]),
                "spread_b": spread(b[workload][name]),
                "verdict": result})
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A.json B.json",
              file=sys.stderr)
        return 2
    rows = compare(*argv)
    print(f"{'workload':16} {'metric':15} {'A':>11} {'B':>11} "
          f"{'worse by':>9} {'bound':>6} {'spread A/B':>12}  verdict")
    for row in rows:
        print(f"{row['workload']:16} {row['metric']:15} "
              f"{row['a']:11.4g} {row['b']:11.4g} "
              f"{100 * row['worse_by']:8.1f}% {100 * row['bound']:5.0f}% "
              f"{100 * row['spread_a']:5.1f}/{100 * row['spread_b']:<5.1f}% "
              f" {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
