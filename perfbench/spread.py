"""Spread of the end-to-end metrics over a set of benchmark runs.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload certify --seed $s --seconds 22 --trace 0 | tail -n 2 >> runs.jsonl
    done
    python3 perfbench/spread.py runs.jsonl

The file holds the last two stdout lines of each run: the detail line, which
names the workload, then the result line.  For each workload and end-to-end
metric this prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) as a share of
the median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """{workload: {metric: [values]}} from a file of detail/result line pairs."""
    table: dict = {}
    workload = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if "detail" in record:
                workload = record["detail"]["workload"]
                continue
            row = table.setdefault(workload, {})
            for name, metric in record["metrics"].items():
                row.setdefault(name, []).append(metric["value"])
    return table


def main(argv: list) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    for workload, row in load(argv[0]).items():
        for name, values in row.items():
            if name not in bounds or len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 else ("  > bound/3" if spread <= bounds[name] else "  > BOUND")
            print(f"{workload:<12} {name:<14} n={len(values):<3} median={med:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f} bound={bounds[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
