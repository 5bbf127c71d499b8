"""Run the benchmark over many seeds and summarise run-to-run spread.

Usage (from the repository root)::

    python3 benchmarks/e2e/collect.py --seeds 1-10 --out benchmarks/e2e/results/set-a
    python3 benchmarks/e2e/collect.py --seeds 1-2 --trace 1 --out benchmarks/e2e/results/traced

Each (workload, seed) runs ``run.py`` once, one at a time, and its
detailed record lands in ``--out``.  ``summary.json`` holds, per workload
and metric, the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  For end-to-end metrics
the spread is also compared with the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

import run


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
    }


def summarise(lines: Dict[str, List[dict]], trace: int) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload, results in lines.items():
        rows = {}
        names = sorted({name for r in results for name in r["metrics"]})
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            row = {"values": values}
            if len(values) >= 2:
                row.update(spread(values))
            if not trace and name in bounds and "spread" in row:
                row["bound"] = bounds[name]
                row["within_third_of_bound"] = row["spread"] < bounds[name] / 3
            rows[name] = row
        summary[workload] = {
            "runs": len(results),
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": rows,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    lines: Dict[str, List[dict]] = {}
    durations: Dict[str, List[float]] = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace), "--out", str(args.out)],
                cwd=run.ROOT, capture_output=True, text=True,
            )
            if not proc.stdout.strip():
                print(proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            lines.setdefault(workload, []).append(line)
            durations.setdefault(workload, []).append(perf_counter() - start)
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"in {durations[workload][-1]:.1f}s", flush=True)
    summary = summarise(lines, args.trace)
    for workload, seconds_taken in durations.items():
        summary[workload]["run_wall_s"] = seconds_taken
    (args.out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
