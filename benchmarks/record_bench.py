"""Record one Fig 13 sweep as a ``BENCH_*.json`` entry.

CI's benchmark smoke job runs this after the shape-asserting benches: it
executes the Fig 13 Table III grid through the parallel engine with the
observability layer on, then writes one self-contained
JSON entry — engine stats, per-stage span times, and the metrics
snapshot — so the perf trajectory of the DSE pipeline accumulates one
point per commit.  The Chrome trace goes next to it for the artifact
upload.

``--mode scalar`` instead times the per-point oracle over the same grid —
a plain ``evaluate_design`` loop over ``ScheduleCache.get`` — and
``--baseline`` compares
the freshly recorded entry against a previous ``BENCH_*.json`` under the
perf-threshold flags (:func:`repro.provenance.drift.compare_bench_entries`),
exiting non-zero on a regression.  CI's perf-smoke gate records a scalar
baseline and then requires the vectorized entry to beat it by at least 2x
(``--elapsed-threshold -0.5``).

Usage::

    python benchmarks/record_bench.py --out-dir bench-results \
        --trace-out bench-results/fig13-trace.json --jobs 2

    # perf gate: vectorized must be at least 2x faster than scalar
    python benchmarks/record_bench.py --mode scalar --jobs 1 --out-dir r
    python benchmarks/record_bench.py --mode vectorized --jobs 1 --out-dir r \
        --baseline r/BENCH_fig13_smoke_scalar_local.json --elapsed-threshold -0.5
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from time import perf_counter

from repro.accel.engine import SweepEngine
from repro.accel.power import evaluate_design
from repro.accel.resources import ResourceLibrary
from repro.accel.sweep import ScheduleCache, SweepStats, default_design_grid
from repro.obs.metrics import metrics, reset_metrics
from repro.obs.trace import Tracer, set_tracer
from repro.provenance.manifest import SCHEMA_VERSION, RunLedger, capture
from repro.workloads import s3d


def scalar_oracle(kernel, grid) -> SweepStats:
    """Time the per-point oracle: ``evaluate_design`` over ``ScheduleCache.get``."""
    library = ResourceLibrary()
    cache = ScheduleCache(kernel, library)
    start = perf_counter()
    for design in grid:
        evaluate_design(kernel, design, library, precomputed=cache.get(design))
    return SweepStats(
        design_points=len(grid), elapsed_s=perf_counter() - start
    ).merge_counters(cache.counters())


def run(jobs: int, mode: str = "vectorized") -> dict:
    """One cold Table III sweep under a fresh tracer and metrics registry."""
    kernel = s3d.build()
    grid = default_design_grid()
    tracer = Tracer()
    reset_metrics()
    set_tracer(tracer)
    engine = SweepEngine(jobs=jobs, use_cache=False)
    try:
        if mode == "scalar":
            stats = scalar_oracle(kernel, grid)
        else:
            stats = engine.sweep(kernel, grid).stats
    finally:
        set_tracer(None)
    manifest = capture("bench")
    manifest.metrics = metrics().snapshot()
    manifest.stages = tracer.stage_rows()
    manifest.engine = engine.provenance()
    manifest.elapsed_s = stats.elapsed_s
    try:
        RunLedger().record(manifest)
    except OSError:
        pass  # ledger is best-effort; the bench entry itself still lands
    return {
        "bench": "fig13_smoke",
        "mode": mode,
        "schema_version": SCHEMA_VERSION,
        "run_id": manifest.run_id,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": os.environ.get("GITHUB_SHA", "local"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "stats": {
            "design_points": stats.design_points,
            "jobs": stats.jobs,
            "chunks": stats.chunks,
            "elapsed_s": stats.elapsed_s,
            "memo_hits": stats.memo_hits,
            "memo_misses": stats.memo_misses,
        },
        "stages": tracer.stage_rows(),
        "metrics": metrics().snapshot(),
        "_tracer": tracer,  # stripped before serialisation
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir", type=Path, default=Path("bench-results"),
        help="directory for the BENCH_*.json entry (default: bench-results)",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="also write the run's Chrome trace-event JSON here",
    )
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes for the sweep (default: 2)",
    )
    parser.add_argument(
        "--mode", choices=("vectorized", "scalar"), default="vectorized",
        help="what to time: the engine's batch path (default) or a per-point "
        "evaluate_design loop (the scalar oracle)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="previous BENCH_*.json to compare against under perf-threshold flags",
    )
    parser.add_argument(
        "--elapsed-threshold", type=float, default=None,
        help="allowed elapsed_s ratio slack vs the baseline; negative values "
        "demand a speedup (e.g. -0.5 fails unless at least 2x faster)",
    )
    args = parser.parse_args(argv)

    entry = run(args.jobs, mode=args.mode)
    tracer = entry.pop("_tracer")
    if args.trace_out is not None:
        tracer.export_chrome(args.trace_out)
        print(f"wrote trace {args.trace_out} ({len(tracer)} spans)")

    label = entry["commit"][:12]
    suffix = "" if entry["mode"] == "vectorized" else f"_{entry['mode']}"
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_fig13_smoke{suffix}_{label}.json"
    with open(path, "w") as handle:
        json.dump(entry, handle, indent=2)
    stats = entry["stats"]
    print(
        f"wrote {path}: {stats['design_points']} points in "
        f"{stats['elapsed_s']:.3f}s (jobs={stats['jobs']}, mode={entry['mode']})"
    )

    if args.baseline is not None:
        from repro.provenance.drift import compare_bench_entries

        with open(args.baseline) as handle:
            baseline = json.load(handle)
        kwargs = {}
        if args.elapsed_threshold is not None:
            kwargs["elapsed_threshold"] = args.elapsed_threshold
        flags = compare_bench_entries(baseline, entry, **kwargs)
        regressed = [flag for flag in flags if flag.regressed]
        for flag in flags:
            print(flag.describe())
        if regressed:
            print(f"perf gate FAILED vs {args.baseline} ({len(regressed)} flag(s))")
            return 1
        print(f"perf gate ok vs {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
