#!/usr/bin/env python3
"""Design-space exploration of a 3D-stencil accelerator (Figs 12-14).

Traces the S3D kernel into a dynamic dataflow graph, sweeps the Table III
design space (partitioning x simplification x CMOS node), locates the
energy-efficiency optimum, and attributes the gains to the specialization
concepts — the Section VI methodology end to end.

The sweep runs through :class:`repro.accel.engine.SweepEngine`, which
shards the grid across worker processes and persists schedules in a
content-addressed cache (results are bit-identical for any ``jobs``);
rerun the example to see the warm-cache effect in the ``[dse]`` stats
line.

Run:  python examples/accelerator_dse.py
"""

import tempfile
from pathlib import Path

from repro.accel.attribution import attribute_gains
from repro.accel.batch import BatchEvaluator
from repro.accel.engine import SweepEngine
from repro.accel.sweep import default_design_grid
from repro.dfg.analysis import analyze
from repro.reporting.tables import render_rows, table2_concept_limits
from repro.workloads import get_workload

#: Survives across runs of the example, so a rerun is served from cache.
CACHE_DIR = Path(tempfile.gettempdir()) / "accelerator-wall-example-cache"


def main() -> None:
    engine = SweepEngine(jobs=2, cache_dir=CACHE_DIR)
    kernel = engine.trace(get_workload("S3D"))
    stats = analyze(kernel.dfg)
    print(f"traced kernel: {stats.describe()}")

    # Table II: what the specialization concepts can ever achieve here.
    print("\n=== Table II limits for this kernel ===")
    print(render_rows(table2_concept_limits(stats)))

    # Fig 13: the runtime-power space over the full Table III grid.
    result = engine.sweep(kernel, default_design_grid())
    frontier = result.pareto_frontier()
    print(f"\n=== Fig 13: swept {len(result)} design points, "
          f"{len(frontier)} on the runtime-power Pareto frontier ===")
    print(f"[dse] {result.stats.describe()}")
    print(render_rows([
        {
            "design": r.design.describe(),
            "runtime_ns": r.runtime_s * 1e9,
            "power_w": r.power_w,
            "ops_per_nj": r.energy_efficiency * 1e-9,
        }
        for r in frontier
    ]))

    best = result.best_energy_efficiency()
    print(f"\nbest energy efficiency: {best.design.describe()}")

    # Fig 14: who gets credit for the gains.  One evaluator over the
    # persistent-backed schedule cache serves both metrics (and later
    # reruns).
    batch = BatchEvaluator(kernel, cache=engine.schedule_cache(kernel))
    for metric in ("throughput", "energy_efficiency"):
        attribution = attribute_gains(kernel, metric=metric, batch=batch)
        shares = ", ".join(
            f"{concept} {share:.0f}%"
            for concept, share in sorted(
                attribution.shares.items(), key=lambda kv: -kv[1]
            )
        )
        print(
            f"\nFig 14 [{metric}]: total gain {attribution.total_gain:.0f}x "
            f"over the 45nm baseline; CSR {attribution.csr:.2f}x\n  {shares}"
        )


if __name__ == "__main__":
    main()
