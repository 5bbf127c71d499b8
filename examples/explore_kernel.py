#!/usr/bin/env python3
"""Explore one kernel through the whole stack: trace -> DFG -> limits -> DSE.

Walks the FFT kernel from source to accelerator: concolic tracing, DFG
statistics, the Table II theoretical concept limits, and design
evaluations across nodes.

Run:  python examples/explore_kernel.py
"""

from repro.accel.design import DesignPoint
from repro.accel.power import evaluate_design
from repro.dfg.analysis import analyze, critical_path
from repro.reporting.tables import render_rows, table2_concept_limits
from repro.workloads import fft


def main() -> None:
    # 1. Trace: execute the kernel concolically, check the result is real.
    kernel = fft.build(n=16)
    want_re, want_im = fft.reference(*fft.build_inputs(n=16))
    got = list(kernel.output_values)
    residual = max(
        abs(a - b) for a, b in zip(got[0::2] + got[1::2], want_re + want_im)
    )
    print(f"traced 16-point FFT; max residual vs numpy: {residual:.2e}")

    # 2. Structure: the quantities Table II's limits are written in.
    stats = analyze(kernel.dfg)
    print(f"\n{stats.describe()}")
    print(f"inherent parallelism |V|/D = {stats.parallelism:.1f}")
    print(f"critical path length: {len(critical_path(kernel.dfg))} vertices")

    # 3. Theoretical limits of each specialization concept on this kernel.
    print("\n=== Table II limits ===")
    print(render_rows(table2_concept_limits(stats)))

    # 4. Evaluate across nodes.
    print("\n=== design evaluations ===")
    rows = []
    for node in (45, 16, 5):
        design = DesignPoint(node_nm=node, partition=16, simplification=5)
        report = evaluate_design(kernel, design)
        rows.append(
            {
                "node": f"{node}nm",
                "cycles": report.cycles,
                "runtime_ns": report.runtime_s * 1e9,
                "power_w": report.power_w,
            }
        )
    print(render_rows(rows))


if __name__ == "__main__":
    main()
