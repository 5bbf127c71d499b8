"""Exactness of the pruned Fig 14 best-design search against a full scan.

For all 16 Table IV kernels x both metrics x (node, baseline) in
{(5, 45), (7, 45), (14, 32)} over the full Table III grid (96 cases),
:func:`repro.accel.attribution.attribute_gains` must equal the reference
below: one :meth:`~repro.accel.batch.BatchEvaluator.evaluate` of the whole
grid, the first design with the greatest metric, then the baseline and
the four ablations.  The pruned search schedules only the structures whose
cycle bound (``MacroGraph.cycle_bound``) can still win; the reference
schedules every one, so the emitted counts show what the bound saves.
"""

import math

from conftest import emit

from repro.accel.attribution import GainAttribution, attribute_gains
from repro.accel.batch import BatchEvaluator
from repro.accel.design import baseline_design
from repro.accel.resources import ResourceLibrary
from repro.accel.sweep import ScheduleCache, default_design_grid
from repro.workloads import WORKLOADS

METRIC_FIELD = {"throughput": "throughput_ops", "energy_efficiency": "energy_efficiency"}
NODES = ((5.0, 45.0), (7.0, 45.0), (14.0, 32.0))


def full_scan(kernel, metric, node_nm, baseline_node_nm, cache):
    """``attribute_gains`` with the whole grid evaluated in one call."""
    batch = BatchEvaluator(kernel, cache=cache)
    field = METRIC_FIELD[metric]
    best, best_value = None, -math.inf
    for report in batch.evaluate(default_design_grid(nodes=[node_nm])).reports():
        value = getattr(report, field)
        if value > best_value:
            best, best_value = report.design, value
    base = baseline_design(baseline_node_nm)
    ablations = {
        "cmos_saving": best.with_node(baseline_node_nm),
        "partitioning": best.with_partition(1),
        "simplification": best.with_simplification(1),
        "heterogeneity": best.without_heterogeneity(),
    }
    base_report, *ablated = batch.evaluate([base, *ablations.values()]).reports()
    return GainAttribution(
        kernel=kernel.name,
        metric=metric,
        baseline=base,
        best=best,
        total_gain=best_value / getattr(base_report, field),
        factors={
            concept: max(1.0, best_value / getattr(report, field))
            for concept, report in zip(ablations, ablated)
        },
    )


def test_pruned_attribution_matches_full_scan(benchmark):
    library = ResourceLibrary()
    kernels = [workload.build() for workload in WORKLOADS]

    def compare():
        pruned_structures = full_structures = 0
        mismatches = []
        for kernel in kernels:
            for metric in METRIC_FIELD:
                for node_nm, baseline_node_nm in NODES:
                    pruned_cache = ScheduleCache(kernel, library)
                    full_cache = ScheduleCache(kernel, library)
                    pruned = attribute_gains(
                        kernel,
                        metric,
                        node_nm=node_nm,
                        baseline_node_nm=baseline_node_nm,
                        batch=BatchEvaluator(kernel, cache=pruned_cache),
                    )
                    reference = full_scan(
                        kernel, metric, node_nm, baseline_node_nm, full_cache
                    )
                    pruned_structures += pruned_cache.memo_misses
                    full_structures += full_cache.memo_misses
                    if pruned != reference:
                        mismatches.append((kernel.name, metric, node_nm))
        return pruned_structures, full_structures, mismatches

    pruned, full, mismatches = benchmark.pedantic(compare, rounds=1, iterations=1)
    cases = len(kernels) * len(METRIC_FIELD) * len(NODES)
    emit(
        "Pruned attribute_gains vs full scan",
        f"{cases} cases, {len(mismatches)} mismatches; structures scheduled: "
        f"{pruned} pruned vs {full} full scan",
    )
    assert not mismatches, mismatches[:10]
    assert cases == 96
