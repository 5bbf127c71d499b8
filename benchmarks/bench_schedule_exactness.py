"""Exactness of the batch scheduler against the list-scheduler oracle.

For all 16 Table IV kernels x fusion windows 1-4 x extra latencies 0-4 x
the Table III partition factors up to twice the window's saturation point
(3,140 structures), :meth:`repro.accel.batch.MacroGraph.schedule` must
return the same :class:`~repro.accel.scheduler.Schedule` as
:func:`repro.accel.scheduler.schedule`, with ``cycles`` an ``int``.  The
partitions below saturation run the event loop; the rest take the
critical-path shortcut.  The sweep's structures sit well inside this
range, so a mismatch here is a drift in every Fig 13/14 number.
"""

from conftest import emit

from repro.accel.batch import MacroGraph
from repro.accel.resources import ResourceLibrary
from repro.accel.scheduler import schedule
from repro.accel.sweep import table3_partitions
from repro.workloads import WORKLOADS

WINDOWS = (1, 2, 3, 4)
EXTRAS = (0, 1, 2, 3, 4)


def test_macro_graph_matches_list_scheduler(benchmark):
    library = ResourceLibrary()
    kernels = [workload.build() for workload in WORKLOADS]

    def compare():
        checked = looped = 0
        mismatches = []
        for kernel in kernels:
            for window in WINDOWS:
                graph = MacroGraph(kernel.dfg, library, window)
                partitions = [
                    p for p in table3_partitions() if p <= 2 * graph.saturation
                ]
                for extra in EXTRAS:
                    for partition in partitions:
                        fast = graph.schedule(partition, extra)
                        oracle = schedule(
                            kernel.dfg,
                            partition=partition,
                            library=library,
                            fusion_window=window,
                            latency_extra=extra,
                        )
                        checked += 1
                        looped += partition < graph.saturation
                        if fast != oracle or type(fast.cycles) is not int:
                            mismatches.append(
                                (kernel.name, window, extra, partition)
                            )
        return checked, looped, mismatches

    checked, looped, mismatches = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    emit(
        "MacroGraph vs scheduler.schedule",
        f"{checked} structures ({looped} through the event loop), "
        f"{len(mismatches)} mismatches",
    )
    assert not mismatches, mismatches[:10]
    assert checked == 3140
