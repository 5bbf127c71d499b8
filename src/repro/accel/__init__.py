"""Aladdin-style pre-RTL accelerator design-space exploration (paper §VI).

Pipeline: a workload kernel executes concolically under :class:`Tracer`,
producing a dynamic dataflow graph; a resource-constrained list scheduler
maps that graph onto a design point (partitioning factor, simplification
degree, CMOS node, fusion on/off); a power model converts the schedule into
runtime, power, and energy.  Sweeping design points reproduces Fig 13, and
ablating one specialization concept at a time attributes gains (Fig 14).

:class:`SweepEngine` is the one executor of those sweeps and attributions
(:func:`sweep` and :func:`attribute_all` wrap it).  Grids evaluate through
the batch path (:mod:`repro.accel.batch`), bit-identical to the per-point
:func:`evaluate_design` oracle; ``jobs`` shards the work across worker
processes, and an opt-in content-addressed schedule/trace cache
(:mod:`repro.accel.cache`) persists it across runs.
"""

from repro.accel.trace import TracedArray, Tracer, Value
from repro.accel.resources import OpClass, OpCosts, ResourceLibrary, op_class
from repro.accel.design import DesignPoint
from repro.accel.scheduler import Schedule, schedule
from repro.accel.power import PowerReport, evaluate_design
from repro.accel.sweep import (
    ParetoAccumulator,
    ScheduleCache,
    SweepResult,
    SweepStats,
    pareto_points,
    sweep,
)
from repro.accel.cache import (
    DiskCache,
    KernelTraceStore,
    ScheduleStore,
    default_cache_dir,
    dfg_fingerprint,
    kernel_fingerprint,
    library_fingerprint,
)
from repro.accel.batch import BatchEvaluator, BatchResult, MacroGraph
from repro.accel.engine import SweepEngine
from repro.accel.attribution import (
    GainAttribution,
    attribute_all,
    attribute_gains,
)

__all__ = [
    "TracedArray",
    "Tracer",
    "Value",
    "OpClass",
    "OpCosts",
    "ResourceLibrary",
    "op_class",
    "DesignPoint",
    "Schedule",
    "schedule",
    "PowerReport",
    "evaluate_design",
    "ParetoAccumulator",
    "ScheduleCache",
    "SweepResult",
    "SweepStats",
    "pareto_points",
    "sweep",
    "DiskCache",
    "KernelTraceStore",
    "ScheduleStore",
    "default_cache_dir",
    "dfg_fingerprint",
    "kernel_fingerprint",
    "library_fingerprint",
    "BatchEvaluator",
    "BatchResult",
    "MacroGraph",
    "SweepEngine",
    "GainAttribution",
    "attribute_all",
    "attribute_gains",
]
