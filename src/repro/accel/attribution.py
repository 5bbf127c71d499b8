"""Gain attribution across specialization concepts (paper Fig 14).

For each kernel we find the best design point at the target node, then
ablate one ingredient at a time:

* **CMOS saving** — rerun the best design at the 45nm baseline node;
* **partitioning** — force the partition factor back to 1;
* **simplification** — force the simplification degree back to 1;
* **heterogeneity** — disable operation fusion.

The ratio of the best point's metric to each ablation's metric is that
concept's multiplicative factor; shares are the log-space normalisation of
the factors (they stack to 100%, matching the figure's "% Gain" bars).

The figure's CSR marker is the CMOS-*independent* share of the gain: the
product of the simplification and heterogeneity factors.  CMOS saving is
CMOS-dependent by definition; partitioning is CMOS-dependent too because the
replicated lanes are paid for with transistors (the paper's stated reason
Fig 14 CSR is low).

Every evaluation — the best-design search, the 45nm baseline and the four
ablations — runs through one :class:`repro.accel.batch.BatchEvaluator`
over one shared :class:`~repro.accel.sweep.ScheduleCache`, so each window's
macro DAG is built once, each unique structure is scheduled at most once,
and the power model is a numpy broadcast.  The search first prices the
whole grid at each structure's critical path
(:meth:`~repro.accel.batch.BatchEvaluator.bound`, no scheduling), then
evaluates exactly, group by group of equal bound, only the points that
can still beat or tie the best found; the baseline and ablations are one
more batched call.  Results are bit-identical to the per-point scalar
oracle (see :mod:`repro.accel.batch`), which only tests, benchmarks and
``repro check`` run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

from repro.accel.batch import BatchEvaluator
from repro.accel.design import DesignPoint, baseline_design
from repro.accel.power import PowerReport
from repro.accel.resources import ResourceLibrary
from repro.accel.sweep import ScheduleCache, default_design_grid
from repro.accel.trace import TracedKernel
from repro.errors import ValidationError
from repro.obs.log import get_logger, kv
from repro.obs.trace import span

logger = get_logger("accel.attribution")

#: The concepts Fig 14 stacks, in the figure's legend order.
CONCEPTS: Tuple[str, ...] = (
    "cmos_saving",
    "heterogeneity",
    "simplification",
    "partitioning",
)


@dataclass(frozen=True)
class GainAttribution:
    """Fig 14 row for one kernel and one target metric."""

    kernel: str
    metric: str
    baseline: DesignPoint
    best: DesignPoint
    total_gain: float
    factors: Dict[str, float]

    @property
    def shares(self) -> Dict[str, float]:
        """Percentage share of each concept (log-space, sums to 100)."""
        logs = {
            concept: max(0.0, math.log(factor))
            for concept, factor in self.factors.items()
        }
        total = sum(logs.values())
        if total == 0.0:
            return {concept: 0.0 for concept in logs}
        return {concept: 100.0 * value / total for concept, value in logs.items()}

    @property
    def csr(self) -> float:
        """CMOS-independent gain: simplification x heterogeneity factors."""
        return self.factors["simplification"] * self.factors["heterogeneity"]


def _metric(report: PowerReport, metric: str) -> float:
    if metric == "throughput":
        return report.throughput_ops
    if metric == "energy_efficiency":
        return report.energy_efficiency
    raise ValueError(f"unknown attribution metric {metric!r}")


def _best_report(
    batch: BatchEvaluator,
    metric: str,
    node_nm: float,
    partitions: Optional[Sequence[int]],
    simplifications: Optional[Sequence[int]],
) -> PowerReport:
    """The first grid point at *node_nm* with the greatest *metric*.

    Each point's :meth:`BatchEvaluator.bound` metric is an upper bound of
    its exact metric, float for float.  Points are visited in ``(-bound,
    grid index)`` order, one group of equal bound per
    :meth:`BatchEvaluator.evaluate` call, and a point is evaluated only
    while its bound beats the best value found, or ties it at a smaller
    grid index.  The first group with no such point ends the scan: every
    later point has a bound no greater and, at an equal bound, a larger
    index.  So the answer is the full scan's, and the structures that
    cannot win are never scheduled.
    """
    grid = default_design_grid(
        nodes=[node_nm],
        partitions=partitions,
        simplifications=simplifications,
        heterogeneity=True,
    )
    if not grid:
        raise ValidationError("the best-design search needs a non-empty grid")
    bounds = [_metric(report, metric) for report in batch.bound(grid).reports()]
    order = sorted(range(len(grid)), key=lambda i: (-bounds[i], i))
    best_index, best_value, best = len(grid), -math.inf, None
    for bound, members in groupby(order, key=bounds.__getitem__):
        group = [
            i
            for i in members
            if bound > best_value or (bound == best_value and i < best_index)
        ]
        if not group:
            break
        reports = batch.evaluate([grid[i] for i in group]).reports()
        for i, report in zip(group, reports):
            value = _metric(report, metric)
            if value > best_value or (value == best_value and i < best_index):
                best_index, best_value, best = i, value, report
    return best


def find_best_design(
    kernel: TracedKernel,
    metric: str,
    node_nm: float = 5.0,
    library: Optional[ResourceLibrary] = None,
    partitions: Optional[Sequence[int]] = None,
    simplifications: Optional[Sequence[int]] = None,
    cache: Optional[ScheduleCache] = None,
) -> Tuple[DesignPoint, PowerReport]:
    """Grid-search the best design for *metric* at *node_nm*.

    The first design in grid order with the greatest *metric* wins, as in
    a full scan, but only the points whose critical-path bound can still
    win are scheduled (:func:`_best_report`).  An empty grid is a
    :class:`~repro.errors.ValidationError`.  *cache* lets callers share
    one (possibly persistent-backed) :class:`ScheduleCache` across the
    search and later ablations; it carries its own library, and a
    different *library* beside it is a ``ValueError``.
    """
    report = _best_report(
        BatchEvaluator(kernel, library, cache),
        metric,
        node_nm,
        partitions,
        simplifications,
    )
    return report.design, report


def attribute_gains(
    kernel: TracedKernel,
    metric: str = "throughput",
    node_nm: float = 5.0,
    baseline_node_nm: float = 45.0,
    library: Optional[ResourceLibrary] = None,
    partitions: Optional[Sequence[int]] = None,
    simplifications: Optional[Sequence[int]] = None,
    cache: Optional[ScheduleCache] = None,
) -> GainAttribution:
    """Compute the Fig 14 attribution for one kernel.

    *partitions*/*simplifications* default to the full Table III ranges;
    tests pass reduced ranges for speed.  One :class:`BatchEvaluator` over
    *cache* (optionally backed by the persistent store) runs the pruned
    best-design search and one batched evaluation of the baseline and the
    four ablations, so every point evaluated exactly is one memo lookup;
    by default a fresh in-memory cache is used.
    """
    batch = BatchEvaluator(kernel, library, cache)
    with span("attribute", kernel=kernel.name, metric=metric):
        best_report = _best_report(
            batch, metric, node_nm, partitions, simplifications
        )
        best_design = best_report.design
        best_value = _metric(best_report, metric)

        base_design = baseline_design(baseline_node_nm)
        ablations = {
            "cmos_saving": best_design.with_node(baseline_node_nm),
            "partitioning": best_design.with_partition(1),
            "simplification": best_design.with_simplification(1),
            "heterogeneity": best_design.without_heterogeneity(),
        }
        base_report, *ablated = batch.evaluate(
            [base_design, *ablations.values()]
        ).reports()
        base_value = _metric(base_report, metric)
        factors = {
            concept: max(1.0, best_value / _metric(report, metric))
            for concept, report in zip(ablations, ablated)
        }
    logger.debug(
        "attribute.done %s",
        kv(kernel=kernel.name, metric=metric, total_gain=best_value / base_value),
    )
    return GainAttribution(
        kernel=kernel.name,
        metric=metric,
        baseline=base_design,
        best=best_design,
        total_gain=best_value / base_value,
        factors=factors,
    )


def attribute_all(
    kernels: Sequence[TracedKernel],
    metric: str = "throughput",
    jobs: int = 1,
    cache_dir=None,
    use_cache: Optional[bool] = None,
    **kwargs,
) -> List[GainAttribution]:
    """Fig 14 over a kernel suite, in the given order.

    Runs :meth:`repro.accel.engine.SweepEngine.attribute_all` on an engine
    with ``jobs`` worker processes (``1`` runs in-process); the persistent
    schedule cache is used only when *cache_dir* is given or
    ``use_cache=True``.  Values equal :func:`attribute_gains` per kernel
    for any ``jobs``.
    """
    from repro.accel.engine import SweepEngine

    engine = SweepEngine(jobs=jobs, cache_dir=cache_dir, use_cache=use_cache)
    return engine.attribute_all(kernels, metric=metric, **kwargs)
