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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.accel.design import DesignPoint, baseline_design
from repro.accel.power import PowerReport, evaluate_design
from repro.accel.resources import ResourceLibrary
from repro.accel.sweep import ScheduleCache, default_design_grid
from repro.accel.trace import TracedKernel
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

    *cache* lets callers share one (possibly persistent-backed)
    :class:`ScheduleCache` across the search and later ablations.
    """
    lib = library if library is not None else ResourceLibrary()
    grid = default_design_grid(
        nodes=[node_nm],
        partitions=partitions,
        simplifications=simplifications,
        heterogeneity=True,
    )
    if cache is None:
        cache = ScheduleCache(kernel, lib)
    best_design = None
    best_report = None
    best_value = -math.inf
    for design in grid:
        report = evaluate_design(kernel, design, lib, precomputed=cache.get(design))
        value = _metric(report, metric)
        if value > best_value:
            best_value = value
            best_design = design
            best_report = report
    assert best_design is not None and best_report is not None
    return best_design, best_report


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
    tests pass reduced ranges for speed.  *cache* (optionally backed by the
    persistent store) is shared between the best-design search and the
    ablation evaluations; by default a fresh in-memory one is used.
    """
    lib = library if library is not None else ResourceLibrary()
    if cache is None:
        cache = ScheduleCache(kernel, lib)
    with span("attribute", kernel=kernel.name, metric=metric):
        base_design = baseline_design(baseline_node_nm)
        base_report = evaluate_design(kernel, base_design, lib)
        base_value = _metric(base_report, metric)

        best_design, best_report = find_best_design(
            kernel, metric, node_nm, lib, partitions, simplifications, cache=cache
        )
        best_value = _metric(best_report, metric)

        def ablated_value(design: DesignPoint) -> float:
            report = evaluate_design(
                kernel, design, lib, precomputed=cache.get(design)
            )
            return _metric(report, metric)

        ablations = {
            "cmos_saving": best_design.with_node(baseline_node_nm),
            "partitioning": best_design.with_partition(1),
            "simplification": best_design.with_simplification(1),
            "heterogeneity": best_design.without_heterogeneity(),
        }
        factors = {
            concept: max(1.0, best_value / ablated_value(design))
            for concept, design in ablations.items()
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
