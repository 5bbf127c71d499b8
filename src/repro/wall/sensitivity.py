"""Sensitivity of the accelerator-wall projections to Table V parameters.

The wall depends on assumed physical limits (largest economic die, power
budget, clock).  This module sweeps those assumptions around their Table V
values and reports how the projected headroom moves — quantifying how
robust each domain's wall is to the exact end-of-scaling parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cmos.model import CmosPotentialModel
from repro.cmos.nodes import FINAL_NODE
from repro.wall.limits import _limits, accelerator_wall, domain_study


@dataclass(frozen=True)
class SensitivityPoint:
    """One perturbed wall evaluation."""

    domain: str
    metric: str
    die_scale: float
    tdp_scale: float
    frequency_scale: float
    physical_limit: float
    headroom_low: float
    headroom_high: float


def wall_sensitivity(
    domain: str,
    model: Optional[CmosPotentialModel] = None,
    metric: str = "performance",
    die_scales: Sequence[float] = (0.5, 1.0, 2.0),
    tdp_scales: Sequence[float] = (0.5, 1.0, 2.0),
    frequency_scales: Sequence[float] = (1.0,),
) -> List[SensitivityPoint]:
    """Sweep Table V assumptions for one domain.

    Scales multiply the domain's Table V die size, TDP budget, and clock.
    The projection fits are computed once from the unperturbed empirical
    series; only the physical-limit evaluation point moves.
    """
    cmos = model if model is not None else CmosPotentialModel.paper()
    baseline_report = accelerator_wall(domain, cmos, metric)
    row = _limits()[domain]
    study = domain_study(domain)
    base_chip = study.chips[0]

    if metric == "performance":
        physical_metric = study.physical_performance_metric
        die = row.max_die_mm2
    else:
        physical_metric = "energy_efficiency"
        die = row.min_die_mm2

    base_gains = cmos.evaluate_spec(base_chip.spec, capped=study.capped).gains
    base_value = base_gains.metric(physical_metric)

    points: List[SensitivityPoint] = []
    for die_scale in die_scales:
        for tdp_scale in tdp_scales:
            for frequency_scale in frequency_scales:
                limit = cmos.evaluate(
                    FINAL_NODE,
                    row.frequency_mhz * frequency_scale,
                    area_mm2=die * die_scale,
                    tdp_w=(
                        row.tdp_w * tdp_scale
                        if row.limit_cap is not None
                        else None
                    ),
                    cap_mode=row.limit_cap or "analytic",
                )
                physical_limit = limit.metric(physical_metric) / base_value
                projected_log = max(
                    baseline_report.current_best,
                    baseline_report.log_fit.predict(physical_limit),
                )
                projected_linear = max(
                    baseline_report.current_best,
                    baseline_report.linear_fit.predict(physical_limit),
                )
                low, high = sorted(
                    (
                        projected_log / baseline_report.current_best,
                        projected_linear / baseline_report.current_best,
                    )
                )
                points.append(
                    SensitivityPoint(
                        domain=domain,
                        metric=metric,
                        die_scale=die_scale,
                        tdp_scale=tdp_scale,
                        frequency_scale=frequency_scale,
                        physical_limit=physical_limit,
                        headroom_low=low,
                        headroom_high=high,
                    )
                )
    return points


def headroom_spread(points: Sequence[SensitivityPoint]) -> Tuple[float, float]:
    """(min low, max high) headroom across a sensitivity sweep."""
    if not points:
        raise ValueError("empty sensitivity sweep")
    return (
        min(p.headroom_low for p in points),
        max(p.headroom_high for p in points),
    )
