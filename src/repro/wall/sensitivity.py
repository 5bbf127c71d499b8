"""Sensitivity of the accelerator-wall projections to Table V parameters.

The wall depends on assumed physical limits (largest economic die, power
budget, clock).  This module sweeps those assumptions around their Table V
values and reports how the projected headroom moves — quantifying how
robust each domain's wall is to the exact end-of-scaling parameters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cmos.model import CmosPotentialModel
from repro.wall.limits import accelerator_wall, domain_limits


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

    Each point is the domain's wall read at its Table V row with the dies,
    TDP budget and clock scaled
    (:meth:`~repro.wall.limits.DomainLimits.scaled`).  The frontier fits
    depend only on the measured scatter, so the sweep evaluates one wall
    and then one limit chip per point
    (:meth:`~repro.wall.limits.WallReport.at_limits`).
    """
    cmos = model if model is not None else CmosPotentialModel.paper()
    wall = accelerator_wall(domain, cmos, metric)
    row = domain_limits(domain)
    points: List[SensitivityPoint] = []
    for die_scale, tdp_scale, frequency_scale in itertools.product(
        die_scales, tdp_scales, frequency_scales
    ):
        report = wall.at_limits(
            row.scaled(die_scale, tdp_scale, frequency_scale), cmos
        )
        low, high = report.headroom
        points.append(
            SensitivityPoint(
                domain=domain,
                metric=metric,
                die_scale=die_scale,
                tdp_scale=tdp_scale,
                frequency_scale=frequency_scale,
                physical_limit=report.physical_limit,
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
