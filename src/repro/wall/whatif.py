"""Time-to-wall estimation: when does each domain hit its limit?

Combines three ingredients the library already has:

* the CMOS roadmap cadence (first-silicon year per node, from the synthetic
  population's node-year table),
* each domain's wall projection (remaining headroom at 5nm), and
* each domain's historical gain cadence (the measured gain trend per year),

to estimate the calendar year at which the domain's projected wall is
reached if its historical pace continued — the practical "how long do we
have" question the paper's conclusion poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.cmos.model import CmosPotentialModel
from repro.errors import ProjectionError
from repro.validate import require_finite, require_positive
from repro.wall.limits import WallReport, _limits, accelerator_wall, domain_study


@dataclass(frozen=True)
class TimeToWall:
    """Estimated schedule for one domain hitting its wall."""

    domain: str
    metric: str
    annual_gain_rate: float        # historical gain multiple per year
    headroom_low: float
    headroom_high: float
    years_to_wall_low: float
    years_to_wall_high: float
    last_observation_year: float

    @property
    def wall_year_range(self) -> "tuple[float, float]":
        return (
            self.last_observation_year + self.years_to_wall_low,
            self.last_observation_year + self.years_to_wall_high,
        )

    def describe(self) -> str:
        low_year, high_year = self.wall_year_range
        return (
            f"{self.domain}/{self.metric}: historical pace "
            f"{self.annual_gain_rate:.2f}x/yr; headroom "
            f"{self.headroom_low:.1f}-{self.headroom_high:.1f}x -> wall "
            f"reached ~{low_year:.0f}-{high_year:.0f} at that pace"
        )


def _annual_gain_rate(study, model: CmosPotentialModel) -> "tuple[float, float]":
    """(gain multiple per year, last observation year) from a study."""
    series = study.performance_series(model)
    dated = [(p.year, p.gain) for p in series if p.year is not None]
    if len(dated) < 2:
        raise ProjectionError(
            f"study {study.name!r} lacks dated chips for a gain cadence"
        )
    dated.sort()
    for year, gain in dated:
        require_finite(year, "observation year", ProjectionError)
        require_positive(gain, "observed gain", ProjectionError)
    (first_year, first_gain), (last_year, last_gain) = dated[0], dated[-1]
    span = last_year - first_year
    if span <= 0 or last_gain <= first_gain:
        raise ProjectionError(
            f"study {study.name!r} has no positive dated gain trend"
        )
    rate = (last_gain / first_gain) ** (1.0 / span)
    require_finite(rate, "annual gain rate", ProjectionError)
    return rate, float(last_year)


def time_to_wall(
    domain: str,
    model: Optional[CmosPotentialModel] = None,
    metric: str = "performance",
) -> TimeToWall:
    """Estimate when *domain* exhausts its projected headroom.

    Assumes the domain's historical compound gain rate continues until the
    wall; the paper argues the rate actually *slows* as CMOS contributions
    end, so these are optimistic (earliest) wall dates under the log bound
    and latest under the linear bound.
    """
    cmos = model if model is not None else CmosPotentialModel.paper()
    report: WallReport = accelerator_wall(domain, cmos, metric)
    study = domain_study(domain)
    rate, last_year = _annual_gain_rate(study, cmos)
    low, high = report.headroom
    require_positive(low, "headroom (low)", ProjectionError)
    require_positive(high, "headroom (high)", ProjectionError)
    log_rate = math.log(rate)
    if log_rate <= 0.0:
        raise ProjectionError(
            f"study {study.name!r}: annual gain rate {rate!r} is not > 1; "
            "a flat trend never reaches the wall"
        )
    years_low = math.log(low) / log_rate if low > 1 else 0.0
    years_high = math.log(high) / log_rate if high > 1 else 0.0
    require_finite(years_low, "years to wall (low)", ProjectionError)
    require_finite(years_high, "years to wall (high)", ProjectionError)
    return TimeToWall(
        domain=domain,
        metric=metric,
        annual_gain_rate=rate,
        headroom_low=low,
        headroom_high=high,
        years_to_wall_low=years_low,
        years_to_wall_high=years_high,
        last_observation_year=last_year,
    )


def time_to_wall_all_domains(
    model: Optional[CmosPotentialModel] = None,
) -> List[TimeToWall]:
    """Time-to-wall for every Table V domain (performance metric)."""
    cmos = model if model is not None else CmosPotentialModel.paper()
    return [time_to_wall(domain, cmos) for domain in _limits()]
