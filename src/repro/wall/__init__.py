"""Accelerator-wall projection study (paper Section VII, Figs 15-16).

Fits Pareto-frontier projection models (linear and logarithmic, Eqs 5-6)
over each domain's (physical potential, measured gain) scatter and evaluates
them at the physical limit of the final 5nm CMOS node under the domain's
Table V physical parameters.
"""

from repro.wall.pareto import upper_frontier
from repro.wall.projection import (
    FrontierFit,
    ProjectionKind,
    fit_frontier,
    fit_projections,
)
from repro.wall.limits import (
    DOMAIN_LIMITS,
    DomainLimits,
    WallReport,
    accelerator_wall,
    wall_report_all_domains,
)
from repro.wall.sensitivity import SensitivityPoint, headroom_spread, wall_sensitivity
from repro.wall.whatif import TimeToWall, time_to_wall, time_to_wall_all_domains

__all__ = [
    "upper_frontier",
    "FrontierFit",
    "ProjectionKind",
    "fit_frontier",
    "fit_projections",
    "DOMAIN_LIMITS",
    "DomainLimits",
    "WallReport",
    "accelerator_wall",
    "wall_report_all_domains",
    "SensitivityPoint",
    "headroom_spread",
    "wall_sensitivity",
    "TimeToWall",
    "time_to_wall",
    "time_to_wall_all_domains",
]
