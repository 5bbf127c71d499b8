"""Calibrated synthetic datasheet population.

The paper fits its CMOS potential model over 2613 scraped chip datasheets.
We cannot ship that scrape, so this module generates a deterministic
population whose two fitted power laws recover the paper's published
constants:

* density law (Fig 3b):   ``TC(D) = 4.99e9 * D**0.877``
* TDP laws   (Fig 3c):    ``TC[1e9] * f[GHz] = c_era * TDP**e_era`` with
  ``(c, e)`` = (0.02, 0.869) for 55-40nm, (0.11, 0.729) for 32-28nm,
  (0.49, 0.557) for 22-12nm and (2.15, 0.402) for the 10-5nm projection.

Each synthetic chip is generated to satisfy *both* laws simultaneously (the
laws are mutually consistent for realistic chips), with lognormal noise, so
re-fitting the population returns the constants up to sampling error.  This
preserves exactly the information the paper extracts from its population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.datasheets.database import ChipDatabase
from repro.datasheets.schema import Category, ChipSpec

#: Paper's Fig 3b density-law constants.
DENSITY_LAW: Tuple[float, float] = (4.99e9, 0.877)

#: Paper's Fig 3c TDP-law constants per era name (plus a legacy
#: extrapolation for pre-55nm chips, which Fig 3c does not cover).
TDP_LAWS: Dict[str, Tuple[float, float]] = {
    "180nm-65nm": (0.0015, 0.950),
    "55nm-40nm": (0.02, 0.869),
    "32nm-28nm": (0.11, 0.729),
    "22nm-12nm": (0.49, 0.557),
    "10nm-5nm": (2.15, 0.402),
}


@dataclass(frozen=True)
class _EraPlan:
    """Generation recipe for one node era."""

    name: str
    nodes: Tuple[float, ...]
    cpu_freq_ghz: Tuple[float, float]
    gpu_freq_ghz: Tuple[float, float]
    tdp_w: Tuple[float, float]
    #: Legacy chips (outside every Fig 3c era) are generated density-first:
    #: sample a die, apply the density law, and back out a plausible TDP.
    #: Modern chips are generated TDP-first so the per-era Fig 3c fits
    #: recover the paper's constants.
    density_first: bool = False
    area_mm2: Tuple[float, float] = (60.0, 450.0)


_ERA_PLANS: Tuple[_EraPlan, ...] = (
    _EraPlan(
        "180nm-65nm", (180, 130, 110, 90, 80, 65), (0.8, 3.4), (0.3, 0.8),
        (10, 250), density_first=True, area_mm2=(60.0, 450.0),
    ),
    _EraPlan("55nm-40nm", (55, 45, 40), (2.0, 3.8), (0.6, 0.95), (25, 300)),
    _EraPlan("32nm-28nm", (32, 28), (2.5, 4.0), (0.8, 1.2), (30, 350)),
    _EraPlan("22nm-12nm", (22, 20, 16, 14, 12), (2.2, 4.3), (1.0, 1.7), (30, 500)),
    _EraPlan("10nm-5nm", (10, 7, 5), (2.5, 4.5), (1.2, 2.0), (30, 800)),
)

#: Largest manufacturable die (reticle limit), mm^2.
_MAX_AREA_MM2 = 880.0

#: First-silicon year per node, used to stamp plausible introduction years.
_NODE_YEAR: Dict[float, float] = {
    180: 2000.0, 130: 2002.5, 110: 2004.0, 90: 2005.0, 80: 2006.5,
    65: 2007.0, 55: 2008.5, 45: 2009.5, 40: 2010.5, 32: 2011.0,
    28: 2012.5, 22: 2013.5, 20: 2014.5, 16: 2016.0, 14: 2016.5,
    12: 2017.5, 10: 2018.0, 7: 2019.5, 5: 2021.0,
}


@dataclass(frozen=True)
class SyntheticPopulationConfig:
    """Knobs for the synthetic population generator.

    ``chips_per_era`` controls population size (5 eras; the default of 400
    yields 2000 chips, comparable to the paper's 2613).  ``tc_noise_sigma``
    and ``tdp_noise_sigma`` are lognormal sigmas applied to the density and
    TDP laws respectively.  ``gpu_fraction`` splits each era between CPU-like
    and GPU-like frequency/area profiles.
    """

    seed: int = 20190216  # HPCA 2019 conference date
    chips_per_era: int = 400
    tc_noise_sigma: float = 0.22
    tdp_noise_sigma: float = 0.28
    gpu_fraction: float = 0.4
    density_law: Tuple[float, float] = DENSITY_LAW
    tdp_laws: Dict[str, Tuple[float, float]] = field(
        default_factory=lambda: dict(TDP_LAWS)
    )

    def __post_init__(self) -> None:
        if self.chips_per_era < 1:
            raise ValueError("chips_per_era must be >= 1")
        if not (0.0 <= self.gpu_fraction <= 1.0):
            raise ValueError("gpu_fraction must lie in [0, 1]")
        if self.tc_noise_sigma < 0 or self.tdp_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")


def synthetic_database(
    config: SyntheticPopulationConfig = SyntheticPopulationConfig(),
) -> ChipDatabase:
    """Generate the deterministic synthetic chip population.

    The same ``config`` (including seed) always yields the same database.
    """
    rng = np.random.default_rng(config.seed)
    coeff, exponent = config.density_law
    chips = []
    for plan in _ERA_PLANS:
        c_era, e_era = config.tdp_laws[plan.name]
        for index in range(config.chips_per_era):
            node = float(rng.choice(plan.nodes))
            is_gpu = rng.random() < config.gpu_fraction
            lo_f, hi_f = plan.gpu_freq_ghz if is_gpu else plan.cpu_freq_ghz
            freq_ghz = rng.uniform(lo_f, hi_f)
            if plan.density_first:
                lo_a, hi_a = plan.area_mm2
                area = math.exp(rng.uniform(math.log(lo_a), math.log(hi_a)))
                density = area / (node * node)
                transistors = (
                    coeff
                    * density**exponent
                    * math.exp(rng.normal(0.0, config.tc_noise_sigma))
                )
                product = (transistors / 1e9) * freq_ghz
                tdp = (product / c_era) ** (1.0 / e_era) * math.exp(
                    rng.normal(0.0, config.tdp_noise_sigma)
                )
                tdp = min(max(tdp, 5.0), 400.0)
            else:
                lo_t, hi_t = plan.tdp_w
                tdp = math.exp(rng.uniform(math.log(lo_t), math.log(hi_t)))
                product = (
                    c_era
                    * tdp**e_era
                    * math.exp(rng.normal(0.0, config.tdp_noise_sigma))
                )
                transistors = product / freq_ghz * 1e9
                density = (transistors / coeff) ** (1.0 / exponent)
                area = (
                    density
                    * node
                    * node
                    * math.exp(rng.normal(0.0, config.tc_noise_sigma))
                )
                area = min(max(area, 5.0), _MAX_AREA_MM2)
            year = int(round(_NODE_YEAR[node] + rng.normal(0.0, 1.0)))
            year = min(max(year, 1998), 2030)
            category = Category.GPU if is_gpu else Category.CPU
            chips.append(
                ChipSpec(
                    name=f"synthetic-{plan.name}-{category.value}-{index:04d}",
                    vendor="synthetic",
                    category=category,
                    node_nm=node,
                    area_mm2=area,
                    transistors=transistors,
                    frequency_mhz=freq_ghz * 1e3,
                    tdp_w=tdp,
                    year=year,
                    source="synthetic",
                )
            )
    return ChipDatabase(chips)
