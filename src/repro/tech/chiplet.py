"""The ``chiplet`` backend: disaggregate past the reticle, pay for links.

Monad-style multi-chip-module modeling layered on a base technology
(planar CMOS by default).  Three effects, applied only when a queried
die exceeds the photolithographic reticle limit:

* **Reticle escape** — a target area ``A`` splits into
  ``n = ceil(A / reticle)`` dies (capped at ``max_chiplets``).  Because
  the Fig 3b density law is sublinear (``TC ~ D^0.877`` — design
  complexity erodes density on huge dice), ``n`` small dies hold
  ``n^(1-0.877)`` *more* transistors than one monolithic die of the
  same total area: disaggregation is a density win, not just an area
  win.
* **Inter-chiplet communication** — each extra die taxes delivered
  throughput by a per-chiplet link efficiency (cross-die wires are
  slower and costlier than on-die wires).
* **Packaging power** — SerDes and the package substrate add a power
  overhead that grows with die count, degrading energy efficiency.

Yield enters the cost/carbon side: a Murphy/negative-binomial model
``Y(A) = (1 + A*D0/alpha)^(-alpha)`` makes small dies dramatically
cheaper per good mm^2, which is the economic argument for chiplets and
feeds the per-die embodied-carbon amortisation in
:mod:`repro.tech.carbon`.

Historical chips with disclosed transistor counts (``transistors``
given) and any die under the reticle bypass disaggregation entirely, so
the CSR baseline chips evaluate exactly as under the base technology.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Optional, Union

from repro.cmos.gains import ChipGains
from repro.cmos.model import CmosPotentialModel
from repro.errors import ValidationError
from repro.tech.base import TechBackend, TechMetadata
from repro.wall.limits import DomainLimits

__all__ = [
    "RETICLE_LIMIT_MM2",
    "ChipletPotentialModel",
    "ChipletBackend",
    "chiplet_backend",
    "murphy_yield",
]

#: Photolithographic reticle field, mm^2 (ASML full-field 26mm x 33mm).
RETICLE_LIMIT_MM2: float = 858.0

#: Throughput retained per chiplet relative to monolithic scaling, per the
#: MCM-GPU paper's regime (~10% loss at 4 chiplets from inter-module traffic).
COMM_EFFICIENCY_PER_CHIPLET: float = 0.965

#: Extra power per additional chiplet (SerDes links, package regulation),
#: as a fraction of one chiplet's budget.
PACKAGING_POWER_OVERHEAD: float = 0.08

#: Default maximum dies per package (interposer escape-routing bound).
DEFAULT_MAX_CHIPLETS: int = 4

#: Murphy-model defect density, defects per mm^2 (mature-process figure).
DEFAULT_DEFECT_DENSITY_PER_MM2: float = 0.001

#: Negative-binomial clustering parameter for the yield model.
DEFAULT_YIELD_ALPHA: float = 3.0


def murphy_yield(
    area_mm2: float,
    defect_density_per_mm2: float = DEFAULT_DEFECT_DENSITY_PER_MM2,
    alpha: float = DEFAULT_YIELD_ALPHA,
) -> float:
    """Negative-binomial die yield ``(1 + A*D0/alpha)^(-alpha)``."""
    if not (math.isfinite(area_mm2) and area_mm2 > 0):
        raise ValidationError(f"die area must be positive, got {area_mm2!r}")
    return (1.0 + area_mm2 * defect_density_per_mm2 / alpha) ** (-alpha)


class ChipletPotentialModel(CmosPotentialModel):
    """The base potential model with reticle-aware disaggregation.

    Area-only queries larger than the reticle are evaluated as an MCM:
    the potential transistor count comes from ``n`` reticle-sized dies
    (a density win under the sublinear Fig 3b law), then delivered
    throughput and power are taxed by the link/packaging overheads.
    Queries with an explicit transistor count, or dies that fit a single
    reticle, delegate to the base model untouched.
    """

    def __init__(
        self,
        base: CmosPotentialModel,
        reticle_limit_mm2: float = RETICLE_LIMIT_MM2,
        max_chiplets: int = DEFAULT_MAX_CHIPLETS,
        comm_efficiency: float = COMM_EFFICIENCY_PER_CHIPLET,
        packaging_overhead: float = PACKAGING_POWER_OVERHEAD,
    ):
        super().__init__(
            density_fit=base.density_fit,
            tdp_model=base.tdp_model,
            scaling=base.scaling,
            gains_config=base.gains_model.config,
        )
        if reticle_limit_mm2 <= 0:
            raise ValidationError(f"reticle limit must be positive, got {reticle_limit_mm2!r}")
        if max_chiplets < 1:
            raise ValidationError(f"max_chiplets must be >= 1, got {max_chiplets!r}")
        self.reticle_limit_mm2 = float(reticle_limit_mm2)
        self.max_chiplets = int(max_chiplets)
        self.comm_efficiency = float(comm_efficiency)
        self.packaging_overhead = float(packaging_overhead)

    def die_count(self, area_mm2: Optional[float]) -> int:
        """Dies an *area* target splits into (1 when it fits the reticle)."""
        if area_mm2 is None or area_mm2 <= self.reticle_limit_mm2:
            return 1
        return min(self.max_chiplets, math.ceil(area_mm2 / self.reticle_limit_mm2))

    def evaluate(
        self,
        node_nm: Union[float, str],
        frequency_mhz: float,
        area_mm2: Optional[float] = None,
        transistors: Optional[float] = None,
        tdp_w: Optional[float] = None,
        cap_mode: str = "analytic",
    ) -> ChipGains:
        if transistors is not None or area_mm2 is None:
            return super().evaluate(
                node_nm, frequency_mhz, area_mm2, transistors, tdp_w, cap_mode
            )
        n = self.die_count(area_mm2)
        if n == 1:
            return super().evaluate(
                node_nm, frequency_mhz, area_mm2, None, tdp_w, cap_mode
            )
        per_die = area_mm2 / n
        potential = n * self.density_fit.transistors_for_chip(per_die, node_nm)
        gains = super().evaluate(
            node_nm,
            frequency_mhz,
            area_mm2=area_mm2,
            transistors=potential,
            tdp_w=tdp_w,
            cap_mode=cap_mode,
        )
        comm = self.comm_efficiency ** (n - 1)
        power_factor = 1.0 + self.packaging_overhead * (n - 1) / n
        return replace(
            gains,
            active_transistors=gains.active_transistors * comm,
            power_w=gains.power_w * power_factor,
        )


class ChipletBackend(TechBackend):
    """Disaggregation backend wrapping a base technology backend."""

    def __init__(
        self,
        metadata: TechMetadata,
        base: TechBackend,
        reticle_limit_mm2: float = RETICLE_LIMIT_MM2,
        max_chiplets: int = DEFAULT_MAX_CHIPLETS,
        defect_density_per_mm2: float = DEFAULT_DEFECT_DENSITY_PER_MM2,
        yield_alpha: float = DEFAULT_YIELD_ALPHA,
    ):
        super().__init__(metadata)
        self._base = base
        self._reticle_limit_mm2 = reticle_limit_mm2
        self._max_chiplets = max_chiplets
        self.defect_density_per_mm2 = defect_density_per_mm2
        self.yield_alpha = yield_alpha

    @property
    def base(self) -> TechBackend:
        return self._base

    def build_model(self) -> ChipletPotentialModel:
        return ChipletPotentialModel(
            self._base.model(),
            reticle_limit_mm2=self._reticle_limit_mm2,
            max_chiplets=self._max_chiplets,
        )

    def wall_limits(self, row: DomainLimits) -> DomainLimits:
        """Lift the die ceiling: the package, not the reticle, is the limit."""
        return replace(row, max_die_mm2=row.max_die_mm2 * self._max_chiplets)

    def wall_limit_candidates(self, row: DomainLimits) -> "tuple[DomainLimits, ...]":
        """Monolithic vs. disaggregated: in TDP-bound domains the extra
        silicon buys nothing and the links cost throughput, so staying on
        one die must remain on the table."""
        return (row, self.wall_limits(row))

    def die_count(self, area_mm2: float) -> int:
        model = self.model()
        assert isinstance(model, ChipletPotentialModel)
        return model.die_count(area_mm2)

    def die_yield(self, area_mm2: float) -> float:
        """Per-die yield at the backend's defect density (for cost/carbon)."""
        return murphy_yield(
            area_mm2, self.defect_density_per_mm2, self.yield_alpha
        )


def chiplet_backend(base: Optional[TechBackend] = None) -> ChipletBackend:
    if base is None:
        from repro.tech.cmos import cmos_backend

        base = cmos_backend()
    parameters: Dict[str, Union[float, int, str]] = {
        "base": base.name,
        "reticle_limit_mm2": RETICLE_LIMIT_MM2,
        "max_chiplets": DEFAULT_MAX_CHIPLETS,
        "comm_efficiency_per_chiplet": COMM_EFFICIENCY_PER_CHIPLET,
        "packaging_power_overhead": PACKAGING_POWER_OVERHEAD,
        "defect_density_per_mm2": DEFAULT_DEFECT_DENSITY_PER_MM2,
        "yield_alpha": DEFAULT_YIELD_ALPHA,
    }
    return ChipletBackend(
        TechMetadata(
            name="chiplet",
            display_name="Chiplet / MCM disaggregation",
            description=(
                "The base technology split across up to "
                f"{DEFAULT_MAX_CHIPLETS} reticle-sized dies: larger "
                "packages and a sublinear-density win, taxed by "
                "inter-chiplet links and packaging power."
            ),
            source=(
                "Monad-style chiplet cost modeling; ASML full-field "
                "reticle (26x33mm); Murphy/negative-binomial yield"
            ),
            parameters=parameters,
        ),
        base=base,
    )
