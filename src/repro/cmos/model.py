"""Facade over the full CMOS potential model (paper Section III).

:class:`CmosPotentialModel` bundles the device-scaling table, the density
regression (Fig 3b), the per-era TDP budget fits (Fig 3c), and the physical
gains model (Fig 3d) behind the two operations the rest of the library needs:

* evaluate the physical (CMOS-driven) capability of one chip, and
* form the *physical gain ratio* between two chips — the denominator of the
  CSR metric (Eq 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.cmos.gains import ChipGains, GainsConfig, GainsModel
from repro.cmos.nodes import parse_node
from repro.cmos.scaling import ScalingTable, default_scaling_table
from repro.cmos.tdp import TdpModel, fit_tdp_model, paper_tdp_model
from repro.cmos.transistors import (
    PAPER_DENSITY_FIT,
    TransistorCountFit,
    fit_transistor_count,
)
from repro.memo import memo

if TYPE_CHECKING:  # pragma: no cover
    from repro.datasheets.database import ChipDatabase
    from repro.datasheets.schema import ChipSpec


@dataclass(frozen=True)
class PhysicalChip:
    """A chip spec together with its CMOS-model evaluation."""

    name: str
    gains: ChipGains

    def metric(self, name: str) -> float:
        return self.gains.metric(name)


class CmosPotentialModel:
    """Application-independent model of a chip's CMOS-driven capabilities."""

    def __init__(
        self,
        density_fit: TransistorCountFit = PAPER_DENSITY_FIT,
        tdp_model: Optional[TdpModel] = None,
        scaling: Optional[ScalingTable] = None,
        gains_config: GainsConfig = GainsConfig(),
    ):
        self._density_fit = density_fit
        self._tdp_model = tdp_model if tdp_model is not None else paper_tdp_model()
        self._scaling = scaling if scaling is not None else default_scaling_table()
        self._gains = GainsModel(density_fit, self._scaling, gains_config)

    # -- constructors -------------------------------------------------------

    @classmethod
    def paper(cls) -> "CmosPotentialModel":
        """Model built from the paper's published fit constants."""
        return cls()

    @classmethod
    def from_database(cls, database: "ChipDatabase") -> "CmosPotentialModel":
        """Model refitted from a datasheet population (paper methodology)."""
        return cls(
            density_fit=fit_transistor_count(database),
            tdp_model=fit_tdp_model(database),
        )

    @classmethod
    def reference(cls) -> "CmosPotentialModel":
        """The CMOS model fitted over the library's default chip population,
        fitted once per process (:mod:`repro.memo`)."""
        from repro.datasheets.reference import reference_database

        return memo(
            ("cmos.reference",),
            lambda: CmosPotentialModel.from_database(reference_database()),
        )

    # -- component access ----------------------------------------------------

    @property
    def density_fit(self) -> TransistorCountFit:
        return self._density_fit

    @property
    def tdp_model(self) -> TdpModel:
        return self._tdp_model

    @property
    def scaling(self) -> ScalingTable:
        return self._scaling

    @property
    def gains_model(self) -> GainsModel:
        return self._gains

    # -- evaluation ----------------------------------------------------------

    def evaluate(
        self,
        node_nm: "float | str",
        frequency_mhz: float,
        area_mm2: Optional[float] = None,
        transistors: Optional[float] = None,
        tdp_w: Optional[float] = None,
        cap_mode: str = "analytic",
    ) -> ChipGains:
        """Physical gains for a chip configuration.

        ``cap_mode`` selects how *tdp_w* limits the active budget:

        * ``"analytic"`` (default) — the Fig 3d device-power model: active
          fraction shrinks until dynamic + leakage power fit the envelope;
        * ``"empirical"`` — the Fig 3c per-era power-law fit: active
          transistors are ``min(potential, budget(node, TDP, f))``, the
          mechanism the paper quotes for its transistor-budget projections.
        """
        if cap_mode not in ("analytic", "empirical"):
            raise ValueError(f"unknown cap_mode {cap_mode!r}")
        if cap_mode == "analytic" or tdp_w is None:
            return self._gains.evaluate(
                node_nm,
                frequency_mhz,
                area_mm2=area_mm2,
                transistors=transistors,
                tdp_w=tdp_w,
            )
        uncapped = self._gains.evaluate(
            node_nm,
            frequency_mhz,
            area_mm2=area_mm2,
            transistors=transistors,
            tdp_w=None,
        )
        budget = self._tdp_model.active_transistors(
            node_nm, tdp_w, frequency_mhz
        )
        if budget >= uncapped.potential_transistors:
            return uncapped
        from dataclasses import replace

        return replace(
            uncapped,
            tdp_w=tdp_w,
            active_transistors=budget,
            # A budget-capped chip runs at its thermal envelope.
            power_w=min(uncapped.power_w, tdp_w),
            tdp_limited=True,
        )

    def evaluate_spec(
        self, spec: "ChipSpec", capped: "bool | str" = True
    ) -> PhysicalChip:
        """Evaluate a datasheet record.

        *capped* may be ``True`` (analytic TDP capping, the default),
        ``False`` (uncapped transistor potential), or one of the
        :meth:`evaluate` ``cap_mode`` strings.
        """
        if capped is False:
            tdp, mode = None, "analytic"
        elif capped is True:
            tdp, mode = spec.tdp_w, "analytic"
        else:
            tdp, mode = spec.tdp_w, str(capped)
        gains = self.evaluate(
            spec.node_nm,
            spec.frequency_mhz,
            area_mm2=spec.area_mm2,
            transistors=spec.transistors,
            tdp_w=tdp,
            cap_mode=mode,
        )
        return PhysicalChip(name=spec.name, gains=gains)

    def potential_gain(
        self,
        spec: "ChipSpec",
        baseline: "ChipSpec",
        metric: str = "throughput",
        capped: "bool | str" = True,
    ) -> float:
        """CMOS-driven gain of *spec* over *baseline* for *metric*.

        This is ``Gain(Phy_A) / Gain(Phy_B)`` from Eq 2 — the denominator of
        the CSR computation.  *capped* follows :meth:`evaluate_spec`.
        """
        a = self.evaluate_spec(spec, capped=capped).gains.metric(metric)
        b = self.evaluate_spec(baseline, capped=capped).gains.metric(metric)
        return a / b

    def active_budget(
        self, node_nm: "float | str", tdp_w: float, frequency_mhz: float
    ) -> float:
        """Fig 3c query: active transistors for (node, TDP, frequency)."""
        return self._tdp_model.active_transistors(node_nm, tdp_w, frequency_mhz)

    # -- figure regeneration ---------------------------------------------------

    def fig3d_grid(
        self,
        nodes: Sequence[float] = (45.0, 28.0, 16.0, 10.0, 7.0, 5.0),
        dies_mm2: Sequence[float] = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0),
        tdp_zones_w: Sequence[Optional[float]] = (50.0, 200.0, 800.0, None),
        frequency_mhz: float = 1000.0,
    ) -> Dict[Tuple[float, float, Optional[float]], Dict[str, float]]:
        """Fig 3d: relative throughput / energy efficiency over a grid.

        Returns ``{(node, die, tdp_zone): {"throughput": x, "energy_efficiency": y}}``
        normalised to the (oldest node, smallest die, uncapped) corner,
        matching the figure's "normalised to a 25mm^2 45nm chip".  ``None``
        in *tdp_zones_w* means an unconstrained power envelope.
        """
        base_node = max(parse_node(n) for n in nodes)
        base_die = min(dies_mm2)
        baseline = self.evaluate(base_node, frequency_mhz, area_mm2=base_die)
        grid: Dict[Tuple[float, float, Optional[float]], Dict[str, float]] = {}
        for node in nodes:
            for die in dies_mm2:
                for tdp in tdp_zones_w:
                    gains = self.evaluate(
                        node, frequency_mhz, area_mm2=die, tdp_w=tdp
                    )
                    grid[(parse_node(node), die, tdp)] = {
                        "throughput": gains.throughput / baseline.throughput,
                        "energy_efficiency": gains.energy_efficiency
                        / baseline.energy_efficiency,
                    }
        return grid
