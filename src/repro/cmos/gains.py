"""Physical chip-gains model (paper Fig 3d).

Integrates the device-scaling model (Fig 3a) with the transistor-budget
models (Figs 3b/3c) to estimate a chip's CMOS-driven throughput and energy
efficiency from its physical description alone.

Modelling choices (all relative quantities; absolute units cancel when gains
are expressed as ratios, which is the only way the paper uses them):

* throughput  ``T = active_transistors * frequency`` — accelerated workloads
  are highly parallel, so compute scales with switching devices.
* dynamic power  ``P_dyn = active * e_dyn(node) * f * kappa`` with ``kappa``
  calibrated via a reference full-activity power density at 45nm.
* leakage power  ``P_leak = potential * p_leak(node) * lambda`` — every
  fabricated transistor leaks whether or not the TDP lets it switch.
* TDP capping: when ``P_dyn + P_leak`` exceeds the envelope, the active
  fraction is scaled down to fit, reproducing Fig 3d's "power zones" where
  large dies on new nodes lose most of their potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cmos.scaling import REFERENCE_NODE, ScalingTable, default_scaling_table
from repro.cmos.transistors import PAPER_DENSITY_FIT, TransistorCountFit
from repro.validate import require_finite, require_fraction, require_positive


@dataclass(frozen=True)
class GainsConfig:
    """Calibration constants for the physical gains model.

    ``ref_dynamic_density_w_mm2``
        Full-activity dynamic power density of the reference chip
        (45nm, 1GHz), in W/mm^2.  Sets how quickly TDP envelopes bite.
    ``ref_leakage_density_w_mm2``
        Leakage power density of the reference chip in W/mm^2.
    ``min_active_fraction``
        Floor on the active fraction under extreme TDP starvation, so
        throughput never reaches exactly zero (matching the paper's log-scale
        plots, which have no zero values).
    """

    ref_dynamic_density_w_mm2: float = 1.2
    ref_leakage_density_w_mm2: float = 0.016
    ref_area_mm2: float = 25.0
    ref_frequency_mhz: float = 1000.0
    min_active_fraction: float = 1e-4

    def __post_init__(self) -> None:
        require_positive(self.ref_dynamic_density_w_mm2, "ref_dynamic_density_w_mm2")
        require_positive(self.ref_leakage_density_w_mm2, "ref_leakage_density_w_mm2")
        require_positive(self.ref_area_mm2, "ref_area_mm2")
        require_positive(self.ref_frequency_mhz, "ref_frequency_mhz")
        require_fraction(self.min_active_fraction, "min_active_fraction")


@dataclass(frozen=True)
class ChipGains:
    """Physical evaluation of one chip configuration.

    ``throughput`` is in arbitrary units (transistor-gigahertz); only ratios
    between two :class:`ChipGains` are meaningful, exactly as in the paper.
    """

    node_nm: float
    area_mm2: float
    frequency_mhz: float
    tdp_w: Optional[float]
    potential_transistors: float
    active_transistors: float
    power_w: float
    tdp_limited: bool

    @property
    def throughput(self) -> float:
        """Relative compute throughput: active devices x frequency (GHz)."""
        return self.active_transistors * (self.frequency_mhz / 1e3)

    @property
    def energy_efficiency(self) -> float:
        """Relative operations per joule: throughput per watt dissipated."""
        return self.throughput / self.power_w

    @property
    def throughput_per_area(self) -> float:
        """Relative throughput per mm^2 (the Bitcoin-study metric)."""
        return self.throughput / self.area_mm2

    @property
    def active_fraction(self) -> float:
        """Share of fabricated transistors the power envelope keeps active."""
        return self.active_transistors / self.potential_transistors

    def metric(self, name: str) -> float:
        """Look up a gain metric by name.

        Supported names: ``throughput``, ``energy_efficiency``,
        ``throughput_per_area``.
        """
        try:
            return {
                "throughput": self.throughput,
                "energy_efficiency": self.energy_efficiency,
                "throughput_per_area": self.throughput_per_area,
            }[name]
        except KeyError:
            raise ValueError(f"unknown gain metric {name!r}") from None


class GainsModel:
    """Computes :class:`ChipGains` from physical chip parameters."""

    def __init__(
        self,
        density_fit: TransistorCountFit = PAPER_DENSITY_FIT,
        scaling: Optional[ScalingTable] = None,
        config: GainsConfig = GainsConfig(),
    ):
        self._density_fit = density_fit
        self._scaling = scaling if scaling is not None else default_scaling_table()
        self._config = config
        # Calibrate kappa / lambda from the reference chip so the config's
        # power densities hold exactly at (45nm, ref area, ref frequency).
        ref_tc = density_fit.transistors_for_chip(config.ref_area_mm2, REFERENCE_NODE)
        ref = self._scaling.relative(REFERENCE_NODE)
        ref_f_ghz = config.ref_frequency_mhz / 1e3
        self._kappa = (
            config.ref_dynamic_density_w_mm2
            * config.ref_area_mm2
            / (ref_tc * ref.dynamic_energy * ref_f_ghz)
        )
        self._lambda = (
            config.ref_leakage_density_w_mm2
            * config.ref_area_mm2
            / (ref_tc * ref.leakage_power)
        )

    @property
    def density_fit(self) -> TransistorCountFit:
        return self._density_fit

    @property
    def scaling(self) -> ScalingTable:
        return self._scaling

    @property
    def config(self) -> GainsConfig:
        return self._config

    def evaluate(
        self,
        node_nm: "float | str",
        frequency_mhz: float,
        area_mm2: Optional[float] = None,
        transistors: Optional[float] = None,
        tdp_w: Optional[float] = None,
    ) -> ChipGains:
        """Evaluate the physical gains of one chip configuration.

        Exactly one of *area_mm2* / *transistors* may be omitted: the missing
        one is derived through the density fit.  Without *tdp_w* the chip is
        evaluated uncapped (its power draw is reported but not limited).
        """
        from repro.cmos.nodes import parse_node

        node = parse_node(node_nm)
        require_positive(frequency_mhz, "frequency")
        if area_mm2 is None and transistors is None:
            raise ValueError("one of area_mm2 / transistors is required")
        if transistors is None:
            require_positive(area_mm2, "die area")
            potential = self._density_fit.transistors_for_chip(area_mm2, node)
        else:
            potential = require_positive(transistors, "transistor count")
            if area_mm2 is None:
                area_mm2 = self._density_fit.area_for(potential, node)
        rel = self._scaling.relative(node)
        f_ghz = frequency_mhz / 1e3
        leak_w = potential * rel.leakage_power * self._lambda
        dyn_full_w = potential * rel.dynamic_energy * f_ghz * self._kappa

        active_fraction = 1.0
        tdp_limited = False
        if tdp_w is not None:
            require_positive(tdp_w, "TDP")
            headroom = tdp_w - leak_w
            budget = max(headroom, self._config.min_active_fraction * dyn_full_w)
            if dyn_full_w > budget:
                active_fraction = budget / dyn_full_w
                tdp_limited = True
        active = potential * active_fraction
        power = leak_w + dyn_full_w * active_fraction
        require_positive(power, "modelled chip power")
        require_finite(active, "active transistor count")
        # Active devices and frequency can each be finite while their product
        # (the reported throughput) overflows at extreme clock rates.
        require_finite(active * f_ghz, "modelled throughput")
        return ChipGains(
            node_nm=node,
            area_mm2=float(area_mm2),
            frequency_mhz=float(frequency_mhz),
            tdp_w=tdp_w,
            potential_transistors=potential,
            active_transistors=active,
            power_w=power,
            tdp_limited=tdp_limited,
        )
