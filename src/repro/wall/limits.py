"""The accelerator wall: projected domain limits at the final CMOS node.

Table V's physical parameters define, per domain, the best chip that can be
built once CMOS scaling ends (5nm, the largest economic die, the domain's
power budget and clock).  Evaluating the CMOS potential model there gives the
*physical limit*; the Eq 5/6 frontier fits projected to that limit give the
accelerator wall — the best gain the domain can ever reach — and the
remaining headroom over today's best chip.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.cmos.gains import ChipGains
from repro.cmos.model import CmosPotentialModel
from repro.cmos.nodes import FINAL_NODE
from repro.datasheets.schema import Category
from repro.errors import ProjectionError
from repro.memo import memo
from repro.studies.base import CaseStudy
from repro.wall.projection import FrontierFit, fit_projections


@dataclass(frozen=True)
class DomainLimits:
    """Table V row: the physical envelope of one accelerated domain."""

    domain: str
    platform: Category
    min_die_mm2: float
    max_die_mm2: float
    tdp_w: float
    frequency_mhz: float
    study_factory: Callable[[], CaseStudy]
    #: Units of the performance and efficiency walls' gains (the study's
    #: ``performance_metric`` and ``efficiency_metric``).
    gain_unit: str
    efficiency_unit: str
    #: How the Table V TDP budget caps the *limit* chip: None (doesn't bind,
    #: e.g. video's 7W budget is 10x the highest measured power),
    #: "analytic" (Fig 3d device-power model) or "empirical" (Fig 3c
    #: per-era budget fits, the paper's quoted mechanism).
    limit_cap: Optional[str] = "empirical"

    def scaled(
        self, die: float = 1.0, tdp: float = 1.0, frequency: float = 1.0
    ) -> "DomainLimits":
        """This envelope with both die bounds, the TDP budget and the clock
        multiplied by *die*, *tdp* and *frequency* (a what-if point).

        Scaling both dies keeps the die each wall metric selects.
        """
        return replace(
            self,
            min_die_mm2=self.min_die_mm2 * die,
            max_die_mm2=self.max_die_mm2 * die,
            tdp_w=self.tdp_w * tdp,
            frequency_mhz=self.frequency_mhz * frequency,
        )

    def limit_chip(
        self, model: CmosPotentialModel, metric: str = "performance"
    ) -> ChipGains:
        """The best chip this envelope allows at the final node, under *model*.

        Performance limits use the largest die and energy-efficiency limits
        the smallest (the Section III insight that small chips favour
        efficiency); ``limit_cap`` says how the TDP budget caps the chip.
        """
        if metric == "performance":
            die = self.max_die_mm2
        elif metric == "efficiency":
            die = self.min_die_mm2
        else:
            raise ProjectionError(f"unknown wall metric {metric!r}")
        return model.evaluate(
            FINAL_NODE,
            self.frequency_mhz,
            area_mm2=die,
            tdp_w=self.tdp_w if self.limit_cap is not None else None,
            cap_mode=self.limit_cap or "analytic",
        )


def _table5() -> Tuple[DomainLimits, ...]:
    from repro.studies import bitcoin, fpga_cnn, gpu_graphics, video_decoders

    def cnn_combined() -> CaseStudy:
        """AlexNet + VGG-16 pooled, as in Figs 15c/16c."""
        alexnet = fpga_cnn.study("alexnet")
        vgg = fpga_cnn.study("vgg16")
        return CaseStudy(
            name="fpga_cnn_combined",
            chips=tuple(alexnet.chips) + tuple(vgg.chips),
            performance_metric="gops",
            efficiency_metric="gops_per_j",
            capped=False,
        )

    return (
        DomainLimits(
            domain="video_decoding",
            platform=Category.ASIC,
            min_die_mm2=1.68,
            max_die_mm2=16.0,
            tdp_w=7.0,
            frequency_mhz=400.0,
            study_factory=video_decoders.study,
            gain_unit="MPixels/s",
            efficiency_unit="MPixels/J",
            limit_cap=None,
        ),
        DomainLimits(
            domain="gaming_graphics",
            platform=Category.GPU,
            min_die_mm2=40.0,
            max_die_mm2=815.0,
            tdp_w=345.0,
            frequency_mhz=1500.0,
            study_factory=gpu_graphics.study,
            gain_unit="frames/s",
            efficiency_unit="frames/J",
            limit_cap="analytic",
        ),
        DomainLimits(
            domain="convolutional_nn",
            platform=Category.FPGA,
            min_die_mm2=100.0,
            max_die_mm2=572.0,
            tdp_w=150.0,
            frequency_mhz=400.0,
            study_factory=cnn_combined,
            gain_unit="GOP/s",
            efficiency_unit="GOP/J",
        ),
        DomainLimits(
            domain="bitcoin_mining",
            platform=Category.ASIC,
            min_die_mm2=11.1,
            max_die_mm2=504.0,
            tdp_w=500.0,
            frequency_mhz=1400.0,
            study_factory=bitcoin.asic_study,
            gain_unit="GHash/s/mm^2",
            efficiency_unit="GHash/J",
        ),
    )


#: Table V, keyed by domain name (built lazily to avoid import cycles).
DOMAIN_LIMITS: Dict[str, DomainLimits] = {}


def _limits() -> Dict[str, DomainLimits]:
    if not DOMAIN_LIMITS:
        DOMAIN_LIMITS.update({row.domain: row for row in _table5()})
    return DOMAIN_LIMITS


def domain_limits(domain: str) -> DomainLimits:
    """The Table V row of *domain*; :class:`ProjectionError` if unknown."""
    limits = _limits()
    try:
        return limits[domain]
    except KeyError:
        raise ProjectionError(
            f"unknown domain {domain!r}; known: {sorted(limits)}"
        ) from None


def domain_study(domain: str) -> CaseStudy:
    """The Table V case study of *domain*, built once per process.

    Keying by domain is exact: every envelope override (a backend's
    ``wall_limits``) is a ``dataclasses.replace`` of the domain's Table V
    row, so it keeps the row's ``study_factory``.
    """
    return memo(("wall.study", domain), _limits()[domain].study_factory)


def _physical_limit(
    row: DomainLimits,
    model: CmosPotentialModel,
    metric: str,
    physical_metric: str,
    base_physical: float,
) -> float:
    """*row*'s limit chip under *model*, over the baseline chip's
    *base_physical*: the capability at which a wall reads its fits."""
    return row.limit_chip(model, metric).metric(physical_metric) / base_physical


@dataclass(frozen=True)
class WallReport:
    """The accelerator wall for one domain and one metric."""

    domain: str
    metric: str
    gain_unit: str
    current_best: float  # best measured gain, in gain_unit
    physical_limit: float  # physical capability at 5nm, baseline-normalised
    linear_fit: FrontierFit
    log_fit: FrontierFit
    #: The (physical capability, gain in gain_unit) scatter both fits and
    #: ``current_best`` come from.
    points: Tuple[Tuple[float, float], ...]
    #: The ``ChipGains`` metric the physical limit is measured in, and the
    #: historical baseline chip's value of it (the limit's denominator).
    physical_metric: str
    base_physical: float

    def at_limits(
        self, row: DomainLimits, model: CmosPotentialModel
    ) -> "WallReport":
        """This wall read at *row*'s limit chip under *model*.

        The scatter and its fits do not depend on the envelope, so a
        what-if or sensitivity point evaluates one limit chip and keeps
        them; only ``physical_limit`` moves.  Equal to
        :func:`accelerator_wall` with ``limits_row=row, limit_model=model``.
        """
        if row.domain != self.domain:
            raise ProjectionError(
                f"limits row is for domain {row.domain!r}, not {self.domain!r}"
            )
        return replace(
            self,
            physical_limit=_physical_limit(
                row, model, self.metric, self.physical_metric, self.base_physical
            ),
        )

    @property
    def projected_linear(self) -> float:
        """Eq 5 projected gain at the wall, in gain_unit."""
        return max(self.current_best, self.linear_fit.predict(self.physical_limit))

    @property
    def projected_log(self) -> float:
        """Eq 6 projected gain at the wall, in gain_unit."""
        return max(self.current_best, self.log_fit.predict(self.physical_limit))

    @property
    def headroom(self) -> Tuple[float, float]:
        """(low, high) remaining improvement over today's best chip."""
        low = self.projected_log / self.current_best
        high = self.projected_linear / self.current_best
        return tuple(sorted((low, high)))

    def describe(self) -> str:
        low, high = self.headroom
        return (
            f"{self.domain}/{self.metric}: best today "
            f"{self.current_best:.4g} {self.gain_unit}; wall at "
            f"{self.projected_log:.4g} (log) .. {self.projected_linear:.4g} "
            f"(linear) {self.gain_unit} -> {low:.2g}-{high:.2g}x headroom"
        )


def accelerator_wall(
    domain: str,
    model: Optional[CmosPotentialModel] = None,
    metric: str = "performance",
    limits_row: Optional[DomainLimits] = None,
    limit_model: Optional[CmosPotentialModel] = None,
) -> WallReport:
    """Project the accelerator wall for one domain (Figs 15-16).

    *metric* is ``"performance"`` or ``"efficiency"``; the physical limit
    is :meth:`DomainLimits.limit_chip` over the baseline chip.  This is a
    full evaluation (series, fits, limit chip); :meth:`WallReport.at_limits`
    re-reads an evaluated wall at another envelope.

    *limits_row* replaces the Table V envelope for the limit-chip
    evaluation: a technology backend's envelope (e.g. chiplet's lifted
    die ceiling or a TFET's derated clock) or a
    :meth:`DomainLimits.scaled` what-if point.  The historical scatter and
    its frontier fits always come from the measured chips and are
    unaffected.

    *limit_model* evaluates the limit chip under a different potential
    model than the historical baseline — the "what if the wall chip used
    technology T while history stays CMOS" question asked by
    :mod:`repro.tech.scenarios`.
    """
    row = domain_limits(domain)
    if limits_row is not None:
        if limits_row.domain != domain:
            raise ProjectionError(
                f"limits override is for domain {limits_row.domain!r}, "
                f"not {domain!r}"
            )
        row = limits_row
    cmos = model if model is not None else CmosPotentialModel.paper()
    study = domain_study(domain)

    if metric == "performance":
        series = study.performance_series(cmos)
        physical_metric = study.physical_performance_metric
        measured_metric = study.performance_metric
        gain_unit = row.gain_unit
    elif metric == "efficiency":
        series = study.efficiency_series(cmos)
        physical_metric = "energy_efficiency"
        measured_metric = study.efficiency_metric
        gain_unit = row.efficiency_unit
    else:
        raise ProjectionError(f"unknown wall metric {metric!r}")

    base_chip = study.chips[0]
    base_measured = base_chip.metric(measured_metric)
    points = tuple((p.physical, p.gain * base_measured) for p in series)

    base_physical = cmos.evaluate_spec(
        base_chip.spec, capped=study.capped
    ).gains.metric(physical_metric)
    physical_limit = _physical_limit(
        row,
        limit_model if limit_model is not None else cmos,
        metric,
        physical_metric,
        base_physical,
    )

    linear_fit, log_fit = fit_projections(points)
    return WallReport(
        domain=domain,
        metric=metric,
        gain_unit=gain_unit,
        current_best=max(gain for _, gain in points),
        physical_limit=physical_limit,
        linear_fit=linear_fit,
        log_fit=log_fit,
        points=points,
        physical_metric=physical_metric,
        base_physical=base_physical,
    )


def fig15_16_row(report: WallReport) -> Dict[str, object]:
    """One row of the ``fig15_16`` and ``fig15_16_<tech>`` artifacts."""
    return {
        "domain": report.domain,
        "metric": report.metric,
        "unit": report.gain_unit,
        "current_best": report.current_best,
        "physical_limit": report.physical_limit,
        "projected_log": report.projected_log,
        "projected_linear": report.projected_linear,
        "headroom": report.headroom,
    }


def wall_report_all_domains(
    model: Optional[CmosPotentialModel] = None,
) -> List[WallReport]:
    """Figs 15 + 16: both metrics for all four Table V domains."""
    cmos = model if model is not None else CmosPotentialModel.paper()
    return [
        accelerator_wall(domain, cmos, metric)
        for domain in _limits()
        for metric in ("performance", "efficiency")
    ]
