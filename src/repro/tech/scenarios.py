"""Scenario engine: does the accelerator wall move under technology T?

For one backend this re-runs the paper's end-game analysis — the
Table V envelope, the Figs 15-16 wall projections, the per-study CSR
decomposition, and the carbon overlay — and packages the results as the
per-tech export artifacts (``fig15_16_<tech>``, ``table5_<tech>``,
``csr_<tech>``, ``tech_<tech>``) plus a cross-tech delta artifact
(``tech_delta_<tech>``) that answers the headline question directly:
"the wall moved by X years / Yx under technology T".

Modeling stance: **history stays CMOS**.  The measured scatter, the
frontier fits, and the baseline chip are always evaluated under the
paper's CMOS model; only the *limit chip* switches to the backend's
model and backend-adjusted Table V envelope (via the
``limit_model`` / ``limits_row`` hooks on
:func:`~repro.wall.limits.accelerator_wall`).  The per-tech CSR
decomposition, by contrast, asks the complementary counterfactual —
"what if these measured chips had been built in T?" — and evaluates
the whole population under the backend model.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

from repro.cmos.model import CmosPotentialModel
from repro.cmos.nodes import FINAL_NODE
from repro.errors import ProjectionError
from repro.memo import memo
from repro.tech.base import TechBackend, get_backend
from repro.tech.carbon import CarbonParams, backend_carbon
from repro.wall.limits import WallReport, _limits, accelerator_wall, domain_study
# The pace estimator is shared with `repro wall --whatif`; a private
# import keeps one definition of "historical annual gain rate".
from repro.wall.whatif import _annual_gain_rate

__all__ = [
    "WALL_METRICS",
    "wall_reports",
    "wall_projection_rows",
    "table5_rows",
    "csr_rows",
    "carbon_rows",
    "scenario_payload",
    "delta_payload",
]

WALL_METRICS = ("performance", "efficiency")


def _backend(tech: Union[str, TechBackend]) -> TechBackend:
    return tech if isinstance(tech, TechBackend) else get_backend(tech)


def wall_reports(tech: Union[str, TechBackend]) -> Tuple[WallReport, ...]:
    """Figs 15-16 wall reports with the limit chip built in *tech*.

    Computed once per process per backend (:mod:`repro.memo`).
    """
    backend = _backend(tech)
    return memo(
        ("tech.wall_reports",) + backend.memo_key(),
        lambda: _build_wall_reports(backend),
    )


def _build_wall_reports(backend: TechBackend) -> Tuple[WallReport, ...]:
    limit_model = backend.model()
    reports = []
    for domain, row in _limits().items():
        candidates = backend.wall_limit_candidates(row)
        for metric in WALL_METRICS:
            # A backend may offer several buildable envelopes (e.g.
            # chiplet: monolithic vs. disaggregated); the wall is the
            # best design, judged by the physical limit the shared
            # frontier fits are evaluated at.
            best = max(
                (
                    accelerator_wall(
                        domain,
                        None,  # history and baseline stay CMOS
                        metric,
                        limits_row=candidate,
                        limit_model=limit_model,
                    )
                    for candidate in candidates
                ),
                key=lambda report: report.physical_limit,
            )
            reports.append(best)
    return tuple(reports)


def wall_projection_rows(tech: Union[str, TechBackend]) -> List[Dict[str, object]]:
    """Per-tech Figs 15-16 rows (same shape as the ``fig15_16`` artifact)."""
    return [
        {
            "domain": report.domain,
            "metric": report.metric,
            "unit": report.gain_unit,
            "current_best": report.current_best,
            "physical_limit": report.physical_limit,
            "projected_log": report.projected_log,
            "projected_linear": report.projected_linear,
            "headroom": report.headroom,
        }
        for report in wall_reports(tech)
    ]


def table5_rows(tech: Union[str, TechBackend]) -> List[Dict[str, object]]:
    """Table V as *tech* sees it (post ``wall_limits``, with die split)."""
    backend = _backend(tech)
    rows = []
    for row in _limits().values():
        effective = backend.wall_limits(row)
        rows.append(
            {
                "domain": effective.domain,
                "platform": effective.platform.value,
                "min_die_mm2": effective.min_die_mm2,
                "max_die_mm2": effective.max_die_mm2,
                "tdp_w": effective.tdp_w,
                "frequency_mhz": effective.frequency_mhz,
                "die_count": backend.die_count(effective.max_die_mm2),
            }
        )
    return rows


def csr_rows(tech: Union[str, TechBackend]) -> Dict[str, Dict[str, object]]:
    """Per-study CSR decomposition with every chip evaluated under *tech*."""
    backend = _backend(tech)
    model = backend.model()
    out: Dict[str, Dict[str, object]] = {}
    for domain in _limits():
        study = domain_study(domain)
        out[domain] = {
            "study": study.name,
            "summary": study.summary(model),
            "performance": study.performance_series(model).to_rows(),
            "efficiency": study.efficiency_series(model).to_rows(),
        }
    return out


def carbon_rows(
    tech: Union[str, TechBackend],
    params: CarbonParams = CarbonParams(),
) -> Dict[str, Dict[str, float]]:
    """Carbon overlay for each domain's limit chip built in *tech*."""
    backend = _backend(tech)
    model = backend.model()
    out: Dict[str, Dict[str, float]] = {}
    for domain, row in _limits().items():
        effective = backend.wall_limits(row)
        gains = model.evaluate(
            FINAL_NODE,
            effective.frequency_mhz,
            area_mm2=effective.max_die_mm2,
            tdp_w=effective.tdp_w if effective.limit_cap is not None else None,
            cap_mode=effective.limit_cap or "analytic",
        )
        report = backend_carbon(
            backend, FINAL_NODE, effective.max_die_mm2, gains.power_w, params
        )
        row_dict = report.to_dict()
        row_dict["throughput"] = gains.throughput
        row_dict["gco2e_per_throughput"] = (
            report.total_gco2e / gains.throughput if gains.throughput > 0 else 0.0
        )
        out[domain] = row_dict
    return out


def scenario_payload(tech: Union[str, TechBackend]) -> Dict[str, object]:
    """The full per-tech scenario artifact (``tech_<name>``)."""
    backend = _backend(tech)
    return {
        "tech": backend.to_dict(),
        "table5": table5_rows(backend),
        "wall": wall_projection_rows(backend),
        "csr": csr_rows(backend),
        "carbon": carbon_rows(backend),
    }


def _domain_pace(domain: str) -> Optional[float]:
    """Historical compound annual performance gain for *domain* (CMOS)."""
    study = domain_study(domain)
    try:
        rate, _ = _annual_gain_rate(study, CmosPotentialModel.paper())
    except ProjectionError:
        return None
    return rate if rate > 1.0 else None


def delta_payload(tech: Union[str, TechBackend]) -> Dict[str, object]:
    """Cross-tech delta artifact: how far the wall moves vs. ``cmos``.

    Wall shifts are reported as ratios (``projected_*_ratio``) and, for
    the performance metric, as years of progress at the domain's
    historical compound gain rate (``wall_shift_years_*``) — a shifted
    wall worth a 2x higher projection buys ``log(2)/log(rate)`` extra
    years at that pace.
    """
    backend = _backend(tech)
    baseline = {
        (r.domain, r.metric): r for r in wall_reports("cmos")
    }
    rows: List[Dict[str, object]] = []
    summary: List[str] = []
    paces: Dict[str, Optional[float]] = {}
    for report in wall_reports(backend):
        base = baseline[(report.domain, report.metric)]
        log_ratio = report.projected_log / base.projected_log
        linear_ratio = report.projected_linear / base.projected_linear
        years_log = years_linear = None
        if report.metric == "performance":
            if report.domain not in paces:
                paces[report.domain] = _domain_pace(report.domain)
            pace = paces[report.domain]
            if pace is not None:
                years_log = math.log(log_ratio) / math.log(pace)
                years_linear = math.log(linear_ratio) / math.log(pace)
        rows.append(
            {
                "domain": report.domain,
                "metric": report.metric,
                "unit": report.gain_unit,
                "physical_limit_ratio": report.physical_limit / base.physical_limit,
                "projected_log_ratio": log_ratio,
                "projected_linear_ratio": linear_ratio,
                "wall_shift_years_log": years_log,
                "wall_shift_years_linear": years_linear,
            }
        )
        line = (
            f"{report.domain}/{report.metric}: wall moves "
            f"{log_ratio:.3g}x (log) / {linear_ratio:.3g}x (linear) "
            f"under {backend.name}"
        )
        if years_linear is not None:
            line += f", ~{years_linear:+.1f} years at the historical pace"
        summary.append(line)
    return {
        "tech": backend.name,
        "baseline": "cmos",
        "param_hash": backend.param_hash(),
        "rows": rows,
        "summary": summary,
    }
