"""Figure regeneration: one function per paper figure.

Every function returns the plotted data series as plain Python structures so
callers (benchmarks, notebooks, tests) can print, assert on, or re-plot them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cmos.model import CmosPotentialModel
from repro.cmos.scaling import default_scaling_table


def _model(model: Optional[CmosPotentialModel]) -> CmosPotentialModel:
    return model if model is not None else CmosPotentialModel.paper()


# -- Section III: the CMOS potential model -----------------------------------


def fig3a_device_scaling() -> Dict[str, Dict[float, float]]:
    """Fig 3a: relative device scaling, 45nm..5nm, normalised to 45nm."""
    return default_scaling_table().fig3a_series()


def fig3b_transistor_density(
    model: Optional[CmosPotentialModel] = None,
) -> Dict[str, object]:
    """Fig 3b: the transistor-count-vs-density-factor power law."""
    fit = _model(model).density_fit
    sample_densities = [0.01, 0.1, 1.0, 10.0, 30.0, 100.0]
    return {
        "coefficient": fit.coefficient,
        "exponent": fit.exponent,
        "equation": fit.describe(),
        "curve": {d: fit.transistors(d) for d in sample_densities},
    }


def fig3c_tdp_budget(
    model: Optional[CmosPotentialModel] = None,
    tdps_w: Sequence[float] = (24.0, 60.0, 120.0, 300.0, 600.0),
) -> Dict[str, object]:
    """Fig 3c: per-era transistor-budget power laws and sample curves."""
    tdp_model = _model(model).tdp_model
    return {
        "fits": [fit.describe() for fit in tdp_model.fits],
        "curves": {
            fit.era.name: {tdp: fit.budget_product(tdp) for tdp in tdps_w}
            for fit in tdp_model.fits
        },
    }


def fig3d_chip_gains(
    model: Optional[CmosPotentialModel] = None,
) -> Dict[tuple, Dict[str, float]]:
    """Fig 3d: relative throughput / energy efficiency over the node x die
    x TDP-zone grid at 1GHz."""
    return _model(model).fig3d_grid()


# -- Section IV: case studies ---------------------------------------------------


def fig1_bitcoin_evolution(
    model: Optional[CmosPotentialModel] = None,
) -> List[Dict[str, float]]:
    """Fig 1: Bitcoin ASIC per-area performance vs transistor performance."""
    from repro.studies import bitcoin

    cmos = _model(model)
    series = bitcoin.asic_study().performance_series(cmos)
    return [
        {
            "name": p.name,
            "node_nm": p.node_nm,
            "performance": p.gain,
            "transistor_performance": p.physical,
            "csr": p.csr,
        }
        for p in series
    ]


def fig4_video_decoders(
    model: Optional[CmosPotentialModel] = None,
) -> Dict[str, List[Dict[str, float]]]:
    """Fig 4: decoder ASIC performance, hardware budget, energy efficiency."""
    from repro.studies import video_decoders

    cmos = _model(model)
    study = video_decoders.study()
    perf = study.performance_series(cmos).sorted_by_gain()
    eff = study.efficiency_series(cmos).sorted_by_gain()
    budget = [
        {
            "name": chip.spec.name,
            "transistors": chip.spec.transistors,
            "frequency_mhz": chip.spec.frequency_mhz,
        }
        for chip in study.chips
    ]
    def rows(series):
        return [
            {"name": p.name, "gain": p.gain, "csr": p.csr, "node_nm": p.node_nm}
            for p in series
        ]
    return {"performance": rows(perf), "budget": budget, "efficiency": rows(eff)}


def fig5_gpu_frame_rates(
    model: Optional[CmosPotentialModel] = None,
) -> Dict[str, Dict[str, List[Dict[str, float]]]]:
    """Fig 5: per-application GPU frame-rate and frames/J series with CSR."""
    from repro.studies import gpu_graphics

    cmos = _model(model)
    result: Dict[str, Dict[str, List[Dict[str, float]]]] = {}
    for app, _base in gpu_graphics.APPS:
        study = gpu_graphics.study(app)
        perf = study.performance_series(cmos)
        eff = study.efficiency_series(cmos)
        result[app] = {
            "performance": [
                {"name": p.name, "year": p.year, "gain": p.gain, "csr": p.csr}
                for p in perf
            ],
            "efficiency": [
                {"name": p.name, "year": p.year, "gain": p.gain, "csr": p.csr}
                for p in eff
            ],
        }
    return result


def fig6_7_architecture_scaling(
    model: Optional[CmosPotentialModel] = None,
) -> List[Dict[str, float]]:
    """Figs 6-7: per-architecture absolute gain (vs Tesla) and CSR."""
    from repro.studies import gpu_graphics

    cmos = _model(model)
    relations = gpu_graphics.architecture_relations(cmos)
    csr = gpu_graphics.architecture_csr(cmos)
    nodes = gpu_graphics.architecture_nodes()
    return [
        {
            "architecture": arch,
            "node_nm": nodes[arch],
            "gain_vs_tesla": relations.gain(arch, "Tesla"),
            "csr": csr[arch],
        }
        for arch in relations.architectures
    ]


def fig8_fpga_cnn(
    model: Optional[CmosPotentialModel] = None,
) -> Dict[str, Dict[str, object]]:
    """Fig 8: FPGA CNN performance/efficiency/utilisation for both models."""
    from repro.studies import fpga_cnn

    cmos = _model(model)
    result: Dict[str, Dict[str, object]] = {}
    for cnn in ("alexnet", "vgg16"):
        study = fpga_cnn.study(cnn)
        perf = study.performance_series(cmos).sorted_by_gain()
        eff = study.efficiency_series(cmos).sorted_by_gain()
        result[cnn] = {
            "performance": [
                {"name": p.name, "gain": p.gain, "csr": p.csr} for p in perf
            ],
            "efficiency": [
                {"name": p.name, "gain": p.gain, "csr": p.csr} for p in eff
            ],
            "utilization": fpga_cnn.utilization_table(cnn),
        }
    return result


def fig9_bitcoin_platforms(
    model: Optional[CmosPotentialModel] = None,
) -> Dict[str, List[Dict[str, float]]]:
    """Fig 9: mining gains and CSR across CPU/GPU/FPGA/ASIC platforms."""
    from repro.studies import bitcoin

    cmos = _model(model)
    study = bitcoin.study()
    perf = study.performance_series(cmos)
    eff = study.efficiency_series(cmos)
    def rows(series):
        return [
            {"name": p.name, "node_nm": p.node_nm, "gain": p.gain, "csr": p.csr}
            for p in series
        ]
    return {"performance": rows(perf), "efficiency": rows(eff)}


# -- Section VI: design-space exploration -----------------------------------------


def fig13_stencil_sweep(engine=None) -> List[Dict[str, float]]:
    """Fig 13: 3D-stencil design points in the runtime-power space.

    Sweeps the full Table III grid on *engine* (a
    :class:`repro.accel.engine.SweepEngine`; default: serial and uncached),
    whose ``last_stats`` then reflect this figure.
    """
    from repro.accel.engine import SweepEngine
    from repro.accel.sweep import default_design_grid
    from repro.workloads import get_workload

    if engine is None:
        engine = SweepEngine()
    kernel = engine.trace(get_workload("S3D"))
    result = engine.sweep(kernel, default_design_grid())
    return [
        {
            "node_nm": r.design.node_nm,
            "partition": r.design.partition,
            "simplification": r.design.simplification,
            "runtime_s": r.runtime_s,
            "power_w": r.power_w,
            "energy_efficiency": r.energy_efficiency,
        }
        for r in result
    ]


def fig14_gain_attribution(
    metric: str = "throughput",
    workload_abbrevs: Optional[Sequence[str]] = None,
    engine=None,
) -> List[Dict[str, object]]:
    """Fig 14: per-kernel gain attribution across specialization concepts.

    Kernels are traced and attributed over the full Table III grid on
    *engine* (a :class:`repro.accel.engine.SweepEngine`; default: serial
    and uncached), with identical values for any ``jobs``.
    """
    from repro.accel.engine import SweepEngine
    from repro.workloads import WORKLOADS, get_workload

    workloads = (
        [get_workload(a) for a in workload_abbrevs]
        if workload_abbrevs is not None
        else list(WORKLOADS)
    )
    if engine is None:
        engine = SweepEngine()
    attributions = engine.attribute_all(
        [engine.trace(workload) for workload in workloads],
        metric=metric,
    )
    return [
        {
            "workload": workload.abbrev,
            "total_gain": attribution.total_gain,
            "csr": attribution.csr,
            "shares": attribution.shares,
        }
        for workload, attribution in zip(workloads, attributions)
    ]


# -- Section VII: the accelerator wall ----------------------------------------------


def fig15_16_projections(
    model: Optional[CmosPotentialModel] = None,
) -> List[Dict[str, object]]:
    """Figs 15-16: per-domain wall projections, both metrics."""
    from repro.wall.limits import fig15_16_row, wall_report_all_domains

    reports = wall_report_all_domains(_model(model))
    return [fig15_16_row(report) for report in reports]


def fig15_16_tech_projections(tech: str) -> List[Dict[str, object]]:
    """Figs 15-16 re-run with the limit chip built under technology *tech*.

    History (the measured scatter and the frontier fits) stays CMOS;
    see :mod:`repro.tech.scenarios` for the modeling stance.  For
    ``tech="cmos"`` the rows are bit-identical to
    :func:`fig15_16_projections`.
    """
    from repro.tech.scenarios import wall_projection_rows

    return wall_projection_rows(tech)
