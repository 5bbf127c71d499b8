"""Ablation benches for the design choices DESIGN.md section 5 calls out.

1. Linear vs logarithmic frontier projection (Eq 5 vs Eq 6).
2. Transistor budget with vs without TDP capping (Fig 3d power zones).
3. Scheduler with vs without fusion (heterogeneity) and partitioning.
4. Synthetic vs curated-only datasheet population for the Fig 3b/3c fits.
"""

import pytest
from conftest import emit

from repro.accel.design import DesignPoint
from repro.accel.power import evaluate_design
from repro.cmos.transistors import fit_transistor_count
from repro.datasheets.curated import curated_database
from repro.datasheets.reference import reference_database
from repro.reporting.tables import render_rows
from repro.wall import wall_report_all_domains
from repro.workloads import s3d


def test_ablation_projection_models(benchmark, paper_model):
    reports = benchmark(wall_report_all_domains, paper_model)
    rows = [
        {
            "domain": r.domain,
            "metric": r.metric,
            "log_model": r.log_fit.describe(),
            "linear_model": r.linear_fit.describe(),
            "spread_x": r.projected_linear / r.projected_log,
        }
        for r in reports
    ]
    emit("Ablation: Eq 5 (linear) vs Eq 6 (log) projections", render_rows(rows))
    # The models bracket a real uncertainty band: linear >= log everywhere.
    for r in reports:
        assert r.projected_linear >= r.projected_log * 0.999


def test_ablation_tdp_capping(benchmark, paper_model):
    def both():
        capped = paper_model.evaluate(5, 1000, area_mm2=800, tdp_w=800)
        uncapped = paper_model.evaluate(5, 1000, area_mm2=800)
        return capped, uncapped

    capped, uncapped = benchmark(both)
    emit(
        "Ablation: TDP capping on an 800mm^2 5nm chip",
        f"uncapped active fraction {uncapped.active_fraction:.2f}, "
        f"capped {capped.active_fraction:.2f} -> throughput drops "
        f"{1 - capped.throughput / uncapped.throughput:.0%} "
        "(paper: ~70% under an 800W envelope)",
    )
    assert 0.5 <= 1 - capped.throughput / uncapped.throughput <= 0.85


@pytest.mark.parametrize(
    "label,design",
    [
        ("baseline (no concepts)", DesignPoint(5, 1, 1, heterogeneity=False)),
        ("partitioning only", DesignPoint(5, 256, 1, heterogeneity=False)),
        ("fusion only", DesignPoint(5, 1, 1, heterogeneity=True)),
        ("both", DesignPoint(5, 256, 1, heterogeneity=True)),
    ],
)
def test_ablation_scheduler_concepts(benchmark, label, design):
    kernel = s3d.build()
    report = benchmark.pedantic(
        evaluate_design, args=(kernel, design), rounds=1, iterations=1
    )
    emit(
        f"Ablation: scheduler [{label}]",
        f"{report.cycles} cycles, {report.runtime_s * 1e9:.1f} ns, "
        f"{report.power_w:.3f} W",
    )
    assert report.cycles > 0


def test_ablation_population_choice(benchmark):
    def fits():
        return (
            fit_transistor_count(curated_database()),
            fit_transistor_count(reference_database()),
        )

    curated_fit, full_fit = benchmark(fits)
    emit(
        "Ablation: Fig 3b fit population",
        f"curated-only: {curated_fit.describe()}\n"
        f"full population: {full_fit.describe()}",
    )
    # The fitted exponent is robust to the population choice within ~20%.
    assert curated_fit.exponent == pytest.approx(full_fit.exponent, rel=0.2)
