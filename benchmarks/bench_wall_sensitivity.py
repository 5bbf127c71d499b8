"""Ablation: sensitivity of the accelerator wall to Table V assumptions.

Perturbs each domain's assumed end-of-scaling die size and power budget by
2x in both directions and reports how far the projected headroom band can
move — quantifying the robustness of the Section VII conclusions.
"""

from conftest import emit

from repro.reporting.tables import render_rows
from repro.wall.limits import _limits
from repro.wall.sensitivity import headroom_spread, wall_sensitivity


def test_wall_sensitivity_all_domains(benchmark, paper_model):
    def run():
        rows = []
        for domain in _limits():
            for metric in ("performance", "efficiency"):
                points = wall_sensitivity(domain, paper_model, metric=metric)
                nominal = next(
                    p for p in points
                    if p.die_scale == 1.0 and p.tdp_scale == 1.0
                )
                low, high = headroom_spread(points)
                rows.append(
                    {
                        "domain": domain,
                        "metric": metric,
                        "nominal": f"{nominal.headroom_low:.1f}-"
                                   f"{nominal.headroom_high:.1f}x",
                        "across_2x_perturbations": f"{low:.1f}-{high:.1f}x",
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Wall sensitivity to Table V parameters (die, TDP +/-2x)",
        render_rows(rows),
    )
    for row in rows:
        assert "x" in row["across_2x_perturbations"]
