"""Tests for the wall sensitivity analysis."""

import pytest

from repro.cmos.model import CmosPotentialModel
from repro.errors import ProjectionError
from repro.wall.limits import _limits, accelerator_wall, domain_limits
from repro.wall.sensitivity import headroom_spread, wall_sensitivity


@pytest.fixture(scope="module")
def sweep(paper_model):
    return wall_sensitivity(
        "convolutional_nn",
        paper_model,
        metric="performance",
        die_scales=(0.5, 1.0, 2.0),
        tdp_scales=(0.5, 1.0, 2.0),
    )


class TestSensitivity:
    def test_grid_size(self, sweep):
        assert len(sweep) == 9

    def test_unperturbed_point_matches_wall_report(self, sweep, paper_model):
        nominal = next(
            p for p in sweep if p.die_scale == 1.0 and p.tdp_scale == 1.0
        )
        report = accelerator_wall("convolutional_nn", paper_model)
        assert nominal.physical_limit == report.physical_limit
        assert (nominal.headroom_low, nominal.headroom_high) == report.headroom

    def test_bigger_die_never_reduces_physical_limit(self, sweep):
        by_scale = {}
        for p in sweep:
            if p.tdp_scale == 2.0:  # generous power: die is the binding limit
                by_scale[p.die_scale] = p.physical_limit
        assert by_scale[0.5] <= by_scale[1.0] <= by_scale[2.0]

    def test_more_power_never_reduces_physical_limit(self, sweep):
        by_scale = {}
        for p in sweep:
            if p.die_scale == 2.0:
                by_scale[p.tdp_scale] = p.physical_limit
        assert by_scale[0.5] <= by_scale[1.0] <= by_scale[2.0]

    def test_headroom_spread(self, sweep):
        low, high = headroom_spread(sweep)
        assert 1.0 <= low <= high

    def test_headroom_spread_empty_rejected(self):
        with pytest.raises(ValueError):
            headroom_spread([])

    def test_efficiency_metric_supported(self, paper_model):
        points = wall_sensitivity(
            "video_decoding", paper_model, metric="efficiency",
            die_scales=(1.0,), tdp_scales=(1.0,),
        )
        assert len(points) == 1
        assert points[0].headroom_low >= 1.0

    def test_frequency_scale_dimension(self, paper_model):
        points = wall_sensitivity(
            "gaming_graphics", paper_model,
            die_scales=(1.0,), tdp_scales=(1.0,),
            frequency_scales=(0.8, 1.0, 1.2),
        )
        assert len(points) == 3


@pytest.mark.parametrize("metric", ("performance", "efficiency"))
@pytest.mark.parametrize("domain", sorted(_limits()))
def test_point_is_the_wall_of_the_scaled_row(domain, metric, paper_model):
    # The what-if grid the serve_model benchmark draws: 4 die x 3 TDP x 3
    # clock scales, 288 keys over the 8 (domain, metric) pairs.
    die_scales, tdp_scales, frequency_scales = (
        (0.5, 1.0, 2.0, 4.0), (0.5, 1.0, 2.0), (0.75, 1.0, 1.5)
    )
    points = wall_sensitivity(
        domain, paper_model, metric=metric, die_scales=die_scales,
        tdp_scales=tdp_scales, frequency_scales=frequency_scales,
    )
    assert len(points) == 36
    row = _limits()[domain]
    for point in points:
        report = accelerator_wall(
            domain, paper_model, metric,
            limits_row=row.scaled(
                point.die_scale, point.tdp_scale, point.frequency_scale
            ),
        )
        assert point.physical_limit == report.physical_limit
        assert (point.headroom_low, point.headroom_high) == report.headroom


@pytest.mark.parametrize("tech", ("cmos", "tfet", "chiplet"))
def test_at_limits_equals_the_full_evaluation(tech):
    from repro.tech import get_backend

    backend = get_backend(tech)
    model = backend.model()
    for domain, row in _limits().items():
        for metric in ("performance", "efficiency"):
            wall = accelerator_wall(domain, None, metric)
            for candidate in backend.wall_limit_candidates(row):
                scaled = candidate.scaled(2.0, 0.5, 1.5)
                assert wall.at_limits(scaled, model) == accelerator_wall(
                    domain, None, metric, limits_row=scaled, limit_model=model
                )


def test_at_limits_rejects_another_domains_row(paper_model):
    wall = accelerator_wall("bitcoin_mining", paper_model)
    with pytest.raises(ProjectionError, match="video_decoding"):
        wall.at_limits(domain_limits("video_decoding"), paper_model)


def test_sweep_fits_once_and_evaluates_one_limit_chip_per_point(
    paper_model, monkeypatch
):
    import repro.wall.limits as limits

    fits, chips = [], []
    fit_projections = limits.fit_projections
    evaluate = CmosPotentialModel.evaluate

    def counting_fit(points):
        fits.append(points)
        return fit_projections(points)

    def counting_evaluate(self, *args, **kwargs):
        chips.append(args)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(limits, "fit_projections", counting_fit)
    monkeypatch.setattr(CmosPotentialModel, "evaluate", counting_evaluate)
    counts = []
    for scales in ((1.0,), (0.5, 1.0, 2.0)):
        fits.clear()
        chips.clear()
        wall_sensitivity(
            "bitcoin_mining", paper_model, die_scales=scales, tdp_scales=scales
        )
        assert len(fits) == 1
        counts.append(len(chips))
    # The wall itself costs the same either way; each point adds one chip.
    assert counts[1] - counts[0] == 9 - 1
