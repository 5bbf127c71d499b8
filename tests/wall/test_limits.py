"""Tests for the accelerator-wall projections (Figs 15-16, Table V)."""

import pytest

from repro.errors import ProjectionError
from repro.tech.base import backend_names
from repro.tech.scenarios import wall_reports
from repro.wall.limits import accelerator_wall, wall_report_all_domains


@pytest.fixture(scope="module")
def reports(paper_model):
    return {(r.domain, r.metric): r for r in wall_report_all_domains(paper_model)}


class TestWallMechanics:
    def test_all_domains_and_metrics_covered(self, reports):
        domains = {
            "video_decoding", "gaming_graphics", "convolutional_nn",
            "bitcoin_mining",
        }
        assert {d for d, _ in reports} == domains
        assert {m for _, m in reports} == {"performance", "efficiency"}

    def test_unknown_domain_rejected(self, paper_model):
        with pytest.raises(ProjectionError):
            accelerator_wall("quantum", paper_model)

    def test_unknown_metric_rejected(self, paper_model):
        with pytest.raises(ProjectionError):
            accelerator_wall("video_decoding", paper_model, metric="latency")

    def test_projections_never_below_current_best(self, reports):
        for report in reports.values():
            assert report.projected_linear >= report.current_best
            assert report.projected_log >= report.current_best

    def test_headroom_ordered(self, reports):
        for report in reports.values():
            low, high = report.headroom
            assert 1.0 <= low <= high

    def test_linear_bound_at_least_log_bound(self, reports):
        for report in reports.values():
            assert report.projected_linear >= report.projected_log * 0.999

    def test_physical_limit_beyond_current_frontier(self, reports):
        # The 5nm wall lies beyond today's chips in every domain.
        for report in reports.values():
            assert report.physical_limit > 1.0

    @pytest.mark.parametrize("tech", [None] + backend_names())
    def test_each_metric_carries_its_own_unit(self, paper_model, tech):
        # An efficiency wall's gain is per joule, in the unit of its
        # study's efficiency metric; a performance wall's is per second
        # (bitcoin's per second and mm^2).
        walls = (
            wall_report_all_domains(paper_model)
            if tech is None
            else wall_reports(tech)
        )
        units = {(r.domain, r.metric): r.gain_unit for r in walls}
        assert units == {
            ("video_decoding", "performance"): "MPixels/s",
            ("video_decoding", "efficiency"): "MPixels/J",
            ("gaming_graphics", "performance"): "frames/s",
            ("gaming_graphics", "efficiency"): "frames/J",
            ("convolutional_nn", "performance"): "GOP/s",
            ("convolutional_nn", "efficiency"): "GOP/J",
            ("bitcoin_mining", "performance"): "GHash/s/mm^2",
            ("bitcoin_mining", "efficiency"): "GHash/J",
        }

    def test_describe(self, reports):
        text = reports[("video_decoding", "performance")].describe()
        assert "video_decoding" in text and "headroom" in text


class TestPaperHeadrooms:
    """Paper Section VII: projected remaining improvements per domain.

    Bands are widened around the paper's reported ranges (video 3-130x /
    1.2-14x, GPU 1.4-2.5x / 1.4-1.7x, CNN 2.1-3.4x / 2.7-3.5x, Bitcoin
    2-20x / 1.4-5x) — see EXPERIMENTS.md for the measured values.
    """

    def test_video_performance_headroom(self, reports):
        low, high = reports[("video_decoding", "performance")].headroom
        assert 1.2 <= low <= 6
        assert 50 <= high <= 200

    def test_video_efficiency_headroom(self, reports):
        low, high = reports[("video_decoding", "efficiency")].headroom
        assert 1.1 <= low <= 3
        assert 3 <= high <= 16

    def test_gpu_performance_headroom(self, reports):
        low, high = reports[("gaming_graphics", "performance")].headroom
        assert 1.1 <= low <= 2.0
        assert 2.0 <= high <= 4.5

    def test_gpu_efficiency_headroom(self, reports):
        low, high = reports[("gaming_graphics", "efficiency")].headroom
        assert 1.2 <= low <= 2.2
        assert 2.0 <= high <= 4.5

    def test_cnn_performance_headroom(self, reports):
        low, high = reports[("convolutional_nn", "performance")].headroom
        assert 1.5 <= low <= 3.0
        assert 3.0 <= high <= 9.0

    def test_cnn_efficiency_headroom(self, reports):
        low, high = reports[("convolutional_nn", "efficiency")].headroom
        assert 2.0 <= low <= 3.5
        assert 4.0 <= high <= 9.0

    def test_bitcoin_performance_headroom(self, reports):
        low, high = reports[("bitcoin_mining", "performance")].headroom
        assert 1.0 <= low <= 3.0
        assert 5.0 <= high <= 25.0

    def test_bitcoin_efficiency_headroom(self, reports):
        low, high = reports[("bitcoin_mining", "efficiency")].headroom
        assert 1.0 <= low <= 2.5
        assert 2.0 <= high <= 8.0

    def test_performance_headroom_exceeds_efficiency_headroom(self, reports):
        # "performance has a promising trajectory ... energy efficiency is
        # not projected to improve at the same rate" (linear bounds).
        for domain in ("video_decoding", "convolutional_nn", "bitcoin_mining"):
            perf_high = reports[(domain, "performance")].headroom[1]
            eff_high = reports[(domain, "efficiency")].headroom[1]
            assert perf_high >= eff_high
