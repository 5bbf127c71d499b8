"""Tests for figure-series regeneration."""

import pytest

from repro.reporting import figures


class TestCmosFigures:
    def test_fig3a_panels(self):
        series = figures.fig3a_device_scaling()
        assert len(series) == 5
        for panel in series.values():
            assert len(panel) == 6

    def test_fig3b_equation_and_curve(self, paper_model):
        data = figures.fig3b_transistor_density(paper_model)
        assert data["coefficient"] == pytest.approx(4.99e9)
        assert data["curve"][30.0] > data["curve"][0.01]

    def test_fig3c_four_eras(self, paper_model):
        data = figures.fig3c_tdp_budget(paper_model)
        assert len(data["fits"]) == 4
        for curve in data["curves"].values():
            values = [curve[t] for t in sorted(curve)]
            assert values == sorted(values)  # more TDP, more budget

    def test_fig3d_grid(self, paper_model):
        grid = figures.fig3d_chip_gains(paper_model)
        assert len(grid) == 6 * 6 * 4
        assert grid[(45.0, 25.0, None)]["throughput"] == pytest.approx(1.0)


class TestStudyFigures:
    def test_fig1_rows(self, paper_model):
        rows = figures.fig1_bitcoin_evolution(paper_model)
        assert len(rows) == 12
        assert rows[0]["performance"] == pytest.approx(1.0)
        assert rows[-1]["performance"] > 100

    def test_fig4_sections(self, paper_model):
        data = figures.fig4_video_decoders(paper_model)
        assert set(data) == {"performance", "budget", "efficiency"}
        assert len(data["performance"]) == 12
        # sorted ascending like the figure
        gains = [r["gain"] for r in data["performance"]]
        assert gains == sorted(gains)

    def test_fig5_all_apps(self, paper_model):
        data = figures.fig5_gpu_frame_rates(paper_model)
        assert len(data) == 5
        for app_data in data.values():
            assert len(app_data["performance"]) >= 10

    def test_fig6_7_rows(self, paper_model):
        rows = figures.fig6_7_architecture_scaling(paper_model)
        assert len(rows) == 10
        tesla = next(r for r in rows if r["architecture"] == "Tesla")
        assert tesla["gain_vs_tesla"] == pytest.approx(1.0)

    def test_fig8_both_models(self, paper_model):
        data = figures.fig8_fpga_cnn(paper_model)
        assert set(data) == {"alexnet", "vgg16"}
        assert len(data["alexnet"]["utilization"]) == 11

    def test_fig9_sections(self, paper_model):
        data = figures.fig9_bitcoin_platforms(paper_model)
        assert len(data["performance"]) == 21
        assert max(r["gain"] for r in data["performance"]) > 1e5


class TestDseFigures:
    def test_fig13_reduced_sweep(self):
        rows = figures.fig13_stencil_sweep()
        assert len(rows) == 7 * 20 * 13  # the Table III grid
        # CMOS advancement reduces power at equal design point.
        by_key = {
            (r["node_nm"], r["partition"], r["simplification"]): r for r in rows
        }
        assert by_key[(5.0, 16, 1)]["power_w"] < by_key[(45.0, 16, 1)]["power_w"]
        # Partitioning improves runtime.
        assert by_key[(45.0, 256, 1)]["runtime_s"] < by_key[(45.0, 1, 1)]["runtime_s"]

    def test_fig14_reduced(self):
        rows = figures.fig14_gain_attribution(
            metric="throughput", workload_abbrevs=("TRD", "RED")
        )
        assert len(rows) == 2
        for row in rows:
            assert row["total_gain"] > 1
            assert sum(row["shares"].values()) == pytest.approx(100.0)


class TestWallFigure:
    def test_fig15_16_rows(self, paper_model):
        rows = figures.fig15_16_projections(paper_model)
        assert len(rows) == 8
        for row in rows:
            assert row["projected_linear"] >= row["current_best"]
            low, high = row["headroom"]
            assert low <= high
