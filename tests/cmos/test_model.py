"""Unit tests for the CmosPotentialModel facade."""

import subprocess
import sys

import pytest

from repro.cmos.model import CmosPotentialModel
from repro.datasheets.schema import Category, ChipSpec


@pytest.fixture(scope="module")
def spec_old():
    return ChipSpec(
        name="old", category=Category.ASIC, node_nm=45, area_mm2=100,
        frequency_mhz=1000, tdp_w=100,
    )


@pytest.fixture(scope="module")
def spec_new():
    return ChipSpec(
        name="new", category=Category.ASIC, node_nm=7, area_mm2=100,
        frequency_mhz=1500, tdp_w=100,
    )


class TestConstruction:
    def test_paper_model_uses_published_constants(self, paper_model):
        assert paper_model.density_fit.coefficient == pytest.approx(4.99e9)
        assert len(paper_model.tdp_model.fits) == 4

    def test_from_database(self, reference_db):
        model = CmosPotentialModel.from_database(reference_db)
        assert model.density_fit.n_points == len(reference_db)

    def test_reference_constructor(self):
        model = CmosPotentialModel.reference()
        assert model.density_fit.n_points > 1000

    def test_reference_is_fitted_once_per_process(self):
        # A fresh process, so the count starts from nothing refitted.
        code = """
import repro.cmos.model as model

fits = []
fit_transistor_count = model.fit_transistor_count

def counted(database):
    fits.append(database)
    return fit_transistor_count(database)

model.fit_transistor_count = counted
first = model.CmosPotentialModel.reference()
assert model.CmosPotentialModel.reference() is first
assert len(fits) == 1, len(fits)
"""
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr


class TestEvaluateSpec:
    def test_capped_by_default(self, paper_model, spec_new):
        capped = paper_model.evaluate_spec(spec_new)
        uncapped = paper_model.evaluate_spec(spec_new, capped=False)
        assert capped.gains.throughput <= uncapped.gains.throughput

    def test_empirical_mode_uses_fig3c_budget(self, paper_model, spec_new):
        physical = paper_model.evaluate_spec(spec_new, capped="empirical")
        budget = paper_model.active_budget(7, 100.0, 1500.0)
        expected = min(budget, physical.gains.potential_transistors)
        assert physical.gains.active_transistors == pytest.approx(expected)

    def test_empirical_uncapped_when_budget_generous(self, paper_model):
        tiny = ChipSpec(
            name="tiny", category=Category.ASIC, node_nm=28, area_mm2=3,
            frequency_mhz=300, tdp_w=0.1,
        )
        physical = paper_model.evaluate_spec(tiny, capped="empirical")
        assert not physical.gains.tdp_limited

    def test_bad_cap_mode_rejected(self, paper_model):
        with pytest.raises(ValueError):
            paper_model.evaluate(45, 1000, area_mm2=100, tdp_w=50, cap_mode="magic")

    def test_physical_chip_metric_passthrough(self, paper_model, spec_old):
        physical = paper_model.evaluate_spec(spec_old)
        assert physical.metric("throughput") == physical.gains.throughput
        assert physical.name == "old"


class TestPotentialGain:
    def test_newer_chip_has_physical_gain(self, paper_model, spec_old, spec_new):
        gain = paper_model.potential_gain(spec_new, spec_old)
        assert gain > 1.0

    def test_gain_antisymmetry(self, paper_model, spec_old, spec_new):
        forward = paper_model.potential_gain(spec_new, spec_old)
        backward = paper_model.potential_gain(spec_old, spec_new)
        assert forward * backward == pytest.approx(1.0)

    def test_gain_of_chip_over_itself_is_one(self, paper_model, spec_old):
        assert paper_model.potential_gain(spec_old, spec_old) == pytest.approx(1.0)

    def test_energy_metric_supported(self, paper_model, spec_old, spec_new):
        gain = paper_model.potential_gain(
            spec_new, spec_old, metric="energy_efficiency"
        )
        assert gain > 1.0


class TestFig3dGrid:
    def test_grid_dimensions(self, paper_model):
        grid = paper_model.fig3d_grid(
            nodes=(45, 16, 5), dies_mm2=(25, 100), tdp_zones_w=(50, None)
        )
        assert len(grid) == 3 * 2 * 2

    def test_normalisation_corner_is_unity(self, paper_model):
        grid = paper_model.fig3d_grid(
            nodes=(45, 5), dies_mm2=(25, 800), tdp_zones_w=(None,)
        )
        corner = grid[(45.0, 25.0, None)]
        assert corner["throughput"] == pytest.approx(1.0)
        assert corner["energy_efficiency"] == pytest.approx(1.0)

    def test_tdp_zone_never_beats_uncapped(self, paper_model):
        grid = paper_model.fig3d_grid(
            nodes=(45, 5), dies_mm2=(25, 800), tdp_zones_w=(50, None)
        )
        for node in (45.0, 5.0):
            for die in (25.0, 800.0):
                assert (
                    grid[(node, die, 50.0)]["throughput"]
                    <= grid[(node, die, None)]["throughput"] + 1e-9
                )
