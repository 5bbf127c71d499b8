"""Tests for the curated seed and the synthetic population generator."""

import dataclasses
import functools

import pytest

from repro.datasheets import curated, reference, synthetic
from repro.datasheets.schema import Category
from repro.datasheets.synthetic import (
    SyntheticPopulationConfig,
    synthetic_database,
)


class TestCurated:
    def test_population_size(self, curated_db):
        assert len(curated_db) >= 80

    def test_both_categories_present(self, curated_db):
        assert len(curated_db.category(Category.CPU)) >= 40
        assert len(curated_db.category(Category.GPU)) >= 40

    def test_all_have_area_and_transistors(self, curated_db):
        assert len(curated_db.with_area()) == len(curated_db)
        assert len(curated_db.with_transistors()) == len(curated_db)

    def test_known_chip_sanity(self, curated_db):
        v100 = curated_db.get("Tesla V100")
        assert v100.node_nm == 12.0
        assert v100.transistors == pytest.approx(21.1e9)

    def test_names_unique(self, curated_db):
        names = curated_db.names()
        assert len(names) == len(set(names))

    def test_years_span_two_decades(self, curated_db):
        years = [c.year for c in curated_db]
        assert min(years) <= 2002 and max(years) >= 2017


class TestSyntheticConfig:
    def test_rejects_bad_chip_count(self):
        with pytest.raises(ValueError):
            SyntheticPopulationConfig(chips_per_era=0)

    def test_rejects_bad_gpu_fraction(self):
        with pytest.raises(ValueError):
            SyntheticPopulationConfig(gpu_fraction=1.5)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            SyntheticPopulationConfig(tc_noise_sigma=-0.1)


class TestSyntheticGeneration:
    def test_deterministic(self):
        config = SyntheticPopulationConfig(chips_per_era=30, seed=11)
        a = synthetic_database(config)
        b = synthetic_database(config)
        assert [c.name for c in a] == [c.name for c in b]
        assert [c.tdp_w for c in a] == [c.tdp_w for c in b]

    def test_seed_changes_population(self):
        a = synthetic_database(SyntheticPopulationConfig(chips_per_era=30, seed=1))
        b = synthetic_database(SyntheticPopulationConfig(chips_per_era=30, seed=2))
        assert [c.tdp_w for c in a] != [c.tdp_w for c in b]

    def test_population_size(self, small_synthetic_db):
        assert len(small_synthetic_db) == 5 * 120

    def test_all_records_valid(self, small_synthetic_db):
        for chip in small_synthetic_db:
            assert chip.area_mm2 > 0
            assert 3.0 <= chip.tdp_w <= 900.0
            assert chip.transistors > 0
            assert 5.0 <= chip.node_nm <= 180.0

    def test_areas_within_reticle_limit(self, small_synthetic_db):
        for chip in small_synthetic_db:
            assert chip.area_mm2 <= 880.0 * 1.0001

    def test_gpu_fraction_roughly_respected(self, small_synthetic_db):
        gpus = len(small_synthetic_db.category(Category.GPU))
        fraction = gpus / len(small_synthetic_db)
        assert 0.3 < fraction < 0.5

    def test_years_track_nodes(self, small_synthetic_db):
        old = small_synthetic_db.filter(lambda c: c.node_nm >= 130)
        new = small_synthetic_db.filter(lambda c: c.node_nm <= 10)
        assert max(c.year for c in old) < min(c.year for c in new) + 10
        assert min(c.year for c in new) > 2015


class TestFitRobustness:
    def test_fits_stable_across_seeds(self):
        """Different random populations recover the same physical laws."""
        from repro.cmos.transistors import fit_transistor_count

        exponents = []
        for seed in (1, 42, 20190216):
            db = synthetic_database(
                SyntheticPopulationConfig(chips_per_era=150, seed=seed)
            )
            exponents.append(fit_transistor_count(db).exponent)
        spread = max(exponents) / min(exponents)
        assert spread < 1.05

    def test_tdp_fits_stable_across_seeds(self):
        from repro.cmos.tdp import fit_tdp_model

        coefficients = []
        for seed in (7, 77):
            db = synthetic_database(
                SyntheticPopulationConfig(chips_per_era=150, seed=seed)
            )
            model = fit_tdp_model(db)
            coefficients.append(model.era_fit(16).exponent)
        assert coefficients[0] == pytest.approx(coefficients[1], rel=0.2)


class TestReference:
    def test_reference_is_cached(self):
        from repro.datasheets.reference import reference_database

        assert reference_database() is reference_database()

    def test_reference_contains_curated_and_synthetic(self, reference_db):
        sources = {c.source for c in reference_db}
        assert sources == {"curated", "synthetic"}


def _one_curated_row(monkeypatch):
    first = dataclasses.replace(curated._CPUS[0], tdp_w=curated._CPUS[0].tdp_w + 1)
    monkeypatch.setattr(curated, "_CPUS", (first,) + curated._CPUS[1:])


def _one_config_field(monkeypatch):
    seed = SyntheticPopulationConfig().seed + 1
    monkeypatch.setattr(
        reference,
        "SyntheticPopulationConfig",
        functools.partial(SyntheticPopulationConfig, seed=seed),
    )


def _one_era_plan(monkeypatch):
    plans = synthetic._ERA_PLANS
    last = dataclasses.replace(plans[-1], tdp_w=(30, 801))
    monkeypatch.setattr(synthetic, "_ERA_PLANS", plans[:-1] + (last,))


def _one_node_year(monkeypatch):
    monkeypatch.setitem(synthetic._NODE_YEAR, 5, synthetic._NODE_YEAR[5] + 0.5)


def _reticle_limit(monkeypatch):
    monkeypatch.setattr(synthetic, "_MAX_AREA_MM2", synthetic._MAX_AREA_MM2 + 1)


class TestReferenceFingerprint:
    @pytest.mark.parametrize(
        "perturb",
        [
            _one_curated_row,
            _one_config_field,
            _one_era_plan,
            _one_node_year,
            _reticle_limit,
        ],
    )
    def test_follows_every_generator_input(self, monkeypatch, perturb):
        before = reference.reference_fingerprint()
        perturb(monkeypatch)
        assert reference.reference_fingerprint() != before
        monkeypatch.undo()
        assert reference.reference_fingerprint() == before
