"""Tests for the "does the wall move?" scenario engine.

Acceptance properties from the issue: the ``cmos`` scenario is
bit-identical to the base Figs 15-16 artifact, and every non-CMOS
built-in produces wall projections plus a nonzero cross-tech delta.
"""

import math

import pytest

from repro.tech import backend_names, get_backend
from repro.tech.scenarios import (
    WALL_METRICS,
    carbon_rows,
    csr_rows,
    delta_payload,
    scenario_payload,
    table5_rows,
    wall_projection_rows,
)
from repro.wall.limits import _limits

NON_CMOS = tuple(n for n in ("finfet", "tfet", "chiplet") if n in backend_names())


class TestCmosOracle:
    def test_cmos_rows_bit_identical_to_fig15_16_artifact(self):
        from repro.reporting.figures import fig15_16_projections

        assert wall_projection_rows("cmos") == fig15_16_projections()

    def test_cmos_delta_is_exactly_unity(self):
        payload = delta_payload("cmos")
        for row in payload["rows"]:
            assert row["physical_limit_ratio"] == 1.0
            assert row["projected_log_ratio"] == 1.0
            assert row["projected_linear_ratio"] == 1.0


class TestWallProjections:
    @pytest.mark.parametrize("tech", NON_CMOS)
    def test_full_domain_metric_grid(self, tech):
        rows = wall_projection_rows(tech)
        keys = {(r["domain"], r["metric"]) for r in rows}
        assert keys == {
            (domain, metric)
            for domain in _limits()
            for metric in WALL_METRICS
        }
        for row in rows:
            assert math.isfinite(row["physical_limit"]) and row["physical_limit"] > 0
            assert row["projected_log"] >= row["current_best"]
            assert row["projected_linear"] >= row["current_best"]

    @pytest.mark.parametrize("tech", NON_CMOS)
    def test_delta_payload_is_nonzero_somewhere(self, tech):
        payload = delta_payload(tech)
        assert payload["tech"] == tech
        assert payload["baseline"] == "cmos"
        assert len(payload["param_hash"]) == 64
        ratios = [
            row[key]
            for row in payload["rows"]
            for key in (
                "physical_limit_ratio",
                "projected_log_ratio",
                "projected_linear_ratio",
            )
        ]
        assert all(math.isfinite(r) and r > 0 for r in ratios)
        # "does the wall move?" — yes, somewhere, for every non-CMOS tech.
        assert any(abs(r - 1.0) > 1e-6 for r in ratios)
        assert len(payload["summary"]) == len(payload["rows"])
        assert all(tech in line for line in payload["summary"])

    def test_wall_shift_years_follow_the_ratio_sign(self):
        payload = delta_payload("tfet")
        for row in payload["rows"]:
            years = row["wall_shift_years_linear"]
            if row["metric"] != "performance":
                assert years is None
                continue
            if years is None:
                continue  # domain without a usable historical pace
            ratio = row["projected_linear_ratio"]
            assert (years > 0) == (ratio > 1.0) or ratio == 1.0


class TestScenarioPayload:
    @pytest.mark.parametrize("tech", NON_CMOS)
    def test_payload_shape(self, tech):
        payload = scenario_payload(tech)
        assert payload["tech"]["name"] == tech
        assert {r["domain"] for r in payload["table5"]} == set(_limits())
        assert set(payload["csr"]) == set(_limits())
        assert set(payload["carbon"]) == set(_limits())

    def test_table5_carries_die_counts(self):
        rows = {r["domain"]: r for r in table5_rows("chiplet")}
        assert all(r["die_count"] >= 1 for r in rows.values())
        # Lifted GPU/ASIC envelopes exceed one reticle -> a real split.
        assert rows["gaming_graphics"]["die_count"] > 1
        assert rows["bitcoin_mining"]["die_count"] > 1

    def test_csr_rows_cover_both_metrics(self):
        rows = csr_rows("finfet")
        for block in rows.values():
            assert block["performance"] and block["efficiency"]
            for point in block["performance"]:
                assert set(point) == {
                    "name", "node_nm", "year", "gain", "physical", "csr"
                }

    @pytest.mark.parametrize("tech", ("cmos",) + NON_CMOS)
    def test_carbon_prices_the_performance_limit_chip(self, tech):
        # Carbon and the wall share one limit chip, on the backend's
        # wall_limits envelope.
        backend = get_backend(tech)
        for domain, row in carbon_rows(tech).items():
            effective = backend.wall_limits(_limits()[domain])
            chip = effective.limit_chip(backend.model(), "performance")
            assert row["throughput"] == chip.throughput
            assert row["power_w"] == chip.power_w
            assert row["area_mm2"] == effective.max_die_mm2

    @pytest.mark.parametrize("tech", ("cmos",) + NON_CMOS)
    def test_carbon_rows_physical(self, tech):
        for domain, row in carbon_rows(tech).items():
            assert row["total_gco2e"] == pytest.approx(
                row["embodied_gco2e"] + row["operational_gco2e"]
            )
            assert row["embodied_gco2e"] > 0
            assert row["operational_gco2e"] >= 0
            assert row["gco2e_per_throughput"] >= 0
