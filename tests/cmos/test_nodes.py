"""Unit tests for the process-node registry."""

import pytest

from repro.cmos.nodes import (
    CANONICAL_NODES,
    FINAL_NODE,
    NODE_ERAS_DENSITY,
    NODE_ERAS_TDP,
    NodeEra,
    density_factor,
    era_for_node,
    nodes_between,
    parse_node,
)
from repro.errors import UnknownNodeError


class TestParseNode:
    def test_parses_float(self):
        assert parse_node(28.0) == 28.0

    def test_parses_int(self):
        assert parse_node(45) == 45.0

    def test_parses_string_with_suffix(self):
        assert parse_node("28nm") == 28.0

    def test_parses_string_case_insensitive(self):
        assert parse_node("16NM") == 16.0

    def test_parses_string_with_spaces(self):
        assert parse_node(" 7 nm ") == 7.0

    def test_parses_fractional(self):
        assert parse_node("6.5nm") == 6.5

    def test_rejects_below_range(self):
        with pytest.raises(UnknownNodeError):
            parse_node(0.5)

    def test_rejects_above_range(self):
        with pytest.raises(UnknownNodeError):
            parse_node(300)

    @pytest.mark.parametrize("node", [3, 200, 300])
    def test_range_is_the_canonical_roadmap(self, node):
        with pytest.raises(UnknownNodeError) as excinfo:
            parse_node(node)
        assert excinfo.value.valid_range == (180.0, 5.0)

    def test_rejects_garbage_string(self):
        with pytest.raises(UnknownNodeError):
            parse_node("finfet")

    def test_rejects_negative(self):
        with pytest.raises(UnknownNodeError):
            parse_node(-28)

    def test_error_mentions_range(self):
        with pytest.raises(UnknownNodeError, match="5"):
            parse_node(1000)


class TestDensityFactor:
    def test_matches_definition(self):
        # A 100mm^2 die at 10nm: D = 100 / 100 = 1.0.
        assert density_factor(100.0, 10.0) == pytest.approx(1.0)

    def test_scales_linearly_with_area(self):
        assert density_factor(200.0, 10.0) == pytest.approx(
            2 * density_factor(100.0, 10.0)
        )

    def test_scales_inverse_square_with_node(self):
        assert density_factor(100.0, 5.0) == pytest.approx(
            4 * density_factor(100.0, 10.0)
        )

    def test_rejects_non_positive_area(self):
        with pytest.raises(ValueError):
            density_factor(0.0, 10.0)

    def test_accepts_string_node(self):
        assert density_factor(100.0, "10nm") == pytest.approx(1.0)


class TestNodeEra:
    def test_contains_inclusive_bounds(self):
        era = NodeEra("t", 20.0, 40.0)
        assert 20.0 in era and 40.0 in era and 28.0 in era

    def test_excludes_outside(self):
        era = NodeEra("t", 20.0, 40.0)
        assert 16.0 not in era and 45.0 not in era

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            NodeEra("t", 40.0, 20.0)

    def test_midpoint_is_geometric(self):
        era = NodeEra("t", 10.0, 40.0)
        assert era.midpoint_nm == pytest.approx(20.0)

    def test_contains_rejects_garbage(self):
        era = NodeEra("t", 20.0, 40.0)
        assert "junk" not in era


class TestEraLookup:
    def test_every_canonical_node_has_nearest_era(self):
        for node in CANONICAL_NODES:
            assert era_for_node(node) is not None

    def test_exact_membership(self):
        assert era_for_node(28).name == "32nm-28nm"
        assert era_for_node(5).name == "10nm-5nm"
        assert era_for_node(45).name == "55nm-40nm"

    def test_gap_maps_to_nearest(self):
        # 65nm sits above the 55-40 era; nearest is 55-40.
        assert era_for_node(65).name == "55nm-40nm"

    def test_gap_returns_none_when_strict(self):
        assert era_for_node(65, nearest=False) is None

    def test_density_eras_cover_expected_nodes(self):
        names = [era.name for era in NODE_ERAS_DENSITY]
        assert names == ["180nm-90nm", "80nm-45nm", "40nm-20nm", "16nm-12nm"]

    def test_tdp_eras_are_disjoint(self):
        for i, a in enumerate(NODE_ERAS_TDP):
            for b in NODE_ERAS_TDP[i + 1:]:
                assert a.newest_nm > b.oldest_nm or b.newest_nm > a.oldest_nm


class TestNodesBetween:
    def test_inclusive_and_sorted_oldest_first(self):
        assert nodes_between(45, 28) == (45.0, 40.0, 32.0, 28.0)

    def test_argument_order_does_not_matter(self):
        assert nodes_between(28, 45) == nodes_between(45, 28)

    def test_final_node_constant(self):
        assert FINAL_NODE == 5.0
        assert FINAL_NODE in CANONICAL_NODES
