"""Unit tests for the resource library."""

import pytest

from repro.accel.resources import (
    BASE_CLOCK_MHZ,
    PIPELINE_KNEE,
    OpClass,
    OpCosts,
    ResourceLibrary,
    op_class,
)
from repro.errors import InvalidDesignPointError, ValidationError


@pytest.fixture(scope="module")
def lib():
    return ResourceLibrary()


class TestOpClasses:
    def test_arithmetic_mapping(self):
        assert op_class("add") is OpClass.ALU
        assert op_class("mul") is OpClass.MULTIPLIER
        assert op_class("div") is OpClass.DIVIDER
        assert op_class("sqrt") is OpClass.DIVIDER
        assert op_class("sigmoid") is OpClass.SPECIAL
        assert op_class("load") is OpClass.MEMORY
        assert op_class("store") is OpClass.MEMORY
        assert op_class("fused") is OpClass.ALU

    def test_unknown_op_rejected(self):
        with pytest.raises(InvalidDesignPointError):
            op_class("teleport")

    def test_costs_ordering(self, lib):
        # Dividers are slower and hungrier than multipliers than ALUs.
        alu = lib.costs(OpClass.ALU)
        mul = lib.costs(OpClass.MULTIPLIER)
        div = lib.costs(OpClass.DIVIDER)
        assert alu.latency_cycles < mul.latency_cycles < div.latency_cycles
        assert alu.energy_nj < mul.energy_nj < div.energy_nj


class TestOpCosts:
    @pytest.mark.parametrize("latency", [0, -1, 1.5])
    def test_rejects_latency_below_one_cycle_or_fractional(self, latency):
        # A zero-latency library would schedule a kernel in 0 cycles and
        # divide by zero in PowerReport.throughput_ops.
        with pytest.raises(ValidationError, match="latency_cycles"):
            OpCosts(latency_cycles=latency, energy_nj=0.002, leakage_w_per_unit=1e-4)


class TestNodeScaling:
    def test_clock_at_reference(self, lib):
        assert lib.clock_mhz(45) == pytest.approx(BASE_CLOCK_MHZ)

    def test_clock_faster_at_newer_nodes(self, lib):
        assert lib.clock_mhz(5) > lib.clock_mhz(45) > lib.clock_mhz(180)

    def test_energy_scale_improves_with_node(self, lib):
        assert lib.energy_scale(5, 1) < lib.energy_scale(45, 1)

    def test_leakage_scale_improves_with_node(self, lib):
        assert lib.leakage_scale(5, 1) < lib.leakage_scale(45, 1)

    def test_op_energy_combines_class_and_node(self, lib):
        alu_45 = lib.op_energy_nj("add", 45, 1)
        alu_5 = lib.op_energy_nj("add", 5, 1)
        assert alu_5 < alu_45
        assert lib.op_energy_nj("div", 45, 1) > alu_45


class TestSimplification:
    def test_energy_decreases_with_degree(self, lib):
        values = [lib.energy_scale(45, s) for s in range(1, 14)]
        assert values == sorted(values, reverse=True)

    def test_energy_saving_floors(self, lib):
        # The floor prevents unbounded savings at extreme degrees.
        assert lib.energy_scale(45, 13) >= 0.3 * lib.energy_scale(45, 1) * 0.9

    def test_leakage_decreases_with_degree(self, lib):
        assert lib.leakage_scale(45, 9) < lib.leakage_scale(45, 1)

    def test_latency_extra_zero_before_knee(self, lib):
        for degree in range(1, PIPELINE_KNEE + 1):
            assert lib.latency_extra(degree) == 0

    def test_latency_extra_grows_after_knee(self, lib):
        assert lib.latency_extra(PIPELINE_KNEE + 1) == 1
        assert lib.latency_extra(13) == 13 - PIPELINE_KNEE


class TestFusionWindow:
    def test_disabled_heterogeneity_gives_window_one(self, lib):
        assert lib.fusion_window(5, heterogeneity=False) == 1

    def test_window_grows_with_node_speed(self, lib):
        assert lib.fusion_window(5, True) > lib.fusion_window(45, True) >= 1

    def test_window_at_reference(self, lib):
        assert lib.fusion_window(45, True) == 2
