"""Unit tests for the concolic tracer."""

import gc
import weakref

import pytest

from repro.accel.trace import Tracer
from repro.dfg.graph import NodeKind
from repro.errors import GraphStructureError


@pytest.fixture
def t():
    return Tracer("t")


class TestValues:
    def test_arithmetic_concrete(self, t):
        a = t.input("a", 3.0)
        b = t.input("b", 4.0)
        assert (a + b).concrete == 7.0
        assert (a - b).concrete == -1.0
        assert (a * b).concrete == 12.0
        assert (a / b).concrete == pytest.approx(0.75)

    def test_reflected_operators(self, t):
        a = t.input("a", 3.0)
        assert (10 + a).concrete == 13.0
        assert (10 - a).concrete == 7.0
        assert (2 * a).concrete == 6.0
        assert (12 / a).concrete == 4.0

    def test_bitwise(self, t):
        a = t.input("a", 0b1100)
        b = t.input("b", 0b1010)
        assert (a & b).concrete == 0b1000
        assert (a | b).concrete == 0b1110
        assert (a ^ b).concrete == 0b0110
        assert (a << t.const(1)).concrete == 0b11000
        assert (a >> t.const(2)).concrete == 0b11

    def test_comparisons_traced_and_boolean(self, t):
        a = t.input("a", 1.0)
        b = t.input("b", 2.0)
        cond = a < b
        assert bool(cond) is True
        assert cond.node_id in t.dfg
        assert (a.eq(b)).concrete is False
        assert (a.ne(b)).concrete is True

    def test_unary_ops(self, t):
        a = t.input("a", -2.0)
        assert (-a).concrete == 2.0
        assert abs(a).concrete == 2.0
        assert t.sqrt(t.const(9.0)).concrete == 3.0
        assert t.sigmoid(t.const(0.0)).concrete == pytest.approx(0.5)
        assert t.tanh(t.const(0.0)).concrete == 0.0
        assert t.relu(t.const(-5.0)).concrete == 0.0

    def test_min_max(self, t):
        a, b = t.input("a", 3), t.input("b", 7)
        assert t.minimum(a, b).concrete == 3
        assert t.maximum(a, b).concrete == 7

    def test_select_follows_condition(self, t):
        a, b = t.input("a", 1.0), t.input("b", 2.0)
        cond = a < b
        assert t.select(cond, a, b).concrete == 1.0
        assert t.select(b < a, a, b).concrete == 2.0

    def test_int_float_coercion(self, t):
        a = t.input("a", 2.7)
        assert int(a) == 2
        assert float(a) == 2.7

    def test_consts_are_deduplicated(self, t):
        assert t.const(5.0).node_id == t.const(5.0).node_id
        assert t.const(5.0).node_id != t.const(6.0).node_id

    def test_cross_tracer_mixing_rejected(self, t):
        other = Tracer("other")
        a = t.input("a", 1.0)
        b = other.input("b", 2.0)
        with pytest.raises(GraphStructureError):
            _ = a + b


class TestArrays:
    def test_read_write_roundtrip(self, t):
        arr = t.array("x", [1.0, 2.0, 3.0])
        assert arr.read(1).concrete == 2.0
        arr.write(1, t.const(9.0))
        assert arr.read(1).concrete == 9.0

    def test_read_counts_accesses(self, t):
        arr = t.array("x", [1.0, 2.0])
        arr.read(0)
        arr.read(0)
        assert t.memory_reads == 2

    def test_write_counts_accesses(self, t):
        arr = t.array("x", length=2)
        arr.write(0, 1.0)
        assert t.memory_writes == 1

    def test_lazy_elements_default_zero(self, t):
        arr = t.array("x", length=3)
        assert arr.read(2).concrete == 0.0

    def test_out_of_range_read_rejected(self, t):
        arr = t.array("x", [1.0])
        with pytest.raises(IndexError):
            arr.read(5)

    def test_gather_depends_on_index(self, t):
        arr = t.array("x", [10.0, 20.0, 30.0])
        idx = t.input("i", 2)
        loaded = arr.gather(idx)
        assert loaded.concrete == 30.0
        assert idx.node_id in t.dfg.predecessors(loaded.node_id)

    def test_scatter_records_dependence(self, t):
        arr = t.array("x", length=4)
        idx = t.input("i", 1)
        arr.scatter(idx, t.const(5.0))
        assert arr.read(1).concrete == 5.0
        assert t.memory_writes == 1

    def test_needs_data_or_length(self, t):
        with pytest.raises(GraphStructureError):
            t.array("x")

    def test_initialized_indices(self, t):
        arr = t.array("x", length=4)
        arr.write(2, 1.0)
        assert arr.initialized_indices() == [2]


class TestFinish:
    def test_kernel_bundles_counts_and_outputs(self, t):
        arr = t.array("x", [1.0, 2.0])
        total = arr.read(0) + arr.read(1)
        t.output(total, "sum")
        kernel = t.kernel()
        assert kernel.memory_reads == 2
        assert kernel.output_values == (3.0,)
        assert kernel.dfg.validate()

    def test_finish_requires_outputs(self, t):
        t.input("a", 1.0)
        with pytest.raises(GraphStructureError):
            t.finish()

    def test_finish_eliminates_dead_code(self, t):
        a = t.input("a", 1.0)
        _dead = a * t.const(2.0)
        live = a + t.const(1.0)
        t.output(live)
        dfg = t.finish()
        ops = [op for kind, op in zip(dfg.kinds, dfg.ops) if kind is NodeKind.COMPUTE]
        assert ops == ["add"]

    def test_finished_tracer_is_freed_without_the_cyclic_collector(
        self, monkeypatch
    ):
        from repro.workloads import WORKLOADS

        tracers = []
        finish = Tracer.finish

        def recording_finish(self):
            tracers.append(weakref.ref(self))
            return finish(self)

        monkeypatch.setattr(Tracer, "finish", recording_finish)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            kernel = WORKLOADS[0].build()
            assert kernel.dfg.validate()
            assert len(tracers) == 1
            # Reference counting alone must drop the tracer and the Values
            # that point back at it.
            assert tracers[0]() is None
        finally:
            if enabled:
                gc.enable()
