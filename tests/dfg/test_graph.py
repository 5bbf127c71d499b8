"""Unit tests for the DFG graph type."""

import pytest

from repro.dfg.graph import Dfg, NodeKind
from repro.errors import GraphStructureError


def diamond():
    """in -> (left, right) -> join -> out"""
    g = Dfg("diamond")
    a = g.add_input("a")
    left = g.add_compute("add", [a])
    right = g.add_compute("mul", [a])
    join = g.add_compute("add", [left, right])
    out = g.add_output(join, "out")
    return g, (a, left, right, join, out)


class TestConstruction:
    def test_node_kinds(self):
        g, (a, left, right, join, out) = diamond()
        assert g.kind(a) is NodeKind.INPUT
        assert g.kind(left) is NodeKind.COMPUTE
        assert g.kind(out) is NodeKind.OUTPUT
        assert g.ops[left] == "add" and g.ops[a] is None
        assert g.labels[out] == "out"

    def test_counts(self):
        g, _ = diamond()
        assert len(g) == 5
        assert g.num_edges == 5

    def test_degree_sets(self):
        g, (a, left, right, join, out) = diamond()
        assert g.inputs() == [a]
        assert g.outputs() == [out]
        assert set(g.compute_nodes()) == {left, right, join}

    def test_adjacency(self):
        g, (a, left, right, join, out) = diamond()
        assert set(g.successors(a)) == {left, right}
        assert set(g.predecessors(join)) == {left, right}

    def test_edges_iterator(self):
        g, (a, left, *_rest) = diamond()
        assert (a, left) in set(g.edges())

    def test_duplicate_edge_is_idempotent(self):
        g = Dfg("dup")
        a = g.add_input()
        b = g.add_compute("add", [a])
        g.add_edge(a, b)
        assert g.num_edges == 1

    def test_compute_without_operands_rejected(self):
        g = Dfg("bad")
        with pytest.raises(GraphStructureError):
            g.add_compute("add", [])

    def test_compute_requires_op(self):
        g = Dfg("bad")
        a = g.add_input()
        with pytest.raises(GraphStructureError, match="operation"):
            g.add_compute("", [a])
        with pytest.raises(GraphStructureError, match="operation"):
            g.append(NodeKind.COMPUTE, None, (a,))
        assert len(g) == 1

    def test_input_cannot_carry_op(self):
        g = Dfg("bad")
        with pytest.raises(GraphStructureError, match="operation"):
            g.append(NodeKind.INPUT, "add", ())
        with pytest.raises(GraphStructureError, match="operation"):
            g.append(NodeKind.OUTPUT, "add", (0,))
        assert len(g) == 0

    def test_append_rejects_input_operands_and_sourceless_output(self):
        g = Dfg("bad")
        a = g.add_input()
        with pytest.raises(GraphStructureError):
            g.append(NodeKind.INPUT, None, (a,))
        with pytest.raises(GraphStructureError):
            g.append(NodeKind.OUTPUT, None, ())

    def test_append_counts_repeated_operands_once(self):
        g = Dfg("dup")
        a = g.add_input()
        b = g.append(NodeKind.COMPUTE, "add", (a, a))
        assert g.predecessors(b) == (a,)
        assert g.num_edges == 1

    def test_rejected_operand_adds_no_vertex(self):
        g, (_a, _l, _r, _j, out) = diamond()
        with pytest.raises(GraphStructureError):
            g.add_compute("add", [out])
        with pytest.raises(GraphStructureError):
            g.add_compute("add", [999])
        assert len(g) == 5

    def test_self_loop_rejected(self):
        g = Dfg("loop")
        a = g.add_input()
        b = g.add_compute("add", [a])
        with pytest.raises(GraphStructureError):
            g.add_edge(b, b)

    def test_edge_from_output_rejected(self):
        g, (_a, left, _r, _j, out) = diamond()
        with pytest.raises(GraphStructureError):
            g.add_edge(out, left)

    def test_edge_into_input_rejected(self):
        g, (a, left, *_rest) = diamond()
        with pytest.raises(GraphStructureError):
            g.add_edge(left, a)

    def test_unknown_endpoint_rejected(self):
        g, _ = diamond()
        with pytest.raises(GraphStructureError):
            g.add_edge(0, 999)

    def test_unknown_node_lookup_rejected(self):
        g, _ = diamond()
        for lookup in (g.kind, g.successors, g.predecessors):
            with pytest.raises(GraphStructureError):
                lookup(999)
        with pytest.raises(GraphStructureError):
            g.kind(-1)


class TestValidation:
    def test_valid_graph_passes_and_chains(self):
        g, _ = diamond()
        assert g.validate() is g

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphStructureError):
            Dfg("empty").validate()

    def test_dead_compute_rejected(self):
        g = Dfg("dead")
        a = g.add_input()
        g.add_compute("add", [a])  # never consumed
        with pytest.raises(GraphStructureError, match="dead"):
            g.validate()

    def test_cycle_detected(self):
        g = Dfg("cyclic")
        a = g.add_input()
        b = g.add_compute("add", [a])
        c = g.add_compute("add", [b])
        g.add_output(c)
        g.add_edge(c, b)  # back edge
        with pytest.raises(GraphStructureError, match="cycle"):
            g.validate()

    def test_repr(self):
        g, _ = diamond()
        assert "diamond" in repr(g) and "5 nodes" in repr(g)


class TestArrays:
    def test_successors_in_csr_form(self):
        g, (a, left, right, join, out) = diamond()
        offsets, flat = g.successor_lists()
        assert len(offsets) == len(g) + 1 and offsets[-1] == g.num_edges
        assert flat[offsets[a] : offsets[a + 1]] == [left, right]
        assert g.successors(join) == (out,)
        assert g.successors(out) == ()

    def test_edges_follow_insertion_order_per_source(self):
        g, (a, left, right, join, out) = diamond()
        assert list(g.edges()) == [
            (a, left), (a, right), (left, join), (right, join), (join, out)
        ]

    def test_topological_order_pops_sorted_sources_from_a_stack(self):
        g = Dfg("two-sources")
        x, y = g.add_input(), g.add_input()
        sx = g.add_compute("neg", [x])
        sy = g.add_compute("neg", [y])
        ox, oy = g.add_output(sx), g.add_output(sy)
        # Sources [x, y]: y is popped first and its chain drains before x.
        assert g.topological_order() == [y, sy, oy, x, sx, ox]

    def test_back_edge_order_is_not_assumed(self):
        g = Dfg("late")
        a = g.add_input()
        b = g.add_compute("add", [a])
        c = g.add_input()
        g.add_edge(c, b)  # an edge from a newer vertex
        g.add_output(b)
        order = g.topological_order()
        assert order.index(c) < order.index(b)
        assert g.validate() is g

    def test_mutation_drops_derived_arrays(self):
        g, (a, left, *_rest) = diamond()
        g.validate()
        before = g.successors(a)
        extra = g.add_compute("sub", [a])
        assert g.successors(a) == before + (extra,)
        with pytest.raises(GraphStructureError, match="dead"):
            g.validate()
        g.add_output(extra)
        assert g.validate() is g
        assert extra in g.topological_order()

    def test_memo_is_per_graph_and_dropped_on_mutation(self):
        g, (a, *_rest) = diamond()
        calls = []

        def build(graph):
            calls.append(len(graph))
            return len(graph)

        assert g.memo("n", build) == 5 and g.memo("n", build) == 5
        g.add_input()
        assert g.memo("n", build) == 6
        assert calls == [5, 6]

    def test_unknown_operand_from_append_caught_at_validation(self):
        g = Dfg("bad")
        a = g.add_input()
        b = g.append(NodeKind.COMPUTE, "add", (a, 7))
        g.add_output(b)
        with pytest.raises(GraphStructureError, match="unknown"):
            g.validate()

    def test_self_loop_from_append_is_a_cycle(self):
        g = Dfg("bad")
        a = g.add_input()
        b = g.append(NodeKind.COMPUTE, "add", (a, 1))
        g.add_output(b)
        with pytest.raises(GraphStructureError, match="cycle"):
            g.validate()

    def test_output_feeding_a_vertex_caught_at_validation(self):
        g = Dfg("bad")
        a = g.add_input()
        out = g.add_output(a)
        b = g.append(NodeKind.COMPUTE, "add", (out,))
        g.add_output(b)
        with pytest.raises(GraphStructureError, match="successors"):
            g.validate()

    def test_compact_renumbers_in_creation_order(self):
        g, (a, left, right, join, out) = diamond()
        keep = [True, False, True, True, True]
        sub = g.compact(keep)
        assert sub.ops == [None, "mul", "add", None]
        assert sub.predecessors(2) == (1,)  # join lost its `left` operand
        assert list(sub.edges()) == [(0, 1), (1, 2), (2, 3)]
