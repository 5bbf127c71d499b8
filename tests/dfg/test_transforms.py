"""Unit tests for the DFG dead-code-elimination rewrite."""

from repro.dfg.graph import Dfg
from repro.dfg.transforms import dead_code_eliminate


def chain_graph():
    g = Dfg("chain")
    a = g.add_input("a")
    b = g.add_compute("add", [a])
    c = g.add_compute("add", [b])
    d = g.add_compute("mul", [c])
    g.add_output(d)
    return g, (a, b, c, d)


class TestDeadCodeElimination:
    def test_removes_dead_compute(self):
        g, (a, _b, _c, _d) = chain_graph()
        g.add_compute("mul", [a])  # dead
        cleaned = dead_code_eliminate(g)
        cleaned.validate()
        assert len(cleaned) == 5

    def test_removes_unused_inputs(self):
        g, _ = chain_graph()
        g.add_input("unused")
        cleaned = dead_code_eliminate(g)
        assert len(cleaned.inputs()) == 1

    def test_noop_on_clean_graph(self):
        g, _ = chain_graph()
        cleaned = dead_code_eliminate(g)
        assert len(cleaned) == len(g)
        assert cleaned.num_edges == g.num_edges
