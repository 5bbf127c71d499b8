"""Hypothesis property tests over random DAGs: analysis and DCE invariants."""

from hypothesis import given, settings, strategies as st

from repro.dfg.analysis import analyze, topological_order
from repro.dfg.graph import Dfg, NodeKind
from repro.dfg.transforms import dead_code_eliminate

OPS = ["add", "mul", "sub", "min", "max"]


@st.composite
def random_dag(draw):
    """A random valid DFG: layered construction guarantees acyclicity."""
    n_inputs = draw(st.integers(min_value=1, max_value=4))
    n_compute = draw(st.integers(min_value=1, max_value=12))
    g = Dfg("random")
    available = [g.add_input(f"in{i}") for i in range(n_inputs)]
    for i in range(n_compute):
        n_operands = draw(st.integers(min_value=1, max_value=min(3, len(available))))
        operands = draw(
            st.lists(
                st.sampled_from(available),
                min_size=n_operands,
                max_size=n_operands,
                unique=True,
            )
        )
        op = draw(st.sampled_from(OPS))
        available.append(g.add_compute(op, operands))
    # Every sink (no successors) becomes an output so validation passes.
    for nid in list(g.node_ids()):
        node = g.node(nid)
        if node.kind is NodeKind.COMPUTE and not g.successors(nid):
            g.add_output(nid)
    return dead_code_eliminate(g)


@given(random_dag())
@settings(max_examples=60, deadline=None)
def test_random_dag_is_valid(g):
    g.validate()


@given(random_dag())
@settings(max_examples=60, deadline=None)
def test_analysis_invariants(g):
    stats = analyze(g)
    assert stats.n_vertices == stats.n_inputs + stats.n_outputs + stats.n_compute
    assert 1 <= stats.depth <= stats.n_vertices
    assert 1 <= stats.max_working_set <= stats.n_vertices
    assert sum(stats.stage_sizes) == stats.n_vertices
    assert stats.path_count >= max(stats.n_inputs, stats.n_outputs) > 0


@given(random_dag())
@settings(max_examples=60, deadline=None)
def test_dce_is_noop_on_cleaned_graph(g):
    cleaned = dead_code_eliminate(g)
    assert len(cleaned) == len(g)


@given(random_dag())
@settings(max_examples=40, deadline=None)
def test_topological_order_is_stable_under_copy(g):
    clone = g.copy()
    assert topological_order(g) == topological_order(clone)
