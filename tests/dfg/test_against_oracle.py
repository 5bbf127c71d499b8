"""The array-backed DFG against the dict-of-lists oracle in ``dict_oracle``.

Each case records a traced program's raw graph (before dead-code
elimination), replays it into the oracle, and compares the finished
graph with the oracle's result through the id map (the i-th live vertex in
creation order is vertex i): live vertices, successor lists, topological
order, stage levels, critical path, ``DfgStats``, and the op counts of
both schedulers, keys in first-appearance creation order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.batch import MacroGraph
from repro.accel.resources import ResourceLibrary
from repro.accel.scheduler import schedule
from repro.accel.trace import Tracer
from repro.dfg.analysis import analyze, critical_path, stage_levels
from repro.workloads import WORKLOADS
from tests.dfg import dict_oracle as oracle

LIB = ResourceLibrary()


def assert_matches_oracle(raw, final):
    ref = oracle.dead_code_eliminate(oracle.from_record(raw))
    new_id = {old: new for new, old in enumerate(ref.nodes)}

    assert list(ref.nodes.values()) == list(zip(final.kinds, final.ops, final.labels))
    for old, new in new_id.items():
        assert [new_id[s] for s in ref.succ[old]] == list(final.successors(new))
        assert [new_id[p] for p in ref.pred[old]] == list(final.predecessors(new))
    assert [new_id[v] for v in oracle.topological_order(ref)] == final.topological_order()
    assert [(new_id[v], level) for v, level in oracle.stage_levels(ref).items()] == list(
        stage_levels(final).items()
    )
    assert [new_id[v] for v in oracle.critical_path(ref)] == critical_path(final)
    assert oracle.analyze(ref) == analyze(final)

    counts = list(oracle.op_counts(ref).items())
    for window in (1, 3):
        assert list(schedule(final, 2, LIB, fusion_window=window).op_counts.items()) == counts
        graph = MacroGraph(final, LIB, window)
        assert list(graph.schedule(2).op_counts.items()) == counts


@pytest.fixture(scope="module")
def recorded_kernels():
    """Every Table IV kernel with the raw graph its tracer recorded."""
    raws = []
    finish = Tracer.finish

    def recording_finish(self):
        raws.append(self.dfg)
        return finish(self)

    Tracer.finish = recording_finish
    try:
        kernels = [workload.build() for workload in WORKLOADS]
    finally:
        Tracer.finish = finish
    return list(zip(raws, kernels))


@pytest.mark.parametrize("index", range(len(WORKLOADS)), ids=[w.abbrev for w in WORKLOADS])
def test_table4_kernel_matches_oracle(recorded_kernels, index):
    raw, kernel = recorded_kernels[index]
    assert_matches_oracle(raw, kernel.dfg)


BINARY = ("add", "sub", "mul", "min", "max")
CONSTS = (0.5, 2.0, 3.0)


@st.composite
def traced_programs(draw):
    """Steps of a random straight-line kernel; value operands index mod size.

    Binary steps may repeat an operand (``a + a``), constant steps reuse
    the tracer's deduplicated constants, outputs may be fed straight from
    inputs, and every value no output reaches is dead.
    """
    index = st.integers(min_value=0, max_value=1 << 16)
    step = st.one_of(
        st.tuples(st.just("binary"), st.sampled_from(BINARY), index, index),
        st.tuples(st.just("same"), st.sampled_from(BINARY), index),
        st.tuples(st.just("const"), st.sampled_from(BINARY), index, st.sampled_from(CONSTS)),
        st.tuples(st.just("unary"), st.sampled_from(("neg", "abs")), index),
        st.tuples(st.just("select"), index, index, index),
        st.tuples(st.just("read"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("gather"), st.integers(min_value=0, max_value=3)),
    )
    n_inputs = draw(st.integers(min_value=1, max_value=3))
    steps = draw(st.lists(step, min_size=1, max_size=24))
    outputs = draw(st.lists(index, min_size=1, max_size=4))
    return n_inputs, steps, outputs


def run_program(n_inputs, steps, outputs):
    t = Tracer("random")
    values = [t.input(f"x{i}", float(i + 1)) for i in range(n_inputs)]
    memory = t.array("m", [1.0, -2.0, 3.0, -4.0])

    def pick(i):
        return values[i % len(values)]

    for kind, *args in steps:
        if kind == "binary":
            op, i, j = args
            values.append(t.binary(op, pick(i), pick(j)))
        elif kind == "same":
            op, i = args
            values.append(t.binary(op, pick(i), pick(i)))
        elif kind == "const":
            op, i, c = args
            values.append(t.binary(op, pick(i), c))
        elif kind == "unary":
            op, i = args
            values.append(t.unary(op, pick(i)))
        elif kind == "select":
            i, j, k = args
            values.append(t.select(pick(i) < pick(j), pick(j), pick(k)))
        elif kind == "read":
            values.append(memory.read(args[0]))
        else:
            values.append(memory.gather(t.input("i", args[0])))
    for i in outputs:
        t.output(pick(i))
    return t


@given(traced_programs())
@settings(max_examples=150, deadline=None)
def test_random_traced_program_matches_oracle(program):
    t = run_program(*program)
    raw = t.dfg
    assert_matches_oracle(raw, t.finish())
