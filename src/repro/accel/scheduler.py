"""Resource-constrained list scheduler over dynamic dataflow graphs.

Models the three specialization concepts:

* **partitioning** — the design point's partition factor provisions that many
  parallel functional units per class and scratchpad ports; the scheduler
  serialises whatever exceeds them;
* **heterogeneity** — a fusion pre-pass contracts dependent single-consumer
  ALU chains (up to the node's fusion window) into one-cycle super nodes,
  modelling problem-specific fused datapaths; faster CMOS nodes chain more
  ops per cycle;
* **simplification** — deeper pipelines past the knee add per-op latency
  (energy effects are applied by the power model, not here).

Input vertices are scheduled as scratchpad loads and output vertices as
stores, so memory banking (partitioning) gates performance exactly as in
Aladdin-style models.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.accel.resources import OpClass, ResourceLibrary, op_class
from repro.dfg.graph import Dfg, NodeKind


@dataclass(frozen=True)
class Schedule:
    """Result of scheduling one DFG onto one structural configuration."""

    kernel: str
    cycles: int
    op_counts: Dict[str, int]
    provisioned: Dict[OpClass, int]
    n_macros: int
    fused_away: int  # ops absorbed into fusion chains beyond the first

    @property
    def total_ops(self) -> int:
        return sum(self.op_counts.values())


#: Functional-unit classes in declaration order — the iteration order the
#: scalar path's ``provisioned`` dict and leakage sum use.  Op tables hold
#: an index into it per vertex.
_CLASS_LIST: Tuple[OpClass, ...] = tuple(OpClass)
_ALU = _CLASS_LIST.index(OpClass.ALU)


def _op_table(dfg: Dfg) -> Tuple[List[int], Dict[str, int]]:
    """Functional-unit class index per vertex id, and vertices per op name.

    Inputs are scratchpad loads and outputs stores.  The counts are keyed
    in order of first appearance by vertex id, the order the power model
    sums dynamic energy in.
    """
    names = [
        "load" if kind is NodeKind.INPUT else "store" if kind is NodeKind.OUTPUT else op
        for kind, op in zip(dfg.kinds, dfg.ops)
    ]
    op_counts = dict(Counter(names))
    index = {name: _CLASS_LIST.index(op_class(name)) for name in op_counts}
    return [index[name] for name in names], op_counts


def _vertex_ops(dfg: Dfg) -> Tuple[List[int], Dict[str, int]]:
    """:func:`_op_table`, once per graph: every fusion window shares it."""
    return dfg.memo("accel.op_table", _op_table)


def _fuse_chains(dfg: Dfg, window: int) -> List[int]:
    """Assign each vertex to a fusion macro: the chain head, per vertex id.

    Contracts edges ``u -> v`` where both are ALU-class compute vertices and
    ``u`` has a single consumer, up to *window* members per chain, visiting
    vertices in topological order.  Edge contraction with the
    single-consumer condition cannot create cycles.
    """
    n = len(dfg)
    if window <= 1:
        return list(range(n))
    classes, _ = _vertex_ops(dfg)
    offsets, succ = dfg.successor_lists()
    alu = _ALU
    head = [-1] * n
    chain_len = [0] * n
    for nid in dfg.topological_order():
        h = head[nid]
        if h < 0:
            head[nid] = h = nid
            chain_len[nid] = 1
        # Inputs and outputs are memory-class, so ALU means an ALU compute.
        if classes[nid] != alu:
            continue
        first = offsets[nid]
        if offsets[nid + 1] - first != 1:
            continue
        s = succ[first]
        if classes[s] != alu:
            continue
        if head[s] >= 0:
            continue  # successor already joined another chain
        if chain_len[h] >= window:
            continue
        head[s] = h
        chain_len[h] += 1
    return head


def schedule(
    dfg: Dfg,
    partition: int,
    library: ResourceLibrary,
    fusion_window: int = 1,
    latency_extra: int = 0,
) -> Schedule:
    """List-schedule *dfg* with *partition* units per class.

    Greedy longest-path-priority list scheduling with non-pipelined
    functional units; returns cycle count and the op statistics the power
    model consumes.  The scratchpad's ports form one pool, an idealised
    conflict-free scratchpad.
    """
    if partition < 1:
        raise ValueError(f"partition must be >= 1, got {partition}")

    macro_of = _fuse_chains(dfg, fusion_window)
    classes, op_counts = _vertex_ops(dfg)

    # Build the macro DAG.
    members: Dict[int, List[int]] = {}
    for nid, macro in enumerate(macro_of):
        members.setdefault(macro, []).append(nid)
    macro_preds: Dict[int, Set[int]] = {m: set() for m in members}
    macro_succs: Dict[int, Set[int]] = {m: set() for m in members}
    for src, dst in dfg.edges():
        ms, md = macro_of[src], macro_of[dst]
        if ms != md:
            macro_preds[md].add(ms)
            macro_succs[ms].add(md)

    def macro_class(macro: int) -> OpClass:
        # A fused chain is ALU by construction; singletons take their op's class.
        return _CLASS_LIST[classes[macro]]

    def macro_latency(macro: int) -> int:
        base = library.costs(macro_class(macro)).latency_cycles
        return base + latency_extra

    # Priority: longest latency path from each macro to any sink.
    order: List[int] = []
    indeg = {m: len(macro_preds[m]) for m in members}
    stack = [m for m, d in indeg.items() if d == 0]
    while stack:
        m = stack.pop()
        order.append(m)
        for s in macro_succs[m]:
            indeg[s] -= 1
            if indeg[s] == 0:
                stack.append(s)
    priority: Dict[int, int] = {}
    for m in reversed(order):
        down = max((priority[s] for s in macro_succs[m]), default=0)
        priority[m] = macro_latency(m) + down

    # Per-class pools of unit free-times: `partition` units per class, or
    # one per macro when the class has fewer.
    demand: Dict[OpClass, int] = {k: 0 for k in OpClass}
    for m in members:
        demand[macro_class(m)] += 1
    provisioned = {k: min(partition, n) for k, n in demand.items() if n}
    pools = {k: [0.0] * units for k, units in provisioned.items()}

    # Event-driven list scheduling.
    remaining = {m: len(macro_preds[m]) for m in members}
    ready_time: Dict[int, float] = {m: 0.0 for m in members}
    heap: List[Tuple[float, int, int]] = []
    for m, d in remaining.items():
        if d == 0:
            heapq.heappush(heap, (0.0, -priority[m], m))
    finish_time: Dict[int, float] = {}
    makespan = 0.0
    while heap:
        ready, _, m = heapq.heappop(heap)
        pool = pools[macro_class(m)]
        unit_free = heapq.heappop(pool)
        start = max(ready, unit_free)
        finish = start + macro_latency(m)
        heapq.heappush(pool, finish)
        finish_time[m] = finish
        makespan = max(makespan, finish)
        for s in macro_succs[m]:
            ready_time[s] = max(ready_time[s], finish)
            remaining[s] -= 1
            if remaining[s] == 0:
                heapq.heappush(heap, (ready_time[s], -priority[s], s))

    assert len(finish_time) == len(members), "scheduler left macros unscheduled"

    return Schedule(
        kernel=dfg.name,
        cycles=int(makespan),
        op_counts=dict(op_counts),
        provisioned=provisioned,
        n_macros=len(members),
        fused_away=len(dfg) - len(members),
    )
