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
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.accel.resources import OpClass, ResourceLibrary, op_class
from repro.dfg.analysis import topological_order
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


def _node_op(dfg: Dfg, nid: int) -> str:
    """Operation name of a vertex; inputs are loads, outputs stores."""
    node = dfg.node(nid)
    if node.kind is NodeKind.INPUT:
        return "load"
    if node.kind is NodeKind.OUTPUT:
        return "store"
    return node.op


def _fuse_chains(dfg: Dfg, window: int) -> Dict[int, int]:
    """Assign each vertex to a fusion macro (macro id = chain head).

    Contracts edges ``u -> v`` where both are ALU-class compute vertices and
    ``u`` has a single consumer, up to *window* members per chain.  Edge
    contraction with the single-consumer condition cannot create cycles.
    """
    macro_of: Dict[int, int] = {}
    chain_len: Dict[int, int] = {}
    for nid in topological_order(dfg):
        macro_of.setdefault(nid, nid)
        chain_len.setdefault(macro_of[nid], 1)
        if window <= 1:
            continue
        node = dfg.node(nid)
        if node.kind is not NodeKind.COMPUTE or op_class(node.op) is not OpClass.ALU:
            continue
        succs = dfg.successors(nid)
        if len(succs) != 1:
            continue
        succ = succs[0]
        succ_node = dfg.node(succ)
        if succ_node.kind is not NodeKind.COMPUTE:
            continue
        if op_class(succ_node.op) is not OpClass.ALU:
            continue
        if succ in macro_of:
            continue  # successor already joined another chain
        head = macro_of[nid]
        if chain_len[head] >= window:
            continue
        macro_of[succ] = head
        chain_len[head] += 1
    return macro_of


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

    # Build the macro DAG.
    members: Dict[int, List[int]] = {}
    for nid, macro in macro_of.items():
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
        return op_class(_node_op(dfg, macro))

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

    op_counts: Dict[str, int] = {}
    for nid in dfg.node_ids():
        op = _node_op(dfg, nid)
        op_counts[op] = op_counts.get(op, 0) + 1

    return Schedule(
        kernel=dfg.name,
        cycles=int(makespan),
        op_counts=op_counts,
        provisioned=provisioned,
        n_macros=len(members),
        fused_away=len(dfg) - len(members),
    )
