"""A test-only reference for the array-backed DFG: dict-of-lists algorithms.

These are the graph algorithms the repository used before the DFG became
parallel per-vertex lists, kept small and literal so the new graph can be
checked against an independent implementation:

* a graph of dicts keyed by vertex id, whose edges are added one at a time
  in the recorded order (a repeated edge is ignored);
* dead-code elimination by backward reachability from the outputs, keeping
  the original ids;
* Kahn's topological order from the sorted sources, popped from a stack;
* ASAP stage levels, path counts by dynamic programming, the critical path
  and the Table II statistics;
* the scheduler's op counts (inputs are loads, outputs stores), keyed in
  order of first appearance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dfg.analysis import DfgStats
from repro.dfg.graph import Dfg, NodeKind

Node = Tuple[NodeKind, Optional[str], Optional[str]]


@dataclass
class RefGraph:
    name: str
    nodes: Dict[int, Node] = field(default_factory=dict)
    succ: Dict[int, List[int]] = field(default_factory=dict)
    pred: Dict[int, List[int]] = field(default_factory=dict)

    def add_node(self, nid: int, node: Node) -> None:
        self.nodes[nid] = node
        self.succ[nid] = []
        self.pred[nid] = []

    def add_edge(self, src: int, dst: int) -> None:
        if dst in self.succ[src]:
            return
        self.succ[src].append(dst)
        self.pred[dst].append(src)


def from_record(dfg: Dfg) -> RefGraph:
    """Replay a graph's recorded vertices and operands into dicts."""
    ref = RefGraph(dfg.name)
    for nid in range(len(dfg)):
        ref.add_node(nid, (dfg.kinds[nid], dfg.ops[nid], dfg.labels[nid]))
    for nid in range(len(dfg)):
        for operand in dfg.operands[nid]:
            ref.add_edge(operand, nid)
    return ref


def dead_code_eliminate(g: RefGraph) -> RefGraph:
    useful = set()
    frontier = [nid for nid, node in g.nodes.items() if node[0] is NodeKind.OUTPUT]
    while frontier:
        nid = frontier.pop()
        if nid in useful:
            continue
        useful.add(nid)
        frontier.extend(g.pred[nid])
    out = RefGraph(g.name)
    for nid, node in g.nodes.items():
        if nid in useful:
            out.nodes[nid] = node
            out.succ[nid] = [d for d in g.succ[nid] if d in useful]
            out.pred[nid] = [s for s in g.pred[nid] if s in useful]
    return out


def topological_order(g: RefGraph) -> List[int]:
    in_degree = {nid: len(g.pred[nid]) for nid in g.nodes}
    ready = sorted(nid for nid, deg in in_degree.items() if deg == 0)
    order = []
    while ready:
        nid = ready.pop()
        order.append(nid)
        for succ in g.succ[nid]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
    assert len(order) == len(g.nodes), "cycle"
    return order


def stage_levels(g: RefGraph) -> Dict[int, int]:
    levels: Dict[int, int] = {}
    for nid in topological_order(g):
        preds = g.pred[nid]
        levels[nid] = 1 if not preds else 1 + max(levels[p] for p in preds)
    return levels


def count_paths(g: RefGraph) -> int:
    paths_from: Dict[int, int] = {}
    for nid in reversed(topological_order(g)):
        succs = g.succ[nid]
        paths_from[nid] = 1 if not succs else sum(paths_from[s] for s in succs)
    return sum(paths_from[nid] for nid in g.nodes if not g.pred[nid])


def critical_path(g: RefGraph) -> List[int]:
    levels = stage_levels(g)
    tail = max(levels, key=lambda nid: levels[nid])
    path = [tail]
    while g.pred[path[-1]]:
        path.append(max(g.pred[path[-1]], key=lambda p: levels[p]))
    path.reverse()
    return path


def analyze(g: RefGraph) -> DfgStats:
    sets: Dict[int, List[int]] = {}
    for nid, level in stage_levels(g).items():
        sets.setdefault(level, []).append(nid)
    stage_sizes = tuple(len(sets[s]) for s in sorted(sets))
    return DfgStats(
        name=g.name,
        n_vertices=len(g.nodes),
        n_edges=sum(len(d) for d in g.succ.values()),
        n_inputs=sum(1 for nid in g.nodes if not g.pred[nid]),
        n_outputs=sum(1 for nid in g.nodes if not g.succ[nid]),
        n_compute=sum(1 for nid in g.nodes if g.pred[nid] and g.succ[nid]),
        depth=max(sets),
        max_working_set=max(stage_sizes),
        stage_sizes=stage_sizes,
        path_count=count_paths(g),
    )


def op_counts(g: RefGraph) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for kind, op, _label in g.nodes.values():
        name = {NodeKind.INPUT: "load", NodeKind.OUTPUT: "store"}.get(kind, op)
        counts[name] = counts.get(name, 0) + 1
    return counts
