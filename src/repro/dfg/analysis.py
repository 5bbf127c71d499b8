"""DFG structural analysis: depth, stages, working sets, paths.

Implements the definitions of paper Section V-B:

* **depth** ``D`` — the number of vertices on the longest input→output path;
* **computation stage** — the ASAP level of a vertex (inputs are stage 1,
  every other vertex is one past its deepest predecessor);
* **stage working set** ``WS_s`` — the variables live in stage ``s``, whose
  maximum size bounds partitioning (Table II);
* **computation paths** ``P`` — all input→output routes (counted by dynamic
  programming; enumeration would be exponential).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dfg.graph import Dfg


def topological_order(dfg: Dfg) -> List[int]:
    """Kahn topological order; raises :class:`GraphStructureError` on cycles.

    Sources are taken in id order and popped from a stack (the graph
    computes the order once; see :meth:`Dfg.topological_order`).
    """
    return list(dfg.topological_order())


def _levels(dfg: Dfg) -> List[int]:
    """ASAP stage per vertex id, 1-based."""
    operands = dfg.operands
    levels = [0] * len(dfg)
    for nid in dfg.topological_order():
        deepest = 0
        for p in operands[nid]:
            if levels[p] > deepest:
                deepest = levels[p]
        levels[nid] = deepest + 1
    return levels


def stage_levels(dfg: Dfg) -> Dict[int, int]:
    """ASAP stage per vertex, 1-based (inputs are stage 1), in topological order."""
    levels = _levels(dfg)
    return {nid: levels[nid] for nid in dfg.topological_order()}


def stage_working_sets(dfg: Dfg) -> Dict[int, List[int]]:
    """``WS_s``: the vertices computed in each stage ``s``."""
    sets: Dict[int, List[int]] = {}
    for nid, level in stage_levels(dfg).items():
        sets.setdefault(level, []).append(nid)
    return sets


def depth(dfg: Dfg) -> int:
    """DFG depth ``D``: vertex count of the longest path."""
    return max(_levels(dfg))


def count_paths(dfg: Dfg) -> int:
    """Number of input→output computation paths (exact, via DP).

    May be astronomically large for wide graphs; Python integers make the
    count exact regardless.
    """
    offsets, succ = dfg.successor_lists()
    paths = [0] * len(dfg)
    for nid in reversed(dfg.topological_order()):
        lo, hi = offsets[nid], offsets[nid + 1]
        paths[nid] = sum([paths[s] for s in succ[lo:hi]]) if lo != hi else 1
    return sum(paths[nid] for nid, preds in enumerate(dfg.operands) if not preds)


def critical_path(dfg: Dfg) -> List[int]:
    """One longest input→output path (vertex ids, source first).

    The tail is the first deepest vertex in topological order, and each
    step back takes the first deepest operand.
    """
    levels = _levels(dfg)
    tail = max(dfg.topological_order(), key=levels.__getitem__)
    path = [tail]
    operands = dfg.operands
    while operands[path[-1]]:
        path.append(max(operands[path[-1]], key=levels.__getitem__))
    path.reverse()
    return path


@dataclass(frozen=True)
class DfgStats:
    """The DFG statistics consumed by the Table II complexity limits."""

    name: str
    n_vertices: int
    n_edges: int
    n_inputs: int
    n_outputs: int
    n_compute: int
    depth: int
    max_working_set: int
    stage_sizes: Tuple[int, ...]
    path_count: int

    @property
    def parallelism(self) -> float:
        """Average work per stage — the graph's inherent parallelism."""
        return self.n_vertices / self.depth

    def describe(self) -> str:
        return (
            f"{self.name}: |V|={self.n_vertices} |E|={self.n_edges} "
            f"in={self.n_inputs} out={self.n_outputs} D={self.depth} "
            f"max|WS|={self.max_working_set} paths={self.path_count}"
        )


def analyze(dfg: Dfg) -> DfgStats:
    """Compute all Table II-relevant statistics from the graph's arrays.

    Validates the graph unless it already passed (every traced graph did,
    when its trace finished).
    """
    dfg.validate()
    levels = _levels(dfg)
    depth = max(levels)
    stage_sizes = [0] * depth
    for level in levels:
        stage_sizes[level - 1] += 1
    return DfgStats(
        name=dfg.name,
        n_vertices=len(dfg),
        n_edges=dfg.num_edges,
        n_inputs=len(dfg.inputs()),
        n_outputs=len(dfg.outputs()),
        n_compute=len(dfg.compute_nodes()),
        depth=depth,
        max_working_set=max(stage_sizes),
        stage_sizes=tuple(stage_sizes),
        path_count=count_paths(dfg),
    )
