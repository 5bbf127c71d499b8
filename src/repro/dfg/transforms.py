"""DFG rewrites.

:func:`dead_code_eliminate` is the simplification rewrite the tracer
applies to every kernel's graph.  It returns a new graph; its input is
never mutated.
"""

from __future__ import annotations

from typing import Set

from repro.dfg.graph import Dfg, NodeKind


def dead_code_eliminate(dfg: Dfg) -> Dfg:
    """Simplification rewrite: drop vertices that reach no output.

    Removes dead compute vertices *and* unused inputs, so the surviving
    graph's degree-based ``V_IN`` / ``V_OUT`` sets (paper Section V-B) stay
    meaningful: every source feeds some output, every sink is a declared
    output.
    """
    useful: Set[int] = set()
    frontier = [
        nid for nid in dfg.node_ids() if dfg.node(nid).kind is NodeKind.OUTPUT
    ]
    while frontier:
        nid = frontier.pop()
        if nid in useful:
            continue
        useful.add(nid)
        frontier.extend(dfg.predecessors(nid))
    return dfg.subgraph(useful, name=f"{dfg.name}+dce")
