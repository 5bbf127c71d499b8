"""DFG rewrites.

:func:`dead_code_eliminate` is the simplification rewrite the tracer
applies to every kernel's graph.  It returns a new graph; its input is
never mutated.
"""

from __future__ import annotations

from repro.dfg.graph import Dfg, NodeKind


def dead_code_eliminate(dfg: Dfg) -> Dfg:
    """Simplification rewrite: drop vertices that reach no output.

    Removes dead compute vertices *and* unused inputs, so the surviving
    graph's degree-based ``V_IN`` / ``V_OUT`` sets (paper Section V-B) stay
    meaningful: every source feeds some output, every sink is a declared
    output.  The live vertices are marked by backward reachability from the
    outputs, then compacted in creation order (:meth:`Dfg.compact`).
    """
    operands = dfg.operands
    live = [False] * len(dfg)
    frontier = [nid for nid, kind in enumerate(dfg.kinds) if kind is NodeKind.OUTPUT]
    while frontier:
        nid = frontier.pop()
        if not live[nid]:
            live[nid] = True
            frontier.extend(operands[nid])
    return dfg.compact(live)
