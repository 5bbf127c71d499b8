"""Dataflow-graph substrate (paper Section V).

The paper models computation problems as dataflow graphs (DFGs) — directed
acyclic graphs whose sources are input variables, sinks are output variables,
and interior vertices are computation operands.  Specialization concepts
(simplification, partitioning, heterogeneity) are rewrites/resource mappings
over this representation, and their theoretical limits (Table II) are
closed-form in DFG statistics.
"""

from repro.dfg.graph import Dfg, DfgNode, NodeKind
from repro.dfg.analysis import DfgStats, analyze, critical_path, stage_levels, topological_order
from repro.dfg.transforms import dead_code_eliminate
from repro.dfg.complexity import (
    Component,
    Concept,
    ConceptLimit,
    complexity_table,
    concept_limit,
)

__all__ = [
    "Dfg",
    "DfgNode",
    "NodeKind",
    "DfgStats",
    "analyze",
    "critical_path",
    "stage_levels",
    "topological_order",
    "dead_code_eliminate",
    "Component",
    "Concept",
    "ConceptLimit",
    "complexity_table",
    "concept_limit",
]
