"""The dataflow-graph (DFG) type.

A DFG is a DAG ``G(V, E)`` with three vertex kinds (paper Section V-B):

* *input variables* — no incoming edges,
* *output variables* — no outgoing edges,
* *computation nodes* — interior vertices carrying an operation.

The graph is four parallel per-vertex lists — kind, operation, label and
operands (the vertex's predecessors, in edge-insertion order) — and a
vertex id is a position in them.  Builders append vertices and edges in
O(1).  The first read that needs successors, a topological order or
validity *freezes* the graph: it derives the successor lists in CSR form
(one flat list of neighbour ids plus one offset per vertex) and the Kahn
topological order, once.  Any later mutation drops the derived arrays.
"""

from __future__ import annotations

import enum
from itertools import compress
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import GraphStructureError

T = TypeVar("T")


class NodeKind(enum.Enum):
    """Vertex role in the dataflow graph."""

    INPUT = "input"
    OUTPUT = "output"
    COMPUTE = "compute"


_INPUT, _OUTPUT, _COMPUTE = NodeKind.INPUT, NodeKind.OUTPUT, NodeKind.COMPUTE


class Dfg:
    """A directed acyclic dataflow graph in parallel per-vertex lists.

    ``op`` names the operation of a compute vertex (e.g. ``"add"``,
    ``"mul"``, ``"load"``) and is ``None`` for input and output variables.
    ``label`` is a free-form annotation that only the cache fingerprint
    reads.

    Successors are kept in the order of their consumer's creation, then
    operand position.  That is edge-insertion order for every graph whose
    edges are added with their consumer (every traced graph), where it
    means increasing consumer id.
    """

    def __init__(self, name: str = "dfg"):
        self.name = name
        self._kinds: List[NodeKind] = []
        self._ops: List[Optional[str]] = []
        self._labels: List[Optional[str]] = []
        self._operands: List[Tuple[int, ...]] = []
        self._changed()

    # -- construction --------------------------------------------------------

    def append(
        self,
        kind: NodeKind,
        op: Optional[str],
        operands: Tuple[int, ...],
        label: Optional[str] = None,
    ) -> int:
        """Append one vertex; returns its id.

        Checks the vertex on its own: a compute vertex needs an op and at
        least one operand, an input carries neither, an output carries no
        op and has a source.  Repeated operands count once.  Operand ids
        are not looked up here (the tracer's operands exist by
        construction); :meth:`validate` rejects unknown ones.
        """
        if kind is _COMPUTE:
            if not op:
                raise GraphStructureError(
                    f"compute node {len(self._kinds)} must carry an operation"
                )
            if not operands:
                raise GraphStructureError(f"compute op {op!r} needs >= 1 operand")
        elif op is not None:
            raise GraphStructureError(
                f"{kind.value} node {len(self._kinds)} cannot carry an operation"
            )
        elif kind is _INPUT and operands:
            raise GraphStructureError(
                f"input node {len(self._kinds)} cannot have predecessors"
            )
        elif kind is _OUTPUT and not operands:
            raise GraphStructureError(f"output node {len(self._kinds)} needs a source")
        if len(operands) > 1 and len(set(operands)) < len(operands):
            operands = tuple(dict.fromkeys(operands))
        node_id = len(self._kinds)
        self._kinds.append(kind)
        self._ops.append(op)
        self._labels.append(label)
        self._operands.append(operands)
        if self._csr is not None or self._memo:
            self._changed()
        return node_id

    def add_input(self, label: Optional[str] = None) -> int:
        """Add an input-variable vertex; returns its id."""
        return self.append(_INPUT, None, (), label)

    def add_output(self, source: int, label: Optional[str] = None) -> int:
        """Add an output-variable vertex fed by *source*; returns its id."""
        self._check_source(source, len(self._kinds))
        return self.append(_OUTPUT, None, (source,), label)

    def add_compute(
        self, op: str, operands: Iterable[int], label: Optional[str] = None
    ) -> int:
        """Add a computation vertex consuming *operands*; returns its id."""
        operand_ids = tuple(operands)
        for operand in operand_ids:
            self._check_source(operand, len(self._kinds))
        return self.append(_COMPUTE, op, operand_ids, label)

    def add_edge(self, src: int, dst: int) -> None:
        """Add a dependence edge ``src -> dst``."""
        if dst not in self:
            raise GraphStructureError(f"edge ({src}, {dst}) references unknown node")
        self._check_source(src, dst)
        if self._kinds[dst] is _INPUT:
            raise GraphStructureError(f"input node {dst} cannot have predecessors")
        if src in self._operands[dst]:
            return  # idempotent: duplicate dependence carries no information
        self._operands[dst] += (src,)
        self._changed()

    def _check_source(self, src: int, dst: int) -> None:
        if src not in self:
            raise GraphStructureError(f"edge ({src}, {dst}) references unknown node")
        if src == dst:
            raise GraphStructureError(f"self-loop on node {src}")
        if self._kinds[src] is _OUTPUT:
            raise GraphStructureError(f"output node {src} cannot have successors")

    def _changed(self) -> None:
        # Drop everything derived from the lists; rebuilt on the next read.
        self._csr: Optional[Tuple[List[int], List[int]]] = None
        self._order: Optional[List[int]] = None
        self._valid = False
        self._memo: Dict[str, object] = {}

    def compact(self, keep: Sequence[bool]) -> "Dfg":
        """The subgraph induced by the vertices with ``keep[v]``.

        Kept vertices are renumbered in creation order.  The renumbering is
        monotone, so every order that breaks ties by vertex id (the
        schedulers' ready queues, the sorted sources of
        :meth:`topological_order`) is unchanged.
        """
        new_id: List[int] = [-1] * len(self._kinds)
        for new, old in enumerate(compress(range(len(self._kinds)), keep)):
            new_id[old] = new
        out = Dfg(self.name)
        out._kinds = list(compress(self._kinds, keep))
        out._ops = list(compress(self._ops, keep))
        out._labels = list(compress(self._labels, keep))
        out._operands = [
            tuple([new_id[u] for u in preds if keep[u]])
            for preds in compress(self._operands, keep)
        ]
        return out

    # -- accessors ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._kinds)

    def __contains__(self, node_id: object) -> bool:
        return isinstance(node_id, int) and 0 <= node_id < len(self._kinds)

    def _known(self, node_id: int) -> int:
        if node_id not in self:
            raise GraphStructureError(f"unknown node id {node_id}")
        return node_id

    def kind(self, node_id: int) -> NodeKind:
        return self._kinds[self._known(node_id)]

    @property
    def kinds(self) -> Sequence[NodeKind]:
        """Kind per vertex id (read-only)."""
        return self._kinds

    @property
    def ops(self) -> Sequence[Optional[str]]:
        """Operation per vertex id; ``None`` for inputs and outputs (read-only)."""
        return self._ops

    @property
    def labels(self) -> Sequence[Optional[str]]:
        """Label per vertex id (read-only)."""
        return self._labels

    @property
    def operands(self) -> Sequence[Tuple[int, ...]]:
        """Predecessors per vertex id, in edge-insertion order (read-only)."""
        return self._operands

    def node_ids(self) -> List[int]:
        return list(range(len(self._kinds)))

    def successors(self, node_id: int) -> Tuple[int, ...]:
        offsets, succ = self.successor_lists()
        node_id = self._known(node_id)
        return tuple(succ[offsets[node_id] : offsets[node_id + 1]])

    def predecessors(self, node_id: int) -> Tuple[int, ...]:
        return self._operands[self._known(node_id)]

    def edges(self) -> Iterator[Tuple[int, int]]:
        offsets, succ = self.successor_lists()
        for src in range(len(self._kinds)):
            for dst in succ[offsets[src] : offsets[src + 1]]:
                yield (src, dst)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._operands))

    def inputs(self) -> List[int]:
        """Vertices with no incoming edges (the set ``V_IN``)."""
        return [nid for nid, preds in enumerate(self._operands) if not preds]

    def outputs(self) -> List[int]:
        """Vertices with no outgoing edges (the set ``V_OUT``)."""
        offsets, _ = self.successor_lists()
        return [nid for nid in range(len(self._kinds)) if offsets[nid] == offsets[nid + 1]]

    def compute_nodes(self) -> List[int]:
        """Interior vertices (the set ``V_CMP``)."""
        offsets, _ = self.successor_lists()
        return [
            nid
            for nid, preds in enumerate(self._operands)
            if preds and offsets[nid] != offsets[nid + 1]
        ]

    # -- derived arrays -------------------------------------------------------

    def successor_lists(self) -> Tuple[List[int], List[int]]:
        """Successors in CSR form: ``(offsets, flat)``.

        Vertex ``v``'s successors are ``flat[offsets[v]:offsets[v + 1]]``.
        Both lists are shared with the graph; do not mutate them.
        """
        if self._csr is not None:
            return self._csr
        operands = self._operands
        n = len(operands)
        flat = [u for preds in operands for u in preds]
        if flat and not (0 <= min(flat) and max(flat) < n):
            bad = next(u for u in flat if not 0 <= u < n)
            raise GraphStructureError(f"{self.name}: edge from unknown node {bad}")
        offsets = [0] * (n + 1)
        for u in flat:
            offsets[u + 1] += 1
        for nid in range(n):
            offsets[nid + 1] += offsets[nid]
        succ = [0] * len(flat)
        fill = offsets[:-1]
        for nid, preds in enumerate(operands):
            for u in preds:
                succ[fill[u]] = nid
                fill[u] += 1
        self._csr = (offsets, succ)
        return self._csr

    def topological_order(self) -> List[int]:
        """Kahn order from the sorted sources, popped from a stack.

        Raises :class:`GraphStructureError` on a cycle.  The list is shared
        with the graph; do not mutate it.
        """
        if self._order is not None:
            return self._order
        offsets, succ = self.successor_lists()
        in_degree = list(map(len, self._operands))
        ready = [nid for nid, degree in enumerate(in_degree) if not degree]
        order: List[int] = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            for s in succ[offsets[nid] : offsets[nid + 1]]:
                in_degree[s] -= 1
                if not in_degree[s]:
                    ready.append(s)
        if len(order) != len(in_degree):
            raise GraphStructureError(f"{self.name}: graph contains a cycle")
        self._order = order
        return order

    def memo(self, key: str, build: Callable[["Dfg"], T]) -> T:
        """``build(self)``, computed once per graph and dropped on mutation.

        Lets a consumer share a table it derives from the graph across its
        own calls (the scheduler's per-vertex op classes serve all of a
        kernel's fusion windows).
        """
        try:
            return self._memo[key]  # type: ignore[return-value]
        except KeyError:
            value = self._memo[key] = build(self)
            return value

    # -- validation -----------------------------------------------------------

    def validate(self) -> "Dfg":
        """Check all structural invariants once; returns self for chaining.

        Raises :class:`GraphStructureError` on: empty graph, an edge from
        an unknown vertex, a cycle (self-loops included), an input with
        predecessors, an output with successors or without a source, a
        compute vertex with no consumers (dead code must be eliminated
        explicitly) or with no operands.  A graph that passed is not
        checked again until it changes.
        """
        if self._valid:
            return self
        if not self._kinds:
            raise GraphStructureError(f"{self.name}: empty graph")
        offsets, _ = self.successor_lists()
        self.topological_order()
        for nid, (kind, preds) in enumerate(zip(self._kinds, self._operands)):
            has_succs = offsets[nid] != offsets[nid + 1]
            if kind is _COMPUTE:
                if not preds:
                    raise GraphStructureError(
                        f"{self.name}: compute node {nid} has no operands"
                    )
                if not has_succs:
                    raise GraphStructureError(
                        f"{self.name}: compute node {nid} is dead "
                        "(no consumers); run dead_code_eliminate first"
                    )
            elif kind is _OUTPUT:
                if has_succs:
                    raise GraphStructureError(
                        f"{self.name}: output node {nid} has successors"
                    )
                if not preds:
                    raise GraphStructureError(
                        f"{self.name}: output node {nid} is unconnected"
                    )
            elif preds:
                raise GraphStructureError(
                    f"{self.name}: input node {nid} has predecessors"
                )
        self._valid = True
        return self

    def __repr__(self) -> str:
        return (
            f"Dfg({self.name!r}: {len(self)} nodes, {self.num_edges} edges, "
            f"{len(self.inputs())} in, {len(self.outputs())} out)"
        )
