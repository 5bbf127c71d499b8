"""Concolic tracer: run a Python kernel, record its dynamic dataflow graph.

Aladdin builds accelerator models from *dynamic data dependence graphs*
captured by instrumented execution.  We reproduce that front end with
concolic values: every :class:`Value` carries both a concrete Python number
(so kernels with data-dependent control flow — BFS, sorting, shortest paths
— execute normally and produce checkable results) and a DFG vertex id (so the
complete dependence structure of the execution is recorded).

Usage sketch::

    t = Tracer("triad")
    b = t.array("b", data)          # input arrays
    c = t.array("c", data2)
    s = t.const(1.5)
    a = t.array("a", length=len(data))
    for i in range(len(data)):
        a.write(i, b.read(i) + s * c.read(i))
    for i in range(len(data)):
        t.output(a.read(i), f"a[{i}]")
    dfg = t.finish()
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

from dataclasses import dataclass

from repro.dfg.graph import Dfg, NodeKind
from repro.dfg.transforms import dead_code_eliminate
from repro.errors import GraphStructureError

Number = Union[int, float, bool]


@dataclass(frozen=True)
class TracedKernel:
    """A finished trace: the DFG plus dynamic memory-access counts.

    ``memory_reads``/``memory_writes`` count *accesses* (including re-reads
    of the same element), which the power model charges; the DFG's load and
    store vertices count *distinct* values, which the scheduler ports gate.
    """

    name: str
    dfg: Dfg
    memory_reads: int
    memory_writes: int
    #: Concrete values of the kernel's outputs, in declaration order — the
    #: traced execution's actual results, checkable against a reference.
    output_values: tuple = ()

    @property
    def total_accesses(self) -> int:
        return self.memory_reads + self.memory_writes


class Value:
    """A concolic value: concrete number + DFG vertex.

    Arithmetic, comparison, and bit operators produce new traced values.
    Comparisons return values whose ``concrete`` is a bool, so ``if a < b:``
    works via ``__bool__`` (reading a traced condition concretely is exactly
    how a dynamic trace linearises control flow).
    """

    __slots__ = ("tracer", "node_id", "concrete")

    def __init__(self, tracer: "Tracer", node_id: int, concrete: Number):
        self.tracer = tracer
        self.node_id = node_id
        self.concrete = concrete

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return self.tracer.binary("add", self, other)

    def __radd__(self, other):
        return self.tracer.binary("add", other, self)

    def __sub__(self, other):
        return self.tracer.binary("sub", self, other)

    def __rsub__(self, other):
        return self.tracer.binary("sub", other, self)

    def __mul__(self, other):
        return self.tracer.binary("mul", self, other)

    def __rmul__(self, other):
        return self.tracer.binary("mul", other, self)

    def __truediv__(self, other):
        return self.tracer.binary("div", self, other)

    def __rtruediv__(self, other):
        return self.tracer.binary("div", other, self)

    def __mod__(self, other):
        return self.tracer.binary("mod", self, other)

    def __neg__(self):
        return self.tracer.unary("neg", self)

    def __abs__(self):
        return self.tracer.unary("abs", self)

    # -- bitwise ---------------------------------------------------------------

    def __and__(self, other):
        return self.tracer.binary("and", self, other)

    def __or__(self, other):
        return self.tracer.binary("or", self, other)

    def __xor__(self, other):
        return self.tracer.binary("xor", self, other)

    def __rxor__(self, other):
        return self.tracer.binary("xor", other, self)

    def __lshift__(self, other):
        return self.tracer.binary("shl", self, other)

    def __rshift__(self, other):
        return self.tracer.binary("shr", self, other)

    # -- comparisons (traced; concretely usable in `if`) -------------------------

    def __lt__(self, other):
        return self.tracer.binary("cmp", self, other, _concrete_op="lt")

    def __le__(self, other):
        return self.tracer.binary("cmp", self, other, _concrete_op="le")

    def __gt__(self, other):
        return self.tracer.binary("cmp", self, other, _concrete_op="gt")

    def __ge__(self, other):
        return self.tracer.binary("cmp", self, other, _concrete_op="ge")

    def eq(self, other):
        """Traced equality (named method: ``==`` stays Python identity)."""
        return self.tracer.binary("cmp", self, other, _concrete_op="eq")

    def ne(self, other):
        """Traced inequality."""
        return self.tracer.binary("cmp", self, other, _concrete_op="ne")

    def __bool__(self) -> bool:
        return bool(self.concrete)

    def __int__(self) -> int:
        return int(self.concrete)

    def __float__(self) -> float:
        return float(self.concrete)

    def __repr__(self) -> str:
        return f"Value(#{self.node_id}={self.concrete!r})"


_CONCRETE_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "mod": lambda a, b: a % b,
    "and": lambda a, b: int(a) & int(b),
    "or": lambda a, b: int(a) | int(b),
    "xor": lambda a, b: int(a) ^ int(b),
    "shl": lambda a, b: int(a) << int(b),
    "shr": lambda a, b: int(a) >> int(b),
    "min": min,
    "max": max,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}

_CONCRETE_UNOPS = {
    "neg": lambda a: -a,
    "abs": abs,
    "not": lambda a: ~int(a),
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "tanh": math.tanh,
    "sigmoid": lambda a: 1.0 / (1.0 + math.exp(-a)),
    "relu": lambda a: a if a > 0 else 0.0,
}


class TracedArray:
    """A fixed-length array living in the traced kernel's memory space.

    ``read``/``write`` with concrete integer indices track element
    provenance; ``gather``/``scatter`` with *traced* indices additionally
    record the address computation as a dependence of the access (the
    data-dependent access patterns of SpMV, BFS, sorting...).  Every access
    increments the tracer's memory counters, which the power model charges.
    """

    def __init__(self, tracer: "Tracer", name: str, length: int):
        if length < 1:
            raise GraphStructureError(f"array {name!r}: length must be >= 1")
        self.tracer = tracer
        self.name = name
        self.length = length
        self._elements: List[Optional[Value]] = [None] * length

    def __len__(self) -> int:
        return self.length

    def _check_index(self, index: int) -> int:
        index = int(index)
        if not (0 <= index < self.length):
            raise IndexError(
                f"array {self.name!r}: index {index} out of range [0, {self.length})"
            )
        return index

    def _source(self, index: int) -> Value:
        element = self._elements[index]
        if element is None:
            element = self.tracer._new_input(f"{self.name}[{index}]", 0.0)
            self._elements[index] = element
        return element

    def read(self, index: int) -> Value:
        """Read element *index* (concrete address)."""
        index = self._check_index(index)
        self.tracer.memory_reads += 1
        return self._source(index)

    def write(self, index: int, value: "Value | Number") -> None:
        """Write *value* to element *index* (concrete address)."""
        index = self._check_index(index)
        self.tracer.memory_writes += 1
        self._elements[index] = self.tracer.lift(value)

    def gather(self, index: "Value") -> Value:
        """Data-dependent read: the result depends on the index computation."""
        concrete_index = self._check_index(index.concrete)
        self.tracer.memory_reads += 1
        source = self._source(concrete_index)
        return self.tracer._new_compute(
            "load",
            [index, source],
            source.concrete,
            label=f"{self.name}[{concrete_index}]",
        )

    def scatter(self, index: "Value", value: "Value | Number") -> None:
        """Data-dependent write: stored element depends on the index too."""
        concrete_index = self._check_index(index.concrete)
        self.tracer.memory_writes += 1
        lifted = self.tracer.lift(value)
        stored = self.tracer._new_compute(
            "store",
            [index, lifted],
            lifted.concrete,
            label=f"{self.name}[{concrete_index}]",
        )
        self._elements[concrete_index] = stored

    def initialized_indices(self) -> List[int]:
        """Indices whose elements have been read or written so far."""
        return [i for i, e in enumerate(self._elements) if e is not None]


class Tracer:
    """Records the dynamic dataflow graph of a kernel execution."""

    def __init__(self, name: str):
        self.name = name
        self.dfg = Dfg(name)
        self.memory_reads = 0
        self.memory_writes = 0
        self._consts: Dict[Number, Value] = {}
        self._outputs: List[int] = []
        self._output_values: List[Number] = []

    # -- value creation ---------------------------------------------------------

    def _new_input(self, label: str, concrete: Number) -> Value:
        node_id = self.dfg.append(NodeKind.INPUT, None, (), label)
        return Value(self, node_id, concrete)

    def _new_compute(
        self,
        op: str,
        operands: Sequence[Value],
        concrete: Number,
        label: Optional[str] = None,
    ) -> Value:
        node_id = self.dfg.append(
            NodeKind.COMPUTE, op, tuple([v.node_id for v in operands]), label
        )
        return Value(self, node_id, concrete)

    def input(self, label: str, concrete: Number = 0.0) -> Value:
        """A scalar kernel input."""
        return self._new_input(label, concrete)

    def const(self, value: Number) -> Value:
        """A compile-time constant (deduplicated per tracer)."""
        key = value
        if key not in self._consts:
            self._consts[key] = self._new_input(f"const:{value!r}", value)
        return self._consts[key]

    def lift(self, value: "Value | Number") -> Value:
        """Coerce a Python number to a traced constant; pass values through."""
        if isinstance(value, Value):
            if value.tracer is not self:
                raise GraphStructureError(
                    "cannot mix values from different tracers"
                )
            return value
        return self.const(value)

    def array(
        self,
        name: str,
        data: Optional[Sequence[Number]] = None,
        length: Optional[int] = None,
    ) -> TracedArray:
        """Declare an array; *data* pre-populates elements as kernel inputs."""
        if data is None and length is None:
            raise GraphStructureError(f"array {name!r}: need data or length")
        size = len(data) if data is not None else int(length)
        arr = TracedArray(self, name, size)
        if data is not None:
            for i, item in enumerate(data):
                arr._elements[i] = self._new_input(f"{name}[{i}]", item)
        return arr

    # -- operations ---------------------------------------------------------------

    def binary(
        self,
        op: str,
        a: "Value | Number",
        b: "Value | Number",
        _concrete_op: Optional[str] = None,
    ) -> Value:
        """Apply a binary operation, tracing it."""
        lhs = self.lift(a)
        rhs = self.lift(b)
        fn = _CONCRETE_BINOPS[_concrete_op or op]
        return self._new_compute(op, [lhs, rhs], fn(lhs.concrete, rhs.concrete))

    def unary(self, op: str, a: "Value | Number") -> Value:
        """Apply a unary operation, tracing it."""
        operand = self.lift(a)
        fn = _CONCRETE_UNOPS[op]
        return self._new_compute(op, [operand], fn(operand.concrete))

    def minimum(self, a, b) -> Value:
        return self.binary("min", a, b)

    def maximum(self, a, b) -> Value:
        return self.binary("max", a, b)

    def sqrt(self, a) -> Value:
        return self.unary("sqrt", a)

    def exp(self, a) -> Value:
        return self.unary("exp", a)

    def tanh(self, a) -> Value:
        return self.unary("tanh", a)

    def sigmoid(self, a) -> Value:
        return self.unary("sigmoid", a)

    def relu(self, a) -> Value:
        return self.unary("relu", a)

    def select(self, cond: Value, if_true, if_false) -> Value:
        """Traced multiplexer: concrete branch taken, both inputs recorded."""
        t_val = self.lift(if_true)
        f_val = self.lift(if_false)
        concrete = t_val.concrete if cond.concrete else f_val.concrete
        return self._new_compute("select", [cond, t_val, f_val], concrete)

    # -- finishing -----------------------------------------------------------------

    def output(self, value: "Value | Number", label: Optional[str] = None) -> None:
        """Mark *value* as a kernel output."""
        lifted = self.lift(value)
        self._outputs.append(
            self.dfg.append(NodeKind.OUTPUT, None, (lifted.node_id,), label)
        )
        self._output_values.append(lifted.concrete)

    def finish(self) -> Dfg:
        """Validate and return the recorded dataflow graph.

        Dead compute vertices (values whose results never reach an output)
        are eliminated, matching a dynamic trace of an optimised binary.
        The surviving vertices keep their creation order, renumbered from
        0, and the graph is validated once, here.
        """
        if not self._outputs:
            raise GraphStructureError(
                f"{self.name}: kernel declared no outputs; call output()"
            )
        # Each constant Value points back at this tracer; dropping them
        # breaks the only Tracer <-> Value cycle, so reference counting
        # frees a finished trace without the cyclic collector.
        self._consts.clear()
        return dead_code_eliminate(self.dfg).validate()

    def kernel(self) -> TracedKernel:
        """Finish the trace and bundle it with the memory-access counts."""
        return TracedKernel(
            name=self.name,
            dfg=self.finish(),
            memory_reads=self.memory_reads,
            memory_writes=self.memory_writes,
            output_values=tuple(self._output_values),
        )
