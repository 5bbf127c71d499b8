"""Functional-unit and memory resource library for the accelerator model.

Costs are calibrated at the 45nm reference node (energy per operation in
nanojoules, latency in cycles at the node's base clock, leakage per
provisioned unit in watts) and scaled to other nodes through the device
scaling table (Fig 3a).  The *simplification degree* knob narrows datapaths
and deepens pipelines: energy and leakage shrink geometrically with degree,
while past :data:`PIPELINE_KNEE` the extra pipeline stages start to cost
latency — reproducing the diminishing-returns knee of Fig 13.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.cmos.scaling import DeviceScaling, ScalingTable, default_scaling_table
from repro.errors import InvalidDesignPointError, ValidationError


class OpClass(enum.Enum):
    """Functional-unit classes operations map onto."""

    ALU = "alu"          # add/sub/logic/compare/select: 1-cycle integer units
    MULTIPLIER = "mul"   # multiply
    DIVIDER = "div"      # divide, square root
    SPECIAL = "special"  # transcendental / activation functions
    MEMORY = "mem"       # scratchpad ports (loads, stores)


#: Operation name -> functional-unit class.
_OP_CLASS: Dict[str, OpClass] = {
    "add": OpClass.ALU, "sub": OpClass.ALU, "neg": OpClass.ALU,
    "abs": OpClass.ALU, "min": OpClass.ALU, "max": OpClass.ALU,
    "cmp": OpClass.ALU, "select": OpClass.ALU, "and": OpClass.ALU,
    "or": OpClass.ALU, "xor": OpClass.ALU, "not": OpClass.ALU,
    "shl": OpClass.ALU, "shr": OpClass.ALU, "mod": OpClass.ALU,
    "relu": OpClass.ALU, "fused": OpClass.ALU,
    "mul": OpClass.MULTIPLIER,
    "div": OpClass.DIVIDER, "sqrt": OpClass.DIVIDER,
    "exp": OpClass.SPECIAL, "log": OpClass.SPECIAL,
    "tanh": OpClass.SPECIAL, "sigmoid": OpClass.SPECIAL,
    "load": OpClass.MEMORY, "store": OpClass.MEMORY,
}


def op_class(op: str) -> OpClass:
    """Functional-unit class of an operation name."""
    try:
        return _OP_CLASS[op]
    except KeyError:
        raise InvalidDesignPointError(f"unknown operation {op!r}") from None


@dataclass(frozen=True)
class OpCosts:
    """Per-class costs at the 45nm reference node, simplification degree 1."""

    latency_cycles: int
    energy_nj: float
    leakage_w_per_unit: float

    def __post_init__(self) -> None:
        # The schedulers count time in whole cycles, and the batch event
        # loop's cycle buckets need every op to take at least one.
        latency = self.latency_cycles
        if not isinstance(latency, int) or latency < 1:
            raise ValidationError(
                f"latency_cycles must be an int >= 1, got {latency!r}"
            )


#: Reference costs, loosely calibrated on Galal & Horowitz FPU data and
#: Aladdin's 40nm component tables (relative magnitudes matter, not absolutes).
DEFAULT_COSTS: Dict[OpClass, OpCosts] = {
    OpClass.ALU: OpCosts(latency_cycles=1, energy_nj=0.002, leakage_w_per_unit=1.0e-4),
    OpClass.MULTIPLIER: OpCosts(latency_cycles=3, energy_nj=0.008, leakage_w_per_unit=5.0e-4),
    OpClass.DIVIDER: OpCosts(latency_cycles=12, energy_nj=0.020, leakage_w_per_unit=1.0e-3),
    OpClass.SPECIAL: OpCosts(latency_cycles=8, energy_nj=0.015, leakage_w_per_unit=8.0e-4),
    OpClass.MEMORY: OpCosts(latency_cycles=2, energy_nj=0.005, leakage_w_per_unit=3.0e-4),
}

#: Simplification degree beyond which added pipeline depth costs latency.
PIPELINE_KNEE: int = 9

#: Per-degree geometric savings factors for simplification.
ENERGY_SAVING_PER_DEGREE: float = 0.94
LEAKAGE_SAVING_PER_DEGREE: float = 0.92
ENERGY_SAVING_FLOOR: float = 0.35
LEAKAGE_SAVING_FLOOR: float = 0.30

#: Base accelerator clock at the 45nm reference node (MHz).
BASE_CLOCK_MHZ: float = 1000.0

#: Operation-chaining headroom: how many dependent ALU ops fit in one 45nm
#: cycle when computation heterogeneity (fusion) is enabled.  Faster nodes
#: fit proportionally more (paper Section VI's stencil case study).
BASE_FUSION_WINDOW: float = 2.0


class ResourceLibrary:
    """Node- and degree-aware resource cost lookup."""

    def __init__(
        self,
        costs: Mapping[OpClass, OpCosts] = DEFAULT_COSTS,
        scaling: ScalingTable = None,
    ):
        self._costs = dict(costs)
        self._scaling = scaling if scaling is not None else default_scaling_table()
        self._op_energy_table: Dict[str, float] = {}

    @property
    def scaling(self) -> ScalingTable:
        return self._scaling

    def costs(self, klass: OpClass) -> OpCosts:
        return self._costs[klass]

    def _rel(self, node_nm: float) -> DeviceScaling:
        return self._scaling.relative(node_nm)

    def clock_mhz(self, node_nm: float) -> float:
        """Accelerator clock at *node*: base clock scaled by device speed."""
        return BASE_CLOCK_MHZ * self._rel(node_nm).frequency

    def fusion_window(self, node_nm: float, heterogeneity: bool) -> int:
        """Dependent ALU ops chainable per cycle at *node*."""
        if not heterogeneity:
            return 1
        return max(1, int(round(BASE_FUSION_WINDOW * self._rel(node_nm).frequency)))

    def energy_scale(self, node_nm: float, simplification: int) -> float:
        """Dynamic-energy multiplier vs. (45nm, degree 1)."""
        saving = max(
            ENERGY_SAVING_FLOOR, ENERGY_SAVING_PER_DEGREE ** (simplification - 1)
        )
        return self._rel(node_nm).dynamic_energy * saving

    def leakage_scale(self, node_nm: float, simplification: int) -> float:
        """Leakage multiplier vs. (45nm, degree 1)."""
        saving = max(
            LEAKAGE_SAVING_FLOOR, LEAKAGE_SAVING_PER_DEGREE ** (simplification - 1)
        )
        return self._rel(node_nm).leakage_power * saving

    def latency_extra(self, simplification: int) -> int:
        """Extra pipeline cycles per op past the deep-pipelining knee."""
        return max(0, simplification - PIPELINE_KNEE)

    def op_energy_table(self) -> Dict[str, float]:
        """Reference energy per operation name (45nm, degree 1), cached.

        Flattens the op -> class -> costs indirection into one dict lookup
        so per-op energy summation over a schedule does no enum churn.
        Values are exactly ``costs(op_class(op)).energy_nj``.
        """
        if not self._op_energy_table:
            self._op_energy_table = {
                op: self._costs[klass].energy_nj
                for op, klass in _OP_CLASS.items()
                if klass in self._costs
            }
        return self._op_energy_table

    def op_energy_nj(self, op: str, node_nm: float, simplification: int) -> float:
        """Energy of one *op* at *node* and *simplification* degree."""
        base = self._costs[op_class(op)].energy_nj
        return base * self.energy_scale(node_nm, simplification)

    def unit_leakage_w(
        self, klass: OpClass, node_nm: float, simplification: int
    ) -> float:
        """Leakage of one provisioned unit of *klass*."""
        base = self._costs[klass].leakage_w_per_unit
        return base * self.leakage_scale(node_nm, simplification)
