"""CMOS process-node registry, parsing, and node-era grouping.

The paper groups chips into *node eras* twice:

* Fig 3b (transistor count vs. density factor) uses the eras
  ``180nm-90nm``, ``80nm-45nm``, ``40nm-20nm``, ``16nm-12nm``.
* Fig 3c (transistor budget vs. TDP) uses the eras
  ``55nm-40nm``, ``32nm-28nm``, ``22nm-12nm``, ``10nm-5nm`` (the last one a
  projection).

The *density factor* ``D = area / node^2`` (mm^2 / nm^2, scaled by 1e6 to keep
numbers readable in the paper's figure axes — we keep raw mm^2/nm^2 and note
the scale where it matters) is the x-axis of the Fig 3b regression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.errors import UnknownNodeError

#: Process nodes (nm) appearing anywhere in the paper, newest last.
CANONICAL_NODES: tuple[float, ...] = (
    180.0, 130.0, 110.0, 90.0, 80.0, 65.0, 55.0, 45.0, 40.0, 32.0, 28.0,
    22.0, 20.0, 16.0, 14.0, 12.0, 10.0, 7.0, 5.0,
)

#: The final CMOS node projected by IRDS 2017 and used for the wall study.
FINAL_NODE: float = 5.0

#: Bounds for node parsing: the canonical roadmap's span, which also
#: catches unit mistakes (e.g. 0.028 for 28nm).
_MIN_NODE_NM: float = min(CANONICAL_NODES)
_MAX_NODE_NM: float = max(CANONICAL_NODES)

_VALID_RANGE = (_MAX_NODE_NM, _MIN_NODE_NM)

_NODE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*nm\s*$", re.IGNORECASE)


def parse_node(node: "float | int | str") -> float:
    """Normalise a node given as ``28``, ``28.0`` or ``"28nm"`` to float nm.

    Raises :class:`repro.errors.UnknownNodeError` for values outside the
    modelled range (5nm..180nm) or unparseable strings.
    """
    if isinstance(node, str):
        match = _NODE_RE.match(node)
        if match is None:
            raise UnknownNodeError(node, _VALID_RANGE)
        value = float(match.group(1))
    else:
        value = float(node)
    if not (_MIN_NODE_NM <= value <= _MAX_NODE_NM):
        raise UnknownNodeError(node, _VALID_RANGE)
    return value


def density_factor(area_mm2: float, node_nm: float) -> float:
    """Chip transistor density factor ``D = A / N^2`` in mm^2/nm^2.

    This is the abscissa of the paper's Fig 3b.  ``D`` grows with die area and
    with process shrinks; a 100mm^2 die at 10nm has ``D = 1.0``.
    """
    if area_mm2 <= 0:
        raise ValueError(f"die area must be positive, got {area_mm2!r}")
    node = parse_node(node_nm)
    return area_mm2 / (node * node)


@dataclass(frozen=True)
class NodeEra:
    """A contiguous range of process nodes treated as one technology era."""

    name: str
    newest_nm: float  # smallest feature size in the era
    oldest_nm: float  # largest feature size in the era

    def __post_init__(self) -> None:
        if self.newest_nm > self.oldest_nm:
            raise ValueError(
                f"era {self.name!r}: newest node {self.newest_nm} must be <= "
                f"oldest node {self.oldest_nm}"
            )

    def __contains__(self, node: object) -> bool:
        try:
            value = parse_node(node)  # type: ignore[arg-type]
        except UnknownNodeError:
            return False
        return self.newest_nm <= value <= self.oldest_nm

    @property
    def midpoint_nm(self) -> float:
        """Geometric midpoint of the era, used for representative scaling."""
        return (self.newest_nm * self.oldest_nm) ** 0.5


#: Node eras used by the Fig 3b transistor-count regression legend.
NODE_ERAS_DENSITY: tuple[NodeEra, ...] = (
    NodeEra("180nm-90nm", 90.0, 180.0),
    NodeEra("80nm-45nm", 45.0, 80.0),
    NodeEra("40nm-20nm", 20.0, 40.0),
    NodeEra("16nm-12nm", 12.0, 16.0),
)

#: Node eras used by the Fig 3c TDP transistor-budget fits.
NODE_ERAS_TDP: tuple[NodeEra, ...] = (
    NodeEra("55nm-40nm", 40.0, 55.0),
    NodeEra("32nm-28nm", 28.0, 32.0),
    NodeEra("22nm-12nm", 12.0, 22.0),
    NodeEra("10nm-5nm", 5.0, 10.0),
)


def era_for_node(
    node: "float | int | str",
    eras: Sequence[NodeEra] = NODE_ERAS_TDP,
    *,
    nearest: bool = True,
) -> Optional[NodeEra]:
    """Return the era containing *node*.

    When *nearest* is true (the default) a node falling in a gap between eras
    is assigned to the era whose boundary is geometrically closest, so every
    modelled node maps to some era.  With ``nearest=False`` gaps return
    ``None``.
    """
    value = parse_node(node)
    for era in eras:
        if value in era:
            return era
    if not nearest:
        return None

    def distance(era: NodeEra) -> float:
        if value < era.newest_nm:
            return era.newest_nm / value
        return value / era.oldest_nm

    return min(eras, key=distance)


def nodes_between(
    oldest_nm: float, newest_nm: float, nodes: Iterable[float] = CANONICAL_NODES
) -> tuple[float, ...]:
    """All canonical nodes in ``[newest_nm, oldest_nm]``, oldest first."""
    lo, hi = sorted((parse_node(oldest_nm), parse_node(newest_nm)))
    selected = [n for n in nodes if lo <= n <= hi]
    return tuple(sorted(selected, reverse=True))
