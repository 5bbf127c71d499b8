"""Technology-backend protocol and registry.

The paper's potential model is calibrated to planar/bulk CMOS.  A
:class:`TechBackend` packages one alternative device technology as the
same model machinery — a :class:`~repro.cmos.model.CmosPotentialModel`
built from (possibly re-parameterised) Fig 3a/3b/3c fits — plus the
metadata, parameter provenance, and wall-envelope hooks the scenario
engine (:mod:`repro.tech.scenarios`) needs to answer "does the
accelerator wall move under technology T?".

Backends register into a process-global registry; the built-in set
(``cmos``, ``finfet``, ``tfet``, ``chiplet``) is registered when
:mod:`repro.tech` is imported.  The ``cmos`` backend *is* the paper
model — bit-identical to ``CmosPotentialModel.paper()`` — and acts as
the scalar oracle every other backend's deltas are measured against.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from repro.cmos.model import CmosPotentialModel
from repro.cmos.nodes import CANONICAL_NODES
from repro.errors import ValidationError
from repro.memo import memo
from repro.wall.limits import DomainLimits

__all__ = [
    "TechMetadata",
    "TechBackend",
    "register_backend",
    "get_backend",
    "backend_names",
    "backend_index",
]

#: Node grid the per-backend scaling surfaces are reported over (newest
#: last, matching the direction "monotone in node" is checked in).
SURFACE_NODES: Tuple[float, ...] = tuple(sorted(CANONICAL_NODES, reverse=True))


@dataclass(frozen=True)
class TechMetadata:
    """Identity and provenance of one technology backend.

    ``parameters`` is the backend's full knob set; its canonical JSON
    encoding is content-hashed into provenance manifests so two runs can
    be compared at the parameter level, not just by backend name.
    """

    name: str
    display_name: str
    description: str
    #: Where the parameter values come from (paper/table citation).
    source: str
    parameters: Mapping[str, Union[float, int, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValidationError(
                f"backend name must be a non-empty identifier, got {self.name!r}"
            )


class TechBackend:
    """One device technology expressed through the paper's model machinery.

    Subclasses implement :meth:`build_model`; everything else — caching,
    parameter hashing, the density/TDP/frequency-energy scaling surfaces,
    and the Table V envelope hook — is shared.  The built model is kept in
    the process memo (:mod:`repro.memo`) under :meth:`memo_key`, so every
    instance with the same name and parameters shares one model, and a
    forked serve worker inherits the models its supervisor built.
    """

    def __init__(self, metadata: TechMetadata):
        self._metadata = metadata
        # The parameters are fixed at construction, so they are hashed
        # once: memo_key() runs on every model() call and every
        # ``/csr?tech=`` request.
        canonical = json.dumps(
            {"name": metadata.name, "parameters": dict(metadata.parameters)},
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        self._param_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def metadata(self) -> TechMetadata:
        return self._metadata

    @property
    def name(self) -> str:
        return self._metadata.name

    # -- model construction --------------------------------------------------

    def build_model(self) -> CmosPotentialModel:
        """Construct the backend's fitted potential model (uncached)."""
        raise NotImplementedError

    def model(self) -> CmosPotentialModel:
        """The backend's potential model, built once per process."""
        return memo(("tech.model",) + self.memo_key(), self.build_model)

    # -- provenance ----------------------------------------------------------

    def param_hash(self) -> str:
        """Content hash of the backend's parameter set (sha256 hex)."""
        return self._param_hash

    def memo_key(self) -> Tuple[str, str]:
        """The backend's :mod:`repro.memo` key: name plus :meth:`param_hash`.

        The name alone is not enough: ``chiplet_backend(base)`` is named
        ``chiplet`` whatever its base.
        """
        return (self.name, self.param_hash())

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly description (``GET /tech`` and manifest payloads)."""
        return {
            "name": self.name,
            "display_name": self._metadata.display_name,
            "description": self._metadata.description,
            "source": self._metadata.source,
            "parameters": dict(self._metadata.parameters),
            "param_hash": self.param_hash(),
        }

    # -- scenario hooks ------------------------------------------------------

    def wall_limits(self, row: DomainLimits) -> DomainLimits:
        """The Table V envelope as this technology sees it.

        Default: unchanged.  Backends override to move the physical
        envelope itself — chiplets lift the die-size ceiling past the
        reticle, slower devices derate the achievable clock.
        """
        return row

    def wall_limit_candidates(self, row: DomainLimits) -> Tuple[DomainLimits, ...]:
        """Alternative Table V envelopes this technology could build.

        The scenario engine evaluates every candidate and keeps the best:
        disaggregation (or any other envelope change) is a design *option*,
        so a backend's wall is never worse than declining to use it.
        Default: just :meth:`wall_limits`.
        """
        return (self.wall_limits(row),)

    def die_count(self, area_mm2: float) -> int:
        """Dies a chip of *area* is split into (1 for monolithic techs)."""
        return 1

    # -- scaling surfaces ----------------------------------------------------

    def density_surface(
        self,
        nodes: Sequence[float] = SURFACE_NODES,
        area_mm2: float = 100.0,
    ) -> Dict[float, float]:
        """Fig 3b surface: predicted transistor count per node at fixed area."""
        fit = self.model().density_fit
        return {node: fit.transistors_for_chip(area_mm2, node) for node in nodes}

    def tdp_surface(
        self,
        nodes: Sequence[float] = SURFACE_NODES,
        tdp_w: float = 100.0,
        frequency_mhz: float = 1000.0,
    ) -> Dict[float, float]:
        """Fig 3c surface: active-transistor budget per node at fixed TDP."""
        tdp_model = self.model().tdp_model
        return {
            node: tdp_model.active_transistors(node, tdp_w, frequency_mhz)
            for node in nodes
        }

    def frequency_energy_surface(
        self, nodes: Sequence[float] = SURFACE_NODES
    ) -> Dict[float, Dict[str, float]]:
        """Fig 3a surface: per-node device operating point (absolute table)."""
        scaling = self.model().scaling
        surface: Dict[float, Dict[str, float]] = {}
        for node in nodes:
            row = scaling.scaling(node)
            surface[node] = {
                "vdd": row.vdd,
                "frequency": row.frequency,
                "dynamic_energy": row.dynamic_energy,
                "leakage_power": row.leakage_power,
            }
        return surface


# -- registry ---------------------------------------------------------------

_REGISTRY: Dict[str, TechBackend] = {}
_REGISTRY_LOCK = threading.Lock()


def register_backend(backend: TechBackend, replace: bool = False) -> TechBackend:
    """Add *backend* to the global registry (keyed by its metadata name)."""
    with _REGISTRY_LOCK:
        if backend.name in _REGISTRY and not replace:
            raise ValidationError(
                f"technology backend {backend.name!r} is already registered"
            )
        _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> TechBackend:
    """Look up a registered backend; raises with the valid names on a miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown technology backend {name!r}; registered: "
            f"{', '.join(backend_names())}"
        ) from None


def backend_names() -> List[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def backend_index() -> List[Dict[str, object]]:
    """``to_dict()`` of every registered backend, sorted by name."""
    return [_REGISTRY[name].to_dict() for name in backend_names()]
