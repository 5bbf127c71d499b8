"""The library's default chip population.

``reference_database()`` is the population every model fits against unless
told otherwise: the curated real-chip seed plus the calibrated synthetic
population.  It is deterministic, so a process builds it at most once, in
:mod:`repro.memo`, and only when something refits against it.
``reference_fingerprint()`` hashes what the population is generated from,
so a run can record its provenance without generating it.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

from repro.datasheets import synthetic
from repro.datasheets.curated import curated_database
from repro.datasheets.database import ChipDatabase
from repro.datasheets.synthetic import SyntheticPopulationConfig, synthetic_database
from repro.memo import memo


def reference_database() -> ChipDatabase:
    """Curated seed + default synthetic population (deterministic)."""
    return memo(
        ("datasheets.reference",),
        lambda: curated_database() + synthetic_database(SyntheticPopulationConfig()),
    )


def reference_fingerprint() -> str:
    """Content hash of what :func:`reference_database` is generated from.

    Covers each curated chip's spec, every field of the default
    :class:`SyntheticPopulationConfig` (seed, chips per era, noise sigmas,
    GPU fraction, density and TDP laws) and the generator's own tables
    (era plans, node years, reticle limit).  It never generates the
    population.  The generator's other inputs are numpy's version (its
    RNG) and its code, which a run manifest records as
    ``environment.numpy`` and the git state.
    """
    h = hashlib.sha256()
    for spec in curated_database():
        h.update(
            f"{spec.name}|{spec.category.value}|{spec.node_nm!r}"
            f"|{spec.frequency_mhz!r}|{spec.tdp_w!r}|{spec.area_mm2!r}"
            f"|{spec.transistors!r}|{spec.year!r}\n".encode()
        )
    config = SyntheticPopulationConfig()
    for item in fields(config):
        h.update(f"config.{item.name}={getattr(config, item.name)!r}\n".encode())
    for plan in synthetic._ERA_PLANS:
        h.update(f"era={plan!r}\n".encode())
    h.update(f"node_year={synthetic._NODE_YEAR!r}\n".encode())
    h.update(f"max_area_mm2={synthetic._MAX_AREA_MM2!r}\n".encode())
    return h.hexdigest()
