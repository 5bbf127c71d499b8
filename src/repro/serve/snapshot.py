"""Snapshotted fitted-model state for fast warm-replica startup.

A multi-worker ``repro serve`` boots N replicas of the same fitted
state.  Loading that state means refitting the CMOS potential model,
rebuilding every case study, tracing the served kernels, and building
the Figs 15-16 frontier-fit projections — work that is identical in
every replica.  The supervisor therefore does it **once**: it builds a
:class:`ServeSnapshot`, pickles it to a file, and each worker (including
every crash-restarted replacement) unpickles instead of refitting.

The snapshot carries only deterministic fitted state, and the prebuilt
artifact payloads go through the same builders and ``_jsonable``
coercion as ``repro export``, so a snapshot-booted worker serves
payloads bit-identical to a cold-booted single-process server — the
golden parity the drift comparator checks.

Pieces that fail to pickle are dropped (logged) rather than fatal: a
worker falls back to lazily loading whatever the snapshot is missing.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.log import get_logger, kv
from repro.obs.trace import span

__all__ = ["SNAPSHOT_VERSION", "ServeSnapshot", "build_snapshot", "load_snapshot"]

logger = get_logger("serve.snapshot")

#: Bumped whenever the snapshot layout changes; a version-mismatched file
#: is rejected at load time and the worker boots cold instead.
SNAPSHOT_VERSION = 2

#: Workloads whose kernels are pre-traced into the snapshot (the full
#: served set — tracing is the dominant per-workload startup cost).
SNAPSHOT_WORKLOADS = ("FFT", "GMM", "S3D", "SRT")

#: Export artifacts prebuilt into the snapshot.  Only engine-free builders
#: belong here (sweep-backed artifacts are request-time work); fig15_16
#: also backs ``GET /wall/projections``, the hottest read endpoint.
SNAPSHOT_ARTIFACTS = ("fig15_16", "table5")


@dataclass
class ServeSnapshot:
    """Everything a serve replica needs that is identical across replicas."""

    model: Any                                  # fitted CmosPotentialModel
    studies: Dict[str, Any] = field(default_factory=dict)   # name -> study
    kernels: Dict[str, Any] = field(default_factory=dict)   # ABBREV -> kernel
    artifacts: Dict[str, Any] = field(default_factory=dict)  # name -> payload
    tech_models: Dict[str, Any] = field(default_factory=dict)  # tech -> model
    created_unix: float = field(default_factory=time.time)
    version: int = SNAPSHOT_VERSION


def build_snapshot(model: Optional[Any] = None) -> ServeSnapshot:
    """Fit/trace/build the shared serving state once (supervisor startup)."""
    from repro.cli import STUDIES, _study_object
    from repro.cmos.model import CmosPotentialModel
    from repro.reporting.export import _jsonable, artifact_builders
    from repro.tech import backend_names, get_backend
    from repro.workloads import get_workload

    with span("serve.snapshot.build"):
        if model is None:
            model = CmosPotentialModel.paper()
        studies = {name: _study_object(name, model) for name in STUDIES}
        kernels = {
            abbrev: get_workload(abbrev).build() for abbrev in SNAPSHOT_WORKLOADS
        }
        builders = artifact_builders(model)
        artifacts = {
            name: _jsonable(builders[name]())
            for name in SNAPSHOT_ARTIFACTS
            if name in builders
        }
        # Fit every registered backend's potential model once, so warm
        # replicas answer ``?tech=`` requests without refitting.
        tech_models = {name: get_backend(name).model() for name in backend_names()}
    return ServeSnapshot(
        model=model,
        studies=studies,
        kernels=kernels,
        artifacts=artifacts,
        tech_models=tech_models,
    )


def save_snapshot(snapshot: ServeSnapshot, path: os.PathLike) -> Path:
    """Pickle *snapshot* atomically; unpicklable sections are dropped.

    Dropping is per-section: if e.g. one study object refuses to pickle,
    workers still warm-boot the model and kernels and lazily rebuild the
    studies.  Only a model that itself cannot pickle is fatal.
    """
    path = Path(path)
    for section in ("studies", "kernels", "artifacts", "tech_models"):
        table = getattr(snapshot, section)
        for key in list(table):
            try:
                pickle.dumps(table[key])
            except Exception as exc:  # noqa: BLE001 - degrade, don't die
                logger.warning(
                    "snapshot.drop %s",
                    kv(section=section, key=key, error=type(exc).__name__),
                )
                del table[key]
    payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    logger.info(
        "snapshot.saved %s",
        kv(
            path=str(path),
            bytes=len(payload),
            studies=len(snapshot.studies),
            kernels=len(snapshot.kernels),
            artifacts=len(snapshot.artifacts),
        ),
    )
    return path


def load_snapshot(path: os.PathLike) -> Optional[ServeSnapshot]:
    """Unpickle a snapshot; ``None`` (cold boot) on any mismatch/corruption."""
    try:
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
    except Exception as exc:  # noqa: BLE001 - cold boot is the fallback
        logger.warning(
            "snapshot.load_failed %s",
            kv(path=str(path), error=f"{type(exc).__name__}: {exc}"),
        )
        return None
    if not isinstance(snapshot, ServeSnapshot) or snapshot.version != SNAPSHOT_VERSION:
        logger.warning(
            "snapshot.version_mismatch %s",
            kv(path=str(path), found=getattr(snapshot, "version", None)),
        )
        return None
    return snapshot
