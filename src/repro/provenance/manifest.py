"""Run manifests and the append-only run ledger.

A :class:`RunManifest` answers "which code, config, inputs, and timings
produced this artifact?" for one CLI/benchmark invocation: git SHA and
dirty flag, interpreter/numpy/platform versions, the CLI argv, content
hashes of the model configuration and of every input dataset (the
reference datasheet population by what it is generated from),
wall-clock, the metrics snapshot and per-stage self-time table from the
observability layer, engine/cache statistics, golden-number scalars, and
(for ``repro check``) per-check outcomes.

Manifests are stamped into every exported artifact JSON (see
:mod:`repro.reporting.export`) and persisted by the :class:`RunLedger` as
``<runs-dir>/<run_id>/manifest.json``.  The ledger is append-only across
runs: a run records its own manifest (the CLI records it once, after the
command, with its final metrics snapshot and stages) and never touches
another run's entry; :meth:`RunLedger.prune` is the only destructive
operation.

The runs directory resolves, in order: an explicit argument, the
``REPRO_RUNS_DIR`` environment variable, then ``<default-cache-dir>/runs``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union, get_origin, get_type_hints

from repro.errors import ValidationError
from repro.obs.log import get_logger, kv

logger = get_logger("provenance.manifest")

__all__ = [
    "ENV_RUNS_DIR",
    "SCHEMA_VERSION",
    "RunLedger",
    "RunManifest",
    "capture",
    "default_runs_dir",
    "git_state",
    "input_fingerprints",
    "model_fingerprint",
    "read_json_object",
    "write_json_atomic",
]

#: Provenance schema version; stamped into manifests, exported artifacts,
#: Chrome traces, metrics snapshots, and BENCH entries.  Bump on any
#: incompatible change so :mod:`repro.provenance.drift` can refuse to
#: compare runs recorded by a different layout.
SCHEMA_VERSION: int = 1

#: Environment variable overriding the default runs (ledger) directory.
ENV_RUNS_DIR: str = "REPRO_RUNS_DIR"

PathLike = Union[str, Path]


def default_runs_dir() -> Path:
    """``$REPRO_RUNS_DIR`` if set, else ``<default-cache-dir>/runs``."""
    env = os.environ.get(ENV_RUNS_DIR)
    if env:
        return Path(env).expanduser()
    from repro.accel.cache import default_cache_dir

    return default_cache_dir() / "runs"


# -- content fingerprints -----------------------------------------------------


def _digest(parts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")  # unit separator: ("ab","c") != ("a","bc")
    return h.hexdigest()


def git_state(cwd: Optional[PathLike] = None) -> Dict[str, object]:
    """``{"sha": ..., "dirty": ...}`` of the working tree, best-effort.

    Outside a git checkout (or without a ``git`` binary) both fields are
    ``None`` — provenance capture must never fail the run it describes.
    """

    def run(*argv: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                argv,
                cwd=str(cwd) if cwd is not None else None,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout if proc.returncode == 0 else None

    sha = run("git", "rev-parse", "HEAD")
    if sha is None:
        return {"sha": None, "dirty": None}
    status = run("git", "status", "--porcelain")
    return {
        "sha": sha.strip(),
        "dirty": None if status is None else bool(status.strip()),
    }


def model_fingerprint(model=None) -> str:
    """Stable content hash of a :class:`CmosPotentialModel`'s parameters.

    Covers the density power law, the per-era TDP laws, and the device
    scaling table — everything that determines the model's numbers — so
    two runs with the same fingerprint used the same model configuration.
    """
    from repro.cmos.model import CmosPotentialModel

    m = model if model is not None else CmosPotentialModel.paper()
    parts: List[str] = [
        f"density:{m.density_fit.coefficient!r}:{m.density_fit.exponent!r}"
    ]
    for fit in m.tdp_model.fits:
        parts.append(f"tdp:{fit.era.name}:{fit.coefficient!r}:{fit.exponent!r}")
    table = m.scaling
    for node in sorted(table.nodes):
        s = table.scaling(node)
        parts.append(
            f"scaling:{node!r}:{s.vdd!r}:{s.frequency!r}:{s.capacitance!r}"
        )
    return _digest(parts)


def input_fingerprints() -> Dict[str, str]:
    """Content hash per input dataset: the fit population and each study.

    The fit population is hashed by what it is generated from
    (:func:`repro.datasheets.reference.reference_fingerprint`), so a run
    that never refits never generates it.
    """
    from repro.datasheets.reference import reference_fingerprint
    from repro.studies import STUDIES, named_study

    hashes = {"reference_database": reference_fingerprint()}
    for name in STUDIES:
        study = named_study(name)
        hashes[f"study:{study.name}"] = study.fingerprint()
    return hashes


# -- the manifest -------------------------------------------------------------


@dataclass
class RunManifest:
    """Provenance record of one run; persisted as ``manifest.json``.

    Identity fields (``run_id`` .. ``input_hashes``) are filled by
    :func:`capture` when the run starts; the observability fields
    (``metrics``, ``stages``, ``engine``), the golden-number map, the
    check outcomes, and ``elapsed_s`` accumulate as the run progresses.
    """

    run_id: str
    schema_version: int
    command: str
    argv: List[str]
    created_at: str
    created_unix: float
    git: Dict[str, object]
    environment: Dict[str, str]
    config_hashes: Dict[str, str]
    input_hashes: Dict[str, str]
    elapsed_s: float = 0.0
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    stages: List[Dict[str, object]] = field(default_factory=list)
    engine: Dict[str, object] = field(default_factory=dict)
    golden: Dict[str, float] = field(default_factory=dict)
    checks: List[Dict[str, object]] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunManifest":
        """Validated load; raises :class:`ValidationError` when unreadable.

        A missing or different ``schema_version`` means the run was
        recorded under an incompatible layout — refused rather than
        half-parsed, so drift comparisons never silently mix schemas.
        """
        if not isinstance(payload, dict):
            raise ValidationError(
                f"manifest payload must be an object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValidationError(
                f"manifest {payload.get('run_id', '?')!r} has schema_version "
                f"{version!r}; this build reads version {SCHEMA_VERSION}"
            )
        required = (
            "run_id", "command", "argv", "created_at", "created_unix",
            "git", "environment", "config_hashes", "input_hashes",
        )
        missing = [name for name in required if name not in payload]
        if missing:
            raise ValidationError(
                f"manifest {payload.get('run_id', '?')!r} is missing "
                f"required fields {missing}"
            )
        hints = get_type_hints(cls)
        for name, value in payload.items():
            if name not in hints:
                continue
            kind = get_origin(hints[name]) or hints[name]
            if kind in (int, float):
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            else:
                ok = isinstance(value, kind)
            if not ok:
                raise ValidationError(
                    f"manifest {payload.get('run_id', '?')!r} field {name!r} "
                    f"must be a {kind.__name__}, got {type(value).__name__}"
                )
        return cls(**{k: v for k, v in payload.items() if k in hints})

    def artifact_block(self) -> Dict[str, object]:
        """The compact provenance stamp embedded in exported artifacts.

        Everything needed to join an artifact back to its ledger entry and
        to audit what produced it: identity, git state, config/input
        hashes, and the metrics snapshot at write time.  The per-stage
        table and golden map stay in the ledger copy only.
        """
        return {
            "run_id": self.run_id,
            "schema_version": self.schema_version,
            "command": self.command,
            "argv": list(self.argv),
            "created_at": self.created_at,
            "git": dict(self.git),
            "environment": dict(self.environment),
            "config_hashes": dict(self.config_hashes),
            "input_hashes": dict(self.input_hashes),
            "metrics": self.metrics,
        }


def _mint_run_id(now: float) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(now))
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


def capture(
    command: str,
    argv: Optional[Sequence[str]] = None,
    model=None,
    tech: Optional[str] = None,
) -> RunManifest:
    """Start a manifest for *command*: mint a run id, record identity.

    *model* is the run's CMOS :class:`CmosPotentialModel` (default: the
    paper model; ``--refit`` passes the refitted one) — only its
    parameter hash is recorded, as ``config_hashes.cmos_model``.

    *tech* is the technology backend the run evaluates under (default
    ``cmos``); the backend's name and its parameter content-hash are
    recorded in ``config_hashes`` so two runs can be compared at the
    backend-parameter level, not just by name.
    """
    tech_name = tech if tech is not None else "cmos"
    try:
        from repro.tech import get_backend

        tech_hash = get_backend(tech_name).param_hash()
    except Exception:
        # An unknown backend name should fail at evaluation time with a
        # real error listing, not while stamping provenance.
        tech_hash = "unavailable"
    now = time.time()
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unavailable"
    return RunManifest(
        run_id=_mint_run_id(now),
        schema_version=SCHEMA_VERSION,
        command=command,
        argv=list(argv) if argv is not None else list(sys.argv[1:]),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(now)),
        created_unix=now,
        git=git_state(),
        environment={
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        config_hashes={
            "cmos_model": model_fingerprint(model),
            "tech_backend": tech_name,
            "tech_params": tech_hash,
        },
        input_hashes=input_fingerprints(),
    )


# -- JSON state files ---------------------------------------------------------


def write_json_atomic(
    path: PathLike, payload: object, indent: Optional[int] = None
) -> Path:
    """Write *payload* as JSON to *path*, atomically; returns the path.

    The JSON goes to a temp file in the same directory (created if
    missing), which ``os.replace`` renames over *path*: a reader sees the
    old file or the new one, never a torn write.  The temp file is
    removed if anything fails.  *indent* pretty-prints files meant for
    people; the compact default encodes several times faster.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=indent)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_json_object(path: PathLike) -> Dict[str, object]:
    """The JSON object stored at *path*.

    Raises :class:`ValidationError` when the file cannot be read or
    decoded, is not JSON, or holds anything but a JSON object: the one
    way a corrupt JSON state file fails.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ValidationError(f"{path} is unreadable: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(
            f"{path} is unreadable: holds a JSON {type(payload).__name__}, "
            "not an object"
        )
    return payload


# -- the ledger ---------------------------------------------------------------


class RunLedger:
    """Append-only store of run manifests: ``<root>/<run_id>/manifest.json``.

    ``record`` writes (or re-writes, for the *same* run id) one entry;
    ``list``/``get`` read entries back as :class:`RunManifest`; ``prune``
    deletes the oldest entries beyond a keep count.  Unreadable or
    incompatible entries are skipped by ``list`` (with a warning) and
    raise :class:`ValidationError` from ``get``.
    """

    def __init__(self, root: Optional[PathLike] = None):
        self.root = Path(root).expanduser() if root is not None else default_runs_dir()

    def _manifest_path(self, run_id: str) -> Path:
        if not run_id or "/" in run_id or run_id in (".", ".."):
            raise ValidationError(f"invalid run id {run_id!r}")
        return self.root / run_id / "manifest.json"

    def record(self, manifest: RunManifest) -> Path:
        """Persist *manifest*; returns the written path (atomic replace)."""
        path = write_json_atomic(
            self._manifest_path(manifest.run_id), manifest.to_dict(), indent=2
        )
        logger.info(
            "ledger.recorded %s",
            kv(run_id=manifest.run_id, command=manifest.command, path=str(path)),
        )
        return path

    def get(self, run_id: str) -> RunManifest:
        """Load one run's manifest; :class:`ValidationError` if absent/bad."""
        path = self._manifest_path(run_id)
        if not path.exists():
            raise ValidationError(
                f"no run {run_id!r} in ledger {self.root} "
                f"(known: {', '.join(self.ids()[-5:]) or 'none'})"
            )
        return RunManifest.from_dict(read_json_object(path))

    def list(self) -> List[RunManifest]:
        """Every readable manifest, oldest first."""
        manifests = []
        if not self.root.is_dir():
            return manifests
        for entry in sorted(self.root.iterdir()):
            if not (entry / "manifest.json").exists():
                continue
            try:
                manifests.append(self.get(entry.name))
            except ValidationError as exc:
                logger.warning("ledger.skipped %s", kv(run_id=entry.name, error=str(exc)))
        manifests.sort(key=lambda m: (m.created_unix, m.run_id))
        return manifests

    def ids(self) -> List[str]:
        """Run ids, oldest first."""
        return [manifest.run_id for manifest in self.list()]

    def latest(self) -> RunManifest:
        """The newest run; :class:`ValidationError` on an empty ledger."""
        manifests = self.list()
        if not manifests:
            raise ValidationError(f"run ledger {self.root} is empty")
        return manifests[-1]

    def prune(self, keep: int) -> List[str]:
        """Delete all but the newest *keep* runs; returns removed ids."""
        if keep < 0:
            raise ValidationError(f"prune keep count must be >= 0, got {keep}")
        manifests = self.list()
        removed = []
        for manifest in manifests[: max(0, len(manifests) - keep)]:
            shutil.rmtree(self.root / manifest.run_id, ignore_errors=True)
            removed.append(manifest.run_id)
        if removed:
            logger.info("ledger.pruned %s", kv(removed=len(removed), kept=keep))
        return removed

    def __len__(self) -> int:
        return len(self.list())

    def __contains__(self, run_id: object) -> bool:
        return (
            isinstance(run_id, str)
            and (self.root / run_id / "manifest.json").exists()
        )
