"""Persistent, content-addressed caching for the DSE pipeline.

Tracing a kernel and scheduling its DFG are by far the most expensive
stages of the Fig 13/14 design-space exploration, yet both are pure
functions of their inputs: a schedule depends only on the DFG structure,
the resource library, and the structural design parameters (partition
factor, fusion window, extra pipeline latency).  This module keys those
artifacts by content fingerprints and persists them on disk, so repeated
sweeps — across processes and across runs — skip straight to the power
model.

Layout: one pickle file per entry under ``<cache-dir>/<kk>/<key>.pkl``
where ``key`` is a SHA-256 over the fingerprint parts and ``kk`` its first
two hex digits.  Every entry embeds :data:`CACHE_VERSION`; bumping the
version (or any fingerprinted input changing) invalidates stale entries,
and corrupted or unreadable files are treated as misses and recomputed.

The cache directory resolves, in order: an explicit argument, the
``REPRO_CACHE_DIR`` environment variable, then ``~/.cache/accelerator-wall``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.accel.resources import OpClass, ResourceLibrary
from repro.accel.scheduler import Schedule
from repro.accel.trace import TracedKernel
from repro.dfg.graph import Dfg
from repro.obs.log import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import span

logger = get_logger("accel.cache")

#: Format version embedded in every entry; bump to invalidate the world.
#: 2: traced graphs are array-backed with ids renumbered after dead-code
#: elimination, so pickled traces and DFG fingerprints changed.
CACHE_VERSION: int = 2

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR: str = "REPRO_CACHE_DIR"

PathLike = Union[str, Path]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/accelerator-wall``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "accelerator-wall"


def resolve_cache_dir(directory: Optional[PathLike] = None) -> Path:
    """Explicit *directory* if given, else :func:`default_cache_dir`."""
    if directory is not None:
        return Path(directory).expanduser()
    return default_cache_dir()


# -- content fingerprints -----------------------------------------------------


def _digest(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")  # unit separator: ("ab","c") != ("a","bc")
    return h.hexdigest()


def dfg_fingerprint(dfg: Dfg) -> str:
    """Stable hash of a DFG's structure (nodes, ops, labels, edges)."""
    lines = [
        f"{nid}:{kind.value}:{op or ''}:{label or ''}\n"
        for nid, (kind, op, label) in enumerate(zip(dfg.kinds, dfg.ops, dfg.labels))
    ]
    offsets, succ = dfg.successor_lists()
    for src in range(len(dfg)):
        for dst in sorted(succ[offsets[src] : offsets[src + 1]]):
            lines.append(f"{src}>{dst}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def kernel_fingerprint(kernel: TracedKernel) -> str:
    """Hash of a traced kernel: name, DFG structure, memory-access counts.

    The concrete input data enters through the DFG (data-dependent control
    flow changes the traced structure) and the access counts, so kernels
    traced from different input seeds fingerprint differently whenever the
    difference is observable by the scheduler or power model.
    """
    return _digest(
        (
            kernel.name,
            str(kernel.memory_reads),
            str(kernel.memory_writes),
            dfg_fingerprint(kernel.dfg),
        )
    )


def library_fingerprint(library: ResourceLibrary) -> str:
    """Hash of a resource library: per-class costs plus scaling anchors."""
    parts = []
    for klass in OpClass:
        costs = library.costs(klass)
        parts.append(
            f"{klass.value}:{costs.latency_cycles}:{costs.energy_nj!r}"
            f":{costs.leakage_w_per_unit!r}"
        )
    table = library.scaling
    for node in sorted(table.nodes):
        s = table.scaling(node)
        parts.append(
            f"{node!r}:{s.vdd!r}:{s.frequency!r}:{s.capacitance!r}"
            f":{s.leakage_power!r}"
        )
    return _digest(parts)


# -- the on-disk store -------------------------------------------------------


class DiskCache:
    """Content-addressed pickle store; misses on corruption or staleness.

    ``get`` never raises on bad entries: unreadable, truncated, or
    version-mismatched files count as misses (and are best-effort deleted)
    so a damaged cache degrades to recomputation, never to wrong results.
    ``put`` writes atomically (temp file + rename), making the cache safe
    for concurrent writers — the engine's worker processes — and is
    likewise non-fatal on *any* failure: I/O errors are silent, while
    serialization failures (an unpicklable value, a ``__reduce__`` that
    raises, recursion blowups on deep DFGs) are counted in ``drops`` and
    the value is simply not cached.

    *name* labels this store's metrics family (``cache.<name>.hits`` …)
    in the process-wide :func:`repro.obs.metrics.metrics` registry.
    """

    def __init__(
        self,
        directory: PathLike,
        version: int = CACHE_VERSION,
        name: str = "disk",
    ):
        self.directory = Path(directory)
        self.version = version
        self.name = name
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Values that could not be serialized and were dropped by ``put``.
        self.drops = 0

    def _count(self, event: str) -> None:
        metrics().counter(f"cache.{self.name}.{event}").inc()

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """Stored value for *key*, or ``None`` on any kind of miss."""
        path = self.path_for(key)
        with span("cache.get", store=self.name):
            try:
                with open(path, "rb") as handle:
                    entry = pickle.load(handle)
            except FileNotFoundError:
                self.misses += 1
                self._count("misses")
                return None
            except Exception:  # corrupt pickle, permission error, bad EOF...
                self.misses += 1
                self._count("misses")
                self._discard(path)
                return None
            if (
                not isinstance(entry, tuple)
                or len(entry) != 2
                or entry[0] != self.version
            ):
                self.misses += 1
                self._count("misses")
                self._discard(path)
                return None
            self.hits += 1
            self._count("hits")
            return entry[1]

    def put(self, key: str, value) -> None:
        """Atomically store *value* under *key*; failures are non-fatal."""
        path = self.path_for(key)
        with span("cache.put", store=self.name):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as handle:
                        pickle.dump((self.version, value), handle)
                    os.replace(tmp, path)
                except BaseException:
                    self._discard(Path(tmp))
                    raise
                self.writes += 1
                self._count("writes")
            except OSError:
                pass  # caching is best-effort; never fail the computation
            except Exception as exc:
                # Unpicklable value: PicklingError, a RuntimeError raised by
                # a __reduce__, RecursionError on a deep DFG...  The temp
                # file was already cleaned up above; record the drop and
                # carry on — a value we cannot cache must never abort the
                # sweep that produced it.
                self.drops += 1
                self._count("drops")
                logger.warning(
                    "cache.put.dropped %s",
                    kv(store=self.name, key=key, error=type(exc).__name__),
                )

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


class ScheduleStore:
    """Persistent schedules keyed by kernel/library/structural fingerprints.

    The key covers exactly the inputs :func:`repro.accel.scheduler.schedule`
    consumes: the DFG (via the kernel fingerprint), the library costs, the
    effective partition factor, fusion window, and extra pipeline latency.
    Node and simplification degree affect only the power model, so design
    points differing only in those share one stored schedule — the same
    structural-reuse rule :class:`repro.accel.sweep.ScheduleCache` applies
    in memory.
    """

    def __init__(
        self,
        directory: Optional[PathLike] = None,
        version: int = CACHE_VERSION,
    ):
        self._disk = DiskCache(
            resolve_cache_dir(directory) / "schedules", version, name="schedules"
        )

    @property
    def hits(self) -> int:
        return self._disk.hits

    @property
    def misses(self) -> int:
        return self._disk.misses

    @property
    def writes(self) -> int:
        return self._disk.writes

    @property
    def drops(self) -> int:
        return self._disk.drops

    @staticmethod
    def key(
        kernel_fp: str,
        library_fp: str,
        partition: int,
        fusion_window: int,
        latency_extra: int,
    ) -> str:
        return _digest(
            (
                "schedule",
                kernel_fp,
                library_fp,
                str(partition),
                str(fusion_window),
                str(latency_extra),
            )
        )

    def get(
        self,
        kernel_fp: str,
        library_fp: str,
        partition: int,
        fusion_window: int,
        latency_extra: int,
    ) -> Optional[Schedule]:
        value = self._disk.get(
            self.key(kernel_fp, library_fp, partition, fusion_window, latency_extra)
        )
        return value if isinstance(value, Schedule) else None

    def put(
        self,
        kernel_fp: str,
        library_fp: str,
        partition: int,
        fusion_window: int,
        latency_extra: int,
        schedule: Schedule,
    ) -> None:
        self._disk.put(
            self.key(kernel_fp, library_fp, partition, fusion_window, latency_extra),
            schedule,
        )


class KernelTraceStore:
    """Persistent traced kernels keyed by workload name.

    Unlike schedules, a trace cannot be content-fingerprinted before it
    exists, so the key is *declarative*: the workload abbreviation,
    salted with :data:`CACHE_VERSION`.  Bump the version when tracer or
    workload semantics change.
    """

    def __init__(
        self,
        directory: Optional[PathLike] = None,
        version: int = CACHE_VERSION,
    ):
        self._disk = DiskCache(
            resolve_cache_dir(directory) / "traces", version, name="traces"
        )

    @property
    def hits(self) -> int:
        return self._disk.hits

    @property
    def misses(self) -> int:
        return self._disk.misses

    @property
    def drops(self) -> int:
        return self._disk.drops

    @staticmethod
    def key(name: str) -> str:
        return _digest(["trace", name])

    def get(self, name: str) -> Optional[TracedKernel]:
        value = self._disk.get(self.key(name))
        return value if isinstance(value, TracedKernel) else None

    def put(self, name: str, kernel: TracedKernel) -> None:
        self._disk.put(self.key(name), kernel)
