"""Design-space sweep machinery (paper Table III, Fig 13).

Sweeps cross the Table III parameters — partitioning factor (powers of two
up to 524288), simplification degree (1..13), CMOS node (45..5nm) — over a
traced kernel, reusing schedules across design points that share structural
parameters (the schedule depends only on partition factor, fusion window and
pipeline latency; node and simplification energy effects are applied by the
power model afterwards).

``sweep()`` is a thin wrapper over :class:`repro.accel.engine.SweepEngine`,
the one executor of sweeps: ``jobs`` shards the grid across worker
processes, and a cache directory (or ``use_cache=True``) persists schedules
on disk across runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.accel.design import (
    MAX_PARTITION_FACTOR,
    MAX_SIMPLIFICATION_DEGREE,
    SWEEP_NODES,
    DesignPoint,
)
from repro.accel.power import PowerReport
from repro.accel.resources import ResourceLibrary
from repro.accel.scheduler import Schedule, schedule as run_schedule
from repro.accel.trace import TracedKernel
from repro.errors import ValidationError
from repro.obs.log import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import span

if TYPE_CHECKING:
    from repro.accel.cache import ScheduleStore

logger = get_logger("accel.sweep")


def table3_partitions(limit: int = MAX_PARTITION_FACTOR) -> Tuple[int, ...]:
    """The Table III partitioning factors: 1, 2, 4, ..., 524288."""
    factors = []
    p = 1
    while p <= limit:
        factors.append(p)
        p *= 2
    return tuple(factors)


def table3_simplifications(
    limit: int = MAX_SIMPLIFICATION_DEGREE,
) -> Tuple[int, ...]:
    """The Table III simplification degrees: 1, 2, ..., 13."""
    return tuple(range(1, limit + 1))


def default_design_grid(
    nodes: Sequence[float] = SWEEP_NODES,
    partitions: Optional[Sequence[int]] = None,
    simplifications: Optional[Sequence[int]] = None,
    heterogeneity: bool = True,
) -> List[DesignPoint]:
    """Full Table III cross product."""
    parts = partitions if partitions is not None else table3_partitions()
    simps = (
        simplifications if simplifications is not None else table3_simplifications()
    )
    return [
        DesignPoint(
            node_nm=node, partition=p, simplification=s, heterogeneity=heterogeneity
        )
        for node in nodes
        for p in parts
        for s in simps
    ]


class ScheduleCache:
    """Schedules keyed by the structural parameters that affect them.

    In-memory memoisation is always on; pass a
    :class:`repro.accel.cache.ScheduleStore` to additionally read/write a
    persistent on-disk cache shared across processes and runs.  Counters
    (``memo_hits``/``memo_misses``, plus the store's own hit/miss counts)
    feed :class:`SweepStats`; scheduler time is the ``schedule`` span.
    """

    def __init__(
        self,
        kernel: TracedKernel,
        library: ResourceLibrary,
        store: Optional["ScheduleStore"] = None,
    ):
        self._kernel = kernel
        self._library = library
        self._cache: Dict[Tuple[int, int, int], Schedule] = {}
        self.store = store
        self.memo_hits = 0
        self.memo_misses = 0
        self._fingerprints: Optional[Tuple[str, str]] = None
        # Partition factors beyond the graph size cannot change the schedule.
        n = len(kernel.dfg)
        cap = 1
        while cap < n:
            cap *= 2
        self._partition_cap = cap

    @property
    def kernel(self) -> TracedKernel:
        return self._kernel

    @property
    def library(self) -> ResourceLibrary:
        return self._library

    @property
    def partition_cap(self) -> int:
        """Smallest power of two >= the DFG size.

        Partition factors beyond it provision every unit the graph can
        demand, so all of them share one schedule.
        """
        return self._partition_cap

    def _store_fingerprints(self) -> Tuple[str, str]:
        if self._fingerprints is None:
            from repro.accel.cache import kernel_fingerprint, library_fingerprint

            self._fingerprints = (
                kernel_fingerprint(self._kernel),
                library_fingerprint(self._library),
            )
        return self._fingerprints

    def structural_key(self, design: DesignPoint) -> Tuple[int, int, int]:
        """The ``(partition, fusion_window, latency_extra)`` of *design*.

        These are the only design parameters a :class:`Schedule` depends
        on; every design point sharing a key shares one schedule.
        """
        return (
            min(design.partition, self._partition_cap),
            self._library.fusion_window(design.node_nm, design.heterogeneity),
            self._library.latency_extra(design.simplification),
        )

    def get(self, design: DesignPoint) -> Schedule:
        partition, window, extra = self.structural_key(design)
        return self.get_structural(partition, window, extra)

    def get_structural(
        self,
        partition: int,
        window: int,
        extra: int,
        compute: Optional[Callable[[], Schedule]] = None,
    ) -> Schedule:
        """Schedule for one structural key (memo -> store -> compute).

        *compute* overrides the scheduler invocation on a full miss — the
        batch evaluator passes its amortized fast path here — and still
        flows through the same ``schedule`` span and store-write plumbing.
        """
        partition = min(partition, self._partition_cap)
        key = (partition, window, extra)
        fingerprints: Optional[Tuple[str, str]] = None
        with span("cache.lookup"):
            cached = self._cache.get(key)
            if cached is not None:
                self.memo_hits += 1
                metrics().counter("cache.memo.hits").inc()
                return cached
            self.memo_misses += 1
            metrics().counter("cache.memo.misses").inc()
            sched = None
            if self.store is not None:
                fingerprints = self._store_fingerprints()
                sched = self.store.get(
                    fingerprints[0], fingerprints[1], partition, window, extra
                )
        if sched is None:
            with span(
                "schedule", partition=partition, window=window, extra=extra
            ):
                if compute is not None:
                    sched = compute()
                else:
                    sched = run_schedule(
                        self._kernel.dfg,
                        partition=partition,
                        library=self._library,
                        fusion_window=window,
                        latency_extra=extra,
                    )
            logger.debug(
                "schedule.computed %s",
                kv(
                    kernel=self._kernel.name,
                    partition=partition,
                    window=window,
                    extra=extra,
                ),
            )
            if self.store is not None:
                # fingerprints were already bound on the lookup above; a
                # miss must not recompute them.
                self.store.put(
                    fingerprints[0], fingerprints[1], partition, window, extra, sched
                )
        self._cache[key] = sched
        return sched

    def record_coalesced(self, count: int) -> None:
        """Account *count* design points served by one deduplicated schedule.

        The batch evaluator performs one real lookup per unique structure;
        the remaining points of that structure are memo hits by definition,
        recorded here so ``memo_hits + memo_misses`` still equals the number
        of design points evaluated — keeping stats comparable with the
        scalar path.
        """
        if count <= 0:
            return
        self.memo_hits += count
        metrics().counter("cache.memo.hits").inc(count)

    def counters(self) -> Dict[str, int]:
        """Snapshot of all counters (memo + persistent store)."""
        return {
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "cache_hits": self.store.hits if self.store is not None else 0,
            "cache_misses": self.store.misses if self.store is not None else 0,
        }


@dataclass
class SweepStats:
    """Wall time and cache instrumentation of one engine/sweep invocation.

    ``memo_*`` count the in-memory structural memoisation; ``cache_*``
    count the persistent on-disk store (zero when caching is off).  The
    split of the time into stages is read from the tracer's spans
    (``--profile``), not from here.

    ``elapsed_s`` is always the *wall-clock* duration of the operation
    that produced the stats, on every path (serial, parallel,
    multi-kernel) — never a sum over children.  ``jobs`` records the
    worker processes *actually used*, so a one-point grid or a
    single-kernel ``attribute_all`` on a ``jobs=8`` engine reports
    ``jobs=1``, not 8.  (:meth:`merge` sums ``elapsed_s``, which is only
    meaningful for lifetime aggregates such as ``SweepEngine.stats``,
    where it reads as "total operation time", not wall time.)
    """

    design_points: int = 0
    jobs: int = 1
    chunks: int = 1
    elapsed_s: float = 0.0
    memo_hits: int = 0
    memo_misses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Persistent-cache hit rate in [0, 1] (0 when the cache is off)."""
        looked = self.cache_hits + self.cache_misses
        return self.cache_hits / looked if looked else 0.0

    @property
    def memo_hit_rate(self) -> float:
        looked = self.memo_hits + self.memo_misses
        return self.memo_hits / looked if looked else 0.0

    def merge(self, other: "SweepStats") -> "SweepStats":
        """Accumulate *other* into self (worker shards, multi-kernel runs)."""
        self.design_points += other.design_points
        self.chunks += other.chunks
        self.elapsed_s += other.elapsed_s
        self.memo_hits += other.memo_hits
        self.memo_misses += other.memo_misses
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        return self

    def merge_counters(self, counters: Dict[str, int]) -> "SweepStats":
        """Accumulate a :meth:`ScheduleCache.counters` snapshot."""
        self.memo_hits += int(counters.get("memo_hits", 0))
        self.memo_misses += int(counters.get("memo_misses", 0))
        self.cache_hits += int(counters.get("cache_hits", 0))
        self.cache_misses += int(counters.get("cache_misses", 0))
        return self

    def describe(self) -> str:
        return (
            f"{self.design_points} design points in {self.elapsed_s:.3f}s "
            f"(jobs={self.jobs}, chunks={self.chunks}; "
            f"disk cache {self.cache_hits} hits / {self.cache_misses} misses "
            f"[{100.0 * self.hit_rate:.0f}%], "
            f"memo {self.memo_hits} hits / {self.memo_misses} misses)"
        )

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe view (run manifests, BENCH entries, drift comparison)."""
        return {
            "design_points": self.design_points,
            "jobs": self.jobs,
            "chunks": self.chunks,
            "elapsed_s": self.elapsed_s,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "memo_hit_rate": self.memo_hit_rate,
        }


class ParetoAccumulator:
    """Incrementally maintained Pareto frontier, minimising (x, y).

    Equivalent to re-running :func:`pareto_points` over everything added so
    far (same weak-dominance and first-wins tie rules), but each insertion
    is O(log n) search plus amortised O(1) removals instead of a full
    O(n log n) re-sort — the streaming form the sweep engine uses as chunk
    results arrive.
    """

    def __init__(self) -> None:
        self._xs: List[float] = []
        self._ys: List[float] = []
        self._payloads: List[object] = []

    def __len__(self) -> int:
        return len(self._xs)

    def add(self, x: float, y: float, payload: object = None) -> bool:
        """Insert one point; returns True if it joined the frontier.

        Non-finite coordinates are rejected: a ``nan`` comparing false
        against everything would silently corrupt the sorted frontier
        invariant instead of surfacing the broken upstream model.
        """
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(
                f"Pareto point coordinates must be finite, got ({x!r}, {y!r})"
            )
        i = bisect_left(self._xs, x)
        # Weakly dominated by the closest point on the left (px < x, py <= y)
        # or by an equal-x point (which keeps first-wins tie semantics)?
        if i > 0 and self._ys[i - 1] <= y:
            return False
        if i < len(self._xs) and self._xs[i] == x and self._ys[i] <= y:
            return False
        # Evict points the new one weakly dominates (px >= x, py >= y).
        j = i
        while j < len(self._xs) and self._ys[j] >= y:
            j += 1
        if j > i:
            del self._xs[i:j], self._ys[i:j], self._payloads[i:j]
        self._xs.insert(i, x)
        self._ys.insert(i, y)
        self._payloads.insert(i, payload)
        return True

    def add_report(self, report: PowerReport) -> bool:
        """Insert a power report into the (runtime, power) frontier."""
        return self.add(report.runtime_s, report.power_w, report)

    def extend(self, points: Iterable[Tuple[float, float, object]]) -> None:
        for x, y, payload in points:
            self.add(x, y, payload)

    def frontier(self) -> List[Tuple[float, float, object]]:
        """Current frontier, sorted by x ascending."""
        return list(zip(self._xs, self._ys, self._payloads))

    def payloads(self) -> List[object]:
        """Frontier payloads, sorted by x ascending."""
        return list(self._payloads)


@dataclass(frozen=True)
class SweepResult:
    """All evaluated design points of one kernel sweep.

    ``stats`` carries the timing/cache instrumentation of the
    :class:`repro.accel.engine.SweepEngine` run that produced it; it is
    excluded from equality so results compare by their physics, not by how
    long they took.
    """

    kernel: str
    reports: Tuple[PowerReport, ...]
    stats: Optional[SweepStats] = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def best(self, metric: Callable[[PowerReport], float]) -> PowerReport:
        """Report maximising *metric*."""
        return max(self.reports, key=metric)

    @cached_property
    def _best_energy_efficiency(self) -> PowerReport:
        return self.best(lambda r: r.energy_efficiency)

    @cached_property
    def _best_throughput(self) -> PowerReport:
        return self.best(lambda r: r.throughput_ops)

    def best_energy_efficiency(self) -> PowerReport:
        return self._best_energy_efficiency

    def best_throughput(self) -> PowerReport:
        return self._best_throughput

    def runtime_power_points(self) -> List[Tuple[float, float, PowerReport]]:
        """(runtime, power) scatter behind Fig 13."""
        return [(r.runtime_s, r.power_w, r) for r in self.reports]

    @cached_property
    def _pareto(self) -> Tuple[PowerReport, ...]:
        accumulator = ParetoAccumulator()
        for report in self.reports:
            accumulator.add_report(report)
        return tuple(accumulator.payloads())

    def pareto_frontier(self) -> List[PowerReport]:
        """Non-dominated reports in (runtime, power) minimisation space.

        Computed once (incrementally) and cached; repeated queries are O(1).
        :func:`pareto_points` remains the batch reference implementation.
        """
        return list(self._pareto)

    def _seed_frontier(self, frontier: Sequence[PowerReport]) -> None:
        """Install a frontier computed while streaming (engine internal)."""
        self.__dict__["_pareto"] = tuple(frontier)


def pareto_points(
    points: Sequence[Tuple[float, float, object]],
) -> List[Tuple[float, float, object]]:
    """Non-dominated subset of (x, y, payload), minimising both x and y.

    Reference batch implementation; :class:`ParetoAccumulator` is the
    incremental equivalent (property-tested against this).
    """
    ordered = sorted(points, key=lambda p: (p[0], p[1]))
    frontier: List[Tuple[float, float, object]] = []
    best_y = float("inf")
    for x, y, payload in ordered:
        if y < best_y:
            frontier.append((x, y, payload))
            best_y = y
    return frontier


def sweep(
    kernel: TracedKernel,
    designs: Optional[Iterable[DesignPoint]] = None,
    library: Optional[ResourceLibrary] = None,
    *,
    jobs: int = 1,
    cache_dir=None,
    use_cache: Optional[bool] = None,
) -> SweepResult:
    """Evaluate *kernel* over *designs* (default: the Table III grid).

    Runs :meth:`repro.accel.engine.SweepEngine.sweep` on an engine with
    ``jobs`` worker processes (``1`` runs in-process).  The persistent
    schedule cache is used only when *cache_dir* is given or
    ``use_cache=True``; ``use_cache=False`` wins over a directory.
    """
    from repro.accel.engine import SweepEngine

    engine = SweepEngine(jobs=jobs, cache_dir=cache_dir, use_cache=use_cache)
    return engine.sweep(kernel, designs, library)
