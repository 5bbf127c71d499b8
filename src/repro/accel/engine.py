"""Parallel, persistently-cached design-space exploration engine.

:class:`SweepEngine` is the one executor of the Fig 13/14 pipeline:
:func:`repro.accel.sweep.sweep`, :func:`repro.accel.attribution.attribute_all`,
the figure builders, the CLI and the server all run their sweeps and gain
attributions through it.

* **Batch evaluation** — a grid evaluates through
  :class:`~repro.accel.batch.BatchEvaluator` (one schedule per unique
  structure, power as numpy broadcasts), bit-identical to the per-point
  :func:`~repro.accel.power.evaluate_design` oracle.
* **Sharding** — a design grid is split into chunks and fanned out across
  ``jobs`` worker processes (:class:`concurrent.futures.ProcessPoolExecutor`);
  :meth:`SweepEngine.attribute_all` fans out across kernels instead.
  ``jobs=1`` runs in-process, and results are bit-identical for any
  ``jobs`` (the model is deterministic float arithmetic and chunk results
  are merged in submission order).
* **Persistence** — opt-in: given a cache directory (or ``use_cache=True``),
  schedules and traced kernels are stored in the content-addressed on-disk
  cache (:mod:`repro.accel.cache`), shared by all workers and surviving
  across runs; a warm rerun skips the scheduler entirely.
* **Streaming Pareto** — the (runtime, power) frontier is maintained
  incrementally as chunk results arrive (:class:`ParetoAccumulator`), so
  ``SweepResult.pareto_frontier()`` is ready the moment the sweep ends.

Every operation records its wall time and cache hit/miss counters in a
:class:`repro.accel.sweep.SweepStats`, exposed on ``SweepResult.stats``
and accumulated on ``engine.stats`` across the engine's lifetime.  The
split of that time into stages comes from the tracer's spans.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.accel.attribution import attribute_gains
from repro.accel.batch import BatchEvaluator, BatchResult
from repro.accel.cache import KernelTraceStore, ScheduleStore, resolve_cache_dir
from repro.accel.design import DesignPoint
from repro.accel.power import PowerReport
from repro.accel.resources import ResourceLibrary
from repro.accel.sweep import (
    ParetoAccumulator,
    ScheduleCache,
    SweepResult,
    SweepStats,
    default_design_grid,
)
from repro.accel.trace import TracedKernel
from repro.obs.log import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import Span, Tracer, get_tracer, set_tracer, span

logger = get_logger("accel.engine")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a jobs request: ``None``/``0``/negative means all cores."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# -- worker-process entry points ----------------------------------------------
#
# Module-level functions with a per-process global, so the kernel, library
# and schedule cache are shipped once per worker (executor initializer)
# instead of once per chunk.

_WORKER: Dict[str, object] = {}


def _init_worker_tracer(trace_spans: bool) -> None:
    """Install (or, on fork, reset) this worker process's own tracer.

    With the ``fork`` start method the child inherits the parent's tracer
    *including already-finished parent spans*; shipping those back would
    duplicate them, so the worker always starts from a clean tracer (or
    none at all when the parent is not tracing).
    """
    set_tracer(Tracer() if trace_spans else None)


def _drain_worker_spans() -> List[Span]:
    tracer = get_tracer()
    return tracer.drain() if tracer is not None else []


def _schedule_cache(
    kernel: TracedKernel, library: ResourceLibrary, cache_dir
) -> ScheduleCache:
    """A schedule cache backed by the on-disk store in *cache_dir*, if any."""
    store = ScheduleStore(cache_dir) if cache_dir is not None else None
    return ScheduleCache(kernel, library, store=store)


def _init_sweep_worker(
    kernel: TracedKernel,
    library: ResourceLibrary,
    cache_dir,
    trace_spans: bool,
) -> None:
    _init_worker_tracer(trace_spans)
    # One evaluator per worker process: macro graphs and scale tables are
    # amortized across every chunk the worker receives.
    _WORKER["batch"] = BatchEvaluator(
        kernel, cache=_schedule_cache(kernel, library, cache_dir)
    )


def _evaluate(
    batch: BatchEvaluator, designs: Sequence[DesignPoint]
) -> Tuple[BatchResult, Dict[str, int]]:
    """Evaluate *designs*, with the schedule-cache counter delta it caused."""
    cache = batch.cache
    before = cache.counters()
    result = batch.evaluate(designs)
    delta = {key: value - before[key] for key, value in cache.counters().items()}
    return result, delta


def _sweep_chunk(
    designs: Sequence[DesignPoint],
) -> Tuple[BatchResult, Dict[str, int], List[Span]]:
    """Evaluate one chunk in a worker process.

    Ships the :class:`BatchResult` column arrays back (the parent
    materializes ``PowerReport`` objects at the collection boundary),
    plus the cache-counter delta and any worker spans.
    """
    batch: BatchEvaluator = _WORKER["batch"]  # type: ignore[assignment]
    with span("sweep.chunk", designs=len(designs), kernel=batch.kernel.name):
        result, delta = _evaluate(batch, designs)
    return result, delta, _drain_worker_spans()


def _attribute_kernel_task(
    kernel: TracedKernel,
    metric: str,
    node_nm: float,
    baseline_node_nm: float,
    library: Optional[ResourceLibrary],
    partitions: Optional[Sequence[int]],
    simplifications: Optional[Sequence[int]],
    cache_dir,
    trace_spans: Optional[bool] = None,
):
    """Attribute one kernel; the per-kernel unit of :meth:`attribute_all`.

    The returned counters' ``design_points`` counts the points evaluated
    exactly (the grid points the pruned search could not rule out, the
    45nm baseline and the four ablations), not the grid size.

    *trace_spans* is a tri-state: ``True``/``False`` mean "this is a worker
    process, install a fresh tracer (or none)"; ``None`` means "running
    in-process, leave the caller's tracer alone" — its spans are already
    on the parent trace, so an empty list is shipped back.
    """
    if trace_spans is not None:
        _init_worker_tracer(trace_spans)
    lib = library if library is not None else ResourceLibrary()
    cache = _schedule_cache(kernel, lib, cache_dir)
    attribution = attribute_gains(
        kernel,
        metric=metric,
        node_nm=node_nm,
        baseline_node_nm=baseline_node_nm,
        library=lib,
        partitions=partitions,
        simplifications=simplifications,
        cache=cache,
    )
    counters = cache.counters()
    # Every exact evaluation, the 45nm baseline included, is one memo
    # lookup; the search's critical-path bound pass makes none.
    counters["design_points"] = cache.memo_hits + cache.memo_misses
    spans = _drain_worker_spans() if trace_spans is not None else []
    return attribution, counters, spans


class SweepEngine:
    """Sharded, cached executor for sweeps and gain attribution.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` (default) runs in-process;
        ``None``/``0``/negative uses all cores.
    cache_dir:
        Persistent cache directory. Giving one turns the on-disk
        schedule/trace cache on.
    use_cache:
        ``None`` (default) uses the on-disk cache only when *cache_dir* is
        given; ``True`` uses it even without one (``$REPRO_CACHE_DIR`` or
        ``~/.cache/accelerator-wall``); ``False`` never does, even with a
        *cache_dir*. In-memory structural memoisation is always on.
    chunk_size:
        Design points per work unit when sharding a grid; defaults to an
        even split of roughly four chunks per worker.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir=None,
        use_cache: Optional[bool] = None,
        chunk_size: Optional[int] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.use_cache = (
            cache_dir is not None if use_cache is None else bool(use_cache)
        )
        self.cache_dir = resolve_cache_dir(cache_dir) if self.use_cache else None
        self.chunk_size = chunk_size
        #: Cumulative stats across every operation this engine ran.
        self.stats = SweepStats(jobs=self.jobs, chunks=0)
        #: Stats of the most recent operation (also on ``SweepResult.stats``).
        self.last_stats: Optional[SweepStats] = None

    # -- cache plumbing -------------------------------------------------------

    def schedule_cache(
        self, kernel: TracedKernel, library: Optional[ResourceLibrary] = None
    ) -> ScheduleCache:
        """A :class:`ScheduleCache` wired to this engine's persistence."""
        lib = library if library is not None else ResourceLibrary()
        return _schedule_cache(kernel, lib, self.cache_dir)

    def trace(self, workload) -> TracedKernel:
        """Trace a workload through the persistent kernel-trace cache.

        *workload* is a :class:`repro.workloads.Workload` (anything with
        ``abbrev`` and ``build()``). Cache off → plain build.
        """
        if not self.use_cache:
            with span("trace.build", workload=workload.abbrev):
                return workload.build()
        store = KernelTraceStore(self.cache_dir)
        kernel = store.get(workload.abbrev)
        if kernel is None:
            with span("trace.build", workload=workload.abbrev):
                kernel = workload.build()
            store.put(workload.abbrev, kernel)
        return kernel

    # -- sweeps (Fig 13) ------------------------------------------------------

    def _chunk(self, designs: List[DesignPoint]) -> List[List[DesignPoint]]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(designs) / (self.jobs * 4)))
        return [designs[i : i + size] for i in range(0, len(designs), size)]

    def sweep(
        self,
        kernel: TracedKernel,
        designs: Optional[Iterable[DesignPoint]] = None,
        library: Optional[ResourceLibrary] = None,
    ) -> SweepResult:
        """Evaluate *kernel* over *designs* (default: full Table III grid)."""
        lib = library if library is not None else ResourceLibrary()
        design_list = (
            list(designs) if designs is not None else default_design_grid()
        )
        tracer = get_tracer()
        start = perf_counter()
        accumulator = ParetoAccumulator()
        reports: List[PowerReport] = []
        # ``jobs`` is set below to the workers *actually used*: a <=1-point
        # grid runs serially even on a parallel engine, and a chunked run
        # can need fewer workers than configured.
        stats = SweepStats(design_points=len(design_list), jobs=1, chunks=1)

        def collect(payload: BatchResult, delta: Dict[str, int]) -> None:
            chunk_reports = payload.reports()
            reports.extend(chunk_reports)
            for report in chunk_reports:
                accumulator.add_report(report)
            stats.merge_counters(delta)

        with span("sweep", kernel=kernel.name, designs=len(design_list)):
            if self.jobs == 1 or len(design_list) <= 1:
                batch = BatchEvaluator(kernel, cache=self.schedule_cache(kernel, lib))
                collect(*_evaluate(batch, design_list))
            else:
                chunks = self._chunk(design_list)
                stats.chunks = len(chunks)
                stats.jobs = min(self.jobs, len(chunks))
                with ProcessPoolExecutor(
                    max_workers=stats.jobs,
                    initializer=_init_sweep_worker,
                    initargs=(kernel, lib, self.cache_dir, tracer is not None),
                ) as pool:
                    futures = [
                        pool.submit(_sweep_chunk, chunk) for chunk in chunks
                    ]
                    # Submission order == grid order, so the merged report
                    # tuple is identical to the in-process (jobs=1) result.
                    for future in futures:
                        with span("sweep.collect"):
                            payload, delta, worker_spans = future.result()
                            collect(payload, delta)
                        if tracer is not None:
                            tracer.absorb(worker_spans)
        stats.elapsed_s = perf_counter() - start
        result = SweepResult(kernel=kernel.name, reports=tuple(reports), stats=stats)
        result._seed_frontier(accumulator.payloads())
        self._record(stats)
        logger.info("sweep.done %s", kv(kernel=kernel.name, **_log_stats(stats)))
        return result

    # -- attribution (Fig 14) -------------------------------------------------

    def attribute_all(
        self,
        kernels: Sequence[TracedKernel],
        metric: str = "throughput",
        node_nm: float = 5.0,
        baseline_node_nm: float = 45.0,
        library: Optional[ResourceLibrary] = None,
        partitions: Optional[Sequence[int]] = None,
        simplifications: Optional[Sequence[int]] = None,
    ):
        """Fig 14 attribution over a kernel suite, fanned out across kernels.

        Returns :class:`repro.accel.attribution.GainAttribution` rows in
        the given kernel order; values are identical to
        :func:`repro.accel.attribution.attribute_gains` per kernel for any
        ``jobs``.
        """
        tracer = get_tracer()
        start = perf_counter()
        serial = self.jobs == 1 or len(kernels) <= 1
        # ``jobs`` records the worker processes actually used, so the
        # serial fallback (one kernel, or a jobs=1 engine) reports 1.
        workers = 1 if serial else min(self.jobs, len(kernels))
        stats = SweepStats(jobs=workers, chunks=len(kernels))
        task_args = (
            metric,
            node_nm,
            baseline_node_nm,
            library,
            partitions,
            simplifications,
            self.cache_dir,
        )
        with span("attribute_all", kernels=len(kernels), metric=metric):
            if serial:
                # trace_spans=None: in-process, the caller's tracer stays
                # installed and records spans directly.
                outcomes = [
                    _attribute_kernel_task(kernel, *task_args)
                    for kernel in kernels
                ]
            else:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(
                            _attribute_kernel_task,
                            kernel,
                            *task_args,
                            tracer is not None,
                        )
                        for kernel in kernels
                    ]
                    outcomes = [future.result() for future in futures]
            attributions = []
            for attribution, counters, worker_spans in outcomes:
                attributions.append(attribution)
                stats.design_points += int(counters.pop("design_points", 0))
                stats.merge_counters(counters)
                if tracer is not None:
                    tracer.absorb(worker_spans)
        stats.elapsed_s = perf_counter() - start
        self._record(stats)
        logger.info(
            "attribute_all.done %s",
            kv(kernels=len(kernels), metric=metric, **_log_stats(stats)),
        )
        return attributions

    # -- stats plumbing -------------------------------------------------------

    def provenance(self) -> Dict[str, object]:
        """Engine configuration and lifetime stats for a run manifest.

        ``stats`` is the cumulative :meth:`SweepStats.to_dict` across every
        operation this engine ran — the perf quantities
        :mod:`repro.provenance.drift` threshold-compares between runs.
        """
        return {
            "jobs": self.jobs,
            "use_cache": self.use_cache,
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "chunk_size": self.chunk_size,
            "stats": self.stats.to_dict(),
        }

    def _record(self, stats: SweepStats) -> None:
        self.last_stats = stats
        self.stats.merge(stats)
        # Publish the operation to the process-wide metrics registry.  The
        # ``engine.*`` family aggregates worker-side cache traffic (shipped
        # back in the chunk deltas), unlike the per-process ``cache.*``
        # counters the stores increment locally.
        registry = metrics()
        registry.counter("engine.operations").inc()
        registry.counter("engine.design_points").inc(stats.design_points)
        registry.counter("engine.chunks").inc(stats.chunks)
        registry.counter("engine.memo_hits").inc(stats.memo_hits)
        registry.counter("engine.memo_misses").inc(stats.memo_misses)
        registry.counter("engine.cache_hits").inc(stats.cache_hits)
        registry.counter("engine.cache_misses").inc(stats.cache_misses)
        registry.gauge("engine.jobs").set(stats.jobs)
        registry.histogram("engine.elapsed_s").observe(stats.elapsed_s)


def _log_stats(stats: SweepStats) -> Dict[str, object]:
    """The fields ``sweep.done``-style log lines share."""
    return {
        "points": stats.design_points,
        "jobs": stats.jobs,
        "chunks": stats.chunks,
        "elapsed_s": stats.elapsed_s,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
    }
