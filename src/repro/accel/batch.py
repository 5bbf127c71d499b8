"""Vectorized batch evaluation of whole design-point grids (Fig 13/14).

The scalar pipeline — :func:`repro.accel.power.evaluate_design` behind
:class:`repro.accel.sweep.ScheduleCache` — walks a Table III grid one
design point at a time: every point pays a memo lookup, a per-op cost-table
walk, and a ``PowerReport`` construction, and every structural miss pays a
full list-scheduler run that re-derives the fusion macro DAG from scratch.
This module evaluates the same grid as array math in three stages:

1. **Structural dedup** — a grid collapses onto its unique structural keys
   ``(partition, fusion_window, latency_extra)``, the only parameters a
   :class:`~repro.accel.scheduler.Schedule` depends on.  A full Table III
   grid of thousands of points typically has only ~a hundred structures.

2. **Amortized scheduling** — the fusion pre-pass, macro-DAG construction
   and longest-path priorities depend only on the fusion window (and the
   priorities additionally on the extra pipeline latency), not on the
   partition factor, so :class:`MacroGraph` computes them once per window
   and replays only the resource-constrained event loop per structure.
   The loop keeps no heap of units or macros.  Every macro of a class has
   the same latency and macros start in nondecreasing ready order, so each
   class's finish times never decrease and its unit pool is a FIFO list.
   Every latency is at least 1, so a successor is always ready in a later
   cycle and the macros ready in one cycle form a bucket that is complete
   when it is popped.  Partitions at or beyond the saturation point (every
   functional-unit class fully provisioned) skip the event loop entirely:
   the makespan is the critical path.  Schedules still flow through the
   shared :class:`~repro.accel.sweep.ScheduleCache`, so the in-memory memo
   and the persistent on-disk store keep working unchanged.  The critical
   path also prices a point without scheduling it
   (:meth:`BatchEvaluator.bound`): an upper bound of both Fig 14 metrics,
   which the best-design search prunes its grid with.

3. **Broadcast power evaluation** — per-node/per-degree clock, energy- and
   leakage-scale factors are precomputed from :class:`ResourceLibrary`
   into dense lookup tables, and the per-structure cycle/energy/leakage
   vectors broadcast across the node × simplification plane as numpy
   float64 arrays.  :class:`BatchResult` holds the column arrays;
   ``PowerReport`` objects are materialized only at the collection
   boundary (:meth:`BatchResult.reports`).

**Bit-identity contract.**  The scalar path is the correctness oracle:
for every design point the batched result is *bit-identical* to
``evaluate_design(kernel, design, library)`` — same cycles, same energy,
same leakage, and therefore the same derived runtime/power/gain numbers.
Float operations are replayed in the scalar path's exact association and
summation order (IEEE-754 doubles either way), and schedules come from the
same scheduler semantics (property-tested against
:func:`repro.accel.scheduler.schedule`).  ``tests/accel/test_batch.py``
fuzzes this contract with random DFGs × random grids, and ``repro check``
asserts it on a reference grid.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accel.design import DesignPoint
from repro.accel.power import PowerReport
from repro.accel.resources import OpClass, ResourceLibrary, op_class
from repro.accel.scheduler import _CLASS_LIST, Schedule, _fuse_chains, _vertex_ops
from repro.accel.sweep import ScheduleCache
from repro.accel.trace import TracedKernel
from repro.obs.metrics import metrics
from repro.obs.trace import span

__all__ = ["BatchEvaluator", "BatchResult", "MacroGraph"]

#: (cycles, total_ops, base_dynamic_nj, units per class) of one structure.
_StructureRow = Tuple[int, int, float, List[int]]


class MacroGraph:
    """Fusion-contracted macro DAG of one kernel at one fusion window.

    Precomputes everything the list scheduler re-derives per call that does
    not depend on the partition factor: the fusion chains, the deduplicated
    macro DAG in dense arrays, per-class demand, and (per extra-latency
    value) the per-class latencies, longest-path priorities and critical
    path.  :meth:`schedule` then replays only the event-driven resource
    loop — or skips it outright for saturated partitions — producing a
    :class:`Schedule` bit-identical to
    :func:`repro.accel.scheduler.schedule`.

    The replay needs two facts about this scheduler, both spelled out in
    :meth:`_event_loop`: a class's finish times never decrease (one
    latency per class, nondecreasing ready order), so its unit pool is a
    FIFO list; and every latency is at least 1, so the macros ready in one
    cycle form a bucket that no later start can add to.
    """

    def __init__(self, dfg, library: ResourceLibrary, fusion_window: int):
        self.dfg = dfg
        self.library = library
        self.fusion_window = fusion_window

        # Per-graph tables (op classes, op counts, the DFG's topological
        # order) are computed once and shared by every window.
        classes, op_counts = _vertex_ops(dfg)
        macro_of = _fuse_chains(dfg, fusion_window)
        size = len(dfg)
        self._size = size
        #: Macro ids (chain heads) in vertex id order.
        self.macros: List[int] = [m for m in range(size) if macro_of[m] == m]
        self.n_macros = len(self.macros)
        self.fused_away = size - self.n_macros

        #: Functional-unit class index per vertex id (shared by all windows;
        #: the loop reads the macro heads').
        self.class_of: List[int] = classes
        #: Macros per class, in class declaration order.
        self.demand: List[int] = [0] * len(_CLASS_LIST)
        for m in self.macros:
            self.demand[classes[m]] += 1
        #: Partition factor beyond which every pool is fully provisioned.
        self.saturation = max(self.demand) if self.macros else 1

        # Deduplicated macro DAG: parallel DFG edges between two chains
        # collapse into one macro edge, as in the scheduler's edge sets.
        # Every chain member but the last has one successor, the next
        # member, so a macro's edges all leave from its last member.
        offsets, succ = dfg.successor_lists()
        self.succs: List[Tuple[int, ...]] = [()] * size
        pred_count: List[int] = [0] * size
        for nid in range(size):
            first, end = offsets[nid], offsets[nid + 1]
            if end - first == 1:
                target = macro_of[succ[first]]
                if target == macro_of[nid]:
                    continue  # inside a chain
                out: Tuple[int, ...] = (target,)
            elif end == first:
                continue
            else:
                out = tuple({macro_of[s] for s in succ[first:end]})
            self.succs[macro_of[nid]] = out
            for s in out:
                pred_count[s] += 1
        self.pred_count = pred_count

        # One topological order over macros, reused for every priority pass.
        indeg = pred_count[:]
        stack = [m for m in self.macros if indeg[m] == 0]
        order: List[int] = []
        while stack:
            m = stack.pop()
            order.append(m)
            for s in self.succs[m]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    stack.append(s)
        assert len(order) == self.n_macros, "macro DAG has a cycle"
        self._topo = order

        #: Base latency per class (cycles at degree <= knee).
        self.class_latency: List[int] = [
            library.costs(klass).latency_cycles for klass in _CLASS_LIST
        ]
        # (latency per class, priority per macro id, critical path) per
        # latency_extra value, filled lazily.
        self._plans: Dict[int, Tuple[List[int], List[int], int]] = {}
        #: Scalar-path op statistics, identical for every structure.
        self.op_counts = op_counts

    def _plan(self, latency_extra: int) -> Tuple[List[int], List[int], int]:
        """Latency per class, priority per macro id, and the critical path."""
        plan = self._plans.get(latency_extra)
        if plan is not None:
            return plan
        latency = [base + latency_extra for base in self.class_latency]
        priority = [0] * self._size
        critical = 0
        succs = self.succs
        class_of = self.class_of
        for m in reversed(self._topo):
            down = 0
            for s in succs[m]:
                p = priority[s]
                if p > down:
                    down = p
            p = latency[class_of[m]] + down
            priority[m] = p
            if p > critical:
                critical = p
        plan = (latency, priority, critical)
        self._plans[latency_extra] = plan
        return plan

    def critical_path(self, latency_extra: int = 0) -> int:
        """Longest latency path through the macro DAG at *latency_extra*.

        No schedule of any partition is shorter; at or past
        :attr:`saturation` the schedule equals it.
        """
        return self._plan(latency_extra)[2]

    def cycle_bound(self, partition: int, latency_extra: int = 0) -> int:
        """A lower bound on :meth:`schedule`'s cycles, without the event loop.

        The larger of the critical path and, over classes, the time
        ``min(partition, demand)`` non-pipelined units need to run a
        class's ``demand`` macros: ``ceil(demand / units) * latency``.  At
        or past :attr:`saturation` every class fits in one round, no
        longer than a path through one of its macros, so the bound is the
        critical path and equals the schedule.
        """
        latency, _, critical = self._plan(latency_extra)
        busiest = 0
        for count, cycles in zip(self.demand, latency):
            if count:
                units = min(partition, count)
                busiest = max(busiest, -(-count // units) * cycles)
        return max(critical, busiest)

    def _provisioned(self, partition: int) -> Dict[OpClass, int]:
        provisioned: Dict[OpClass, int] = {}
        for i, klass in enumerate(_CLASS_LIST):
            count = self.demand[i]
            if count:
                provisioned[klass] = min(partition, count)
        return provisioned

    def _event_loop(
        self, partition: int, latency: List[int], priority: List[int]
    ) -> int:
        """The resource-constrained event loop over dense arrays.

        Starts macros in the scheduler's exact ``(ready, -priority, id)``
        order, so the makespan under contention matches
        :func:`repro.accel.scheduler.schedule`, but replaces both of its
        heaps with structures that are exact for this scheduler:

        * **FIFO unit pools.**  Every macro of a class has the same
          latency: the class latency plus ``latency_extra``.  Macros start
          in nondecreasing ready order.  So each class's start and finish
          times never decrease, and the scheduler's pool heap always pops
          its oldest entry.  A class's pool is the list of its finish
          times in start order: with ``k = min(partition, demand)`` units,
          the n-th macro started (0-based) waits for ``finish[n - k]``,
          or not at all when ``n < k``.
        * **Cycle buckets.**  Every latency is at least 1 (``OpCosts``
          rejects anything else), so a successor is always ready in a
          later cycle than the one being processed, and a bucket is
          complete when it is popped.  Buckets live in a dict keyed by
          ready cycle, with a small heap of the distinct cycles; two
          stable sorts (by id, then by priority descending) put a bucket
          in ``(-priority, id)`` order.

        Every time is an int, and so is the returned makespan: the last
        finish of the class that finishes last.
        """
        heappush, heappop = heapq.heappush, heapq.heappop
        remaining = self.pred_count[:]
        ready = [0] * self._size
        units = [min(partition, count) for count in self.demand]
        finished: List[List[int]] = [[] for _ in units]
        buckets = {0: [m for m in self.macros if remaining[m] == 0]}
        cycles = [0]
        succs = self.succs
        class_of = self.class_of
        by_priority = priority.__getitem__
        while cycles:
            now = heappop(cycles)
            bucket = buckets.pop(now)
            bucket.sort()
            bucket.sort(key=by_priority, reverse=True)
            for m in bucket:
                c = class_of[m]
                pool = finished[c]
                waits = len(pool) - units[c]
                start = now
                if waits >= 0 and pool[waits] > now:
                    start = pool[waits]
                finish = start + latency[c]
                pool.append(finish)
                for s in succs[m]:
                    if ready[s] < finish:
                        ready[s] = finish
                    remaining[s] -= 1
                    if remaining[s] == 0:
                        at = ready[s]
                        if at in buckets:
                            buckets[at].append(s)
                        else:
                            buckets[at] = [s]
                            heappush(cycles, at)
        return max(pool[-1] for pool in finished if pool)

    def schedule(self, partition: int, latency_extra: int = 0) -> Schedule:
        """Schedule one structural configuration (fast path).

        Bit-identical to ``scheduler.schedule(dfg, partition, library,
        fusion_window, latency_extra)``: past the saturation point every
        pool is fully provisioned, start times degenerate to ready times,
        and the makespan *is* the critical path, so the event loop is
        skipped outright.
        """
        if partition < 1:
            raise ValueError(f"partition must be >= 1, got {partition}")
        latency, priority, critical = self._plan(latency_extra)
        if partition >= self.saturation:
            cycles = critical
        else:
            cycles = self._event_loop(partition, latency, priority)
        return Schedule(
            kernel=self.dfg.name,
            cycles=cycles,
            op_counts=dict(self.op_counts),
            provisioned=self._provisioned(partition),
            n_macros=self.n_macros,
            fused_away=self.fused_away,
        )


@dataclass(frozen=True)
class BatchResult:
    """Column-oriented result of one batched grid evaluation.

    The arrays are aligned with ``designs``; every scalar is bit-identical
    to the corresponding :class:`PowerReport` field of the scalar path.
    ``PowerReport`` objects exist only after :meth:`reports` — engine
    workers ship :class:`BatchResult` columns between processes and
    materialize at the collection boundary.
    """

    kernel: str
    designs: Tuple[DesignPoint, ...]
    cycles: np.ndarray
    clock_mhz: np.ndarray
    dynamic_energy_nj: np.ndarray
    leakage_power_w: np.ndarray
    total_ops: np.ndarray
    #: Unique structural configurations behind the batch.
    structures: int = 0

    def __len__(self) -> int:
        return len(self.designs)

    def runtime_s(self) -> np.ndarray:
        """Wall-clock runtimes, matching ``PowerReport.runtime_s``."""
        return self.cycles / (self.clock_mhz * 1e6)

    def reports(self) -> Tuple[PowerReport, ...]:
        """Materialize one :class:`PowerReport` per design point."""
        kernel = self.kernel
        return tuple(
            PowerReport(
                kernel=kernel,
                design=design,
                cycles=cycles,
                clock_mhz=clock,
                dynamic_energy_nj=dynamic,
                leakage_power_w=leakage,
                total_ops=ops,
            )
            for design, cycles, clock, dynamic, leakage, ops in zip(
                self.designs,
                self.cycles.tolist(),
                self.clock_mhz.tolist(),
                self.dynamic_energy_nj.tolist(),
                self.leakage_power_w.tolist(),
                self.total_ops.tolist(),
            )
        )


def _empty_result(kernel: str) -> BatchResult:
    zero_f = np.zeros(0, dtype=np.float64)
    zero_i = np.zeros(0, dtype=np.int64)
    return BatchResult(
        kernel=kernel,
        designs=(),
        cycles=zero_i,
        clock_mhz=zero_f,
        dynamic_energy_nj=zero_f,
        leakage_power_w=zero_f,
        total_ops=zero_i,
        structures=0,
    )


class BatchEvaluator:
    """Evaluate whole design grids of one kernel as array math.

    Owns (or shares) a :class:`ScheduleCache` — so the persistent on-disk
    store and the memo counters behave exactly as on the scalar path — and
    memoizes the per-window :class:`MacroGraph`s and the per-node/degree
    scale tables across :meth:`evaluate` calls, which is what makes engine
    workers and the serve layer cheap on repeat traffic.

    Dedup accounting: each unique structure pays one real cache lookup;
    the other points of the same structure are recorded as memo hits
    (:meth:`ScheduleCache.record_coalesced`), so ``memo_hits +
    memo_misses`` still equals the number of design points and stats stay
    comparable with the scalar path.  :meth:`bound` prices points without
    scheduling them and counts nothing, so the pruned Fig 14 search
    (:func:`repro.accel.attribution.find_best_design`) counts only the
    points it evaluates exactly.

    Threads may share one evaluator: ``repro serve`` keeps one per kernel
    for ``/evaluate`` on the event loop and ``/attribute`` on its thread
    pool.  :meth:`evaluate` and :meth:`bound` are the only entry points
    that write its tables and its cache's counters, and each holds one
    lock for the whole call.  Without it another thread's rows, resolved
    between this call's ``len(self._struct_rows)`` reads, would skew the
    coalesced-hit count, even below zero.  Nothing re-enters either
    method, so the lock is a plain ``threading.Lock``.
    """

    def __init__(
        self,
        kernel: TracedKernel,
        library: Optional[ResourceLibrary] = None,
        cache: Optional[ScheduleCache] = None,
    ):
        self.kernel = kernel
        if cache is not None:
            self.library = cache.library
            if library is not None and library is not cache.library:
                raise ValueError(
                    "BatchEvaluator(cache=...) already carries a library; "
                    "pass one or the other, not both"
                )
        else:
            self.library = library if library is not None else ResourceLibrary()
        self.cache = (
            cache if cache is not None else ScheduleCache(kernel, self.library)
        )
        self._graphs: Dict[int, MacroGraph] = {}
        # Exact library scalars, memoized per unique coordinate.
        self._window: Dict[Tuple[float, bool], int] = {}
        self._extra: Dict[int, int] = {}
        self._clock: Dict[float, float] = {}
        self._escale: Dict[Tuple[float, int], float] = {}
        self._lscale: Dict[Tuple[float, int], float] = {}
        self._base_leak: List[float] = [
            self.library.costs(klass).leakage_w_per_unit for klass in _CLASS_LIST
        ]
        # Per-structure scalars derived from resolved Schedules.
        self._struct_rows: Dict[Tuple[int, int, int], _StructureRow] = {}
        self._lock = threading.Lock()

    def macro_graph(self, fusion_window: int) -> MacroGraph:
        graph = self._graphs.get(fusion_window)
        if graph is None:
            graph = MacroGraph(self.kernel.dfg, self.library, fusion_window)
            self._graphs[fusion_window] = graph
        return graph

    # -- per-structure scalars -------------------------------------------------

    def _base_dynamic_nj(self, op_counts: Dict[str, int]) -> float:
        """Pre-scale dynamic energy, in the scalar path's summation order."""
        table = self.library.op_energy_table()
        dynamic_nj = 0.0
        for op, count in op_counts.items():
            if op in ("load", "store"):
                continue  # charged via access counts below
            energy = table.get(op)
            if energy is None:
                # Unknown op: keep op_class's InvalidDesignPointError.
                energy = self.library.costs(op_class(op)).energy_nj
            dynamic_nj += energy * count
        dynamic_nj += (
            self.library.costs(OpClass.MEMORY).energy_nj
            * self.kernel.total_accesses
        )
        return dynamic_nj

    def _structure_row(self, key: Tuple[int, int, int]) -> _StructureRow:
        """(cycles, total_ops, base_dynamic_nj, units-per-class) of *key*."""
        row = self._struct_rows.get(key)
        if row is not None:
            return row
        partition, window, extra = key
        # The macro graph is built lazily inside the compute callback, so a
        # memo or store hit never pays for fusion/DAG construction.
        sched = self.cache.get_structural(
            partition,
            window,
            extra,
            compute=lambda: self.macro_graph(window).schedule(partition, extra),
        )
        units = [0] * len(_CLASS_LIST)
        for i, klass in enumerate(_CLASS_LIST):
            units[i] = sched.provisioned.get(klass, 0)
        row = (
            sched.cycles,
            sched.total_ops,
            self._base_dynamic_nj(sched.op_counts),
            units,
        )
        self._struct_rows[key] = row
        return row

    def _bound_row(self, key: Tuple[int, int, int]) -> _StructureRow:
        """:meth:`_structure_row` of *key* with :meth:`MacroGraph.cycle_bound`
        as cycles.

        Every other field equals the scheduled row's: the op counts do not
        depend on the structure, and a class is provisioned
        ``min(partition, demand)`` units whatever the schedule.
        """
        partition, window, extra = key
        graph = self.macro_graph(window)
        return (
            graph.cycle_bound(partition, extra),
            sum(graph.op_counts.values()),
            self._base_dynamic_nj(graph.op_counts),
            [min(partition, demand) for demand in graph.demand],
        )

    # -- the vectorized pass ---------------------------------------------------

    def _columns(
        self,
        designs: Tuple[DesignPoint, ...],
        row_of: Callable[[Tuple[int, int, int]], _StructureRow],
    ) -> BatchResult:
        """Factorize *designs* onto structures, take each structure's row
        from *row_of*, and broadcast the power model over the points."""
        n = len(designs)
        lib = self.library
        window_of, extra_of = self._window, self._extra
        clock_of, escale_of, lscale_of = self._clock, self._escale, self._lscale
        partition_cap = self.cache.partition_cap

        # Factorize the grid: per-point structural key plus the exact
        # library scalars, all memoized per unique coordinate so the
        # library is consulted once per distinct value, not per point.
        struct_index: Dict[Tuple[int, int, int], int] = {}
        struct_keys: List[Tuple[int, int, int]] = []
        struct_idx = np.empty(n, dtype=np.intp)
        clock_v = np.empty(n, dtype=np.float64)
        escale_v = np.empty(n, dtype=np.float64)
        lscale_v = np.empty(n, dtype=np.float64)
        for i, design in enumerate(designs):
            node = design.node_nm
            wkey = (node, design.heterogeneity)
            window = window_of.get(wkey)
            if window is None:
                window = lib.fusion_window(node, design.heterogeneity)
                window_of[wkey] = window
            extra = extra_of.get(design.simplification)
            if extra is None:
                extra = lib.latency_extra(design.simplification)
                extra_of[design.simplification] = extra
            key = (min(design.partition, partition_cap), window, extra)
            idx = struct_index.get(key)
            if idx is None:
                idx = len(struct_keys)
                struct_index[key] = idx
                struct_keys.append(key)
            struct_idx[i] = idx

            clock = clock_of.get(node)
            if clock is None:
                clock = lib.clock_mhz(node)
                clock_of[node] = clock
            clock_v[i] = clock
            skey = (node, design.simplification)
            escale = escale_of.get(skey)
            if escale is None:
                escale = lib.energy_scale(node, design.simplification)
                escale_of[skey] = escale
            escale_v[i] = escale
            lscale = lscale_of.get(skey)
            if lscale is None:
                lscale = lib.leakage_scale(node, design.simplification)
                lscale_of[skey] = lscale
            lscale_v[i] = lscale

        n_structs = len(struct_keys)
        cycles_s = np.empty(n_structs, dtype=np.int64)
        ops_s = np.empty(n_structs, dtype=np.int64)
        base_dyn_s = np.empty(n_structs, dtype=np.float64)
        units_s = np.empty((n_structs, len(_CLASS_LIST)), dtype=np.float64)
        for j, key in enumerate(struct_keys):
            cycles_s[j], ops_s[j], base_dyn_s[j], units_s[j] = row_of(key)

        # Broadcast the per-structure vectors across the node x
        # simplification plane.  Association/summation order mirrors the
        # scalar path exactly:
        #   dynamic = base_dynamic * energy_scale
        #   leakage = sum_k units_k * (base_leak_k * leakage_scale)
        with span("evaluate", points=n, structures=n_structs):
            dynamic_v = base_dyn_s[struct_idx] * escale_v
            leakage_v = np.zeros(n, dtype=np.float64)
            units_v = units_s[struct_idx]
            for k, base in enumerate(self._base_leak):
                leakage_v += units_v[:, k] * (base * lscale_v)
        return BatchResult(
            kernel=self.kernel.name,
            designs=designs,
            cycles=cycles_s[struct_idx],
            clock_mhz=clock_v,
            dynamic_energy_nj=dynamic_v,
            leakage_power_w=leakage_v,
            total_ops=ops_s[struct_idx],
            structures=n_structs,
        )

    def evaluate(self, designs: Sequence[DesignPoint]) -> BatchResult:
        """Batched equivalent of per-point ``evaluate_design`` over *designs*."""
        design_list = tuple(designs)
        n = len(design_list)
        if n == 0:
            return _empty_result(self.kernel.name)
        with self._lock, span("batch.evaluate", points=n):
            # Resolve every unique structure once (memo -> store -> fast
            # scheduler).  A structure resolved by an earlier call skips
            # the cache lookup, so every point but one per newly resolved
            # structure counts as a coalesced memo hit, keeping
            # ``memo_hits + memo_misses == len(designs)`` on every call.
            resolved = len(self._struct_rows)
            result = self._columns(design_list, self._structure_row)
            self.cache.record_coalesced(n - (len(self._struct_rows) - resolved))
            registry = metrics()
            registry.counter("batch.points").inc(n)
            registry.counter("batch.structures").inc(result.structures)
            return result

    def bound(self, designs: Sequence[DesignPoint]) -> BatchResult:
        """*designs* priced at lower bounds of their structures' cycles.

        The columns are :meth:`evaluate`'s with each point's cycles
        replaced by :meth:`MacroGraph.cycle_bound` of its partition, fusion
        window and latency extra: the critical path or, when larger, the
        busiest class's serial time on its units.  No schedule undercuts
        it.  Throughput and energy efficiency both fall as cycles grow with
        every other field fixed, through IEEE-754 steps that are each
        monotone, so the metric of a :meth:`reports` row here is an upper
        bound, float for float, of the metric :meth:`evaluate` gives the
        same point, and equal to it at or past the window's saturation.

        No event loop runs and the :class:`ScheduleCache` is not touched:
        no lookup, no counter, no store write.  The pass is not a
        ``batch.evaluate`` and adds nothing to the ``batch.*`` counters.
        """
        design_list = tuple(designs)
        if not design_list:
            return _empty_result(self.kernel.name)
        with self._lock, span("batch.bound", points=len(design_list)):
            return self._columns(design_list, self._bound_row)
