"""Tests for the vectorized batch evaluator (`repro.accel.batch`).

The batch path's whole contract is *bit-identity* with the scalar oracle:
for any kernel and any design grid, `BatchEvaluator.evaluate(...).reports()`
must equal per-point `evaluate_design` exactly — same cycles, dynamic
energy, leakage, clock, op counts, and therefore the same derived
runtime/power/gain numbers.  These tests pin that contract with fixed
grids, a hypothesis harness over random DFGs x random grids, the
structural-dedup bookkeeping, the cache/store integration, and the Fig 14
attribution against its per-point oracle loop.
"""

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.attribution import (
    GainAttribution,
    attribute_gains,
    find_best_design,
)
from repro.accel.batch import BatchEvaluator, MacroGraph
from repro.accel.cache import ScheduleStore
from repro.accel.design import DesignPoint, baseline_design
from repro.accel.power import evaluate_design
from repro.accel.resources import ResourceLibrary
from repro.accel.scheduler import schedule as run_schedule
from repro.accel.sweep import (
    ScheduleCache,
    default_design_grid,
    sweep,
    table3_partitions,
)
from repro.accel.trace import TracedKernel
from repro.dfg.graph import Dfg, NodeKind
from repro.dfg.transforms import dead_code_eliminate
from repro.errors import ValidationError
from repro.obs.metrics import metrics
from repro.obs.trace import Tracer, set_tracer
from repro.workloads import build_kernel, s3d, trd

GRID = dict(
    nodes=(45.0, 14.0, 5.0),
    partitions=(1, 4, 16, 64, 1024),
    simplifications=(1, 5, 9, 13),
)


@pytest.fixture(scope="module")
def kernel():
    return trd.build(n=16)


@pytest.fixture(scope="module")
def large_kernels():
    return {abbrev: build_kernel(abbrev) for abbrev in ("MDY", "AES")}


@pytest.fixture(scope="module")
def grid():
    # Mixed heterogeneity exercises every fusion window the library emits.
    return default_design_grid(**GRID) + default_design_grid(
        heterogeneity=False, **GRID
    )


@pytest.fixture(scope="module")
def scalar(kernel, grid):
    lib = ResourceLibrary()
    cache = ScheduleCache(kernel, lib)
    return tuple(
        evaluate_design(kernel, d, lib, precomputed=cache.get(d)) for d in grid
    )


class TestBitIdentity:
    def test_reports_equal_scalar_oracle(self, kernel, grid, scalar):
        reports = BatchEvaluator(kernel).evaluate(grid).reports()
        assert reports == scalar

    def test_derived_metrics_equal(self, kernel, grid, scalar):
        # PowerReport equality covers the raw fields; the derived
        # properties are pure functions of them, pinned here explicitly.
        for batch, ref in zip(
            BatchEvaluator(kernel).evaluate(grid).reports(), scalar
        ):
            assert batch.runtime_s == ref.runtime_s
            assert batch.power_w == ref.power_w
            assert batch.energy_nj == ref.energy_nj
            assert batch.throughput_ops == ref.throughput_ops
            assert batch.energy_efficiency == ref.energy_efficiency

    def test_result_columns_match_reports(self, kernel, grid):
        result = BatchEvaluator(kernel).evaluate(grid)
        reports = result.reports()
        assert len(result) == len(grid)
        assert result.cycles.tolist() == [r.cycles for r in reports]
        assert result.runtime_s().tolist() == [r.runtime_s for r in reports]

    def test_empty_grid(self, kernel):
        result = BatchEvaluator(kernel).evaluate([])
        assert len(result) == 0
        assert result.reports() == ()
        assert result.structures == 0

    def test_sweep_vectorized_matches_scalar_path(self, kernel, grid, scalar):
        vectorized = sweep(kernel, grid)
        assert vectorized.reports == scalar
        assert vectorized.stats.design_points == len(scalar)


class TestStructuralDedup:
    def test_structures_counts_unique_keys(self, kernel, grid):
        cache = ScheduleCache(kernel, ResourceLibrary())
        expected = {cache.structural_key(d) for d in grid}
        result = BatchEvaluator(kernel).evaluate(grid)
        assert result.structures == len(expected)
        assert result.structures < len(grid)

    def test_structural_key_caps_partition(self, kernel):
        cache = ScheduleCache(kernel, ResourceLibrary())
        small = DesignPoint(node_nm=45.0, partition=1, simplification=1)
        huge = DesignPoint(node_nm=45.0, partition=524288, simplification=1)
        capped = DesignPoint(
            node_nm=45.0, partition=cache.partition_cap, simplification=1
        )
        assert cache.structural_key(huge) == cache.structural_key(capped)
        assert cache.structural_key(small) != cache.structural_key(huge)

    def test_structural_key_ignores_energy_knobs(self, kernel):
        # Below the pipeline knee, simplification is energy-only; nodes
        # only matter through the fusion window.
        cache = ScheduleCache(kernel, ResourceLibrary())
        a = DesignPoint(node_nm=45.0, partition=16, simplification=1)
        b = DesignPoint(node_nm=45.0, partition=16, simplification=5)
        assert cache.structural_key(a) == cache.structural_key(b)

    def test_memo_accounting_covers_every_point(self, kernel, grid):
        evaluator = BatchEvaluator(kernel)
        result = evaluator.evaluate(grid)
        cache = evaluator.cache
        assert cache.memo_hits + cache.memo_misses == len(grid)
        assert cache.memo_misses == result.structures

    def test_repeat_call_accounting_and_equality(self, kernel, grid):
        evaluator = BatchEvaluator(kernel)
        first = evaluator.evaluate(grid).reports()
        cache = evaluator.cache
        looked = cache.memo_hits + cache.memo_misses
        again = evaluator.evaluate(grid[:7]).reports()
        assert again == first[:7]
        # Every point of the repeat call coalesced onto resolved structures.
        assert cache.memo_hits + cache.memo_misses == looked + 7

    def test_record_coalesced_counts_hits(self, kernel):
        cache = ScheduleCache(kernel, ResourceLibrary())
        cache.record_coalesced(5)
        assert cache.memo_hits == 5
        cache.record_coalesced(0)
        cache.record_coalesced(-3)
        assert cache.memo_hits == 5


class TestMacroGraph:
    @pytest.mark.parametrize("window", [1, 2, 4])
    @pytest.mark.parametrize("partition", [1, 2, 7, 64, 4096])
    @pytest.mark.parametrize("extra", [0, 4])
    def test_matches_list_scheduler(self, kernel, window, partition, extra):
        lib = ResourceLibrary()
        fast = MacroGraph(kernel.dfg, lib, window).schedule(partition, extra)
        reference = run_schedule(
            kernel.dfg,
            partition=partition,
            library=lib,
            fusion_window=window,
            latency_extra=extra,
        )
        assert fast == reference

    @pytest.mark.parametrize("abbrev", ["MDY", "AES"])
    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("partition", [1, 7])
    @pytest.mark.parametrize("extra", [0, 4])
    def test_large_kernels_match_list_scheduler(
        self, large_kernels, abbrev, window, partition, extra
    ):
        # The largest Table IV DFGs (~2,100 nodes) run the DSE's costliest
        # event loops: long FIFO pools and many crowded cycle buckets.
        dfg = large_kernels[abbrev].dfg
        lib = ResourceLibrary()
        graph = MacroGraph(dfg, lib, window)
        assert partition < graph.saturation  # the event loop runs
        fast = graph.schedule(partition, extra)
        reference = run_schedule(
            dfg,
            partition=partition,
            library=lib,
            fusion_window=window,
            latency_extra=extra,
        )
        assert fast == reference
        assert type(fast.cycles) is int

    def test_saturation_boundary(self, kernel):
        # Partitions straddling the saturation point (where the event loop
        # hands over to the critical-path shortcut) must agree with the
        # scheduler on both sides, and both sides count whole cycles.
        lib = ResourceLibrary()
        graph = MacroGraph(kernel.dfg, lib, 2)
        assert graph.saturation > 1
        for partition in (
            graph.saturation - 1,
            graph.saturation,
            graph.saturation + 1,
        ):
            fast = graph.schedule(partition)
            assert fast == run_schedule(
                kernel.dfg, partition=partition, library=lib, fusion_window=2
            )
            assert type(fast.cycles) is int

    def test_rejects_bad_partition(self, kernel):
        graph = MacroGraph(kernel.dfg, ResourceLibrary(), 2)
        with pytest.raises(ValueError):
            graph.schedule(0)

    @pytest.mark.parametrize("abbrev", ["MDY", "AES"])
    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("extra", [0, 4])
    def test_cycle_bound_is_a_lower_bound(self, large_kernels, abbrev, window, extra):
        # Below saturation the busiest class's serial time can exceed the
        # critical path; from saturation on the bound is the schedule.
        graph = MacroGraph(large_kernels[abbrev].dfg, ResourceLibrary(), window)
        tighter = 0
        for partition in table3_partitions():
            bound = graph.cycle_bound(partition, extra)
            cycles = graph.schedule(partition, extra).cycles
            assert graph.critical_path(extra) <= bound <= cycles
            if partition >= graph.saturation:
                assert bound == cycles
            tighter += bound > graph.critical_path(extra)
        assert tighter > 0


class TestCacheIntegration:
    def test_shared_cache_with_scalar_path(self, kernel, grid):
        # A cache warmed by the scalar path serves the batch path and
        # vice versa: same structural keys, same schedules.
        lib = ResourceLibrary()
        cache = ScheduleCache(kernel, lib)
        scalar = tuple(
            evaluate_design(kernel, d, lib, precomputed=cache.get(d))
            for d in grid
        )
        evaluator = BatchEvaluator(kernel, cache=cache)
        assert evaluator.evaluate(grid).reports() == scalar
        # Every batch point was a memo hit on the warmed cache.
        assert cache.memo_misses == len(
            {cache.structural_key(d) for d in grid}
        )

    def test_warm_store_round_trip(self, tmp_path, kernel, grid):
        lib = ResourceLibrary()
        cold_cache = ScheduleCache(kernel, lib, store=ScheduleStore(tmp_path))
        cold = BatchEvaluator(kernel, cache=cold_cache).evaluate(grid)
        assert cold_cache.store.writes > 0

        warm_cache = ScheduleCache(kernel, lib, store=ScheduleStore(tmp_path))
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            warm = BatchEvaluator(kernel, cache=warm_cache).evaluate(grid)
        finally:
            set_tracer(previous)
        assert warm.reports() == cold.reports()
        assert warm_cache.store.hits == warm.structures
        # Every schedule came from disk: the store reads were traced and
        # the scheduler never ran.
        names = [s.name for s in tracer.spans]
        assert names.count("cache.get") == warm.structures
        assert "schedule" not in names

    def test_store_fingerprints_computed_once_per_miss(self, tmp_path, kernel):
        cache = ScheduleCache(kernel, ResourceLibrary(), store=ScheduleStore(tmp_path))
        calls = []
        original = type(cache)._store_fingerprints

        def counting(self):
            calls.append(1)
            return original(self)

        type(cache)._store_fingerprints = counting
        try:
            cache.get(DesignPoint(node_nm=45.0, partition=4, simplification=1))
        finally:
            type(cache)._store_fingerprints = original
        # One invocation covers both the store lookup and the store put of
        # the same miss.
        assert len(calls) == 1

    def test_library_conflict_rejected(self, kernel):
        cache = ScheduleCache(kernel, ResourceLibrary())
        with pytest.raises(ValueError, match="library"):
            BatchEvaluator(kernel, library=ResourceLibrary(), cache=cache)


# -- hypothesis: random DFGs x random grids -----------------------------------

OPS = ["add", "mul", "sub", "div", "exp", "min"]


@st.composite
def random_kernel(draw):
    """A random traced kernel: layered DAG construction keeps it acyclic."""
    n_inputs = draw(st.integers(min_value=1, max_value=3))
    n_compute = draw(st.integers(min_value=1, max_value=14))
    g = Dfg("random")
    available = [g.add_input(f"in{i}") for i in range(n_inputs)]
    for _ in range(n_compute):
        n_operands = draw(
            st.integers(min_value=1, max_value=min(3, len(available)))
        )
        operands = draw(
            st.lists(
                st.sampled_from(available),
                min_size=n_operands,
                max_size=n_operands,
                unique=True,
            )
        )
        available.append(g.add_compute(draw(st.sampled_from(OPS)), operands))
    sinks = [
        nid
        for nid in g.node_ids()
        if g.kind(nid) is NodeKind.COMPUTE and not g.successors(nid)
    ]
    for nid in sinks:
        g.add_output(nid)
    g = dead_code_eliminate(g)
    reads = draw(st.integers(min_value=0, max_value=64))
    writes = draw(st.integers(min_value=0, max_value=64))
    return TracedKernel(
        name=g.name, dfg=g, memory_reads=reads, memory_writes=writes
    )


@st.composite
def random_grid(draw):
    designs = draw(
        st.lists(
            st.builds(
                DesignPoint,
                node_nm=st.sampled_from([45.0, 22.0, 10.0, 5.0]),
                partition=st.sampled_from([1, 2, 8, 64, 4096, 524288]),
                simplification=st.integers(min_value=1, max_value=13),
                heterogeneity=st.booleans(),
            ),
            min_size=1,
            max_size=24,
        )
    )
    return designs


@given(kernel=random_kernel(), designs=random_grid())
@settings(max_examples=60, deadline=None)
def test_batch_matches_scalar_on_random_inputs(kernel, designs):
    lib = ResourceLibrary()
    cache = ScheduleCache(kernel, lib)
    scalar = tuple(
        evaluate_design(kernel, d, lib, precomputed=cache.get(d))
        for d in designs
    )
    assert BatchEvaluator(kernel).evaluate(designs).reports() == scalar


@given(kernel=random_kernel())
@settings(max_examples=40, deadline=None)
def test_macro_graph_matches_scheduler_on_random_dfgs(kernel):
    lib = ResourceLibrary()
    for window in (1, 3):
        graph = MacroGraph(kernel.dfg, lib, window)
        for partition in (1, 2, graph.saturation, 4096):
            for extra in (0, 2):
                assert graph.schedule(partition, extra) == run_schedule(
                    kernel.dfg,
                    partition=partition,
                    library=lib,
                    fusion_window=window,
                    latency_extra=extra,
                )


# -- Fig 14 attribution against the per-point oracle ----------------------------

METRIC_FIELD = {"throughput": "throughput_ops", "energy_efficiency": "energy_efficiency"}


@given(kernel=random_kernel(), designs=random_grid())
@settings(max_examples=60, deadline=None)
def test_bound_caps_both_metrics_and_counts_nothing(kernel, designs):
    evaluator = BatchEvaluator(kernel)
    cache = evaluator.cache
    points = metrics().counter("batch.points")
    before = (cache.memo_hits, cache.memo_misses, points.value)
    bounds = evaluator.bound(designs).reports()
    assert (cache.memo_hits, cache.memo_misses, points.value) == before
    exact = evaluator.evaluate(designs).reports()
    lib = evaluator.library
    for design, bound, report in zip(designs, bounds, exact):
        window = lib.fusion_window(design.node_nm, design.heterogeneity)
        saturated = (
            design.partition >= evaluator.macro_graph(window).saturation
        )
        for field in METRIC_FIELD.values():
            assert getattr(bound, field) >= getattr(report, field)
            if saturated:
                assert getattr(bound, field) == getattr(report, field)


def oracle_attribution(
    kernel, metric, partitions, simplifications, node_nm=5.0, baseline_node_nm=45.0
):
    """Fig 14 by a per-point scalar loop: the reference for ``attribute_gains``.

    Every design runs ``evaluate_design`` over a shared schedule cache, the
    first strictly greater metric in grid order wins, and the baseline
    runs the list scheduler uncached.
    """
    lib = ResourceLibrary()
    cache = ScheduleCache(kernel, lib)

    def value(design, schedule):
        report = evaluate_design(kernel, design, lib, precomputed=schedule)
        return getattr(report, METRIC_FIELD[metric])

    grid = default_design_grid(
        nodes=[node_nm], partitions=partitions, simplifications=simplifications
    )
    best, best_value = None, -math.inf
    for design in grid:
        v = value(design, cache.get(design))
        if v > best_value:
            best, best_value = design, v
    base = baseline_design(baseline_node_nm)
    ablations = {
        "cmos_saving": best.with_node(baseline_node_nm),
        "partitioning": best.with_partition(1),
        "simplification": best.with_simplification(1),
        "heterogeneity": best.without_heterogeneity(),
    }
    return GainAttribution(
        kernel=kernel.name,
        metric=metric,
        baseline=base,
        best=best,
        total_gain=best_value / value(base, None),
        factors={
            concept: max(1.0, best_value / value(design, cache.get(design)))
            for concept, design in ablations.items()
        },
    )


#: Partitions 256 and up saturate every pool of the kernels below, so
#: their metrics tie and first-wins grid order picks the best design.
ORACLE_PARTITIONS = (1, 16, 256, 4096, 524288)
ORACLE_SIMPLIFICATIONS = (1, 5, 9, 13)


@pytest.mark.parametrize("metric", ["throughput", "energy_efficiency"])
@pytest.mark.parametrize("abbrev", ["RED", "BFS", "SMV", "SRT", "TRD"])
def test_attribution_matches_per_point_oracle(abbrev, metric):
    kernel = build_kernel(abbrev)
    lib = ResourceLibrary()
    window = lib.fusion_window(5.0, True)
    assert MacroGraph(kernel.dfg, lib, window).saturation <= 256
    expected = oracle_attribution(
        kernel, metric, ORACLE_PARTITIONS, ORACLE_SIMPLIFICATIONS
    )
    got = attribute_gains(
        kernel,
        metric,
        partitions=ORACLE_PARTITIONS,
        simplifications=ORACLE_SIMPLIFICATIONS,
    )
    assert got == expected
    # Saturated partitions tie; the first of them in grid order wins.
    assert got.best.partition <= 256


@given(
    kernel=random_kernel(),
    metric=st.sampled_from(sorted(METRIC_FIELD)),
    partitions=st.lists(
        st.sampled_from(table3_partitions()), min_size=1, max_size=5, unique=True
    ),
    simplifications=st.lists(
        st.integers(min_value=1, max_value=13), min_size=1, max_size=4, unique=True
    ),
)
@settings(max_examples=40, deadline=None)
def test_attribution_matches_oracle_on_random_inputs(
    kernel, metric, partitions, simplifications
):
    assert attribute_gains(
        kernel, metric, partitions=partitions, simplifications=simplifications
    ) == oracle_attribution(kernel, metric, partitions, simplifications)


@pytest.mark.parametrize("abbrev", ["RED", "TRD", "S3D", "MDY"])
def test_throughput_search_schedules_only_the_extra_zero_structures(abbrev):
    # Past the knee every latency extra lengthens the critical path, and
    # extra 0 reaches its own at saturation, so the search schedules one
    # structure per distinct (capped) partition and nothing else.  A full
    # scan schedules five times as many: extras 0 to 4.
    kernel = build_kernel(abbrev)
    batch = BatchEvaluator(kernel)
    find_best_design(kernel, "throughput", batch=batch)
    cache = batch.cache
    partitions = {min(p, cache.partition_cap) for p in table3_partitions()}
    assert cache.memo_misses <= len(partitions)


@pytest.mark.parametrize(
    "abbrev, most", [("RED", 1), ("TRD", 1), ("MDY", 6), ("FFT", 6)]
)
def test_efficiency_search_schedules_few_structures(abbrev, most):
    # Small partitions are slow on their busiest class long before their
    # critical path says so; the cycle bound rules them out unscheduled.
    # A critical-path bound alone schedules 20, 30, 32 and 26 here.
    kernel = build_kernel(abbrev)
    batch = BatchEvaluator(kernel)
    find_best_design(kernel, "energy_efficiency", batch=batch)
    assert batch.cache.memo_misses <= most


def test_attribution_rejects_an_empty_grid(kernel):
    with pytest.raises(ValidationError, match="non-empty grid"):
        attribute_gains(kernel, partitions=[])


def test_attribution_rejects_another_kernels_evaluator(kernel):
    other = build_kernel("RED")
    with pytest.raises(ValueError, match="kernel .red."):
        attribute_gains(kernel, batch=BatchEvaluator(other))
    with pytest.raises(ValueError, match="kernel .red."):
        find_best_design(kernel, "throughput", batch=BatchEvaluator(other))


#: Only turns a hang into a failure; nothing here is timed.
HANG_GUARD_S = 120


class TestSharedEvaluator:
    """Threads sharing one evaluator, as serve's event loop (``/evaluate``)
    and thread pool (``/attribute``) do, get the serial answers and exact
    memo counts."""

    #: Every ninth Table III point, evaluated one request at a time.
    POINTS = default_design_grid()[::9]

    def test_two_threads_share_one_evaluator(self):
        kernel = build_kernel("S3D")
        shared = BatchEvaluator(kernel)
        attributions, reports, errors = {}, [], []
        start = threading.Barrier(2, timeout=HANG_GUARD_S)

        def attribute():
            start.wait()
            try:
                for metric in METRIC_FIELD:
                    attributions[metric] = attribute_gains(
                        kernel, metric, batch=shared
                    )
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def evaluate():
            start.wait()
            try:
                for design in self.POINTS:
                    reports.extend(shared.evaluate([design]).reports())
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run) for run in (attribute, evaluate)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(HANG_GUARD_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        serial = BatchEvaluator(kernel)
        expected = {
            metric: attribute_gains(kernel, metric, batch=serial)
            for metric in METRIC_FIELD
        }
        searched = serial.cache.memo_hits + serial.cache.memo_misses
        expected_reports = [
            report
            for design in self.POINTS
            for report in serial.evaluate([design]).reports()
        ]
        assert attributions == expected
        assert reports == expected_reports
        cache = shared.cache
        assert cache.memo_hits + cache.memo_misses == searched + len(self.POINTS)


class TestEngineVectorization:
    def test_parallel_vectorized_matches_serial(self, grid):
        from repro.accel.engine import SweepEngine

        kernel = s3d.build()
        serial = SweepEngine(jobs=1, use_cache=False).sweep(kernel, grid)
        parallel = SweepEngine(jobs=2, use_cache=False).sweep(kernel, grid)
        assert parallel.reports == serial.reports
        stats = parallel.stats
        assert stats.memo_hits + stats.memo_misses == len(grid)
