"""Tests for the parallel sweep engine and incremental Pareto frontier.

The engine's core contract is equivalence: any ``jobs`` count and any cache
state must produce results bit-identical to the plain serial sweep, and the
streaming :class:`ParetoAccumulator` must agree with the batch reference
:func:`pareto_points` on every input.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.attribution import attribute_all, attribute_gains
from repro.accel.engine import SweepEngine, resolve_jobs
from repro.accel.sweep import (
    ParetoAccumulator,
    SweepStats,
    default_design_grid,
    pareto_points,
    sweep,
)
from repro.workloads import s3d, trd

GRID = dict(
    nodes=(45.0, 14.0, 5.0),
    partitions=(1, 4, 16, 64),
    simplifications=(1, 5, 9, 13),
)
SMALL = dict(partitions=(1, 8), simplifications=(1, 5))


@pytest.fixture(scope="module")
def kernel():
    return trd.build(n=16)


@pytest.fixture(scope="module")
def grid():
    return default_design_grid(**GRID)


@pytest.fixture(scope="module")
def serial(kernel, grid):
    return sweep(kernel, grid)


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    @pytest.mark.parametrize("jobs", [None, 0, -1])
    def test_all_cores(self, jobs):
        assert resolve_jobs(jobs) >= 1


class TestSweepEquivalence:
    def test_engine_serial_matches_plain_sweep(self, kernel, grid, serial):
        result = SweepEngine(jobs=1, use_cache=False).sweep(kernel, grid)
        assert result.reports == serial.reports

    def test_parallel_matches_serial_bit_identical(self, kernel, grid, serial):
        result = SweepEngine(jobs=2, use_cache=False).sweep(kernel, grid)
        assert result.reports == serial.reports
        assert result == serial  # stats excluded from equality

    def test_sweep_jobs_kwarg_routes_through_engine(self, kernel, grid, serial):
        result = sweep(kernel, grid, jobs=2, use_cache=False)
        assert result.reports == serial.reports
        assert result.stats.jobs == 2

    def test_parallel_stats_populated(self, kernel, grid):
        engine = SweepEngine(jobs=2, use_cache=False)
        result = engine.sweep(kernel, grid)
        stats = result.stats
        assert stats.design_points == len(grid)
        assert stats.jobs == 2
        assert stats.chunks > 1
        assert stats.elapsed_s > 0
        assert stats.memo_hits + stats.memo_misses == len(grid)
        assert engine.last_stats is stats
        assert engine.stats.design_points == len(grid)

    def test_streamed_frontier_matches_batch(self, kernel, grid, serial):
        result = SweepEngine(jobs=2, use_cache=False).sweep(kernel, grid)
        assert result.pareto_frontier() == serial.pareto_frontier()
        reference = pareto_points(serial.runtime_power_points())
        assert [p for _, _, p in reference] == result.pareto_frontier()


class TestAttributionEquivalence:
    def test_parallel_matches_serial(self):
        kernels = [trd.build(n=16), s3d.build()]
        serial = [attribute_gains(k, **SMALL) for k in kernels]
        engine = SweepEngine(jobs=2, use_cache=False)
        parallel = engine.attribute_all(kernels, **SMALL)
        assert parallel == serial
        stats = engine.last_stats
        assert stats.design_points > 0
        assert stats.chunks == len(kernels)

    def test_attribute_all_jobs_kwarg(self):
        kernels = [trd.build(n=16)]
        assert attribute_all(kernels, jobs=2, use_cache=False, **SMALL) == [
            attribute_gains(kernels[0], **SMALL)
        ]

    def test_engine_attribute_single(self):
        kernel = trd.build(n=16)
        engine = SweepEngine(jobs=1, use_cache=False)
        assert engine.attribute_all([kernel], **SMALL) == [
            attribute_gains(kernel, **SMALL)
        ]


class TestStatsAccounting:
    """Regressions for the jobs/elapsed accounting bugs.

    ``jobs`` must report the workers *actually used* (serial fallbacks
    report 1), ``elapsed_s`` is always the wall time of the operation,
    and every public entry point records exactly once.
    """

    def test_single_point_grid_reports_serial_jobs(self, kernel, grid):
        engine = SweepEngine(jobs=4, use_cache=False)
        result = engine.sweep(kernel, grid[:1])
        assert result.stats.jobs == 1  # serial fallback, not self.jobs
        assert result.stats.chunks == 1

    def test_empty_grid_reports_serial_jobs(self, kernel):
        engine = SweepEngine(jobs=4, use_cache=False)
        result = engine.sweep(kernel, [])
        assert result.stats.jobs == 1
        assert result.stats.design_points == 0

    def test_parallel_uses_at_most_chunk_count_workers(self, kernel, grid):
        # More workers than chunks: report what was actually spawned.
        engine = SweepEngine(jobs=64, use_cache=False, chunk_size=len(grid))
        result = engine.sweep(kernel, grid)
        assert result.stats.chunks == 1
        assert result.stats.jobs == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_attribute_all_counts_every_evaluation_once(self, jobs):
        # Per kernel: the grid points the pruned search evaluates exactly
        # (at most the grid) plus the 45nm baseline and the four
        # ablations, each one memo lookup and one design point.  The
        # cycle-bound pass counts nothing.
        kernels = [trd.build(n=16), s3d.build()]
        partitions, simplifications = (1, 8, 64), (1, 5, 9, 13)
        engine = SweepEngine(jobs=jobs, use_cache=False)
        engine.attribute_all(
            kernels, partitions=partitions, simplifications=simplifications
        )
        stats = engine.last_stats
        grid = len(partitions) * len(simplifications)
        assert stats.design_points == stats.memo_hits + stats.memo_misses
        assert stats.design_points <= len(kernels) * (grid + 5)

    def test_attribute_all_serial_reports_one_job(self):
        kernels = [trd.build(n=16), s3d.build()]
        engine = SweepEngine(jobs=1, use_cache=False)
        engine.attribute_all(kernels, **SMALL)
        assert engine.last_stats.jobs == 1

    def test_attribute_all_parallel_reports_workers_used(self):
        kernels = [trd.build(n=16), s3d.build()]
        engine = SweepEngine(jobs=8, use_cache=False)
        engine.attribute_all(kernels, **SMALL)
        assert engine.last_stats.jobs == 2  # min(jobs, kernels)


class TestCacheOptIn:
    """The on-disk cache is used only when a directory or use_cache=True asks."""

    def test_default_engine_opens_no_disk_cache(self):
        engine = SweepEngine(jobs=2)
        assert engine.use_cache is False
        assert engine.cache_dir is None

    def test_parallel_wrappers_leave_the_default_directory_alone(
        self, kernel, grid, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        result = sweep(kernel, grid, jobs=2)
        assert result.stats.cache_hits + result.stats.cache_misses == 0
        attribute_all([kernel, s3d.build()], jobs=2, **SMALL)
        assert not (tmp_path / "default").exists()


class TestSweepStats:
    def test_merge_accumulates(self):
        a = SweepStats(design_points=2, chunks=1, cache_hits=1, cache_misses=1)
        b = SweepStats(design_points=3, chunks=2, cache_hits=3, cache_misses=0)
        a.merge(b)
        assert a.design_points == 5
        assert a.chunks == 3
        assert a.hit_rate == pytest.approx(0.8)

    def test_hit_rate_zero_when_cache_off(self):
        assert SweepStats().hit_rate == 0.0
        assert SweepStats().memo_hit_rate == 0.0

    def test_describe_mentions_key_numbers(self):
        text = SweepStats(design_points=7, jobs=2, cache_hits=5).describe()
        assert "7 design points" in text
        assert "jobs=2" in text


# A coordinate pool with deliberate collisions, so equal-x and equal-point
# ties are exercised, mixed with arbitrary floats.
coord = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


class TestParetoAccumulator:
    def test_dominated_insert_rejected(self):
        acc = ParetoAccumulator()
        assert acc.add(1.0, 1.0, "a")
        assert not acc.add(2.0, 2.0, "b")
        assert acc.payloads() == ["a"]

    def test_insert_evicts_dominated(self):
        acc = ParetoAccumulator()
        acc.add(2.0, 2.0, "old")
        assert acc.add(1.0, 1.0, "new")
        assert acc.payloads() == ["new"]

    def test_equal_point_keeps_first(self):
        acc = ParetoAccumulator()
        acc.add(1.0, 1.0, "first")
        assert not acc.add(1.0, 1.0, "second")
        assert acc.payloads() == ["first"]

    def test_tradeoff_points_coexist(self):
        acc = ParetoAccumulator()
        acc.add(1.0, 5.0, "fast")
        acc.add(5.0, 1.0, "frugal")
        assert len(acc) == 2
        assert acc.frontier() == [(1.0, 5.0, "fast"), (5.0, 1.0, "frugal")]

    def test_extend_matches_add(self):
        points = [(3.0, 1.0, "a"), (1.0, 3.0, "b"), (2.0, 2.0, "c")]
        acc = ParetoAccumulator()
        acc.extend(points)
        assert acc.frontier() == pareto_points(points)

    @given(st.lists(st.tuples(coord, coord)))
    @settings(max_examples=300, deadline=None)
    def test_equivalent_to_batch_reference(self, raw):
        points = [(x, y, i) for i, (x, y) in enumerate(raw)]
        acc = ParetoAccumulator()
        for point in points:
            acc.add(*point)
        assert acc.frontier() == pareto_points(points)
