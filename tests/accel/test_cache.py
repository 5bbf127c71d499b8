"""Tests for the persistent content-addressed DSE cache.

Covers the raw :class:`DiskCache` (round trip, staleness, corruption), the
schedule/trace stores, the fingerprint functions, and the acceptance
property that a warm rerun of a sweep is served from disk with identical
results.
"""

import pickle
import warnings

import pytest

from repro.accel.cache import (
    ENV_CACHE_DIR,
    DiskCache,
    KernelTraceStore,
    ScheduleStore,
    default_cache_dir,
    dfg_fingerprint,
    kernel_fingerprint,
    library_fingerprint,
    resolve_cache_dir,
)
from repro.accel.engine import SweepEngine
from repro.accel.resources import ResourceLibrary
from repro.accel.sweep import ScheduleCache, default_design_grid, sweep
from repro.obs.trace import Tracer, set_tracer
from repro.workloads import WORKLOADS, s3d, trd

GRID = dict(
    nodes=(45.0, 5.0),
    partitions=(1, 4, 16),
    simplifications=(1, 5, 13),
)


@pytest.fixture(scope="module")
def kernel():
    return trd.build(n=16)


class TestCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env-cache"))
        assert default_cache_dir() == tmp_path / "env-cache"
        assert resolve_cache_dir() == tmp_path / "env-cache"

    def test_explicit_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env-cache"))
        assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert default_cache_dir().name == "accelerator-wall"


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)

    def test_sharded_layout(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "cafe" + "0" * 60
        assert cache.path_for(key) == tmp_path / "ca" / f"{key}.pkl"

    def test_version_mismatch_is_miss_and_discards(self, tmp_path):
        key = "ab" + "0" * 62
        DiskCache(tmp_path, version=1).put(key, "old")
        newer = DiskCache(tmp_path, version=2)
        assert newer.get(key) is None
        assert newer.misses == 1
        assert not newer.path_for(key).exists()  # stale entry pruned

    def test_corrupted_entry_is_miss_and_discards(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, "good")
        path = cache.path_for(key)
        path.write_bytes(b"\x80\x04 not a pickle")
        assert cache.get(key) is None
        assert not path.exists()
        # And a recompute can repopulate the slot.
        cache.put(key, "recomputed")
        assert cache.get(key) == "recomputed"

    def test_malformed_entry_shape_is_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        with open(path, "wb") as handle:
            pickle.dump(["no", "version", "tuple"], handle)
        assert cache.get(key) is None

    def test_put_into_unwritable_directory_is_silent_noop(self, tmp_path):
        # The "cache dir" is actually a file: every mkdir/mkstemp under it
        # fails with OSError, the same failure family as a read-only dir
        # (which root processes would bypass in CI containers).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = DiskCache(blocker / "cache")
        key = "ab" + "0" * 62
        cache.put(key, "value")  # must not raise: caching is best-effort
        assert cache.writes == 0
        assert cache.get(key) is None  # degrades to a miss, not an error
        assert blocker.read_text() == "not a directory"

    def test_readonly_directory_put_is_silent_noop(self, tmp_path):
        import os

        if os.geteuid() == 0:
            pytest.skip("root bypasses file permissions")
        ro_dir = tmp_path / "ro"
        ro_dir.mkdir()
        os.chmod(ro_dir, 0o500)
        try:
            cache = DiskCache(ro_dir)
            key = "ab" + "0" * 62
            cache.put(key, "value")
            assert cache.writes == 0
            assert cache.get(key) is None
        finally:
            os.chmod(ro_dir, 0o700)

    def test_unpicklable_value_is_dropped_not_raised(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        unpicklable = lambda: None  # noqa: E731 - locals cannot be pickled
        cache.put(key, unpicklable)  # must not raise: caching is best-effort
        # The atomic-write temp file must not leak, and no partial entry
        # may be visible under the key.
        assert list(tmp_path.rglob("*.tmp")) == []
        assert cache.get(key) is None
        assert cache.writes == 0
        assert cache.drops == 1
        # The slot still works for a well-behaved value afterwards.
        cache.put(key, "recovered")
        assert cache.get(key) == "recovered"

    def test_reduce_raising_value_is_dropped_not_raised(self, tmp_path):
        # Values whose __reduce__ raises produce arbitrary exception types
        # (not just PicklingError); none may escape the best-effort put.
        class Hostile:
            def __reduce__(self):
                raise RuntimeError("refuses to pickle")

        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, Hostile())
        assert cache.drops == 1
        assert cache.writes == 0
        assert list(tmp_path.rglob("*.tmp")) == []
        assert cache.get(key) is None
        cache.put(key, "recovered")
        assert cache.get(key) == "recovered"

    def test_keyboard_interrupt_during_put_still_propagates(self, tmp_path):
        class Impatient:
            def __reduce__(self):
                raise KeyboardInterrupt

        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        with pytest.raises(KeyboardInterrupt):
            cache.put(key, Impatient())
        # Even then the temp file is discarded.
        assert list(tmp_path.rglob("*.tmp")) == []
        assert cache.drops == 0

    def test_store_wrappers_surface_drops(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store._disk.put("ab" + "0" * 62, lambda: None)
        assert store.drops == 1
        traces = KernelTraceStore(tmp_path)
        assert traces.drops == 0


class TestFingerprints:
    def test_stable_across_retrace(self):
        assert kernel_fingerprint(trd.build(n=16)) == kernel_fingerprint(
            trd.build(n=16)
        )

    def test_input_seed_changes_fingerprint(self):
        assert kernel_fingerprint(trd.build(n=16)) != kernel_fingerprint(
            trd.build(n=32)
        )

    def test_distinct_kernels_distinct_fingerprints(self):
        fps = {kernel_fingerprint(w.build()) for w in WORKLOADS}
        assert len(fps) == len(WORKLOADS)

    def test_dfg_fingerprint_is_structural(self, kernel):
        assert dfg_fingerprint(kernel.dfg) == dfg_fingerprint(
            trd.build(n=16).dfg
        )

    def test_library_fingerprint_stable(self):
        assert library_fingerprint(ResourceLibrary()) == library_fingerprint(
            ResourceLibrary()
        )


class TestScheduleStore:
    def test_round_trip_via_schedule_cache(self, tmp_path, kernel):
        library = ResourceLibrary()
        design = default_design_grid(**GRID)[0]

        cold = ScheduleCache(kernel, library, store=ScheduleStore(tmp_path))
        first = cold.get(design)
        assert cold.store.misses == 1 and cold.store.writes == 1

        warm = ScheduleCache(kernel, library, store=ScheduleStore(tmp_path))
        second = warm.get(design)
        assert warm.store.hits == 1
        assert second.cycles == first.cycles
        assert second.op_counts == first.op_counts

    def test_counters_surface_store_activity(self, tmp_path, kernel):
        cache = ScheduleCache(
            kernel, ResourceLibrary(), store=ScheduleStore(tmp_path)
        )
        cache.get(default_design_grid(**GRID)[0])
        counters = cache.counters()
        assert counters["cache_misses"] == 1
        assert counters["memo_misses"] == 1


class TestKernelTraceStore:
    def test_round_trip(self, tmp_path):
        store = KernelTraceStore(tmp_path)
        assert store.get("TRD") is None
        kernel = trd.build(n=16)
        store.put("TRD", kernel)
        cached = store.get("TRD")
        assert cached is not None
        assert kernel_fingerprint(cached) == kernel_fingerprint(kernel)

    def test_key_matches_existing_cache_directories(self):
        # The digest entries were stored under before the key dropped
        # build arguments; a default trace must still hit them.
        assert KernelTraceStore.key("TRD") == (
            "2355b85c259dd323600fa59e03f5f55a4464f7ce00404c9fd37bb1ea9b181211"
        )

    def test_engine_trace_uses_store(self, tmp_path):
        engine = SweepEngine(jobs=1, cache_dir=tmp_path)
        workload = next(w for w in WORKLOADS if w.abbrev == "S3D")
        first = engine.trace(workload)
        second = engine.trace(workload)
        assert kernel_fingerprint(first) == kernel_fingerprint(second)
        assert any((tmp_path / "traces").rglob("*.pkl"))


class TestWarmSweep:
    def test_cold_equals_warm_with_hits(self, tmp_path, kernel):
        grid = default_design_grid(**GRID)
        cold = SweepEngine(jobs=1, cache_dir=tmp_path).sweep(kernel, grid)
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses > 0

        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            warm = SweepEngine(jobs=1, cache_dir=tmp_path).sweep(kernel, grid)
        finally:
            set_tracer(previous)
        assert warm.reports == cold.reports
        assert warm.stats.cache_hits > 0
        assert warm.stats.hit_rate == 1.0
        # Every schedule came from disk: the store reads were traced and
        # the scheduler never ran.
        names = [s.name for s in tracer.spans]
        assert names.count("cache.get") == warm.stats.cache_hits
        assert "schedule" not in names

    def test_cache_matches_uncached_results(self, tmp_path, kernel):
        grid = default_design_grid(**GRID)
        cached = SweepEngine(jobs=1, cache_dir=tmp_path).sweep(kernel, grid)
        assert cached.reports == sweep(kernel, grid).reports

    def test_parallel_warm_reuses_serial_cache(self, tmp_path):
        kernel = s3d.build()
        grid = default_design_grid(**GRID)
        cold = SweepEngine(jobs=1, cache_dir=tmp_path).sweep(kernel, grid)
        warm = SweepEngine(jobs=2, cache_dir=tmp_path).sweep(kernel, grid)
        assert warm.reports == cold.reports
        assert warm.stats.cache_hits > 0

    def test_corrupted_store_recomputes(self, tmp_path, kernel):
        grid = default_design_grid(**GRID)
        reference = SweepEngine(jobs=1, cache_dir=tmp_path).sweep(kernel, grid)
        for path in (tmp_path / "schedules").rglob("*.pkl"):
            path.write_bytes(b"garbage")
        again = SweepEngine(jobs=1, cache_dir=tmp_path).sweep(kernel, grid)
        assert again.reports == reference.reports
        assert again.stats.cache_hits == 0


class TestDeprecatedAlias:
    def test_public_name_does_not_warn(self, kernel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ScheduleCache(kernel, ResourceLibrary())
