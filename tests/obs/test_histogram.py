"""Histogram semantics: bucketing, quantiles, snapshots, concurrency.

The hypothesis properties pin the contracts operators rely on: bucket
counts must account for every observation, quantile estimates must
bracket the true quantile within one log-linear bucket width, and a
snapshot must survive JSON (the format workers publish to the fleet
directory and ``repro stats`` reads back) bit-exactly.
"""

from __future__ import annotations

import json
import math
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    HIST_MAX_INDEX,
    HIST_MIN,
    HIST_SUBBUCKETS,
    Histogram,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
)

values = st.floats(
    min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(values, min_size=0, max_size=60)


def hist_of(observations) -> Histogram:
    h = Histogram()
    for v in observations:
        h.observe(v)
    return h


class TestBuckets:
    def test_underflow_and_overflow(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0
        assert bucket_index(HIST_MIN) == 0
        assert bucket_index(float("nan")) == 0
        assert bucket_index(1e30) == HIST_MAX_INDEX
        assert bucket_bounds(0) == (0.0, HIST_MIN)
        assert math.isinf(bucket_bounds(HIST_MAX_INDEX)[1])

    def test_bounds_partition_the_positive_axis(self):
        # Consecutive buckets tile without gaps or overlaps.
        for index in range(HIST_MAX_INDEX):
            assert bucket_bounds(index)[1] == bucket_bounds(index + 1)[0]

    @given(values)
    def test_value_lands_inside_its_bucket_bounds(self, value):
        index = bucket_index(value)
        lower, upper = bucket_bounds(index)
        if index == 0:
            assert value <= upper
        else:
            assert lower <= value <= upper

    def test_power_of_two_boundaries_are_exact(self):
        # frexp keeps octave edges exact where log2 would wobble: a value
        # exactly on an octave boundary opens that octave's first bucket.
        for octave in range(1, 30):
            edge = HIST_MIN * 2.0 ** octave
            index = bucket_index(edge)
            assert index == 1 + octave * HIST_SUBBUCKETS
            assert bucket_bounds(index)[0] == edge

    @given(value_lists)
    def test_bucket_counts_sum_to_observation_count(self, observations):
        h = hist_of(observations)
        assert sum(h.buckets.values()) == h.count == len(observations)


class TestQuantile:
    @given(
        st.lists(values, min_size=1, max_size=80),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_estimate_brackets_true_quantile_within_one_bucket(self, obs, q):
        h = hist_of(obs)
        ordered = sorted(obs)
        true = ordered[min(len(obs) - 1, max(0, math.ceil(q * len(obs)) - 1))]
        estimate = h.quantile(q)
        _, upper = bucket_bounds(bucket_index(true))
        assert true <= estimate <= upper

    def test_empty_histogram(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_single_observation_is_exact(self):
        h = hist_of([0.25])
        assert h.quantile(0.5) == 0.25
        assert h.quantile(0.99) == 0.25


class TestMergeAlgebra:
    """A snapshot entry merges back into a histogram through ``absorb_entry``."""

    @given(value_lists)
    @settings(max_examples=50)
    def test_snapshot_json_absorb_round_trips_bit_exactly(self, obs):
        h = hist_of(obs)
        entry = h.snapshot_entry()
        wire = json.loads(json.dumps(entry))
        restored = Histogram()
        restored.absorb_entry(wire)
        # Bit-exact: one JSON hop and absorb into empty must change nothing,
        # including the float sum (json round-trips float repr exactly).
        assert restored.snapshot_entry() == entry
        assert restored.sum_s == h.sum_s


class TestConcurrentMutation:
    """Regression: instrument mutation used to be unlocked read-modify-write,
    so threaded serving lost increments under contention."""

    THREADS = 8
    PER_THREAD = 5_000

    def _hammer(self, fn):
        barrier = threading.Barrier(self.THREADS)

        def work():
            barrier.wait()
            for _ in range(self.PER_THREAD):
                fn()

        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        self._hammer(lambda: counter.inc())
        assert counter.value == self.THREADS * self.PER_THREAD

    def test_histogram_observations_are_not_lost(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        self._hammer(lambda: hist.observe(0.001))
        total = self.THREADS * self.PER_THREAD
        assert hist.count == total
        assert sum(hist.buckets.values()) == total
        assert len(hist.buckets) == 1  # identical value -> one bucket


class TestRender:
    def test_registry_render_shows_quantiles(self):
        registry = MetricsRegistry()
        for ms in (1, 2, 3, 50):
            registry.histogram("serve.latency_s").observe(ms / 1e3)
        out = registry.render()
        assert "serve.latency_s" in out
        assert "histogram" in out
        assert "p50" in out and "p99" in out

    def test_render_tolerates_malformed_entry(self):
        out = MetricsRegistry().render(
            {"bad": {"type": "histogram", "buckets": [1, 2]}}
        )
        assert "malformed" in out
