"""Tests for the process-wide metrics registry."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
    reset_metrics,
)


class TestInstruments:
    """Counters, gauges, and histograms, which are the timing instrument."""

    def test_counter_increments(self):
        counter = Counter()
        assert counter.inc() == 1
        assert counter.inc(4) == 5
        assert counter.value == 5

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.set(1.0)
        assert gauge.value == 1.0

    def test_timer_observe_and_mean(self):
        timer = Histogram()
        assert timer.mean_s == 0.0  # no division by zero when unused
        timer.observe(0.2)
        timer.observe(0.4)
        assert timer.count == 2
        assert timer.sum_s == pytest.approx(0.6)
        assert timer.mean_s == pytest.approx(0.3)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot() == {}

    def test_snapshot_shape_and_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3)
        registry.gauge("engine.jobs").set(2)
        registry.histogram("schedule").observe(0.5)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["cache.hits"] == {"type": "counter", "value": 3}
        assert snap["engine.jobs"] == {"type": "gauge", "value": 2.0}
        assert snap["schedule"]["type"] == "histogram"
        assert snap["schedule"]["count"] == 1
        assert snap["schedule"]["sum"] == 0.5

    def test_render_empty(self):
        assert MetricsRegistry().render() == "(no metrics recorded)"

    def test_render_lists_every_metric_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc(7)
        registry.gauge("a.gauge").set(1.5)
        registry.histogram("c.hist").observe(0.25)
        lines = registry.render().splitlines()
        assert [line.split()[0] for line in lines] == [
            "a.gauge",
            "b.count",
            "c.hist",
        ]
        assert "7" in lines[1]
        assert "over 1 calls" in lines[2]

    def test_timer_entries_of_older_snapshots_are_skipped(self):
        # The Timer instrument is gone; a persisted snapshot that still
        # holds its entries reads like any other unknown kind.
        old = {
            "hits": {"type": "counter", "value": 2},
            "schedule": {"type": "timer", "count": 3, "total_s": 1.5},
        }
        assert MetricsRegistry().render(old).splitlines() == [
            "hits      counter  2"
        ]

    def test_render_accepts_persisted_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        persisted = json.loads(json.dumps(registry.snapshot()))
        assert MetricsRegistry().render(persisted) == registry.render()


class TestProcessWideRegistry:
    def test_metrics_returns_singleton(self):
        assert metrics() is metrics()

    def test_reset_metrics_clears(self):
        metrics().counter("leak").inc()
        reset_metrics()
        assert metrics().snapshot() == {}
