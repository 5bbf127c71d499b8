"""Unit tests for the serving building blocks (no sockets involved)."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.obs.metrics import Histogram
from repro.serve.cache import LruCache
from repro.serve.handlers import render_prometheus
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JobQueue,
    QueueFullError,
    UnknownJobError,
)
from repro.serve.limits import InflightGate, RateLimiter
from repro.serve.router import HttpError, Request, Response, Router


def run(coro):
    return asyncio.run(coro)


class TestRouter:
    def _router(self):
        async def handler(app, request, **params):
            return params

        router = Router()
        router.add("GET", "/healthz", handler, name="healthz")
        router.add("GET", "/sweeps/{job_id}", handler, name="sweeps.get")
        router.add("DELETE", "/sweeps/{job_id}", handler, name="sweeps.cancel")
        return router

    def test_resolves_static_and_param_routes(self):
        router = self._router()
        route, params = router.resolve("GET", "/healthz")
        assert route.name == "healthz" and params == {}
        route, params = router.resolve("GET", "/sweeps/job-abc")
        assert route.name == "sweeps.get" and params == {"job_id": "job-abc"}

    def test_unknown_path_is_404_with_route_list(self):
        with pytest.raises(HttpError) as err:
            self._router().resolve("GET", "/nope")
        assert err.value.status == 404
        assert "/healthz" in err.value.detail["routes"]

    def test_wrong_method_is_405_with_allow_header(self):
        with pytest.raises(HttpError) as err:
            self._router().resolve("POST", "/sweeps/job-abc")
        assert err.value.status == 405
        assert "GET" in err.value.headers["Allow"]
        assert "DELETE" in err.value.headers["Allow"]

    def test_request_target_parsing(self):
        path, query = Request.parse_target("/cmos/gains?node=5&tdp_w=10")
        assert path == "/cmos/gains"
        assert query == {"node": "5", "tdp_w": "10"}

    def test_param_float_rejects_garbage(self):
        request = Request(
            method="GET", path="/x", query={"node": "abc"},
            headers={}, body=b"", client="t",
        )
        with pytest.raises(HttpError) as err:
            request.param_float("node")
        assert err.value.status == 400

    def test_json_object_rejects_non_objects(self):
        request = Request(
            method="POST", path="/x", query={},
            headers={}, body=b"[1, 2]", client="t",
        )
        with pytest.raises(HttpError) as err:
            request.json_object()
        assert err.value.status == 400


class TestLruCache:
    def test_hit_miss_and_eviction(self):
        cache = LruCache(2)
        assert cache.get("a") == (False, None)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (True, 1)  # refreshes recency
        cache.put("c", 3)  # evicts b (least recently used)
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.get("c") == (True, 3)

    def test_zero_capacity_disables(self):
        cache = LruCache(0)
        cache.put("a", 1)
        assert cache.get("a") == (False, None)
        assert len(cache) == 0


class TestRateLimiter:
    def test_disabled_when_rate_zero(self):
        limiter = RateLimiter(0.0)
        assert not limiter.enabled
        assert limiter.allow("x") == (True, 0.0)

    def test_burst_then_denied_with_retry_after(self):
        limiter = RateLimiter(1.0, burst=2)
        now = 100.0
        assert limiter.allow("c", now=now)[0]
        assert limiter.allow("c", now=now)[0]
        admitted, retry_after = limiter.allow("c", now=now)
        assert not admitted
        assert retry_after > 0

    def test_tokens_refill_over_time(self):
        limiter = RateLimiter(10.0, burst=1)
        assert limiter.allow("c", now=100.0)[0]
        assert not limiter.allow("c", now=100.0)[0]
        assert limiter.allow("c", now=100.2)[0]  # 0.2s * 10/s = 2 tokens

    def test_clients_are_independent(self):
        limiter = RateLimiter(1.0, burst=1)
        assert limiter.allow("a", now=100.0)[0]
        assert limiter.allow("b", now=100.0)[0]
        assert not limiter.allow("a", now=100.0)[0]

    def test_eviction_never_grants_free_burst(self):
        """Regression: table churn used to hand drained clients a refill.

        The old ``_evict`` dropped the least-recently-updated bucket
        regardless of its token balance, so a client that spent its whole
        burst and idled briefly came back to a brand-new full bucket.
        """
        limiter = RateLimiter(1.0, burst=2.0, max_clients=1)
        assert limiter.allow("a", now=100.0)[0]
        assert limiter.allow("a", now=100.0)[0]
        assert not limiter.allow("a", now=100.0)[0]  # burst spent
        # Another client arriving overflows the 1-bucket table — the
        # churn that used to evict (and thereby reset) client "a".
        assert limiter.allow("b", now=100.01)[0]
        admitted, retry_after = limiter.allow("a", now=100.02)
        assert not admitted  # old behaviour: a fresh burst right here
        assert retry_after > 0

    def test_eviction_drops_only_refilled_buckets(self):
        limiter = RateLimiter(1.0, burst=2.0, max_clients=1)
        assert limiter.allow("a", now=100.0)[0]  # leaves 1 token
        # By now=103 client "a" has refilled to full: evictable, and the
        # table shrinks back to its bound on the next insertion.
        assert limiter.allow("b", now=103.0)[0]
        assert len(limiter) == 1

    def test_incoming_bucket_is_not_self_evicted(self):
        """A new client's own (full) bucket must survive the overflow scan,
        or an overflowed table would grant it a fresh burst per request."""
        limiter = RateLimiter(1.0, burst=1.0, max_clients=0)
        assert limiter.allow("a", now=100.0)[0]
        assert not limiter.allow("a", now=100.0)[0]


class TestInflightGate:
    def test_disabled_when_cap_is_zero(self):
        gate = InflightGate(0)
        assert not gate.enabled
        assert all(gate.try_acquire() for _ in range(100))
        assert gate.inflight == 0

    def test_acquire_release_and_shed_accounting(self):
        gate = InflightGate(2)
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()  # saturated -> shed
        assert gate.shed == 1
        assert gate.inflight == 2
        gate.release()
        assert gate.try_acquire()  # a freed slot admits again
        gate.release()
        gate.release()
        assert gate.inflight == 0

    def test_retry_after_is_bounded(self):
        gate = InflightGate(1)
        assert gate.retry_after_s(0.0) == pytest.approx(0.05)
        assert gate.retry_after_s(0.8) == pytest.approx(0.8)
        assert gate.retry_after_s(120.0) == pytest.approx(5.0)


class TestJobOwner:
    def test_queue_mints_owned_ids(self):
        async def scenario():
            queue = JobQueue(lambda k, p: None, worker_index=3)
            return queue.submit("sweep", {})

        job = asyncio.run(scenario())
        assert job.job_id.startswith("job-w3-")


class TestJobQueue:
    def test_lifecycle_submit_run_done(self):
        async def scenario():
            queue = JobQueue(lambda kind, params: {"kind": kind, **params})
            queue.start()
            job = queue.submit("sweep", {"x": 1})
            assert job.status == "queued"
            while not queue.get(job.job_id).settled:
                await asyncio.sleep(0.01)
            await queue.close()
            return queue.get(job.job_id)

        job = run(scenario())
        assert job.status == DONE
        assert job.result == {"kind": "sweep", "x": 1}
        assert job.started_unix is not None and job.finished_unix is not None

    def test_failure_is_recorded_not_raised(self):
        def runner(kind, params):
            raise ValueError("bad grid")

        async def scenario():
            queue = JobQueue(runner)
            queue.start()
            job = queue.submit("sweep", {})
            while not queue.get(job.job_id).settled:
                await asyncio.sleep(0.01)
            await queue.close()
            return queue.get(job.job_id)

        job = run(scenario())
        assert job.status == FAILED
        assert "bad grid" in job.error

    def test_backlog_bound_raises_queue_full(self):
        async def scenario():
            # Workers never started: everything stays queued.
            queue = JobQueue(lambda k, p: None, max_pending=2)
            queue.submit("sweep", {})
            queue.submit("sweep", {})
            with pytest.raises(QueueFullError):
                queue.submit("sweep", {})

        run(scenario())

    def test_cancel_queued_job(self):
        async def scenario():
            queue = JobQueue(lambda k, p: None, max_pending=4)
            job = queue.submit("sweep", {})
            cancelled = queue.cancel(job.job_id)
            assert cancelled.status == CANCELLED
            with pytest.raises(UnknownJobError):
                queue.get("job-nonexistent")

        run(scenario())

    def test_history_eviction(self):
        async def scenario():
            queue = JobQueue(lambda k, p: None, max_pending=100, history=2)
            jobs = [queue.submit("sweep", {}) for _ in range(5)]
            for job in jobs:
                queue.cancel(job.job_id)
            return queue, jobs

        queue, jobs = run(scenario())
        assert len(queue.jobs()) == 2
        with pytest.raises(UnknownJobError):
            queue.get(jobs[0].job_id)

    def test_drain_with_exceeded_history_and_pending_jobs(self):
        """Regression: ``close()`` used to iterate ``self._jobs`` live.

        Cancelling a queued job settles it, settling runs ``_evict``, and
        once the settled count tops ``history`` eviction deletes entries
        from the dict being iterated — the old code raised
        ``RuntimeError: dictionary changed size during iteration`` on
        exactly this drain.
        """

        async def scenario():
            # Workers never started: submissions stay queued.
            queue = JobQueue(lambda k, p: None, max_pending=100, history=2)
            settled = [queue.submit("sweep", {}) for _ in range(2)]
            for job in settled:
                queue.cancel(job.job_id)  # history now exactly full
            pending = [queue.submit("sweep", {}) for _ in range(4)]
            await queue.close()  # each cancel here evicts an older entry
            return queue, pending

        queue, pending = run(scenario())
        assert all(
            job.status == CANCELLED for job in pending
        )  # every queued job was settled by the drain
        assert len(queue.jobs()) == 2  # history bound still holds

    def test_running_gauge_resets_when_worker_cancelled_mid_job(self):
        """Regression: the shutdown path left ``serve.jobs.running`` stale.

        The worker's CancelledError branch re-raised before the post-try
        gauge update ran, so a drain that tore down a mid-job worker
        exported a non-zero running count forever.
        """
        from repro.obs.metrics import metrics, reset_metrics

        reset_metrics()
        release = threading.Event()

        def runner(kind, params):
            release.wait(10.0)
            return None

        async def scenario():
            queue = JobQueue(runner)
            queue.start()
            job = queue.submit("sweep", {})
            while queue.active == 0:
                await asyncio.sleep(0.005)
            assert metrics().snapshot()["serve.jobs.running"]["value"] == 1
            # No drain budget: the worker task is cancelled mid-job.
            await queue.close(drain=False, timeout_s=0.0)
            release.set()  # let the executor thread finish
            return queue.get(job.job_id)

        job = run(scenario())
        assert job.status == FAILED
        assert metrics().snapshot()["serve.jobs.running"]["value"] == 0


class TestPrometheusRendering:
    @staticmethod
    def _latency_entry():
        histogram = Histogram()
        for seconds in (0.25, 0.125, 0.125):
            histogram.observe(seconds)
        return histogram.snapshot_entry()

    def test_renders_all_instrument_kinds(self):
        snapshot = {
            "serve.requests": {"type": "counter", "value": 7},
            "serve.inflight": {"type": "gauge", "value": 2.0},
            "serve.latency_s": self._latency_entry(),
        }
        text = render_prometheus({None: snapshot})
        assert "# TYPE repro_serve_requests counter" in text
        assert "repro_serve_requests 7" in text
        assert "repro_serve_inflight 2" in text
        assert "# TYPE repro_serve_latency_s histogram" in text
        assert "repro_serve_latency_s_count 3" in text
        assert "repro_serve_latency_s_sum 0.5" in text

    def test_names_are_sanitised(self):
        text = render_prometheus(
            {None: {"serve.requests.cmos.gains": {"type": "counter", "value": 1}}}
        )
        assert "repro_serve_requests_cmos_gains 1" in text

    def test_multi_worker_rendering_labels_each_series(self):
        text = render_prometheus(
            {
                0: {
                    "serve.requests": {"type": "counter", "value": 7},
                    "serve.latency_s": self._latency_entry(),
                },
                1: {
                    "serve.requests": {"type": "counter", "value": 5},
                    "serve.inflight": {"type": "gauge", "value": 2.0},
                },
            }
        )
        # One TYPE line per metric, one labeled series per reporting worker.
        assert text.count("# TYPE repro_serve_requests counter") == 1
        assert 'repro_serve_requests{worker="0"} 7' in text
        assert 'repro_serve_requests{worker="1"} 5' in text
        assert 'repro_serve_inflight{worker="1"} 2' in text
        assert 'repro_serve_latency_s_count{worker="0"} 3' in text
        assert 'repro_serve_latency_s_sum{worker="0"} 0.5' in text
        # Workers that never touched a metric contribute no series for it.
        assert 'repro_serve_inflight{worker="0"}' not in text

    # Text captured from the two renderers this one replaced, for a
    # counter, a gauge and a histogram with two buckets.
    PINNED = {
        "serve.requests": {"type": "counter", "value": 7},
        "serve.inflight": {"type": "gauge", "value": 2.0},
        "lat.s": {
            "type": "histogram",
            "count": 3,
            "sum": 0.6,
            "min": 0.1,
            "max": 0.3,
            "buckets": {"137": 1, "141": 2},
        },
    }

    def test_single_process_text_is_pinned(self):
        assert render_prometheus({None: self.PINNED}) == (
            "# TYPE repro_lat_s histogram\n"
            'repro_lat_s_bucket{le="0.147456"} 1\n'
            'repro_lat_s_bucket{le="0.212992"} 3\n'
            'repro_lat_s_bucket{le="+Inf"} 3\n'
            "repro_lat_s_sum 0.6\n"
            "repro_lat_s_count 3\n"
            "# TYPE repro_serve_inflight gauge\n"
            "repro_serve_inflight 2\n"
            "# TYPE repro_serve_requests counter\n"
            "repro_serve_requests 7\n"
        )

    def test_fleet_text_is_pinned(self):
        other = {"serve.requests": {"type": "counter", "value": 5}}
        assert render_prometheus({0: self.PINNED, 1: other}) == (
            "# TYPE repro_lat_s histogram\n"
            'repro_lat_s_bucket{worker="0",le="0.147456"} 1\n'
            'repro_lat_s_bucket{worker="0",le="0.212992"} 3\n'
            'repro_lat_s_bucket{worker="0",le="+Inf"} 3\n'
            'repro_lat_s_sum{worker="0"} 0.6\n'
            'repro_lat_s_count{worker="0"} 3\n'
            "# TYPE repro_serve_inflight gauge\n"
            'repro_serve_inflight{worker="0"} 2\n'
            "# TYPE repro_serve_requests counter\n"
            'repro_serve_requests{worker="0"} 7\n'
            'repro_serve_requests{worker="1"} 5\n'
        )

    def test_response_reason_phrases(self):
        assert Response(status=429).reason == "Too Many Requests"
        assert Response(status=202).reason == "Accepted"


class TestComputeWhatif:
    def test_equals_two_full_wall_evaluations_on_every_benchmark_key(self):
        # The 288 what-if keys the serve_model benchmark draws: the baseline
        # and the scaled point, each as an independent accelerator_wall.
        import itertools
        from types import SimpleNamespace

        from repro.serve.handlers import compute_whatif
        from repro.tech import get_backend
        from repro.wall.limits import _limits, accelerator_wall

        app = SimpleNamespace(model=get_backend("cmos").model())

        def block(report):
            low, high = report.headroom
            return {
                "physical_limit": report.physical_limit,
                "headroom_low": low,
                "headroom_high": high,
            }

        keys = 0
        for domain, row in _limits().items():
            for metric in ("performance", "efficiency"):
                baseline = accelerator_wall(domain, app.model, metric)
                for die, tdp, frequency in itertools.product(
                    (0.5, 1.0, 2.0, 4.0), (0.5, 1.0, 2.0), (0.75, 1.0, 1.5)
                ):
                    point = accelerator_wall(
                        domain, app.model, metric,
                        limits_row=row.scaled(die, tdp, frequency),
                    )
                    params = {
                        "domain": domain,
                        "metric": metric,
                        "die_scale": die,
                        "tdp_scale": tdp,
                        "frequency_scale": frequency,
                    }
                    assert compute_whatif(app, params) == {
                        "domain": domain,
                        "metric": metric,
                        "scales": {"die": die, "tdp": tdp, "frequency": frequency},
                        "baseline": block(baseline),
                        "scenario": block(point),
                    }
                    keys += 1
        assert keys == 288
