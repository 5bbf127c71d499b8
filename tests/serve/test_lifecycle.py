"""Lifecycle tests: rate limiting, background jobs, graceful drain.

Each test class starts its own server because these behaviours need
non-default configuration (a tight rate limit, a single job worker) or
tear the server down as part of the test.  Tests that need work to stay
in flight hold it on a ``threading.Event`` instead of relying on it
being slow.
"""

from __future__ import annotations

import asyncio
import http.client
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from tests.serve.conftest import ServeClient, make_server

#: Small custom sweep grid: fast enough for polling tests.
SMALL_SWEEP = {"workload": "FFT", "nodes": [5.0], "partitions": [1, 2],
               "simplifications": [1]}


def wait_for(predicate, timeout_s=60.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError("condition not met in time")


class TestRateLimiting:
    def test_burst_gets_429_with_retry_after(self):
        handle = make_server(rate_limit=2.0, rate_burst=2.0)
        client = ServeClient(handle.port, client_id="hammer")
        try:
            statuses, retry_headers = [], []
            for _ in range(6):
                status, payload, headers = client.get("/cmos/gains?node=5")
                statuses.append(status)
                if status == 429:
                    retry_headers.append(headers.get("retry-after"))
                    assert payload["data"]["retry_after_s"] > 0
            assert statuses.count(200) == 2  # the burst allowance
            assert statuses.count(429) == 4
            assert all(h is not None for h in retry_headers)
        finally:
            handle.stop()

    def test_ops_routes_and_other_clients_are_exempt(self):
        handle = make_server(rate_limit=1.0, rate_burst=1.0)
        try:
            hammer = ServeClient(handle.port, client_id="hammer")
            other = ServeClient(handle.port, client_id="polite")
            hammer.get("/cmos/gains?node=5")
            status, _, _ = hammer.get("/cmos/gains?node=5")
            assert status == 429
            # A different client has its own bucket...
            assert other.get("/cmos/gains?node=5")[0] == 200
            # ...and the operational surface is never limited.
            for _ in range(5):
                assert hammer.get("/healthz")[0] == 200
                assert hammer.get("/metrics", raw=True)[0] == 200
        finally:
            handle.stop()


class TestAdmissionControl:
    def test_saturated_worker_sheds_with_retry_after(self):
        handle = make_server(max_inflight=1)
        block = threading.Event()
        try:
            app = handle.app

            async def slow(app_, request):
                loop = asyncio.get_event_loop()
                await loop.run_in_executor(None, block.wait, 30.0)
                return {"ok": True}

            app.router.add("GET", "/slow", slow, name="slow")
            client = ServeClient(handle.port)
            results = []
            holder = threading.Thread(
                target=lambda: results.append(client.get("/slow"))
            )
            holder.start()
            wait_for(lambda: app.gate.inflight == 1)
            # The only slot is held: the next request is shed, not queued.
            status, payload, headers = client.get("/cmos/gains?node=5")
            assert status == 503
            assert headers.get("retry-after") is not None
            assert "saturated" in payload["data"]["error"]
            assert payload["data"]["retry_after_s"] > 0
            # The operational surface is never shed...
            status, health, _ = client.get("/healthz")
            assert status == 200
            assert health["data"]["shed_requests"] >= 1
            # ...and releasing the slot admits new work again.
            block.set()
            holder.join(30.0)
            assert results and results[0][0] == 200
            assert client.get("/cmos/gains?node=5")[0] == 200
        finally:
            block.set()
            handle.stop()


class TestSweepJobs:
    @pytest.fixture(scope="class")
    def jobs_server(self):
        handle = make_server(job_concurrency=1, max_pending_jobs=4)
        yield handle
        handle.stop()

    @pytest.fixture(scope="class")
    def jobs_client(self, jobs_server):
        return ServeClient(jobs_server.port)

    def test_submit_poll_result(self, jobs_client):
        status, payload, _ = jobs_client.post("/sweeps", SMALL_SWEEP)
        assert status == 202
        job = payload["data"]["job"]
        assert job["status"] == "queued" and job["result"] is None
        job_id = job["job_id"]

        def settled():
            _, poll, _ = jobs_client.get(f"/sweeps/{job_id}")
            entry = poll["data"]["job"]
            return entry if entry["status"] in ("done", "failed") else None

        entry = wait_for(settled)
        assert entry["status"] == "done", entry["error"]
        result = entry["result"]
        assert result["design_points"] == 2  # 1 node x 2 partitions x 1 simp
        assert result["workload"].upper() == "FFT"
        assert result["pareto_frontier"]
        assert result["stats"]["design_points"] == 2

    def test_invalid_grid_fails_the_job_not_the_server(self, jobs_client):
        bad = {"workload": "FFT", "partitions": [3]}  # not a power of two
        status, payload, _ = jobs_client.post("/sweeps", bad)
        assert status == 202
        job_id = payload["data"]["job"]["job_id"]

        def settled():
            _, poll, _ = jobs_client.get(f"/sweeps/{job_id}")
            entry = poll["data"]["job"]
            return entry if entry["status"] in ("done", "failed") else None

        entry = wait_for(settled)
        assert entry["status"] == "failed"
        assert "invalid sweep grid" in entry["error"]

    def test_unknown_workload_is_rejected_at_submit(self, jobs_client):
        status, payload, _ = jobs_client.post("/sweeps", {"workload": "NOPE"})
        assert status == 400
        assert "valid_workloads" in payload["data"]

    def test_non_boolean_full_is_rejected_at_submit(self, jobs_client):
        status, payload, _ = jobs_client.post(
            "/sweeps", {"workload": "FFT", "full": "false"}
        )
        assert status == 400
        assert "full must be a boolean" in payload["data"]["error"]

    def test_cancel_queued_job_and_409_on_running(self, jobs_server, jobs_client):
        # Hold the single job worker on a gate until the assertions are
        # done, so the second job is still queued when the DELETE lands.
        app = jobs_server.app
        run_job_body = app._run_job_body
        started, release = threading.Event(), threading.Event()

        def gated(kind, params):
            started.set()
            release.wait(60.0)
            return run_job_body(kind, params)

        app._run_job_body = gated
        try:
            _, busy, _ = jobs_client.post("/sweeps", SMALL_SWEEP)
            busy_id = busy["data"]["job"]["job_id"]
            assert started.wait(60.0)
            _, queued, _ = jobs_client.post("/sweeps", SMALL_SWEEP)
            queued_id = queued["data"]["job"]["job_id"]

            status, payload, _ = jobs_client.delete(f"/sweeps/{queued_id}")
            assert status == 200
            assert payload["data"]["job"]["status"] == "cancelled"

            status, payload, _ = jobs_client.delete(f"/sweeps/{busy_id}")
            assert status == 409
            assert payload["data"]["status_now"] == "running"
        finally:
            del app._run_job_body
            release.set()

        def settled():
            job = jobs_client.get(f"/sweeps/{busy_id}")[1]["data"]["job"]
            return job if job["status"] in ("done", "failed") else None

        entry = wait_for(settled)
        assert entry["status"] == "done", entry["error"]

    def test_jobs_listing_and_unknown_id(self, jobs_client):
        status, payload, _ = jobs_client.get("/sweeps")
        assert status == 200
        assert isinstance(payload["data"]["jobs"], list)
        assert payload["data"]["counts"]["done"] >= 1
        status, payload, _ = jobs_client.get("/sweeps/job-missing")
        assert status == 404


class TestGracefulDrain:
    def test_draining_rejects_new_work_but_keeps_ops(self):
        handle = make_server()
        client = ServeClient(handle.port)
        try:
            assert client.get("/healthz")[1]["data"]["status"] == "ok"
            handle.app.draining = True  # simulate SIGTERM received
            status, payload, _ = client.get("/cmos/gains?node=5")
            assert status == 503
            status, payload, _ = client.get("/healthz")
            assert status == 200
            assert payload["data"]["status"] == "draining"
        finally:
            handle.app.draining = False
            handle.stop()

    def test_stop_drains_and_closes_the_port(self):
        handle = make_server()
        client = ServeClient(handle.port)
        _, payload, _ = client.post("/sweeps", SMALL_SWEEP)
        job_id = payload["data"]["job"]["job_id"]
        handle.stop()
        # The listener is gone...
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=2
            )
            conn.request("GET", "/healthz")
            conn.getresponse()
        # ...and the job queue was shut down with the server.
        job = handle.app.jobs.get(job_id)
        assert job.settled

    def test_inflight_request_completes_during_drain(self):
        handle = make_server()
        client = ServeClient(handle.port)
        app = handle.app
        # Hold the request's model call on a gate until the drain began.
        batch_fn = app.evaluate_batcher.batch_fn
        entered, release = threading.Event(), threading.Event()

        def gated(items):
            entered.set()
            release.wait(60.0)
            return batch_fn(items)

        app.evaluate_batcher.batch_fn = gated
        results = {}

        def request():
            results["response"] = client.post(
                "/evaluate",
                {"workload": "SRT", "node_nm": 5.0, "partition": 128,
                 "simplification": 11},
            )

        thread = threading.Thread(target=request)
        stopper = threading.Thread(target=handle.stop)
        try:
            thread.start()
            assert entered.wait(60.0)
            stopper.start()
            wait_for(lambda: app.draining)
        finally:
            release.set()
        stopper.join(60.0)
        thread.join(60.0)
        assert not thread.is_alive() and not stopper.is_alive()
        status, payload, _ = results["response"]
        assert status == 200
        assert payload["data"]["design"]["partition"] == 128


class TestSignals:
    def test_sigterm_on_the_ready_line_drains(self):
        # Regression: the ready line used to be printed before the SIGTERM
        # handler was installed, so a signal sent on seeing it killed the
        # server (exit -15) instead of draining it.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        )
        try:
            for line in proc.stdout:
                if line.startswith("serving on"):
                    break
            else:
                pytest.fail("server exited before announcing")
            proc.send_signal(signal.SIGTERM)
            rest, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)
        assert proc.returncode == 0
        assert "drained, bye" in rest
