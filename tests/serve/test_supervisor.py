"""Multi-worker serving tests: parity, job routing, restart, drain.

These boot the real ``repro serve --workers 2`` CLI as a subprocess (the
supervisor forks, so it cannot run inside the pytest process) and drive
it over HTTP.  The parity tests hold multi-worker responses against the
module's single-process server through the provenance drift comparator —
the bit-identical guarantee the ISSUE acceptance criteria require.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.provenance.drift import compare_golden, flatten_scalars
from repro.serve.supervisor import SupervisorHandle
from tests.serve.conftest import ServeClient

#: Endpoint families compared bit-for-bit against single-process serving.
PARITY_GETS = (
    "/wall/projections",
    "/cmos/gains?node=5",
    "/cmos/gains?node=7&frequency_mhz=2000&tdp_w=10",
    "/csr/video",
    "/csr/bitcoin",
    "/artifacts/fig15_16",
    "/artifacts/table5",
)

PARITY_POSTS = (
    ("/evaluate", {"workload": "FFT", "node_nm": 5.0, "partition": 64,
                   "simplification": 9}),
    ("/wall/whatif", {"domain": "video_decoding", "die_scale": 2.0}),
    ("/attribute", {"workload": "FFT"}),
)

SMALL_SWEEP = {"workload": "FFT", "nodes": [5.0], "partitions": [1, 2],
               "simplifications": [1]}


def wait_for(predicate, timeout_s=60.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError("condition not met in time")


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """One ``--workers 2`` supervisor shared by the module's tests."""
    runs = tmp_path_factory.mktemp("supervisor-runs")
    handle = SupervisorHandle(
        workers=2, env={"REPRO_RUNS_DIR": str(runs)}
    ).start(timeout_s=180.0)
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture(scope="module")
def cluster_client(cluster) -> ServeClient:
    return ServeClient(cluster.port)


class TestLoadBalancing:
    def test_both_workers_serve_the_shared_port(self, cluster_client):
        def workers_seen():
            seen = set()
            for _ in range(25):
                status, _, headers = cluster_client.get("/healthz")
                assert status == 200
                seen.add(headers.get("x-worker"))
                if len(seen) == 2:
                    return seen
            return None

        assert wait_for(workers_seen, timeout_s=60.0) == {"0", "1"}

    def test_healthz_reports_worker_identity(self, cluster_client):
        status, payload, headers = cluster_client.get("/healthz")
        assert status == 200
        worker = payload["data"]["worker"]
        assert worker["index"] == int(headers["x-worker"])
        assert worker["pid"] > 0

    def test_metrics_aggregates_per_worker_series(self, cluster_client):
        # Touch both workers first so each has request counters to report.
        for _ in range(10):
            cluster_client.get("/healthz")

        def both_workers():
            # The other worker's series come from its published file,
            # which can lag one publish interval.
            status, text, _ = cluster_client.get("/metrics", raw=True)
            assert status == 200
            return text if 'worker="0"' in text and 'worker="1"' in text else None

        text = wait_for(both_workers, timeout_s=30.0)
        assert 'worker="0"' in text
        assert 'worker="1"' in text
        # One TYPE line per metric even with two series under it.
        assert text.count("# TYPE repro_serve_requests counter") == 1


class TestParity:
    """Every endpoint family: --workers 2 is bit-identical to 1 process."""

    @pytest.fixture(scope="class")
    def single(self, server):
        return ServeClient(server.port)

    @pytest.mark.parametrize("target", PARITY_GETS)
    def test_get_parity(self, single, cluster_client, target):
        status_one, one, _ = single.get(target)
        status_two, two, _ = cluster_client.get(target)
        assert status_one == status_two == 200
        self._assert_identical(target, one["data"], two["data"])

    @pytest.mark.parametrize("target,body", PARITY_POSTS)
    def test_post_parity(self, single, cluster_client, target, body):
        status_one, one, _ = single.post(target, body)
        status_two, two, _ = cluster_client.post(target, body)
        assert status_one == status_two == 200
        self._assert_identical(target, one["data"], two["data"])

    @staticmethod
    def _assert_identical(name, one, two):
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
        compared, drifted, added, removed = compare_golden(
            flatten_scalars(one, name), flatten_scalars(two, name)
        )
        assert compared > 0
        assert drifted == [] and added == [] and removed == []


class TestJobRouting:
    def test_poll_resolves_regardless_of_landing_worker(self, cluster_client):
        status, payload, headers = cluster_client.post("/sweeps", SMALL_SWEEP)
        assert status == 202
        job = payload["data"]["job"]
        owner = int(headers["x-worker"])
        assert job["job_id"].startswith(f"job-w{owner}-")

        def settled():
            st, body, _ = cluster_client.get(f"/sweeps/{job['job_id']}")
            assert st == 200
            got = body["data"]["job"]
            return got if got["status"] in ("done", "failed") else None

        final = wait_for(settled, timeout_s=120.0)
        assert final["status"] == "done"
        assert final["result"]["design_points"] == 2

        # Keep polling fresh connections until the kernel lands one on
        # the non-owning worker: that response must carry the same job,
        # read from its record in the fleet directory.
        def cross_worker_view():
            st, body, headers = cluster_client.get(f"/sweeps/{job['job_id']}")
            assert st == 200
            if int(headers["x-worker"]) == owner:
                return None
            return body["data"]["job"]

        routed = wait_for(cross_worker_view, timeout_s=60.0)
        assert routed["status"] == "done"
        assert routed["job_id"] == job["job_id"]
        assert routed["result"] == final["result"]

    def test_listing_merges_jobs_from_all_workers(self, cluster_client):
        # Submit from several fresh connections so with high probability
        # both workers own at least the union of ids we collect.
        submitted = set()
        for _ in range(4):
            status, payload, _ = cluster_client.post("/sweeps", SMALL_SWEEP)
            assert status == 202
            submitted.add(payload["data"]["job"]["job_id"])

        def all_listed():
            st, body, _ = cluster_client.get("/sweeps")
            assert st == 200
            listed = {job["job_id"] for job in body["data"]["jobs"]}
            return submitted <= listed

        wait_for(all_listed, timeout_s=60.0)

    def test_cancel_routes_to_owner(self, cluster_client):
        status, payload, _ = cluster_client.post("/sweeps", SMALL_SWEEP)
        assert status == 202
        job_id = payload["data"]["job"]["job_id"]
        # The DELETE may land on either worker; both read the job's
        # record.  The job may have started (409) or still be queued
        # (200) — both prove the lookup resolved.
        status, payload, _ = cluster_client.delete(f"/sweeps/{job_id}")
        assert status in (200, 409)
        assert status != 404

    def test_unknown_job_is_404_from_any_worker(self, cluster_client):
        status, _, _ = cluster_client.get("/sweeps/job-w0-ffffffffffff")
        assert status == 404
        # An id claiming a worker slot that does not exist is a plain
        # unknown job, not a hang or a 500.
        status, payload, _ = cluster_client.get("/sweeps/job-w9-ffffffffffff")
        assert status == 404


class TestRestart:
    @staticmethod
    def _resilient_get(client, target):
        """GET that rides out the SIGKILL window.

        Connections the kernel already hashed to the dying worker's
        accept queue are reset when it exits — expected churn during a
        kill, not a serving failure.  Retry on a fresh connection.
        """
        import http.client as http_client

        for _ in range(40):
            try:
                return client.get(target)
            except (OSError, http_client.HTTPException):
                time.sleep(0.1)
        raise AssertionError(f"{target} never answered across retries")

    def test_supervisor_restarts_a_killed_worker(self, cluster_client):
        def pid_map():
            pids = {}
            for _ in range(40):
                status, body, _ = cluster_client.get("/healthz")
                assert status == 200
                worker = body["data"]["worker"]
                pids[worker["index"]] = worker["pid"]
                if len(pids) == 2:
                    return pids
            return None

        pids = wait_for(pid_map, timeout_s=60.0)
        victim_index, victim_pid = sorted(pids.items())[0]
        os.kill(victim_pid, signal.SIGKILL)

        # The survivor keeps serving while the slot is down.
        for _ in range(5):
            assert self._resilient_get(cluster_client, "/healthz")[0] == 200

        def replacement_up():
            status, body, _ = self._resilient_get(cluster_client, "/healthz")
            assert status == 200
            worker = body["data"]["worker"]
            if worker["index"] == victim_index and worker["pid"] != victim_pid:
                return worker["pid"]
            return None

        new_pid = wait_for(replacement_up, timeout_s=60.0)
        assert new_pid != victim_pid


class TestStitchedTrace:
    """One injected trace id stitches a request across both workers."""

    TRACE = "aaaabbbbccccddddeeeeffff00001111"
    HEADERS = {"traceparent": f"00-{TRACE}-b7ad6b7169203331-01"}

    def test_cross_worker_request_is_one_trace(self, cluster_client):
        status, payload, headers = cluster_client.post(
            "/sweeps", SMALL_SWEEP, headers=self.HEADERS
        )
        assert status == 202
        assert headers["x-trace-id"] == self.TRACE
        job = payload["data"]["job"]
        assert job["trace_id"] == self.TRACE
        owner = int(headers["x-worker"])

        # Poll under the same trace until the job settles AND at least one
        # poll has landed on the non-owning worker, which records that
        # poll under the trace too.
        state = {"crossed": False}

        def settled_and_crossed():
            st, body, hdrs = cluster_client.get(
                f"/sweeps/{job['job_id']}", headers=self.HEADERS
            )
            assert st == 200
            assert hdrs["x-trace-id"] == self.TRACE
            if int(hdrs["x-worker"]) != owner:
                state["crossed"] = True
            got = body["data"]["job"]
            done = got["status"] in ("done", "failed")
            return got if done and state["crossed"] else None

        final = wait_for(settled_and_crossed, timeout_s=120.0)
        assert final["status"] == "done"

        # Whichever worker answers, the fleet-merged view shows records
        # from BOTH workers under the one trace id (the other worker's
        # rows can lag one publish interval).
        def merged():
            status, payload, _ = cluster_client.get(f"/debug/trace/{self.TRACE}")
            assert status == 200
            data = payload["data"]
            routes = {r["route"] for r in data["records"]}
            complete = {"sweeps.submit", "sweeps.get", "job.sweep"} <= routes
            return data if complete and data["workers"] == [0, 1] else None

        data = wait_for(merged, timeout_s=30.0)
        assert data["trace_id"] == self.TRACE
        assert data["workers"] == [0, 1]
        assert data["span_count"] >= 2
        routes = {r["route"] for r in data["records"]}
        assert "sweeps.submit" in routes
        assert "sweeps.get" in routes
        assert "job.sweep" in routes  # the background execution itself

        # The Chrome export stitches the processes with flow arrows.
        events = data["chrome_trace"]["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "M", "s", "f"} <= phases
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(pids) >= 2  # spans from two worker processes

    def test_fleet_debug_requests_sees_both_workers(self, cluster_client):
        for _ in range(6):
            cluster_client.get("/healthz")

        def workers_seen():
            status, payload, _ = cluster_client.get("/debug/requests?n=200")
            assert status == 200
            workers = {
                r["worker"] for r in payload["data"]["requests"]
                if r["worker"] is not None
            }
            return workers if workers == {0, 1} else None

        assert wait_for(workers_seen, timeout_s=30.0) == {0, 1}


class TestShutdown:
    def test_sigterm_drains_every_worker_and_exits_zero(self, cluster):
        # Must run last in this module: it tears the shared cluster down.
        assert cluster.stop() == 0
        assert "drained, bye" in cluster.output
        assert cluster.proc.stdout.closed
