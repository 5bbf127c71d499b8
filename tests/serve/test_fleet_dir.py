"""The fleet directory, in-process: no fork and no second worker.

A ``ServerHandle`` runs as worker 0 of a fleet whose directory lives
under ``tmp_path``; each test writes worker 1's files by hand and checks
what worker 0 serves from them.  The supervisor's reap and the owner's
side of the claim-token race are checked as units over the directory.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time

import pytest

from repro.serve import ServeConfig, ServerHandle
from repro.serve.app import worker_state_path
from repro.serve.jobs import CANCELLED, QUEUED, Job, JobQueue
from repro.serve.supervisor import Supervisor
from tests.serve.conftest import ServeClient

#: A job id minted by (absent) worker 1.
JOB = "job-w1-0123456789ab"

SMALL_SWEEP = {"workload": "FFT", "nodes": [5.0], "partitions": [1, 2],
               "simplifications": [1]}

ROW = {
    "trace_id": "feedface",
    "route": "healthz",
    "method": "GET",
    "path": "/healthz",
    "status": 200,
    "duration_s": 0.004,
    "start_unix": 1.0,
    "client": "test",
    "worker": 1,
    "spans": [],
}

UNREADABLE = [
    pytest.param(b'{"metrics": {"serve.requests": ', id="truncated"),
    pytest.param(b"\x00\xffgarbage", id="garbage"),
    pytest.param(b"[1, 2]", id="not-an-object"),
]


@pytest.fixture
def fleet(tmp_path):
    handle = ServerHandle(
        ServeConfig(port=0, worker_index=0, fleet_dir=str(tmp_path))
    ).start()
    try:
        yield tmp_path, ServeClient(handle.port)
    finally:
        handle.stop()


def write_record(fleet_dir, job_id=JOB, **fields):
    job = Job(job_id=job_id, kind="sweep", params={"workload": "FFT"}, **fields)
    (fleet_dir / "jobs" / f"{job_id}.json").write_text(json.dumps(job.to_dict()))
    return job


def read_record(fleet_dir, job_id=JOB):
    return json.loads((fleet_dir / "jobs" / f"{job_id}.json").read_text())


class TestWorkerFiles:
    def test_other_worker_metrics_and_rows_are_merged(self, fleet):
        fleet_dir, client = fleet
        path = worker_state_path(str(fleet_dir), 1)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "metrics": {"serve.requests": {"type": "counter", "value": 7}},
            "requests": [ROW],
        }))
        status, text, _ = client.get("/metrics", raw=True)
        assert status == 200
        assert 'repro_serve_requests{worker="1"} 7' in text
        assert 'worker="0"' in text
        status, payload, _ = client.get("/debug/requests?n=200")
        assert status == 200
        assert ROW in payload["data"]["requests"]
        status, payload, _ = client.get("/debug/trace/feedface")
        assert status == 200
        assert payload["data"]["workers"] == [1]

    @pytest.mark.parametrize("content", UNREADABLE)
    def test_unreadable_worker_file_is_skipped(self, fleet, content):
        fleet_dir, client = fleet
        path = worker_state_path(str(fleet_dir), 1)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
        status, text, _ = client.get("/metrics", raw=True)
        assert status == 200
        assert 'worker="0"' in text and 'worker="1"' not in text
        for target in ("/debug/requests", "/debug/slow"):
            status, payload, _ = client.get(target)
            assert status == 200
            assert all(r["worker"] == 0 for r in payload["data"]["requests"])
        status, _, _ = client.get("/debug/trace/feedface")
        assert status == 404

    def test_own_file_is_published_at_start(self, fleet):
        fleet_dir, _ = fleet
        path = worker_state_path(str(fleet_dir), 0)
        deadline = time.monotonic() + 10.0
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert set(json.loads(path.read_text())) == {"metrics", "requests"}


class TestJobRecords:
    def test_other_worker_job_answers_get_and_list(self, fleet):
        fleet_dir, client = fleet
        job = write_record(
            fleet_dir, status="done", started_unix=2.0, finished_unix=3.0,
            result={"design_points": 2},
        )
        status, payload, _ = client.get(f"/sweeps/{JOB}")
        assert status == 200
        assert payload["data"]["job"] == job.to_dict()
        status, payload, _ = client.get("/sweeps")
        assert status == 200
        assert [j["job_id"] for j in payload["data"]["jobs"]] == [JOB]
        assert payload["data"]["counts"]["done"] == 1

    def test_garbage_record_is_404_and_listing_keeps_the_rest(self, fleet):
        fleet_dir, client = fleet
        write_record(fleet_dir)
        bad = "job-w1-ba0ba0ba0ba0"
        (fleet_dir / "jobs" / f"{bad}.json").write_bytes(b'{"job_id": ')
        status, _, _ = client.get(f"/sweeps/{bad}")
        assert status == 404
        status, payload, _ = client.get("/sweeps")
        assert status == 200
        assert [j["job_id"] for j in payload["data"]["jobs"]] == [JOB]

    def test_cancel_with_token_settles_the_record(self, fleet):
        fleet_dir, client = fleet
        write_record(fleet_dir)
        token = fleet_dir / "jobs" / f"{JOB}.queued"
        token.touch()
        status, payload, _ = client.delete(f"/sweeps/{JOB}")
        assert status == 200
        assert payload["data"]["job"]["status"] == "cancelled"
        assert read_record(fleet_dir)["status"] == "cancelled"
        assert not token.exists()

    def test_cancel_without_token_is_409(self, fleet):
        fleet_dir, client = fleet
        write_record(fleet_dir)
        status, _, _ = client.delete(f"/sweeps/{JOB}")
        assert status == 409
        assert read_record(fleet_dir)["status"] == "queued"

    def test_own_job_is_served_from_its_record(self, fleet):
        fleet_dir, client = fleet
        status, payload, _ = client.post("/sweeps", SMALL_SWEEP)
        assert status == 202
        job_id = payload["data"]["job"]["job_id"]
        assert job_id.startswith("job-w0-")
        assert read_record(fleet_dir, job_id)["job_id"] == job_id
        for _ in range(600):
            status, payload, _ = client.get(f"/sweeps/{job_id}")
            assert status == 200
            if payload["data"]["job"]["status"] == "done":
                break
            time.sleep(0.05)
        assert payload["data"]["job"]["status"] == "done"
        assert read_record(fleet_dir, job_id)["result"]["design_points"] == 2
        assert not (fleet_dir / "jobs" / f"{job_id}.queued").exists()


class TestClaimToken:
    def test_owner_that_loses_the_token_never_runs_the_job(self, tmp_path):
        ran = []

        async def scenario():
            queue = JobQueue(
                lambda kind, params: ran.append(kind),
                worker_index=0,
                fleet_dir=str(tmp_path),
            )
            job = queue.submit("sweep", {})
            # Another worker's cancel wins the token before the owner starts.
            (tmp_path / "jobs" / f"{job.job_id}.queued").unlink()
            queue.start()
            for _ in range(500):
                if job.status != QUEUED:
                    break
                await asyncio.sleep(0.01)
            await queue.close()
            return job

        job = asyncio.run(scenario())
        assert ran == []
        assert job.status == CANCELLED

    def test_each_token_is_claimed_exactly_once(self, tmp_path):
        # More claimants than cores, over queues that share one directory.
        queues = [JobQueue(lambda k, p: None, worker_index=i, fleet_dir=str(tmp_path))
                  for i in range(4)]
        ids = [f"job-w0-{n:012x}" for n in range(200)]
        for job_id in ids:
            (tmp_path / "jobs" / f"{job_id}.queued").touch()
        wins = []

        def claim_all(queue):
            wins.extend(job_id for job_id in ids if queue._claim(job_id))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=claim_all, args=(queues[i % 4],))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(wins) == ids


class TestReap:
    def test_dead_worker_jobs_fail_and_its_file_is_removed(self, tmp_path):
        (tmp_path / "jobs").mkdir()
        write_record(tmp_path, status="running", started_unix=2.0)
        done = write_record(tmp_path, "job-w1-d0d0d0d0d0d0", status="done")
        other = write_record(tmp_path, "job-w0-0123456789ab", status="running")
        state = worker_state_path(str(tmp_path), 1)
        state.parent.mkdir()
        state.write_text("{}")
        supervisor = Supervisor(ServeConfig(workers=2))
        supervisor.fleet_dir = str(tmp_path)
        supervisor.reap(1, signal.SIGKILL)  # waitpid status of a SIGKILLed child

        record = read_record(tmp_path)
        assert record["status"] == "failed"
        assert "worker 1 died (signal 9)" in record["error"]
        assert record["finished_unix"] is not None
        assert read_record(tmp_path, done.job_id) == done.to_dict()
        assert read_record(tmp_path, other.job_id) == other.to_dict()
        assert not state.exists()
